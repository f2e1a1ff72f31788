"""Counter-based seeded randomness with labeled substreams.

Everything random in this package flows through SplitMix64. Substreams are
derived by hashing ``(seed, label, *indices)`` through the SplitMix64
finalizer, so the value drawn for a given index never depends on the order
in which indices are visited. Draws are 64-bit fractions: an integer
``m`` in ``[0, 2**64)`` standing for the real ``m / 2**64``. Box and label
arithmetic stays in integers (``(m * l) >> 64``) so boundary decisions are
exact.

``Stream`` is counter-based: the j-th ``next_u64`` of ``Stream(S)``
(j = 1, 2, ...) is ``mix64((S + j * gamma) mod 2**64)``, with gamma the
golden-gamma increment, so any draw of a stream can be computed on its own
without the ones before it.

``derive`` and ``stream`` are the definition of every draw. ``derive``
folds its indices left to right, so streams whose index tuples share a
prefix share the partial hash after it. The per-subset draws (labels
``latent`` and ``hyperpartition``), the cylinder sides (``cylinder-density``
and ``cylinder-side``) and the Monte-Carlo samples (``mc``) are computed
by folding onto that shared prefix, and the side and Monte-Carlo draws by
the counter identity above; the results equal ``derive``/``stream`` bit
for bit. :func:`_first_draws` folds an index onto a state and draws once,
for the leaf rows of :func:`subset_draws` and the top latents of both
``hypergraphon`` samplers. ``hypergraphon.mc_density`` and
``regularity.sampled_cylinder_family`` keep their draws inlined, for time.
"""

from __future__ import annotations

from array import array
from typing import Iterable

MASK64 = 0xFFFF_FFFF_FFFF_FFFF
# SplitMix64 golden-gamma increment and finalizer constants.
_GAMMA = 0x9E37_79B9_7F4B_7C15
_MIX1 = 0xBF58_476D_1CE4_E5B9
_MIX2 = 0x94D0_49BB_1331_11EB

_FNV_OFFSET = 0xCBF2_9CE4_8422_2325
_FNV_PRIME = 0x0000_0100_0000_01B3


def mix64(x: int) -> int:
    """SplitMix64 output finalizer: a bijective 64-bit scrambler."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & MASK64
    return h


def derive(seed: int, label: str, *indices: int) -> int:
    """Derive a 64-bit stream state from (seed, label, indices).

    The label strings used across the package are fixed and documented in
    the README; two distinct (label, indices) tuples yield statistically
    independent streams.
    """
    h = mix64((seed + _GAMMA) & MASK64)
    h = mix64(h ^ _fnv1a(label.encode("utf-8")))
    for i in indices:
        h = mix64((h + _GAMMA) ^ (i & MASK64))
    return h


class Stream:
    """Sequential SplitMix64 generator over a derived state."""

    __slots__ = ("_state",)

    def __init__(self, state: int):
        self._state = state & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        return mix64(self._state)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) via fixed-point multiply.

        Bias is below n/2**64, which is irrelevant at desk scale and keeps
        the draw a pure function of a single u64.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        return (self.next_u64() * n) >> 64


def stream(seed: int, label: str, *indices: int) -> Stream:
    return Stream(derive(seed, label, *indices))


def fold(state: int, index: int) -> int:
    """One index step of :func:`derive`.

    ``derive(seed, label, *indices, i) == fold(derive(seed, label, *indices), i)``.
    """
    return mix64((state + _GAMMA) ^ (index & MASK64))


def _first_draws(h: int, indices: Iterable[int]) -> list[int]:
    """``Stream(fold(h, i)).next_u64()`` for each i of ``indices``: two ``mix64``, inlined."""
    h += _GAMMA
    out: list[int] = []
    append = out.append
    for i in indices:
        x = (h ^ i) & MASK64
        x = ((x ^ (x >> 30)) * _MIX1) & MASK64
        x = ((x ^ (x >> 27)) * _MIX2) & MASK64
        x = ((x ^ (x >> 31)) + _GAMMA) & MASK64
        x = ((x ^ (x >> 30)) * _MIX1) & MASK64
        x = ((x ^ (x >> 27)) * _MIX2) & MASK64
        append(x ^ (x >> 31))
    return out


def subset_draws(seed: int, label: str, n: int, r: int) -> array:
    """First u64 of ``stream(seed, label, r, *sub)`` for every r-subset of range(n).

    Subsets are visited in lexicographic order (that of
    ``itertools.combinations``), as the leaves of a prefix tree: the hash
    after ``(seed, label, r)`` is computed once and each inner node's
    partial hash is folded once and shared by all its extensions. Each leaf
    row is one call of :func:`_first_draws`. The draws come back as one
    ``array('Q')``, 8 bytes each, filled a leaf row at a time.
    """
    if r < 1:
        raise ValueError("subset size r must be at least 1")
    out = array("Q")

    def walk(h: int, lo: int, depth: int) -> None:
        if depth < r:
            # The last r - depth members need r - depth - 1 larger vertices.
            for i in range(lo, n - r + depth):
                walk(fold(h, i), i + 1, depth + 1)
            return
        out.fromlist(_first_draws(h, range(lo, n)))

    walk(fold(derive(seed, label), r), 0, 1)
    del walk  # its closure holds itself and out: unlinked, out is freed with its last reference
    return out


def check_seed(seed: int) -> int:
    """Validate a user-supplied seed: a 64-bit value."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError("seed must be an integer")
    if not 0 <= seed <= MASK64:
        raise ValueError("seed must fit in 64 bits (0 <= seed < 2**64)")
    return seed
