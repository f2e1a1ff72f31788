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
for bit.

Every bulk draw hashes a block of up to ``_BLOCK`` values at once with
:func:`_mix_lanes`, the one copy of ``mix64`` that works on many values.
A block is one int: value t, a lane, sits in the low 64 bits of the
128-bit slot t, and the high 64 bits of every slot are 0. Each step of the
finalizer is then one big-int operation on the whole block. A lane cannot
carry into the next slot: a right shift moves a slot's low bits only into
the high half of the slot below, which the mask ``_ONES`` of every low
half clears before each multiply, and a lane times a 64-bit constant is
below 2**128, so its product stays inside its own slot. So does any
sum or product of blocks whose lanes stay below 2**128: its excess sits
in the high halves, which the kernel clears on entry, as ``mix64`` takes
its argument mod 2**64. For the same reason the box
``(m * l) >> 64`` of every lane is the high half of its slot of the block
times l, for any l <= 2**64. Draws are therefore equal bit for bit to the
scalar definition, whatever their block. Every bulk draw goes through it:
:func:`_first_draws` draws once from many folded states (the leaf rows of
:func:`subset_draws` and the top latents of ``hypergraphon``'s samplers),
:func:`_fold_lanes` and :func:`_draw_boxes` give the Monte-Carlo states
and their boxed coordinates, and :func:`_stream_draws` the consecutive
draws of one cylinder side.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain
from math import comb
from typing import Iterable, Iterator, Sequence

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


# -- the block kernel -------------------------------------------------------
#
# A block is one int whose 128-bit slot t holds a 64-bit lane in its low
# half; see the module docstring.

#: Lanes per :func:`_mix_lanes` call. A power of two, so that counters
#: base + t of a block whose base is a multiple of it are base ^ t.
_BLOCK = 1024
# array('Q') holds native-order words: the word of a slot that holds its low half.
_LOW = int(sys.byteorder == "big")


def _slot(c: int) -> bytes:
    """One slot, little-endian, whose lane holds ``c mod 2**64``."""
    return (c & MASK64).to_bytes(8, "little") + bytes(8)


def _spread(c: int, n: int) -> int:
    """The block of n lanes that each hold ``c mod 2**64``."""
    return int.from_bytes(_slot(c) * n, "little")


def _lanes(values: Iterable[int]) -> int:
    """The block whose lanes hold ``values``, each below 2**64, in order."""
    words = array("Q", values)
    slots = array("Q", bytes(16 * len(words)))
    slots[_LOW::2] = words
    return int.from_bytes(slots, sys.byteorder)


def _words(x: int, n: int, high: int = 0) -> array:
    """The low halves of the first n slots of ``x`` (their high halves if ``high`` is 1)."""
    return array("Q", x.to_bytes(16 * n, sys.byteorder))[_LOW ^ high :: 2]


#: MASK64 in every lane of a full block, 0 in every high half.
_ONES = _spread(MASK64, _BLOCK)
#: The full block whose lane t holds t.
_IOTA = _lanes(range(_BLOCK))


def _mask(n: int) -> int:
    """MASK64 in each of the first n lanes: ``x & _mask(n)`` keeps the first n lanes of x."""
    return _ONES >> 128 * (_BLOCK - n)


def _mix_lanes(x: int) -> int:
    """:func:`mix64` of every lane of ``x``, at most ``_BLOCK`` lanes, each taken mod 2**64."""
    x &= _ONES
    x = ((x ^ x >> 30) & _ONES) * _MIX1 & _ONES
    x = ((x ^ x >> 27) & _ONES) * _MIX2 & _ONES
    return (x ^ x >> 31) & _ONES


def _fold_lanes(h: int, base: int, n: int) -> int:
    """The block of ``fold(h, base + t)`` for t < n, with base a multiple of ``_BLOCK``.

    base + t is base ^ t, so lane t's input ``(h + gamma) ^ (base + t)`` is
    a lane of one spread value xored with lane t of ``_IOTA``.
    """
    return _mix_lanes((_IOTA & _mask(n)) ^ _spread((h + _GAMMA) ^ base, n))


def _draw_boxes(states: int, n: int, j: int, l: int) -> list[int]:
    """``(m * l) >> 64`` for m draw j of ``Stream(s)``, for each of the n lane states s of ``states``.

    Draw j is ``mix64(s + j * gamma)``; its box is the high half of the
    lane's slot in the block times l, since m * l < 2**128 for l <= 2**64.
    """
    x = _mix_lanes(states + _spread(j * _GAMMA, n))
    return _words(x * l, n, 1).tolist()


def _stream_draws(state: int, n: int) -> array:
    """The first n ``next_u64`` of ``Stream(state)``, by the counter identity, a block at a time."""
    out = array("Q")
    for a in range(0, n, _BLOCK):
        b = min(_BLOCK, n - a)
        # Lane t is draw a + 1 + t: state + (a + 1 + t) * gamma.
        x = _spread(state + (a + 1) * _GAMMA, b) + (_IOTA & _mask(b)) * _GAMMA
        out += _words(_mix_lanes(x), b)
    return out


def _first_draws(rows: Sequence[tuple]) -> array:
    """``Stream(fold(h, i)).next_u64()`` for each i of each row ``(h, indices, ...)``, in order.

    Every index is a lane: the rows are laid end to end and hashed by
    :func:`_mix_lanes` a block of ``_BLOCK`` lanes at a time, so a row may
    cross a block.
    """
    heads = b"".join([_slot(row[0] + _GAMMA) * len(row[1]) for row in rows])
    flat = array("Q", chain.from_iterable([row[1] for row in rows]))
    out = array("Q")
    for a in range(0, len(flat), _BLOCK):
        b = min(_BLOCK, len(flat) - a)
        x = int.from_bytes(heads[16 * a : 16 * (a + b)], "little") ^ _lanes(flat[a : a + b])
        out += _words(_mix_lanes(_mix_lanes(x) + _spread(_GAMMA, b)), b)
    return out


def _in_blocks(rows: Iterable[tuple]) -> Iterator[list[tuple]]:
    """``rows`` in runs of whole rows, each run ending once it holds ``_BLOCK`` lanes.

    Row[1] holds a row's lanes; the last run may hold fewer.
    """
    run: list[tuple] = []
    lanes = 0
    for row in rows:
        run.append(row)
        lanes += len(row[1])
        if lanes >= _BLOCK:
            yield run
            run, lanes = [], 0
    if run:
        yield run


def subset_draws(seed: int, label: str, n: int, r: int) -> array:
    """First u64 of ``stream(seed, label, r, *sub)`` for every r-subset of range(n).

    Subsets are visited in lexicographic order (that of
    ``itertools.combinations``), as the leaves of a prefix tree: the hash
    after ``(seed, label, r)`` is computed once and each inner node's
    partial hash is folded once and shared by all its extensions. The leaf
    rows are hashed by :func:`_first_draws`, a run of about ``_BLOCK``
    leaves at a time. The draws come back as one ``array('Q')`` of
    exactly C(n, r) items, 8 bytes each.
    """
    if r < 1:
        raise ValueError("subset size r must be at least 1")
    out = array("Q", [0]) * comb(n, r)
    _fill_subset_draws(out, 0, seed, label, n, r)
    return out


def _fill_subset_draws(out: array, start: int, seed: int, label: str, n: int, r: int) -> None:
    """Write ``subset_draws(seed, label, n, r)`` into ``out`` from index ``start``, a run at a time.

    ``out`` must already hold those C(n, r) items, so no write resizes it.
    """

    def walk(h: int, lo: int, depth: int) -> Iterator[tuple[int, range]]:
        if depth < r:
            # The last r - depth members need r - depth - 1 larger vertices.
            for i in range(lo, n - r + depth):
                yield from walk(fold(h, i), i + 1, depth + 1)
        else:
            yield h, range(lo, n)

    for run in _in_blocks(walk(fold(derive(seed, label), r), 0, 1)):
        draws = _first_draws(run)
        out[start : start + len(draws)] = draws
        start += len(draws)
    del walk  # its closure holds itself: unlinked, it is freed by reference count


def check_seed(seed: int) -> int:
    """Validate a user-supplied seed: a 64-bit value."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError("seed must be an integer")
    if not 0 <= seed <= MASK64:
        raise ValueError("seed must fit in 64 bits (0 <= seed < 2**64)")
    return seed
