"""Edge-removal experiments: destroy every copy of a pattern, cheaply.

The image sets of a pattern K in a host H form a small set cover /
hitting set instance: remove a set of host edges meeting every image and
no homomorphic copy of K survives. Greedy gives the usual ln-factor
guarantee; branch and bound certifies minimality on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import itemgetter

from .core import UniformHypergraph
from .homomorphism import HomImageSet, enumerate_hom_images, hom_count

Edge = tuple[int, ...]


# An encoded image is (popcount, bit indices, mask) over the sorted candidate
# edges, bit i standing for candidates[i]. Images are only ever filtered,
# never shrunk, so the branch key (popcount, indices) is fixed at encoding.
Encoded = tuple[int, tuple[int, ...], int]


def _encode(images) -> tuple[list[Edge], list[Encoded]]:
    """Sorted candidate edges, and the images as masks ordered by indices."""
    candidates = sorted({e for img in images for e in img})
    index = {e: i for i, e in enumerate(candidates)}
    encoded = []
    for img in images:
        bits = tuple(sorted(index[e] for e in img))
        mask = 0
        for i in bits:
            mask |= 1 << i
        encoded.append((len(bits), bits, mask))
    encoded.sort(key=itemgetter(1))
    return candidates, encoded


def _greedy(encoded: list[Encoded], n_candidates: int) -> list[int]:
    chosen: list[int] = []
    remaining = encoded
    while remaining:
        coverage = [0] * n_candidates
        for _, bits, _ in remaining:
            for i in bits:
                coverage[i] += 1
        # Most covered first; the first maximum is the smallest edge.
        best = coverage.index(max(coverage))
        chosen.append(best)
        bit = 1 << best
        remaining = [img for img in remaining if not img[2] & bit]
    return sorted(chosen)


def _greedy_edges(images) -> tuple[Edge, ...]:
    candidates, encoded = _encode(images)
    return tuple(candidates[i] for i in _greedy(encoded, len(candidates)))


def greedy_hitting_set(images: HomImageSet) -> tuple[Edge, ...]:
    """Max-coverage greedy hitting set over the enumerated image sets.

    Ties break toward the lexicographically smallest edge, so the result
    is deterministic. Refuses truncated enumerations: a hitting set for a
    partial list certifies nothing.
    """
    if images.truncated:
        raise ValueError("image enumeration was truncated; hitting it proves nothing")
    return _greedy_edges(images.images)


def _packing_bound(uncovered: list[Encoded]) -> int:
    # Edge-disjoint images each force a distinct removal.
    used = 0
    bound = 0
    for _, _, mask in uncovered:
        if not mask & used:
            bound += 1
            used |= mask
    return bound


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")


def exact_hitting_set(
    images: HomImageSet, budget: int = 24
) -> tuple[tuple[Edge, ...], bool]:
    """Minimum hitting set when the edge universe is small.

    Branch and bound seeded with the greedy solution, pruned by a
    disjoint-image packing lower bound. Images are bitmasks over the
    sorted candidate edges, decoded only in the answer. Instances whose
    candidate edge set exceeds `budget` fall back to greedy and report
    optimal=False; a negative budget is refused.
    """
    _check_budget(budget)
    if images.truncated:
        raise ValueError("image enumeration was truncated; hitting it proves nothing")
    candidates, encoded = _encode(images.images)
    best = _greedy(encoded, len(candidates))
    if len(candidates) > budget:
        return tuple(candidates[i] for i in best), False

    def search(uncovered: list[Encoded], chosen: list[int]) -> None:
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best):
                best = sorted(chosen)
            return
        if len(chosen) + _packing_bound(uncovered) >= len(best):
            return
        _, branch, _ = min(uncovered)
        for i in branch:
            bit = 1 << i
            chosen.append(i)
            search([img for img in uncovered if not img[2] & bit], chosen)
            chosen.pop()

    search(encoded, [])
    return tuple(candidates[i] for i in best), True


@dataclass(frozen=True)
class RemovalResult:
    """What it cost to make the host pattern-free, and proof it worked."""

    removed: tuple[Edge, ...]
    removed_fraction: Fraction
    residual: Fraction
    method: str
    optimal: bool
    verified: bool
    n_images: int
    truncated: bool

    @property
    def residual_zero(self) -> bool:
        return self.residual == 0


def removal_experiment(
    pattern: UniformHypergraph,
    host: UniformHypergraph,
    mode: str = "exact",
    cap: int = 10**6,
    exact_budget: int = 24,
) -> RemovalResult:
    """Enumerate images, hit them, and re-count on the stripped host.

    The residual homomorphism density is recomputed from scratch on
    H minus the removed edges; `verified` demands both an untruncated
    enumeration and residual exactly zero.
    """
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown mode {mode!r}: expected 'exact' or 'greedy'")
    _check_budget(exact_budget)
    images = enumerate_hom_images(pattern, host, cap=cap)
    if mode == "exact" and not images.truncated:
        removed, optimal = exact_hitting_set(images, budget=exact_budget)
        method = "exact" if optimal else "greedy"
    else:
        removed = _greedy_edges(images.images)
        optimal = not images.images and not images.truncated
        method = "greedy"

    stripped = host.without_edges(removed)
    residual_count = hom_count(pattern, stripped)
    if residual_count.domain_size == 0:
        residual = Fraction(0)
    else:
        residual = residual_count.density()
    total_slots = comb(host.n_vertices, host.k)
    fraction = Fraction(len(removed), total_slots) if total_slots else Fraction(0)
    return RemovalResult(
        removed=removed,
        removed_fraction=fraction,
        residual=residual,
        method=method,
        optimal=optimal,
        verified=(not images.truncated) and residual == 0,
        n_images=len(images.images),
        truncated=images.truncated,
    )
