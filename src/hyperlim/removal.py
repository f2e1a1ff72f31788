"""Edge-removal experiments: destroy every copy of a pattern, cheaply.

The image sets of a pattern K in a host H form a small set cover /
hitting set instance: remove a set of host edges meeting every image and
no homomorphic copy of K survives. Greedy gives the usual ln-factor
guarantee; branch and bound certifies minimality on small instances.
Only a complete image list can show that every copy is hit, so an
enumeration past its cap is refused with BudgetError, before any
hitting set or recount.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .core import UniformHypergraph, check_count
from .homomorphism import HomImageSet, enumerate_hom_images, hom_count

Edge = tuple[int, ...]


class _Family(NamedTuple):
    """An image family on bitsets, in the order the search branches.

    Bit i of an edge mask stands for candidates[i], and bit j of an image
    mask for images[j]. Images are sorted by (size, edge indices), so the
    lowest uncovered image is the one with the fewest edges, then the
    lexicographically smallest.
    """

    candidates: list[Edge]
    images: list[int]  # per image, the mask of its edges
    hits: list[int]  # per candidate edge, the mask of the images containing it


def _encode(images) -> _Family:
    candidates = sorted({e for img in images for e in img})
    index = {e: i for i, e in enumerate(candidates)}
    keyed = sorted(
        (tuple(sorted(index[e] for e in img)) for img in images),
        key=lambda bits: (len(bits), bits),
    )
    masks = []
    hits = [0] * len(candidates)
    for j, bits in enumerate(keyed):
        mask = 0
        for i in bits:
            mask |= 1 << i
            hits[i] |= 1 << j
        masks.append(mask)
    return _Family(candidates, masks, hits)


def _bits(mask: int):
    """Indices of the set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _decode(family: _Family, chosen: int) -> tuple[Edge, ...]:
    return tuple(family.candidates[i] for i in _bits(chosen))


def _greedy(family: _Family) -> int:
    """Max-coverage greedy cover, as a mask over the candidate edges."""
    images, hits = family.images, family.hits
    coverage = [h.bit_count() for h in hits]
    remaining = (1 << len(images)) - 1
    chosen = 0
    while remaining:
        # Most covered first; the first maximum is the smallest edge.
        best = coverage.index(max(coverage))
        chosen |= 1 << best
        for j in _bits(remaining & hits[best]):
            for i in _bits(images[j]):
                coverage[i] -= 1
        remaining &= ~hits[best]
    return chosen


def _branch_and_bound(family: _Family) -> tuple[int, int]:
    """Minimum hitting set as an edge mask, and the number of search nodes.

    A node is (uncovered images, chosen edges, excluded edges). It branches
    on the lowest uncovered image, one child per non-excluded edge in bit
    order, and each child excludes the edges of the siblings before it, so
    a node whose lowest uncovered image has no free edge left has no
    children. A node is pruned when a greedy packing of pairwise
    edge-disjoint uncovered images, each needing its own edge, shows that
    it cannot beat the incumbent, which starts as the greedy cover.
    """
    images, hits = family.images, family.hits
    meets = [0] * len(images)
    for j, mask in enumerate(images):
        for i in _bits(mask):
            meets[j] |= hits[i]
    best = _greedy(family)
    best_size = best.bit_count()
    nodes = 0
    stack = [((1 << len(images)) - 1, 0, 0)]
    while stack:
        uncovered, chosen, excluded = stack.pop()
        nodes += 1
        size = chosen.bit_count()
        if not uncovered:
            if size < best_size:
                best, best_size = chosen, size
            continue
        room = best_size - size
        packed, rest = 0, uncovered
        while rest and packed < room:
            rest &= ~meets[(rest & -rest).bit_length() - 1]
            packed += 1
        if packed >= room:
            continue
        children = []
        for i in _bits(images[(uncovered & -uncovered).bit_length() - 1] & ~excluded):
            children.append((uncovered & ~hits[i], chosen | 1 << i, excluded))
            excluded |= 1 << i
        stack.extend(reversed(children))
    return best, nodes


def exact_hitting_set(
    images: HomImageSet, budget: int = 24
) -> tuple[tuple[Edge, ...], bool]:
    """Hitting set of the images, and whether it is certified minimum.

    Instances whose candidate edge set exceeds `budget` take the
    max-coverage greedy cover and report optimal=False, so `budget=0`
    takes it for any nonempty family. Greedy ties break toward the
    lexicographically smallest edge, so the result is deterministic.
    Within the budget, branch and bound over image bitsets, seeded with
    the greedy cover, pruned by a disjoint-image packing bound and by
    sibling exclusion, and run on its own stack, so a deep search needs no
    recursion. Ties break as in a plain depth-first search in the same
    branch order: the answer is the greedy cover if that is minimum, else
    the first minimum-size leaf in that order. A valid lower bound never
    prunes the path to that leaf before it is found, and the leaf holds no
    excluded sibling edge, since the subtree of that earlier sibling would
    hold a minimum leaf that comes first. A budget that is not an int of
    at least 0 is refused.
    """
    check_count("budget", budget, 0)
    family = _encode(images.images)
    if len(family.candidates) > budget:
        return _decode(family, _greedy(family)), False
    best, _ = _branch_and_bound(family)
    return _decode(family, best), True


class RemovalResult(NamedTuple):
    """What it cost to make the host pattern-free, and proof it worked."""

    removed: tuple[Edge, ...]
    removed_fraction: Fraction
    residual: Fraction
    method: str
    optimal: bool
    verified: bool
    n_images: int


def removal_experiment(
    pattern: UniformHypergraph,
    host: UniformHypergraph,
    cap: int = 10**6,
    exact_budget: int = 24,
) -> RemovalResult:
    """Enumerate images, hit them, and re-count on the stripped host.

    More than `cap` distinct images raise BudgetError before any hitting
    set is built. The hitting set is :func:`exact_hitting_set`'s with
    budget `exact_budget`. The residual homomorphism density is
    recomputed from scratch on H minus the removed edges; `verified`
    means it is exactly zero.
    """
    check_count("budget", exact_budget, 0)
    images = enumerate_hom_images(pattern, host, cap=cap)
    removed, optimal = exact_hitting_set(images, budget=exact_budget)
    method = "exact" if optimal else "greedy"

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
        verified=residual == 0,
        n_images=len(images.images),
    )
