"""Homomorphism counting and densities for k-uniform hypergraphs.

A map f: V(K) -> V(H) is a homomorphism iff the image of every K-edge is
an H-edge (k distinct vertices required, since H is simple). Densities
normalize by |V(H)|**|V(K)|, i.e. over all maps including non-injective
ones; no large-n correction is applied anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core import BudgetError, UniformHypergraph, check_count


class HomCount(NamedTuple):
    """An exact homomorphism count together with its map-space size."""

    count: int
    domain_size: int

    def density(self) -> Fraction:
        """count / domain_size, exactly; refused when the map space is empty."""
        if self.domain_size == 0:
            raise ValueError("density undefined: empty map space (host has no vertices)")
        return Fraction(self.count, self.domain_size)


class HomImageSet(NamedTuple):
    """Distinct edge-image sets {f(E(K))} over all homomorphisms K -> H."""

    images: frozenset[frozenset[tuple[int, ...]]]


def _check_arity(pattern: UniformHypergraph, host: UniformHypergraph) -> None:
    if pattern.k != host.k:
        raise ValueError(f"arity mismatch: pattern k={pattern.k}, host k={host.k}")


def _covered_order(pattern: UniformHypergraph) -> list[int]:
    # Vertices that lie in some edge, in descending (degree, id) order.
    deg = [0] * pattern.n_vertices
    for e in pattern.edges:
        for v in e:
            deg[v] += 1
    covered = [v for v in range(pattern.n_vertices) if deg[v]]
    return sorted(covered, key=lambda v: (deg[v], v), reverse=True)


def _mask_plan(pattern: UniformHypergraph, order: list[int], links, full: int):
    """Starting candidate masks per position, and what placing each one fixes.

    A K-edge constrains the position j of its last-placed vertex to the
    host link mask of its other vertices' images. That mask is known once
    the latest of those others is placed, at some position i < j, so it is
    ANDed into j's candidates there: ``updates[i]`` lists the pairs
    (j, others). Arity-1 edges have no others and narrow j from the start.
    Unconstrained positions start from ``full``. A repeated vertex among
    the others' images is no key of ``links``, so it reads as the empty
    mask.
    """
    pos = {v: i for i, v in enumerate(order)}
    masks = [full] * len(order)
    updates: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in order]
    for e in pattern.edges:
        last = max(e, key=pos.__getitem__)
        others = tuple(v for v in e if v != last)
        if others:
            updates[max(pos[v] for v in others)].append((pos[last], others))
        else:
            masks[pos[last]] &= links.get((), 0)
    return masks, updates


def _last_masks(
    pattern: UniformHypergraph, host: UniformHypergraph, order: list[int], assignment: list[int]
):
    """The last position's candidate mask, once per placement of the others.

    Backtracks over every position of ``order`` but the last. Each
    position's candidates are a bitmask over host vertices: the AND of the
    host link masks of the pattern edges it completes, carried down as
    soon as each link is known. Candidates are taken lowest bit first.
    While a mask is yielded, ``assignment`` holds the image of every
    earlier position. With one position there is nothing to place, and
    its starting mask is yielded once.
    """
    links = host.links
    masks, updates = _mask_plan(pattern, order, links, (1 << host.n_vertices) - 1)
    last = len(order) - 1
    if not last:
        yield masks[0]
        return
    # level[i]: the candidate masks in force at position i; cands[i]: the
    # candidates of position i not yet tried. Every update planned at
    # position last - 1 narrows the last position, so there each placement
    # ANDs its links into one copy of the last mask, and the list is not
    # copied.
    level = [masks] + [None] * last
    cands = [masks[0]] + [0] * last
    i = 0
    while i >= 0:
        cand, v, fixed, masks = cands[i], order[i], updates[i], level[i]
        if i + 1 == last:
            while cand:
                low = cand & -cand
                cand ^= low
                assignment[v] = low.bit_length() - 1
                m = masks[last]
                for _, others in fixed:
                    m &= links.get(tuple(sorted([assignment[u] for u in others])), 0)
                yield m
            i -= 1
        elif cand:
            low = cand & -cand
            cands[i] = cand ^ low
            assignment[v] = low.bit_length() - 1
            nxt = masks.copy()
            for j, others in fixed:
                nxt[j] &= links.get(tuple(sorted([assignment[u] for u in others])), 0)
            i += 1
            level[i] = nxt
            cands[i] = nxt[i]
        else:
            i -= 1


def hom_count(pattern: UniformHypergraph, host: UniformHypergraph) -> HomCount:
    """Exact number of homomorphisms pattern -> host (arbitrary precision).

    Walks the covered pattern vertices in descending (degree, id) order
    (see ``_last_masks``); the last position is a popcount. Vertices
    outside every edge contribute a factor of |V(H)| each.
    """
    _check_arity(pattern, host)
    n_pat, n_host = pattern.n_vertices, host.n_vertices
    domain = n_host**n_pat
    order = _covered_order(pattern)
    if not order:
        return HomCount(domain, domain)
    assignment = [-1] * n_pat
    count = sum(map(int.bit_count, _last_masks(pattern, host, order, assignment)))
    return HomCount(count * n_host ** (n_pat - len(order)), domain)


def hom_density(pattern: UniformHypergraph, host: UniformHypergraph) -> Fraction:
    """t(K, H) = hom(K, H) / |V(H)|**|V(K)| as an exact rational."""
    return hom_count(pattern, host).density()


def enumerate_hom_images(
    pattern: UniformHypergraph,
    host: UniformHypergraph,
    cap: int = 10**6,
) -> HomImageSet:
    """Distinct sets {f(E) : E in E(K)} over homomorphisms f: K -> H.

    Only vertices covered by pattern edges are enumerated: isolated
    vertices never change an image set, and (host being nonempty) never
    change whether a homomorphism exists. The walk is hom_count's, with
    each candidate of the last position taken lowest bit first. The result
    is empty iff no homomorphism exists. ``cap`` is a budget: finding
    distinct image number cap + 1 stops the walk with BudgetError, since a
    partial list shows nothing about the images left out.
    """
    _check_arity(pattern, host)
    if not pattern.edges:
        raise ValueError("pattern must have at least one edge")
    check_count("cap", cap)
    order = _covered_order(pattern)
    v = order[-1]
    assignment = [-1] * pattern.n_vertices
    images: set[frozenset[tuple[int, ...]]] = set()
    for cand in _last_masks(pattern, host, order, assignment):
        while cand:
            low = cand & -cand
            cand ^= low
            assignment[v] = low.bit_length() - 1
            image = frozenset(tuple(sorted(assignment[u] for u in e)) for e in pattern.edges)
            if image not in images:
                if len(images) >= cap:
                    raise BudgetError(f"more than {cap} distinct images, cap is {cap}")
                images.add(image)
    return HomImageSet(frozenset(images))
