"""Homomorphism counting and densities for k-uniform hypergraphs.

A map f: V(K) -> V(H) is a homomorphism iff the image of every K-edge is
an H-edge (k distinct vertices required, since H is simple). Densities
normalize by |V(H)|**|V(K)|, i.e. over all maps including non-injective
ones; no large-n correction is applied anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .core import UniformHypergraph, symmetric_membership


@dataclass(frozen=True)
class HomCount:
    """An exact homomorphism count together with its map-space size."""

    count: int
    domain_size: int

    def density(self) -> Fraction:
        if self.domain_size == 0:
            raise ValueError("density undefined: empty map space (host has no vertices)")
        return Fraction(self.count, self.domain_size)


@dataclass(frozen=True)
class HomImageSet:
    """Distinct edge-image sets {f(E(K))} over all homomorphisms K -> H."""

    images: frozenset[frozenset[tuple[int, ...]]]
    truncated: bool


def _check_arity(pattern: UniformHypergraph, host: UniformHypergraph) -> None:
    if pattern.k != host.k:
        raise ValueError(f"arity mismatch: pattern k={pattern.k}, host k={host.k}")


def _assignment_order(pattern: UniformHypergraph) -> list[int]:
    # Descending (degree, id): high-degree vertices first, isolated last.
    deg = [0] * pattern.n_vertices
    for e in pattern.edges:
        for v in e:
            deg[v] += 1
    return sorted(range(pattern.n_vertices), key=lambda v: (deg[v], v), reverse=True)


def _link_table(host: UniformHypergraph) -> dict[tuple[int, ...], frozenset[int]]:
    # (k-1)-subset -> vertices completing it to an edge.
    links: dict[tuple[int, ...], set[int]] = {}
    for e in host.edges:
        for j in range(host.k):
            sub = e[:j] + e[j + 1 :]
            links.setdefault(sub, set()).add(e[j])
    return {s: frozenset(v) for s, v in links.items()}


def _pending_edges(pattern: UniformHypergraph, order: list[int]):
    """Per position: the K-edges whose last-assigned vertex sits there.

    Each entry is (others, ...) where `others` lists the edge's remaining
    vertices; their images plus the candidate image must form a host edge.
    A partial map dies as soon as any fully-assigned edge fails, which the
    link-set intersection below performs wholesale.
    """
    pos = {v: i for i, v in enumerate(order)}
    pending: list[list[tuple[int, ...]]] = [[] for _ in order]
    for e in pattern.edges:
        last = max(e, key=lambda v: pos[v])
        pending[pos[last]].append(tuple(v for v in e if v != last))
    return pending


def _candidates(others_list, assignment, links, n_host):
    """Intersection of host link sets for every edge completing here."""
    cand = None
    for others in others_list:
        img = sorted(assignment[v] for v in others)
        if len(set(img)) != len(img):
            return frozenset()
        link = links.get(tuple(img))
        if not link:
            return frozenset()
        cand = link if cand is None else cand & link
        if not cand:
            return frozenset()
    if cand is None:
        return range(n_host)  # no constraint at this position
    return cand


def hom_count(pattern: UniformHypergraph, host: UniformHypergraph) -> HomCount:
    """Exact number of homomorphisms pattern -> host (arbitrary precision).

    Backtracks over pattern vertices in descending (degree, id) order,
    restricting each image to the intersection of host link sets of the
    edges completed at that position. Vertices outside every edge come last
    in that order and contribute a factor of |V(H)| each.
    """
    _check_arity(pattern, host)
    n_pat, n_host = pattern.n_vertices, host.n_vertices
    if n_pat == 0:
        return HomCount(1, 1)
    domain = n_host**n_pat
    if n_host == 0:
        return HomCount(0, 0)
    order = _assignment_order(pattern)
    pending = _pending_edges(pattern, order)
    links = _link_table(host)
    covered = sum(1 for v in order if any(v in e for e in pattern.edges))
    if covered == 0:
        return HomCount(domain, domain)
    free_factor = n_host ** (n_pat - covered)
    assignment = [-1] * n_pat

    def count_from(i: int) -> int:
        cand = _candidates(pending[i], assignment, links, n_host)
        if i == covered - 1:
            return len(cand)
        total = 0
        v = order[i]
        for x in cand:
            assignment[v] = x
            total += count_from(i + 1)
        assignment[v] = -1
        return total

    return HomCount(count_from(0) * free_factor, domain)


def hom_count_brute(pattern: UniformHypergraph, host: UniformHypergraph) -> HomCount:
    """Reference oracle: enumerate all |V(H)|**|V(K)| maps directly.

    Kept deliberately independent of the backtracking path (membership via
    the symmetric tuple rule, no link tables) so the two can check each
    other.
    """
    _check_arity(pattern, host)
    n_pat, n_host = pattern.n_vertices, host.n_vertices
    if n_pat == 0:
        return HomCount(1, 1)
    count = 0
    total = 0
    for f in product(range(n_host), repeat=n_pat):
        total += 1
        if all(symmetric_membership(host, tuple(f[v] for v in e)) for e in pattern.edges):
            count += 1
    return HomCount(count, total if n_host > 0 else 0)


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
    change whether a homomorphism exists. The result is empty iff no
    homomorphism exists. Collecting more than ``cap`` distinct images
    stops the walk and sets the truncated flag.
    """
    _check_arity(pattern, host)
    if not pattern.edges:
        raise ValueError("pattern must have at least one edge")
    if cap < 1:
        raise ValueError("cap must be positive")
    if host.n_vertices == 0:
        return HomImageSet(frozenset(), False)

    order = [v for v in _assignment_order(pattern) if any(v in e for e in pattern.edges)]
    pending = _pending_edges(pattern, order)  # positions align: covered prefix
    pending = pending[: len(order)]
    links = _link_table(host)
    assignment = [-1] * pattern.n_vertices
    images: set[frozenset[tuple[int, ...]]] = set()
    truncated = False

    def walk(i: int) -> bool:
        nonlocal truncated
        cand = _candidates(pending[i], assignment, links, host.n_vertices)
        for x in sorted(cand):
            assignment[order[i]] = x
            if i == len(order) - 1:
                image = frozenset(
                    tuple(sorted(assignment[v] for v in e)) for e in pattern.edges
                )
                if image not in images:
                    if len(images) >= cap:
                        truncated = True
                        assignment[order[i]] = -1
                        return False
                    images.add(image)
            elif not walk(i + 1):
                assignment[order[i]] = -1
                return False
        assignment[order[i]] = -1
        return True

    walk(0)
    return HomImageSet(frozenset(images), truncated)


def disjoint_union(a: UniformHypergraph, b: UniformHypergraph) -> UniformHypergraph:
    """Place ``b`` beside ``a`` on fresh vertices; edge sets concatenate."""
    if a.k != b.k:
        raise ValueError(f"arity mismatch: {a.k} vs {b.k}")
    off = a.n_vertices
    shifted = [tuple(v + off for v in e) for e in b.edges]
    return UniformHypergraph(a.k, a.n_vertices + b.n_vertices, list(a.edges) + shifted)
