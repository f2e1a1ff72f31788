"""Homomorphism counting and densities for k-uniform hypergraphs.

A map f: V(K) -> V(H) is a homomorphism iff the image of every K-edge is
an H-edge (k distinct vertices required, since H is simple). Densities
normalize by |V(H)|**|V(K)|, i.e. over all maps including non-injective
ones; no large-n correction is applied anywhere.

Counting and image enumeration share one backtracking walk over the
pattern's covered vertices (``_walk``). Each call first copies the host's
links into a table keyed by vertex (``_link_table``), so that a placement
reads each link it completes by walking the table along the images of the
link's vertices in placement order, and no link key is built or sorted.
Counting never places the last two positions: per placement of the rest
it sums, over the candidates of the one before last, the popcount of the
last position's candidates narrowed by their links (``_pair_count``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import compress, count, permutations, repeat, starmap
from operator import and_
from types import MappingProxyType
from typing import NamedTuple

from .core import BudgetError, UniformHypergraph, check_count


#: Reads a link key that no ordering in the link table holds.
_NO_LINKS = MappingProxyType({})
#: Turns the digits of ``bin`` into 0 and 1 bytes, selectors for ``compress``.
_BITS = bytes.maketrans(b"01", b"\0\1")


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


def _mask_plan(pattern: UniformHypergraph, order: list[int], host: UniformHypergraph):
    """Starting candidate masks per position, and what placing each one fixes.

    A K-edge constrains the position j of its last-placed vertex to the
    host link of its other vertices' images. That link is known once the
    latest of those others is placed, at some position i < j, so it is
    ANDed into j's candidates there: ``updates[i]`` lists the pairs
    (j, prefix), where prefix holds the edge's vertices placed before i,
    in placement order; ``_node`` reads the table below their images. Arity-1
    edges have no others and narrow j from the start. Unconstrained
    positions start from every host vertex.
    """
    pos = {v: i for i, v in enumerate(order)}
    masks = [(1 << host.n_vertices) - 1] * len(order)
    updates: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in order]
    for e in pattern.edges:
        *others, last = sorted(e, key=pos.__getitem__)
        if others:
            *prefix, latest = others
            updates[pos[latest]].append((pos[last], tuple(prefix)))
        else:
            masks[pos[last]] &= host.links.get((), 0)
    return masks, updates


def _link_table(host: UniformHypergraph) -> list:
    """The host's links keyed by vertex, one level per vertex of a link key.

    Entry a of the list, then key b of the dict below it, and so on down
    k - 1 levels, holds the mask of link key {a, b, ...}; every ordering
    of each key is stored, (k-1)! in all. At k = 2 it is the list of
    neighbour masks. A key that repeats a vertex is in no ordering, so it
    reads as missing, that is as the empty mask.
    """
    links = host.links
    if host.k == 2:
        table = [0] * host.n_vertices
        for (a,), mask in links.items():
            table[a] = mask
        return table
    table = [{} for _ in range(host.n_vertices)]
    for key, mask in links.items():
        for first, *middle, end in permutations(key):
            node = table[first]
            for a in middle:
                child = node.get(a)
                if child is None:
                    child = node[a] = {}
                node = child
            node[end] = mask
    return table


def _node(table: list, prefix: tuple[int, ...], assignment: list[int]):
    # The table below the images of prefix, read in placement order: the
    # list itself for an empty prefix, else a dict keyed by the next vertex.
    if not prefix:
        return table
    node = table[assignment[prefix[0]]]
    for u in prefix[1:]:
        node = node.get(assignment[u], _NO_LINKS)
    return node


def _column(node, verts: list[int]):
    """The link mask that ``node`` holds at each vertex of ``verts``, 0 where none."""
    if type(node) is list:
        return map(node.__getitem__, verts)
    return map(node.get, verts, repeat(0))


def _members(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first."""
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_BITS)))


def _placements(cands: int, nodes: list):
    """Each candidate vertex, lowest first, with the link mask read at it per node."""
    verts = _members(cands)
    if not nodes:
        return zip(verts, repeat(()))
    return zip(verts, zip(*[_column(node, verts) for node in nodes]))


def _walk(pattern: UniformHypergraph, host: UniformHypergraph, order: list[int], assignment: list[int]):
    """Once per placement of all positions but the last two, what is left of them.

    Backtracks over positions 0..len(order) - 3. Each position's
    candidates are a bitmask over host vertices: the AND of the host links
    of the pattern edges it completes, carried down as soon as each link
    is known. Candidates are taken lowest bit first. Yields the candidate
    masks of the last two positions and the table nodes of the edges that
    join them (see ``_node``): the last position's mask, given vertex a at
    the one before it, is its yielded mask ANDed with each node's link at
    a. While a triple is yielded, ``assignment`` holds the image of every
    earlier position. The link table is built when the walk starts, for
    this walk alone, and not at all if no edge has two vertices.
    """
    masks, updates = _mask_plan(pattern, order, host)
    table = _link_table(host) if any(updates) else None
    targets = [[j for j, _ in fixed] for fixed in updates]
    prefixes = [[p for _, p in fixed] for fixed in updates]
    top = len(order) - 2
    if not top:
        yield masks[0], masks[1], [_node(table, p, assignment) for p in prefixes[0]]
        return
    # level[i]: the candidate masks in force at position i; steps[i]: the
    # placements of position i not yet tried, each with the links it reads.
    level = [masks] + [None] * (top - 1)
    steps = [_placements(masks[0], [_node(table, p, assignment) for p in prefixes[0]])] + [None] * (top - 1)
    i = 0
    while i >= 0:
        step = next(steps[i], None)
        if step is None:
            i -= 1
            continue
        assignment[order[i]], found = step
        nxt = level[i].copy()
        for j, mask in zip(targets[i], found):
            nxt[j] &= mask
        if i + 1 == top:
            yield nxt[top], nxt[-1], [_node(table, p, assignment) for p in prefixes[top]]
        else:
            i += 1
            level[i] = nxt
            steps[i] = _placements(nxt[i], [_node(table, p, assignment) for p in prefixes[i]])


def _pair_count(cands: int, last: int, nodes: list) -> int:
    # Maps of the last two positions: sum over each candidate a of the
    # popcount of the last mask ANDed with the links at a; with no edge
    # joining the two, the product of their popcounts.
    if not nodes:
        return cands.bit_count() * last.bit_count()
    verts = _members(cands)
    col = _column(nodes[0], verts)
    for node in nodes[1:]:
        col = map(and_, col, _column(node, verts))
    return sum(map(int.bit_count, map(last.__and__, col)))


def hom_count(pattern: UniformHypergraph, host: UniformHypergraph) -> HomCount:
    """Exact number of homomorphisms pattern -> host (arbitrary precision).

    Walks the covered pattern vertices in descending (degree, id) order
    (see ``_walk``) and counts the last two positions of each placement
    in closed form. Vertices outside every edge contribute a factor of
    |V(H)| each.
    """
    _check_arity(pattern, host)
    n_pat, n_host = pattern.n_vertices, host.n_vertices
    domain = n_host**n_pat
    order = _covered_order(pattern)
    if not order:
        return HomCount(domain, domain)
    if len(order) == 1:
        count = _mask_plan(pattern, order, host)[0][0].bit_count()
    else:
        assignment = [-1] * n_pat
        count = sum(starmap(_pair_count, _walk(pattern, host, order, assignment)))
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
    each candidate of the last two positions taken lowest bit first. The result
    is empty iff no homomorphism exists. ``cap`` is a budget: finding
    distinct image number cap + 1 stops the walk with BudgetError, since a
    partial list shows nothing about the images left out.
    """
    _check_arity(pattern, host)
    if not pattern.edges:
        raise ValueError("pattern must have at least one edge")
    check_count("cap", cap)
    order = _covered_order(pattern)
    assignment = [-1] * pattern.n_vertices
    images: set[frozenset[tuple[int, ...]]] = set()

    def add(v: int, cands: int) -> None:
        for assignment[v] in _members(cands):
            image = frozenset(tuple(sorted(assignment[u] for u in e)) for e in pattern.edges)
            if image not in images:
                if len(images) >= cap:
                    raise BudgetError(f"more than {cap} distinct images, cap is {cap}")
                images.add(image)

    if len(order) == 1:
        add(order[0], _mask_plan(pattern, order, host)[0][0])
        return HomImageSet(frozenset(images))
    u, v = order[-2:]
    for cands, last, nodes in _walk(pattern, host, order, assignment):
        for assignment[u], found in _placements(cands, nodes):
            add(v, reduce(and_, found, last))
    return HomImageSet(frozenset(images))
