"""Independent oracles and helpers that the library itself does not need.

Each oracle enumerates its whole search space directly and shares no
code path with the function it checks.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, sqrt

from hyperlim import (
    HomCount,
    IndependenceResult,
    UniformHypergraph,
    cell_profile,
    random_hyperpartition,
    simplicial_support,
    subset_indexing,
)
from hyperlim.rng import derive, stream


def hom_count_brute(pattern: UniformHypergraph, host: UniformHypergraph) -> HomCount:
    """Enumerate all |V(H)|**|V(K)| maps; a map is a homomorphism iff every
    edge's image has k distinct vertices forming a host edge."""
    if pattern.k != host.k:
        raise ValueError(f"arity mismatch: pattern k={pattern.k}, host k={host.k}")
    if pattern.n_vertices == 0:
        return HomCount(1, 1)
    edge_set = host.edge_set
    count = total = 0
    for f in product(range(host.n_vertices), repeat=pattern.n_vertices):
        total += 1
        images = [tuple(sorted(f[v] for v in e)) for e in pattern.edges]
        if all(len(set(t)) == len(t) and t in edge_set for t in images):
            count += 1
    return HomCount(count, total)


def disjoint_union(a: UniformHypergraph, b: UniformHypergraph) -> UniformHypergraph:
    """Place ``b`` beside ``a`` on fresh vertices; edge sets concatenate."""
    if a.k != b.k:
        raise ValueError(f"arity mismatch: {a.k} vs {b.k}")
    off = a.n_vertices
    shifted = [tuple(v + off for v in e) for e in b.edges]
    return UniformHypergraph(a.k, a.n_vertices + b.n_vertices, list(a.edges) + shifted)


def induce_cells(partition) -> dict:
    """Profile of every k-subset of the partition's vertex set."""
    return {
        sub: cell_profile(partition, sub)
        for sub in combinations(range(partition.n_vertices), partition.k)
    }


def _edge_boxes(pattern: UniformHypergraph):
    # Per edge: the support index of each of its subset coordinates, in grid order.
    support = simplicial_support(pattern)
    where = {s: i for i, s in enumerate(support)}
    subsets = subset_indexing(pattern.k).subsets
    boxes = [[where[tuple(e[i] for i in pos)] for pos in subsets] for e in pattern.edges]
    return len(support), boxes


def _term(assign, boxes, w) -> Fraction:
    term = Fraction(1)
    for cmap in boxes:
        term *= Fraction(w.eval_box([assign[i] for i in cmap]))
        if not term:
            break
    return term


def flat_density(pattern: UniformHypergraph, w) -> Fraction:
    """t(K, W) as one exact sum over all l**s boxes of the support coordinates."""
    s, boxes = _edge_boxes(pattern)
    l = w.resolution
    return sum((_term(a, boxes, w) for a in product(range(l), repeat=s)), Fraction(0)) / l**s


def nested_density(pattern: UniformHypergraph, w, groups) -> Fraction:
    """t(K, W) as an iterated exact mean, one nesting level per coordinate
    group (innermost last); ``groups`` partitions the support indices."""
    s, boxes = _edge_boxes(pattern)
    if sorted(i for g in groups for i in g) != list(range(s)):
        raise ValueError("groups must partition the support indices")
    l = w.resolution
    assign = [0] * s

    def layer(gi: int) -> Fraction:
        if gi == len(groups):
            return _term(assign, boxes, w)
        total = Fraction(0)
        for combo in product(range(l), repeat=len(groups[gi])):
            for i, b in zip(groups[gi], combo):
                assign[i] = b
            total += layer(gi + 1)
        return total / l ** len(groups[gi])

    return layer(0)


def independence_brute(k: int, n: int, l: int, seed: int, trials: int) -> IndependenceResult:
    """The independence statistic over every ordered k-tuple of distinct vertices.

    Draws the same partitions and target classes as ``independence_test``,
    then labels each tuple's projection onto every position subset A_i
    from a subset-to-label dict and counts the tuples that hit target i,
    and those that hit every target at once.
    """
    subsets = subset_indexing(k).subsets
    p0 = float(l) ** -len(subsets)
    bound = 4.0 * sqrt(p0 * (1.0 - p0) / comb(n, k))
    discrepancies = []
    for t in range(trials):
        partition = random_hyperpartition(k, n, l, derive(seed, "independence-partition", t))
        labels = {
            sub: label
            for r, level in enumerate(partition.levels, start=1)
            for sub, label in zip(combinations(range(n), r), level)
        }
        targets = [stream(seed, "independence-class", t, i).next_below(l) for i in range(len(subsets))]
        n_tuples = inter = 0
        singles = [0] * len(subsets)
        for tup in permutations(range(n), k):
            n_tuples += 1
            hits = [labels[tuple(sorted(tup[a] for a in pos))] == target
                    for pos, target in zip(subsets, targets)]
            singles = [c + hit for c, hit in zip(singles, hits)]
            inter += all(hits)
        product_mu = Fraction(1)
        for c in singles:
            product_mu *= Fraction(c, n_tuples)
        discrepancies.append(abs(float(Fraction(inter, n_tuples) - product_mu)))
    return IndependenceResult(max(discrepancies), bound, trials, seed, tuple(discrepancies))
