"""Exact homomorphism counting against the brute-force oracle."""

import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from hyperlim import (
    BudgetError,
    UniformHypergraph,
    complete_hypergraph,
    enumerate_hom_images,
    hom_count,
    hom_density,
)

from hyperlim.homomorphism import _covered_order, _link_table

from conftest import shared_pair_triples, single_triple, triangle
from oracles import disjoint_union, hom_count_brute


def random_hypergraph(rng: random.Random, k: int, n: int, p: float) -> UniformHypergraph:
    edges = [e for e in combinations(range(n), k) if rng.random() < p]
    return UniformHypergraph(k, n, edges)


def test_single_edge_into_triangle():
    k2 = UniformHypergraph(2, 2, [(0, 1)])
    result = hom_count(k2, triangle())
    assert result.count == 6
    assert result.domain_size == 9
    assert result.density() == Fraction(2, 3)


def test_single_triple_into_complete_k3_on_4():
    host = complete_hypergraph(3, 4)
    result = hom_count(single_triple(), host)
    assert result.count == 24  # injective maps only: 4*3*2
    assert result.density() == Fraction(3, 8)


def test_edgeless_pattern_density_is_one():
    pattern = UniformHypergraph(2, 3, [])
    host = UniformHypergraph(2, 5, [(0, 1)])
    assert hom_density(pattern, host) == 1
    assert hom_count(pattern, host).count == 5**3


def test_empty_pattern_and_empty_host():
    empty_pattern = UniformHypergraph(2, 0, [])
    host = triangle()
    assert hom_count(empty_pattern, host).count == 1  # the empty map

    empty_host = UniformHypergraph(2, 0, [])
    result = hom_count(UniformHypergraph(2, 2, [(0, 1)]), empty_host)
    assert result.count == 0 and result.domain_size == 0
    with pytest.raises(ValueError):
        result.density()


def test_patterns_into_an_empty_host_have_no_images():
    # The general walk finds no candidate on an empty host, whatever the pattern.
    for k, edges in [(1, [(0,)]), (2, [(0, 1)]), (2, [(0, 1), (0, 2), (1, 2)]), (3, [(0, 1, 2)])]:
        pattern = UniformHypergraph(k, 3, edges)
        empty_host = UniformHypergraph(k, 0, [])
        assert enumerate_hom_images(pattern, empty_host).images == frozenset()
        assert hom_count(pattern, empty_host) == (0, 0)
        assert hom_count(UniformHypergraph(k, 2, []), empty_host) == (0, 0)
        assert hom_count(UniformHypergraph(k, 0, []), empty_host) == (1, 1)


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError, match="arity"):
        hom_count(triangle(), single_triple())


def test_triangle_into_bipartite_host_is_zero():
    # C4 is bipartite: no triangle homomorphism exists.
    c4 = UniformHypergraph(2, 4, [(0, 1), (0, 3), (1, 2), (2, 3)])
    assert hom_count(triangle(), c4).count == 0


def random_instance_patterns() -> dict[int, list[UniformHypergraph]]:
    """Small patterns per arity, for the random-host oracle comparisons."""
    return {
        1: [
            UniformHypergraph(1, 1, [(0,)]),
            UniformHypergraph(1, 2, [(0,), (1,)]),
            UniformHypergraph(1, 3, [(1,)]),
        ],
        2: [
            UniformHypergraph(2, 2, [(0, 1)]),
            triangle(),
            UniformHypergraph(2, 3, [(0, 1), (1, 2)]),
            UniformHypergraph(2, 4, [(0, 1), (2, 3)]),
            UniformHypergraph(2, 3, [(0, 1)]),
        ],
        3: [single_triple(), shared_pair_triples(), UniformHypergraph(3, 4, [(0, 1, 2)])],
        4: [
            UniformHypergraph(4, 4, [(0, 1, 2, 3)]),
            UniformHypergraph(4, 5, [(0, 1, 2, 3), (1, 2, 3, 4)]),
            UniformHypergraph(4, 5, [(0, 1, 2, 4)]),
        ],
    }


def brute_images(pattern: UniformHypergraph, host: UniformHypergraph) -> set:
    """Image sets of every map V(K) -> V(H) that sends each edge to an edge."""
    edge_set = host.edge_set
    images = set()
    for f in product(range(host.n_vertices), repeat=pattern.n_vertices):
        image = frozenset(tuple(sorted(f[v] for v in e)) for e in pattern.edges)
        if all(img in edge_set for img in image):
            images.add(image)
    return images


def test_backtracking_matches_brute_force_on_random_instances():
    rng = random.Random(401)
    patterns = random_instance_patterns()
    for _ in range(60):
        k = rng.choice(sorted(patterns))
        host = random_hypergraph(rng, k, rng.randint(0, 5), rng.random())
        for pattern in patterns[k]:
            fast = hom_count(pattern, host)
            brute = hom_count_brute(pattern, host)
            assert (fast.count, fast.domain_size) == (brute.count, brute.domain_size)


def last_two_share_no_edge(pattern: UniformHypergraph) -> bool:
    """Whether no pattern edge holds both of the walk's last two vertices."""
    u, v = _covered_order(pattern)[-2:]
    return not any(u in e and v in e for e in pattern.edges)


#: Per arity: patterns for the cross-engine tests, each with the largest
#: host size that the brute-force oracle gets through quickly.
CROSS_PATTERNS = {
    1: [(UniformHypergraph(1, 1, [(0,)]), 9), (UniformHypergraph(1, 3, [(0,), (2,)]), 9),
        (UniformHypergraph(1, 4, [(0,), (1,), (2,), (3,)]), 9)],
    2: [(UniformHypergraph(2, 2, [(0, 1)]), 9), (triangle(), 9),
        (UniformHypergraph(2, 3, [(0, 1), (1, 2)]), 9),
        (UniformHypergraph(2, 4, [(0, 1), (0, 2), (0, 3)]), 9),
        (UniformHypergraph(2, 4, [(0, 1), (0, 3), (1, 2), (2, 3)]), 9),
        (complete_hypergraph(2, 4), 9), (UniformHypergraph(2, 4, [(0, 1), (2, 3)]), 9),
        (UniformHypergraph(2, 5, [(0, 1), (0, 2), (0, 3), (0, 4)]), 7)],
    3: [(single_triple(), 9), (shared_pair_triples(), 9), (complete_hypergraph(3, 4), 9),
        (UniformHypergraph(3, 5, [(0, 1, 2), (2, 3, 4)]), 6),
        (UniformHypergraph(3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)]), 6)],
    4: [(UniformHypergraph(4, 4, [(0, 1, 2, 3)]), 9),
        (UniformHypergraph(4, 5, [(0, 1, 2, 3), (0, 1, 2, 4)]), 7),
        (UniformHypergraph(4, 5, [(0, 1, 2, 3), (1, 2, 3, 4)]), 7),
        (complete_hypergraph(4, 5), 7)],
}


def test_the_cross_engine_patterns_cover_the_shortcut_and_arity_one_edges():
    # The product shortcut needs last two positions that share no edge,
    # and the walk joins them otherwise; both occur at every k >= 2.
    for k in (2, 3, 4):
        shares = {last_two_share_no_edge(pattern) for pattern, _ in CROSS_PATTERNS[k]}
        assert shares == {False, True}, k
    assert all(len(_covered_order(pattern)) >= 2 for pattern, _ in CROSS_PATTERNS[1][1:])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_counts_and_images_match_the_oracles_on_random_hosts(k):
    # Hosts of every density up to n = 9; hom_count's closed-form last
    # two positions and enumerate_hom_images' walk must both agree with
    # the brute force over every map.
    rng = random.Random(3100 + k)
    for _ in range(8):
        n, p = rng.randint(0, 9), rng.random()
        host = random_hypergraph(rng, k, n, p)
        for pattern, largest in CROSS_PATTERNS[k]:
            if n > largest:
                continue
            assert hom_count(pattern, host) == hom_count_brute(pattern, host)
            assert enumerate_hom_images(pattern, host).images == brute_images(pattern, host)


def table_entries(table: list):
    """(path, mask) for every leaf of a link table, the path read from the root."""
    stack = [((a,), node) for a, node in enumerate(table)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, dict):
            stack.extend((path + (b,), child) for b, child in node.items())
        else:
            yield path, node


def test_the_link_table_holds_every_ordering_of_each_link_key_and_nothing_else():
    rng = random.Random(3107)
    for k in (2, 3, 4):
        for n in (0, 1, k, 7):
            host = random_hypergraph(rng, k, n, 0.5)
            expected = {order: mask for key, mask in host.links.items() for order in permutations(key)}
            assert {path: mask for path, mask in table_entries(_link_table(host)) if mask} == expected


def test_a_repeated_host_vertex_reads_as_the_empty_link():
    # No ordering of a link key repeats a vertex, so no table path does.
    # K4^(3) maps into one 3-edge only by repeating a vertex, which the
    # walk does place (its first two positions share no edge): each such
    # lookup must read as the empty mask, and nothing is counted.
    host = complete_hypergraph(3, 3)
    assert all(len(set(path)) == len(path) for path, _ in table_entries(_link_table(host)))
    for pattern in (complete_hypergraph(3, 4), UniformHypergraph(3, 4, [(0, 1, 2), (0, 2, 3), (1, 2, 3)])):
        assert not last_two_share_no_edge(pattern)
        assert hom_count(pattern, host).count == hom_count_brute(pattern, host).count == 0
        assert enumerate_hom_images(pattern, host).images == frozenset()
    assert hom_count(single_triple(), host).count == 6


def traced(call):
    """``call()``, its memory still held afterwards and its peak, under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_the_link_table_is_built_per_walk_and_only_for_a_walk_that_reads_it():
    # A dense k = 4 host on 20 vertices: 1 140 link keys, each held in
    # (k-1)! = 6 orderings, about 250 kB under tracemalloc (Python 3.11).
    # The table is the walk's only large allocation, it is freed when the
    # walk returns, and no table is built where the walk reads no link.
    host = complete_hypergraph(4, 20)
    orderings = 6 * len(host.links)
    table, table_size, _ = traced(lambda: _link_table(host))
    del table
    assert table_size < 64 * orderings, table_size
    edge = UniformHypergraph(4, 4, [(0, 1, 2, 3)])
    for _ in range(2):
        count, held, peak = traced(lambda: hom_count(edge, host).count)
        assert count == 20 * 19 * 18 * 17
        assert table_size <= peak < table_size + (32 << 10), (peak, table_size)
        assert held < 32 << 10, held
    for edgeless in (UniformHypergraph(4, 4, []), UniformHypergraph(4, 9, [])):
        _, _, peak = traced(lambda: hom_count(edgeless, host))
        assert peak < 4 << 10, peak


def test_single_edge_count_on_complete_host_is_falling_factorial():
    for k, n in [(2, 5), (3, 6), (4, 6)]:
        pattern = UniformHypergraph(k, k, [tuple(range(k))])
        host = complete_hypergraph(k, n)
        expected = 1
        for i in range(k):
            expected *= n - i
        assert hom_count(pattern, host).count == expected


def falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


@pytest.mark.parametrize("n", [63, 64, 65, 129])
def test_counts_on_hosts_across_machine_word_boundaries(n):
    # Host links at these n fill one word exactly, spill one bit into a
    # second word, or reach a third; small-n brute force never gets there.
    for k in (2, 3):
        edge = UniformHypergraph(k, k, [tuple(range(k))])
        assert hom_count(edge, complete_hypergraph(k, n)).count == falling(n, k)
    k4 = complete_hypergraph(2, 4)
    assert hom_count(k4, complete_hypergraph(2, n)).count == falling(n, 4)
    a = n // 2
    bipartite = UniformHypergraph(2, n, [(u, w) for u in range(a) for w in range(a, n)])
    assert hom_count(triangle(), bipartite).count == 0
    assert hom_count(UniformHypergraph(2, 2, [(0, 1)]), bipartite).count == 2 * a * (n - a)


def test_multiplicativity_over_disjoint_union():
    rng = random.Random(59)
    for _ in range(20):
        k = rng.choice([2, 3])
        a = random_hypergraph(rng, k, rng.randint(k, 4), 0.7)
        b = random_hypergraph(rng, k, rng.randint(k, 4), 0.7)
        host = random_hypergraph(rng, k, rng.randint(1, 5), 0.6)
        left = hom_density(disjoint_union(a, b), host)
        right = hom_density(a, host) * hom_density(b, host)
        assert left == right  # exact rationals


def test_disjoint_union_layout():
    u = disjoint_union(triangle(), UniformHypergraph(2, 2, [(0, 1)]))
    assert u.n_vertices == 5
    assert u.edges == ((0, 1), (0, 2), (1, 2), (3, 4))
    with pytest.raises(ValueError):
        disjoint_union(triangle(), single_triple())


# -- image enumeration ---------------------------------------------------------


def test_images_of_two_disjoint_edges_in_a_path():
    pattern = UniformHypergraph(2, 4, [(0, 1), (2, 3)])
    path = UniformHypergraph(2, 3, [(0, 1), (1, 2)])
    images = enumerate_hom_images(pattern, path)
    # Both pattern edges map onto host edges independently.
    assert images.images == {
        frozenset({(0, 1)}),
        frozenset({(1, 2)}),
        frozenset({(0, 1), (1, 2)}),
    }


def test_images_empty_iff_no_homomorphism():
    path = UniformHypergraph(2, 3, [(0, 1), (1, 2)])
    images = enumerate_hom_images(triangle(), path)
    assert images.images == frozenset()


def test_images_of_single_edge_are_the_host_edges():
    k2 = UniformHypergraph(2, 2, [(0, 1)])
    images = enumerate_hom_images(k2, triangle())
    assert images.images == {frozenset({e}) for e in triangle().edges}


def test_cap_images_come_back_whole_and_one_more_is_refused():
    # An edge has 3 distinct images in a triangle, and a triangle 10 in K5.
    for pattern, host, total in [
        (UniformHypergraph(2, 2, [(0, 1)]), triangle(), 3),
        (triangle(), complete_hypergraph(2, 5), 10),
    ]:
        images = enumerate_hom_images(pattern, host, cap=total)
        assert images.images == enumerate_hom_images(pattern, host).images
        assert len(images.images) == total
        with pytest.raises(BudgetError, match=f"more than {total - 1} distinct images"):
            enumerate_hom_images(pattern, host, cap=total - 1)


def test_images_match_brute_force_on_random_instances():
    rng = random.Random(409)
    patterns = random_instance_patterns()
    for _ in range(60):
        k = rng.choice(sorted(patterns))
        host = random_hypergraph(rng, k, rng.randint(0, 5), rng.random())
        for pattern in patterns[k]:
            expected = brute_images(pattern, host)
            assert enumerate_hom_images(pattern, host).images == expected
            for cap in (1, 2, 3):
                if len(expected) > cap:
                    with pytest.raises(BudgetError):
                        enumerate_hom_images(pattern, host, cap=cap)
                else:
                    assert enumerate_hom_images(pattern, host, cap=cap).images == expected


def test_images_require_an_edge_and_positive_cap():
    with pytest.raises(ValueError):
        enumerate_hom_images(UniformHypergraph(2, 2, []), triangle())
    with pytest.raises(ValueError):
        enumerate_hom_images(UniformHypergraph(2, 2, [(0, 1)]), triangle(), cap=0)


def test_isolated_pattern_vertices_do_not_change_images():
    with_isolated = UniformHypergraph(2, 4, [(0, 1)])
    bare = UniformHypergraph(2, 2, [(0, 1)])
    host = triangle()
    assert (
        enumerate_hom_images(with_isolated, host).images
        == enumerate_hom_images(bare, host).images
    )
