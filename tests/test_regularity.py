"""Hyperpartitions, cells, cylinders, and the regularity diagnostics."""

import gc
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from hyperlim import (
    CylinderIntersection,
    FormatError,
    Hyperpartition,
    UniformHypergraph,
    cell_approximation,
    cell_counts,
    cell_density,
    cell_profile,
    check_regularity_family,
    check_regularity_sampled,
    complete_hypergraph,
    equitability,
    exact_density,
    extract_step_hypergraphon,
    hom_density,
    independence_test,
    latent_hyperpartition,
    parse_hyperpartition,
    random_hyperpartition,
    regularity_deviation,
    sample_w_random,
    sampled_cylinder_family,
    serialize_hyperpartition,
)
import hyperlim.cli as cli_module
import hyperlim.regularity as regularity_module
from hyperlim.cli import regularity_table
from hyperlim.core import SubsetIndexing
from hyperlim.hypergraphon import LatentSample
from hyperlim.rng import stream, subset_draws

from conftest import build_fixture_w, forbid_work, past_one_block, single_triple
from oracles import independence_brute, induce_cells


def one_uniform(n, members):
    return UniformHypergraph(1, n, [(v,) for v in sorted(members)])


def scan(cyl):
    """Members of a cylinder intersection, by the `contains` oracle."""
    return frozenset(
        sub for sub in combinations(range(cyl.n_vertices), cyl.arity) if cyl.contains(sub)
    )


# -- Hyperpartition ------------------------------------------------------------


def test_hyperpartition_requires_total_labelings():
    ok = Hyperpartition(1, 3, 2, [[0, 1, 0]])
    assert ok.label((1,)) == 1
    with pytest.raises(ValueError, match="expected 3 labeled"):
        Hyperpartition(1, 3, 2, [[0, 1]])
    with pytest.raises(ValueError, match="label 2"):
        Hyperpartition(1, 3, 2, [[0, 1, 2]])
    with pytest.raises(ValueError, match="label -1"):
        Hyperpartition(1, 3, 2, [[0, -1, 0]])
    with pytest.raises(ValueError, match="levels"):
        Hyperpartition(2, 3, 2, [[0, 0, 0]])
    with pytest.raises(ValueError, match="^level 1: every label must be an int$"):
        Hyperpartition(1, 2, 2, [[True, 0]])
    with pytest.raises(ValueError, match="^level 1: every label must be an int$"):
        Hyperpartition(1, 2, 2, [memoryview(bytes([1, 0])).cast("?")])


def test_levels_are_read_only_in_the_narrowest_typecode():
    p = random_hyperpartition(2, 5, 2, seed=0)
    with pytest.raises(TypeError):
        p.levels[0][0] = 7
    assert all(level.readonly and level.itemsize == 1 for level in p.levels)
    labels = [0, 1]
    q = Hyperpartition(1, 2, 2, [labels])
    labels[0] = 7  # the caller's list is copied, not kept
    assert q.levels[0].tolist() == [0, 1]
    for l, size in ((256, 1), (257, 2), (2**16, 2), (2**16 + 1, 4), (2**32 + 1, 8), (2**64, 8)):
        q = Hyperpartition(1, 2, l, [[l - 1, 0]])
        assert (q.levels[0].itemsize, q.levels[0].tolist()) == (size, [l - 1, 0])
    with pytest.raises(ValueError, match=r"above 2\*\*64"):
        Hyperpartition(1, 2, 2**64 + 1, [[0, 1]])
    with pytest.raises(FormatError, match=r"^line 1: .*above 2\*\*64"):
        parse_hyperpartition(f"HP 1 1 {2**64 + 1}\nLEVEL 1\n0 0\n")


def test_label_reads_the_lexicographic_rank_and_refuses_other_subsets():
    for k, n in ((1, 5), (2, 6), (3, 7), (4, 8)):
        p = random_hyperpartition(k, n, 5, seed=k)
        for r, level in enumerate(p.levels, start=1):
            assert [p.label(sub) for sub in combinations(range(n), r)] == level.tolist()
        for bad in [(), (1, 0), (0, 0), (-1, 0), (0, n), tuple(range(k + 1))]:
            with pytest.raises(ValueError, match="strictly increasing subset"):
                p.label(bad)


def test_class_hypergraph_partitions_each_level():
    p = random_hyperpartition(2, 6, 3, seed=8)
    for r in (1, 2):
        classes = [p.class_hypergraph(r, j).edge_set for j in range(3)]
        union = set().union(*classes)
        assert len(union) == comb(6, r)
        assert sum(len(c) for c in classes) == comb(6, r)


def test_random_hyperpartition_is_seeded_and_uniform():
    a = random_hyperpartition(3, 7, 4, seed=5)
    b = random_hyperpartition(3, 7, 4, seed=5)
    assert a == b
    assert a != random_hyperpartition(3, 7, 4, seed=6)

    trivial = random_hyperpartition(2, 6, 1, seed=0)
    assert all(lab == 0 for level in trivial.levels for lab in level)

    # level-1 class sizes near n/2, within the 4 sigma binomial window
    p = random_hyperpartition(2, 20, 2, seed=0)
    size0 = sum(1 for lab in p.levels[0] if lab == 0)
    assert abs(size0 - 10) <= 4 * (20 * 0.25) ** 0.5


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_random_hyperpartition_labels_are_the_documented_draws(k, l):
    for n in sorted({0, 1, k - 1, k, 9}):
        for seed in (0, 1, 2**40 + 17, 2**64 - 1):
            p = random_hyperpartition(k, n, l, seed)
            for r, level in enumerate(p.levels, start=1):
                assert len(level) == comb(n, r)
                for sub, label in zip(combinations(range(n), r), level):
                    assert label == stream(seed, "hyperpartition", r, *sub).next_below(l)


def test_latent_hyperpartition_boxes_the_latents():
    u03 = int(0.3 * 2**64)
    u07 = int(0.7 * 2**64)
    # Latents of (0,), (1,) and (0, 1), in that order.
    sample = LatentSample(UniformHypergraph(2, 2, []), [u03, u07, u07], seed=0)
    p = latent_hyperpartition(sample, 2)
    assert p.label((0,)) == 0
    assert p.label((1,)) == 1
    assert p.label((0, 1)) == 1
    assert latent_hyperpartition(sample, 1).resolution == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_builders_equal_a_validated_partition(k, l):
    # Each builder equals the partition the public constructor makes from
    # lists built straight from the documented streams.
    for n in sorted({0, 1, k - 1, k, 6}):
        for seed in (0, 2**64 - 1):
            p = random_hyperpartition(k, n, l, seed)
            labels = [
                [stream(seed, "hyperpartition", r, *sub).next_below(l)
                 for sub in combinations(range(n), r)]
                for r in range(1, k + 1)
            ]
            assert p == Hyperpartition(k, n, l, labels)
            assert [len(level) for level in p.levels] == [comb(n, r) for r in range(1, k + 1)]

            draws = [subset_draws(seed, "latent", n, r) for r in range(1, k + 1)]
            latents = [u for level in draws for u in level]
            sample = LatentSample(UniformHypergraph(k, n, []), latents, seed)
            boxed = [[(u * l) >> 64 for u in level] for level in draws]
            assert latent_hyperpartition(sample, l) == Hyperpartition(k, n, l, boxed)
    drawn = sample_w_random(build_fixture_w(), 7, seed=3)
    q = latent_hyperpartition(drawn, l)
    assert q == Hyperpartition(3, 7, l, q.levels)


def test_builders_keep_the_shape_checks():
    with pytest.raises(ValueError, match="arity"):
        random_hyperpartition(5, 3, 2, seed=0)
    with pytest.raises(ValueError, match="n_vertices must be an int of at least 0"):
        random_hyperpartition(2, -1, 2, seed=0)
    with pytest.raises(ValueError, match="resolution"):
        random_hyperpartition(2, 3, 0, seed=0)
    sample = sample_w_random(build_fixture_w(), 4, seed=0)
    with pytest.raises(ValueError, match="resolution"):
        latent_hyperpartition(sample, 0)
    # A sample holds one latent per subset, so a short one never reaches the builder.
    with pytest.raises(ValueError, match="expected 14 latents, got 13"):
        LatentSample(sample.hypergraph, sample.latents[:-1], 0)


# -- cells ----------------------------------------------------------------------


def test_cell_profile_is_invariant_under_vertex_swap():
    p = random_hyperpartition(2, 6, 2, seed=3)
    for a, b in combinations(range(6), 2):
        raw_ab = (p.label((a,)), p.label((b,)), p.label((a, b)))
        raw_ba = (p.label((b,)), p.label((a,)), p.label((a, b)))
        idx_profile = cell_profile(p, (a, b))
        assert idx_profile == min(raw_ab, raw_ba)


@pytest.mark.parametrize("k,n", [(2, 6), (3, 5)])
def test_profiles_match_the_exists_permutation_equivalence(k, n):
    # Brute force: S ~ T iff one sigma aligns the classes of every
    # position subset simultaneously.
    p = random_hyperpartition(k, n, 2, seed=41)
    subs = list(combinations(range(n), k))
    position_subsets = [s for r in range(1, k + 1) for s in combinations(range(k), r)]

    def equivalent(s, t):
        for sig in permutations(range(k)):
            if all(
                p.label(tuple(sorted(s[i] for i in a)))
                == p.label(tuple(sorted(t[sig[i]] for i in a)))
                for a in position_subsets
            ):
                return True
        return False

    cells = induce_cells(p)
    for s, t in combinations(subs, 2):
        assert (cells[s] == cells[t]) == equivalent(s, t)


def test_cell_count_bound_on_explicit_instance():
    # k=2, l=2, n=6: at most 3 unordered single-class pairs times 2 pair
    # classes.
    labels = [v % 2 for v in range(6)]
    pairs = [(a + b) % 2 for a, b in combinations(range(6), 2)]
    p = Hyperpartition(2, 6, 2, [labels, pairs])
    cells = induce_cells(p)
    assert set(cells) == set(combinations(range(6), 2))
    assert len(set(cells.values())) <= 6


def test_cell_density_trivial_partition_counts_everything():
    h = UniformHypergraph(2, 5, [(0, 1), (2, 3)])
    p = random_hyperpartition(2, 5, 1, seed=0)
    dens = cell_density(h, p)
    assert dens == {(0, 0, 0): Fraction(2, 10)}


def test_cell_density_complete_host_is_all_ones():
    p = random_hyperpartition(3, 6, 2, seed=13)
    dens = cell_density(complete_hypergraph(3, 6), p)
    assert dens and all(v == 1 for v in dens.values())


def test_weighted_cell_sum_recovers_edge_count():
    rng = random.Random(97)
    for _ in range(10):
        n = rng.randint(3, 7)
        k = rng.choice([2, 3])
        if n < k:
            continue
        edges = [e for e in combinations(range(n), k) if rng.random() < 0.5]
        h = UniformHypergraph(k, n, edges)
        p = random_hyperpartition(k, n, rng.choice([1, 2, 3]), seed=rng.getrandbits(32))
        counts = cell_counts(h, p)
        assert sum(size * cell_density(h, p)[c] for c, (size, _) in counts.items()) == len(edges)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_cell_counts_equal_a_tally_by_cell_profile(k, l):
    rng = random.Random(1000 * k + l)
    for n in range(8):
        p = random_hyperpartition(k, n, l, seed=rng.getrandbits(64))
        h = UniformHypergraph(k, n, [e for e in combinations(range(n), k) if rng.random() < 0.4])
        edge_set = h.edge_set
        expected: dict = {}
        for sub in combinations(range(n), k):
            size, edges = expected.get(cell_profile(p, sub), (0, 0))
            expected[cell_profile(p, sub)] = (size + 1, edges + (sub in edge_set))
        counts = cell_counts(h, p)
        assert counts == expected
        assert list(counts) == list(expected)  # first-met order of the lexicographic scan


def test_cell_constant_weights_cannot_tell_h_from_its_densities():
    # Conditional-expectation shadow: against any cell-constant weight,
    # the edge indicator and the cell densities integrate identically.
    rng = random.Random(23)
    h = UniformHypergraph(
        3, 7, [e for e in combinations(range(7), 3) if rng.random() < 0.4]
    )
    p = random_hyperpartition(3, 7, 2, seed=55)
    cells = induce_cells(p)
    dens = cell_density(h, p)
    weights = {c: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for c in set(cells.values())}
    edge_set = h.edge_set
    lhs = sum(weights[cells[s]] for s in cells if s in edge_set)
    rhs = sum(dens[cells[s]] * weights[cells[s]] for s in cells)
    assert lhs == rhs


def test_cell_approximation_on_pure_and_near_complete_hosts():
    p = random_hyperpartition(2, 6, 2, seed=77)
    cells = induce_cells(p)
    some_cell = next(iter(set(cells.values())))
    union = UniformHypergraph(2, 6, sorted(s for s, c in cells.items() if c == some_cell))
    chosen, err = cell_approximation(union, p)
    assert err == 0
    assert chosen == {some_cell}

    # complete minus one edge, trivial partition: majority keeps the cell
    full = complete_hypergraph(2, 6)
    dented = full.without_edges([(0, 1)])
    trivial = random_hyperpartition(2, 6, 1, seed=0)
    _, err = cell_approximation(dented, trivial)
    assert err == Fraction(1, comb(6, 2))


def test_cell_approximation_is_minimal_over_all_unions():
    rng = random.Random(7)
    for _ in range(5):
        edges = [e for e in combinations(range(6), 2) if rng.random() < 0.5]
        h = UniformHypergraph(2, 6, edges)
        p = random_hyperpartition(2, 6, 2, seed=rng.getrandbits(16))
        counts = cell_counts(h, p)
        assert len(counts) <= 12
        _, err = cell_approximation(h, p)
        total = comb(6, 2)
        best = min(
            Fraction(
                sum(size - e for c, (size, e) in counts.items() if c in chosen)
                + sum(e for c, (_, e) in counts.items() if c not in chosen),
                total,
            )
            for m in range(len(counts) + 1)
            for chosen in map(frozenset, combinations(counts, m))
        )
        assert err == best


def test_equitability_explicit_and_trivial():
    p1 = Hyperpartition(1, 10, 2, [[0 if v < 6 else 1 for v in range(10)]])
    assert equitability(p1) == {1: Fraction(2, 10)}

    trivial = random_hyperpartition(2, 8, 1, seed=0)
    assert equitability(trivial) == {1: Fraction(0), 2: Fraction(0)}

    # empty classes count: with l=3 and only labels {0,1} used, min is 0
    p = Hyperpartition(1, 4, 3, [[0, 0, 1, 1]])
    assert equitability(p) == {1: Fraction(2, 4)}


def listed_equitability(partition):
    """Equitability from the list of all l class sizes."""
    out = {}
    for r, level in enumerate(partition.levels, start=1):
        counts = Counter(level)
        sizes = [counts[j] for j in range(partition.resolution)]
        total = comb(partition.n_vertices, r)
        out[r] = Fraction(max(sizes) - min(sizes), total) if total else Fraction(0)
    return out


def test_equitability_lists_no_class_sizes():
    # The smallest class is 0 unless all l labels occur, so a few labels
    # at a large l cost what they cost at a small one.
    rng = random.Random(31)
    for _ in range(200):
        k, n, l = rng.randint(1, 3), rng.randint(0, 7), rng.randint(1, 4)
        p = random_hyperpartition(k, n, l, seed=rng.getrandbits(64))
        assert equitability(p) == listed_equitability(p), (k, n, l)
    big = Hyperpartition(2, 3, 10**6, [[0, 5, 5], [7, 7, 7]])
    expected = listed_equitability(big)
    gc.collect()
    tracemalloc.start()
    try:
        got = equitability(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected == {1: Fraction(2, 3), 2: Fraction(3, 3)}
    assert peak < 64 << 10, peak


# -- cylinder intersections -----------------------------------------------------


def test_cylinder_construction_validates():
    b = one_uniform(5, [0, 1])
    with pytest.raises(ValueError, match="sides"):
        CylinderIntersection((b,))
    with pytest.raises(ValueError, match="arity"):
        CylinderIntersection((b, complete_hypergraph(2, 5)))
    with pytest.raises(ValueError, match="vertex set"):
        CylinderIntersection((b, one_uniform(6, [0])))


def test_r2_membership_matches_the_two_sided_formula():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 7)
        b1 = set(rng.sample(range(n), rng.randint(0, n)))
        b2 = set(rng.sample(range(n), rng.randint(0, n)))
        cyl = CylinderIntersection((one_uniform(n, b1), one_uniform(n, b2)))
        for a, b in combinations(range(n), 2):
            expected = (a in b1 and b in b2) or (b in b1 and a in b2)
            assert cyl.contains((a, b)) == expected


def test_cylinder_complete_and_empty_sides():
    full = CylinderIntersection((complete_hypergraph(2, 5), complete_hypergraph(2, 5), complete_hypergraph(2, 5)))
    assert scan(full) == set(combinations(range(5), 3))
    hollow = CylinderIntersection((complete_hypergraph(2, 5), UniformHypergraph(2, 5, []), complete_hypergraph(2, 5)))
    assert scan(hollow) == frozenset()
    # Sampled sides have density 1/4, 1/2 or 3/4; other sides are built by
    # hand, as here, and checked with check_regularity_family. The solid
    # cylinder is admitted with deviation 0, the hollow one fails the size gate.
    g = UniformHypergraph(3, 5, [(0, 1, 2), (1, 3, 4)])
    report = check_regularity_family(g, 0.1, [hollow, full])
    assert (report.tested, report.admitted, report.max_deviation, report.witness) == (2, 1, 0, None)


def test_cylinders_compare_and_hash_by_their_sides_and_reports_are_tuples():
    sides = (complete_hypergraph(2, 5), UniformHypergraph(2, 5, []), complete_hypergraph(2, 5))
    cyl = CylinderIntersection(sides)
    assert cyl == CylinderIntersection(list(sides)) and len({cyl, CylinderIntersection(sides)}) == 1
    assert cyl != CylinderIntersection(sides[1:] + sides[:1]) and cyl != sides
    report = check_regularity_family(complete_hypergraph(3, 5), 0.1, [cyl])
    assert report == (0.1, 1, 0, None, None)  # a named tuple; the witness defaults to None
    assert type(report)(0.1, 1, 0, None).witness is None


def test_deviation_counts_match_the_contains_scan():
    # Side densities include 0 and 1, so empty and complete sides occur.
    rng = random.Random(2024)
    for _ in range(150):
        r = rng.choice((2, 3, 4))
        n = rng.randint(r, 9)
        sides = []
        for _ in range(r):
            q = rng.choice((0.0, 0.3, 0.7, 1.0))
            pool = combinations(range(n), r - 1)
            sides.append(UniformHypergraph(r - 1, n, [s for s in pool if rng.random() < q]))
        cyl = CylinderIntersection(tuple(sides))
        members = scan(cyl)
        g = UniformHypergraph(r, n, [e for e in combinations(range(n), r) if rng.random() < 0.5])
        total = comb(n, r)
        if not members:
            assert regularity_deviation(g, cyl, 0) is None
            continue
        expected = abs(
            Fraction(len(g.edges), total) - Fraction(len(g.edge_set & members), len(members))
        )
        assert regularity_deviation(g, cyl, Fraction(len(members), total)) == expected
        assert regularity_deviation(g, cyl, Fraction(len(members) + 1, total)) is None


def test_family_check_matches_the_contains_scan():
    # Several classes over one family: tested, admitted, the maximum and
    # the witness's identity, from a per-cylinder scan.
    rng = random.Random(4049)
    for _ in range(40):
        r = rng.choice((2, 3, 4))
        n = rng.randint(r, 9)
        total = comb(n, r)
        family = []
        for _ in range(rng.randint(1, 6)):
            sides = []
            for _ in range(r):
                q = rng.choice((0.0, 0.3, 0.7, 1.0))
                pool = combinations(range(n), r - 1)
                sides.append(UniformHypergraph(r - 1, n, [s for s in pool if rng.random() < q]))
            family.append(CylinderIntersection(tuple(sides)))
        members = [scan(cyl) for cyl in family]
        epsilon = rng.choice((0.05, 0.2, 0.45))
        for _ in range(3):
            pool = combinations(range(n), r)
            g = UniformHypergraph(r, n, [e for e in pool if rng.random() < 0.5])
            devs = [
                abs(Fraction(len(g.edges), total) - Fraction(len(g.edge_set & found), len(found)))
                if found and Fraction(len(found), total) >= epsilon else None
                for found in members
            ]
            admitted = [d for d in devs if d is not None]
            report = check_regularity_family(g, epsilon, family)
            assert report.tested == len(family)
            assert report.admitted == len(admitted)
            assert report.max_deviation == (max(admitted) if admitted else None)
            if admitted and max(admitted) > epsilon:
                assert report.witness is family[devs.index(max(admitted))]
            else:
                assert report.witness is None


def test_cylinder_membership_validates_subsets():
    cyl = CylinderIntersection((one_uniform(4, [0]), one_uniform(4, [1])))
    with pytest.raises(ValueError):
        cyl.contains((0, 0))
    with pytest.raises(ValueError):
        cyl.contains((0, 1, 2))
    with pytest.raises(ValueError):
        cyl.contains((0, 9))


@pytest.mark.parametrize("member", [(1.0, 2), (1, 2.0), (True, 2)])
def test_the_reference_oracles_refuse_a_member_that_is_not_an_int(member):
    # (1, 2) is a member of the cylinder and a pair of the partition; the
    # kernels are checked against these two, so they refuse a float or bool
    # vertex as the constructors do, rather than read it as an int.
    cyl = CylinderIntersection((one_uniform(4, [1]), one_uniform(4, [2])))
    assert cyl.contains((1, 2))
    with pytest.raises(ValueError, match="not ints"):
        cyl.contains(member)
    with pytest.raises(ValueError, match="strictly increasing subset"):
        random_hyperpartition(2, 4, 3, seed=0).label(member)


# -- deviation and the checkers --------------------------------------------------


def planted_half_cylinder():
    """n=8 cylinder with exactly C(8,2)/2 members."""
    b1 = one_uniform(8, [0, 1, 2, 3, 4])
    b2 = one_uniform(8, [0, 5, 6])
    return CylinderIntersection((b1, b2))


def test_deviation_of_complete_and_empty_hosts_is_zero():
    cyl = planted_half_cylinder()
    assert regularity_deviation(complete_hypergraph(2, 8), cyl, 0.1) == 0
    assert regularity_deviation(UniformHypergraph(2, 8, []), cyl, 0.1) == 0


def test_deviation_half_sized_planted_cylinder():
    cyl = planted_half_cylinder()
    assert len(scan(cyl)) == comb(8, 2) // 2 == 14
    g = UniformHypergraph(2, 8, sorted(scan(cyl)))
    assert regularity_deviation(g, cyl, 0.25) == Fraction(1, 2)


def test_deviation_respects_the_size_gate():
    small = CylinderIntersection((one_uniform(8, [0]), one_uniform(8, [1])))
    g = complete_hypergraph(2, 8)
    assert len(scan(small)) == 1
    assert regularity_deviation(g, small, 0.25) is None
    assert regularity_deviation(g, small, Fraction(1, 28)) == 0
    empty = CylinderIntersection((one_uniform(8, []), one_uniform(8, [])))
    assert regularity_deviation(g, empty, 0.0) is None


def test_check_family_reports_first_argmax_as_witness():
    cyl = planted_half_cylinder()
    g = UniformHypergraph(2, 8, sorted(scan(cyl)))
    report = check_regularity_family(g, 0.3, [cyl, cyl])
    assert report.tested == 2 and report.admitted == 2
    assert report.max_deviation == Fraction(1, 2)
    assert report.witness is cyl

    relaxed = check_regularity_family(g, 0.6, [cyl])
    assert relaxed.witness is None
    # An empty family would give a regular verdict backed by no test.
    with pytest.raises(ValueError, match="empty cylinder family"):
        check_regularity_family(g, 0.1, [])
    for bad in (0.0, -1.0, float("nan"), 1.0, 2.0, float("inf")):
        with pytest.raises(ValueError, match="epsilon"):
            check_regularity_family(g, bad, [cyl])


def test_sampled_family_is_seeded_and_validates_count():
    fam1 = sampled_cylinder_family(10, 3, 5, seed=4)
    fam2 = sampled_cylinder_family(10, 3, 5, seed=4)
    assert [c.sides for c in fam1] == [c.sides for c in fam2]
    assert all(c.arity == 3 and c.sides[0].k == 2 for c in fam1)
    # One count rule for the family and the sampled check: at least one cylinder.
    for bad in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="cylinder count must be an int of at least 1"):
            sampled_cylinder_family(6, 2, bad, seed=0)


@pytest.mark.parametrize("r", [-1, 0, 1, 5])
def test_sampled_family_refuses_a_level_outside_2_to_max_arity_before_any_draw(monkeypatch, r):
    forbid_work(monkeypatch, (regularity_module, "derive"), (regularity_module, "fold"))
    with pytest.raises(ValueError, match=f"cylinder level r={r} outside 2..4"):
        sampled_cylinder_family(9, r, 3, seed=0)


@pytest.mark.parametrize("n", [2.0, True, -1])
def test_sampled_family_refuses_a_bad_vertex_count_before_any_draw(monkeypatch, n):
    # 2.0 would reach range() as a TypeError; True and -1 would reach the
    # first side's constructor, after the hashing it needs.
    forbid_work(monkeypatch, (regularity_module, "_stream_draws"))
    message = f"n_vertices must be an int of at least 0, got {n!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sampled_cylinder_family(n, 2, 3, seed=0)
    # The least allowed vertex count draws, so the forbid pins something.
    with pytest.raises(AssertionError, match="work started"):
        sampled_cylinder_family(0, 2, 3, seed=0)


# grid: the seeds the draws are checked on, small ones and ones using the
# top bits of a 64-bit seed.
@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("grid", [(0, 1), (2**40 + 17, 2**64 - 1)])
def test_sampled_family_sides_are_the_documented_draws(r, grid):
    # At the last n a side's draws fill more than one block of hashed lanes.
    for n in (r - 1, r, 9, past_one_block(r - 1)):
        for seed in grid:
            family = sampled_cylinder_family(n, r, 4, seed)
            assert len(family) == 4
            for m, cyl in enumerate(family):
                for i, side in enumerate(cyl.sides):
                    q = Fraction(1 + stream(seed, "cylinder-density", m, i).next_below(3), 4)
                    threshold = int(q * 2**64)
                    st = stream(seed, "cylinder-side", m, i)
                    expected = [
                        sub for sub in combinations(range(n), r - 1) if st.next_u64() < threshold
                    ]
                    assert side == UniformHypergraph(r - 1, n, expected)


def test_check_sampled_rejects_level_one_and_mismatched_plants():
    with pytest.raises(ValueError, match="level 1"):
        check_regularity_sampled(one_uniform(6, [0, 1]), 0.1, 5, seed=0)
    family = [planted_half_cylinder()] + sampled_cylinder_family(9, 2, 5, seed=0)
    with pytest.raises(ValueError, match="disagree on arity or vertex count"):
        check_regularity_family(complete_hypergraph(2, 9), 0.1, family)
    with pytest.raises(ValueError, match="cylinder count must be an int of at least 1"):
        check_regularity_sampled(complete_hypergraph(2, 8), 0.1, 0, seed=0)


def test_check_sampled_finds_a_prepended_planted_witness():
    cyl = planted_half_cylinder()
    g = UniformHypergraph(2, 8, sorted(scan(cyl)))
    report = check_regularity_family(g, 0.3, [cyl] + sampled_cylinder_family(8, 2, 4, seed=0))
    assert report.tested == 5
    assert report.witness is not None
    assert report.max_deviation >= Fraction(1, 2)


def test_checks_refuse_cylinders_empty_by_construction():
    g = UniformHypergraph(3, 2, [])
    with pytest.raises(ValueError, match="no 3-subsets on 2 vertices"):
        check_regularity_sampled(g, 0.1, 5, seed=0)
    with pytest.raises(ValueError, match="no 3-subsets on 2 vertices"):
        regularity_table(build_fixture_w(), 2, 2, 0.1, 5, seed=0)


# The cylinder builds of both sampled checks and the W-sample of the table.
SAMPLED_WORK = [(regularity_module, "sampled_cylinder_family"),
                (cli_module, "sampled_cylinder_family"),
                (cli_module, "sample_w_random")]


@pytest.mark.parametrize("eps", [1.5, 1.0, 0.0, -0.1, float("inf"), float("nan")])
def test_sampled_check_refuses_epsilon_before_building_cylinders(monkeypatch, eps):
    forbid_work(monkeypatch, *SAMPLED_WORK)
    with pytest.raises(ValueError, match="epsilon"):
        check_regularity_sampled(complete_hypergraph(2, 8), eps, 2000, seed=0)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        pytest.param({"count": -1}, "cylinder count must be an int of at least 1",
                     id="kwargs0-count must be positive"),
        pytest.param({"seed": 2**64}, "seed must fit in 64 bits", id="seed-2**64"),
        *(pytest.param({"count": bad}, f"cylinder count must be an int of at least 1, got {bad!r}",
                       id=f"count-{bad!r}")
          for bad in (0, float("nan"), float("inf"), 2.5, 2.0, True)),
    ],
)
def test_sampled_check_refuses_before_building_cylinders(monkeypatch, kwargs, message):
    forbid_work(monkeypatch, *SAMPLED_WORK)
    args = {"epsilon": 0.1, "count": 5, "seed": 0} | kwargs
    with pytest.raises(ValueError, match=message):
        check_regularity_sampled(complete_hypergraph(2, 8), **args)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        pytest.param({"seed": -1}, "seed must fit in 64 bits", id="seed-negative"),
        pytest.param({"seed": 2**64}, "seed must fit in 64 bits", id="seed-2**64"),
        pytest.param({"cylinders": 0}, "cylinder count must be an int of at least 1",
                     id="kwargs2-count must be positive"),
        pytest.param({"epsilon": 1.0}, "epsilon", id="epsilon-1"),
        pytest.param({"epsilon": 0.0}, "epsilon", id="epsilon-0"),
        pytest.param({"l": 0}, "resolution", id="l-0"),
        pytest.param({"n": 0}, "no 3-subsets on 0 vertices", id="n-0"),
        pytest.param({"l": 2**64 + 1}, r"l=18446744073709551617 above 2\*\*64", id="l-2**64+1"),
        *(pytest.param({"cylinders": bad}, f"cylinder count must be an int of at least 1, got {bad!r}",
                       id=f"cylinders-{bad!r}")
          for bad in (float("nan"), float("inf"), 2.5, 2.0, True)),
    ],
)
def test_regularity_table_refuses_bad_arguments_before_any_work(monkeypatch, kwargs, message):
    forbid_work(monkeypatch, *SAMPLED_WORK)
    args = {"n": 10, "l": 2, "epsilon": 0.1, "cylinders": 5, "seed": 0} | kwargs
    with pytest.raises(ValueError, match=message):
        regularity_table(build_fixture_w(), **args)


def test_regularity_table_builds_one_table_per_cylinder_and_one_mask_set_per_class(monkeypatch):
    # Pins the work done: each cylinder's table is built once, whatever
    # the number of classes tested against it, and each hypergraph's link
    # masks are built once, by its constructor: r per cylinder at level r
    # (its sides) and one per class, and none while a family is checked,
    # whatever the number of cylinders.
    calls = {"tables": 0}
    built: dict = {}  # the phase of regularity_table -> hypergraphs constructed in it
    phase = [None]
    good_masks = regularity_module._good_masks
    init = UniformHypergraph.__init__

    def counting_tables(sides):
        calls["tables"] += 1
        return good_masks(sides)

    def counting_init(self, *args, **kwargs):
        built[phase[-1]] = built.get(phase[-1], 0) + 1
        init(self, *args, **kwargs)

    def in_phase(name, fn):
        def wrapper(*args, **kwargs):
            phase.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                phase.pop()
        return wrapper

    monkeypatch.setattr(regularity_module, "_good_masks", counting_tables)
    monkeypatch.setattr(UniformHypergraph, "__init__", counting_init)
    monkeypatch.setattr(cli_module, "sampled_cylinder_family",
                        in_phase("sides", cli_module.sampled_cylinder_family))
    monkeypatch.setattr(Hyperpartition, "class_hypergraph",
                        in_phase("classes", Hyperpartition.class_hypergraph))
    monkeypatch.setattr(cli_module, "check_regularity_family",
                        in_phase("check", cli_module.check_regularity_family))
    w, l, cylinders = build_fixture_w(), 2, 7
    rows = regularity_table(w, 10, l, 0.1, cylinders, seed=3)
    assert sum(row[0] == "regularity" for row in rows) == (w.k - 1) * l
    assert calls == {"tables": (w.k - 1) * cylinders}
    sides = sum(cylinders * r for r in range(2, w.k + 1))
    assert (built.get("sides"), built.get("classes"), built.get("check", 0)) == (sides, (w.k - 1) * l, 0)


def test_complete_host_never_yields_a_witness():
    report = check_regularity_sampled(complete_hypergraph(2, 12), 0.05, 30, seed=9)
    assert report.max_deviation == 0
    assert report.witness is None


def test_half_density_hosts_look_regular_at_n60():
    # Calibration: per-seed witness probability is about 2.5% at these
    # parameters, so 3+ hits in 8 pinned seeds would flag a regression.
    hits = 0
    for seed in range(8):
        st = stream(seed, "half-host")
        edges = [e for e in combinations(range(60), 2) if st.next_u64() < 2**63]
        g = UniformHypergraph(2, 60, edges)
        report = check_regularity_sampled(g, 0.1, 200, seed=seed)
        hits += report.witness is not None
    assert hits <= 2


# -- independence diagnostic -----------------------------------------------------


def test_independence_trivial_partition_is_exact():
    r = independence_test(2, 10, 1, seed=0, trials=2)
    assert r.max_discrepancy == 0.0
    assert r.bound == 0.0
    assert r.discrepancies == (0.0, 0.0)


def test_independence_is_deterministic_and_validates():
    a = independence_test(2, 12, 2, seed=6, trials=3)
    assert a == independence_test(2, 12, 2, seed=6, trials=3)
    with pytest.raises(ValueError):
        independence_test(3, 2, 2, seed=0)
    with pytest.raises(ValueError):
        independence_test(2, 8, 2, seed=0, trials=0)


@pytest.mark.parametrize("l", [0, -1])
def test_independence_refuses_resolution_below_one_before_any_partition(monkeypatch, l):
    forbid_work(
        monkeypatch,
        (regularity_module, "random_hyperpartition"),
        (regularity_module, "subset_indexing"),
    )
    with pytest.raises(ValueError, match="resolution l must be an int of at least 1"):
        independence_test(2, 5, l, seed=0)


@pytest.mark.parametrize("trials", [0, 2.5, 2.0, True, float("nan"), float("inf")])
def test_independence_refuses_a_bad_trial_count_before_any_partition(monkeypatch, trials):
    forbid_work(
        monkeypatch,
        (regularity_module, "random_hyperpartition"),
        (regularity_module, "subset_indexing"),
    )
    with pytest.raises(ValueError, match="trials must be an int of at least 1"):
        independence_test(2, 5, 2, seed=0, trials=trials)


def test_independence_equals_the_ordered_tuple_walk():
    rng = random.Random(20)
    for _ in range(50):
        k = rng.randint(1, 4)
        n, l, seed = rng.randint(k, 9), rng.randint(1, 3), rng.getrandbits(64)
        expected = independence_brute(k, n, l, seed, trials=2)
        assert independence_test(k, n, l, seed=seed, trials=2) == expected, (k, n, l, seed)
    assert independence_test(3, 30, 2, seed=7, trials=2) == independence_brute(3, 30, 2, 7, trials=2)


def test_independence_builds_no_cell(monkeypatch):
    forbid_work(monkeypatch, (regularity_module, "cell_counts"), (SubsetIndexing, "canonicalize"))
    assert independence_test(3, 12, 2, seed=1, trials=2) == independence_brute(3, 12, 2, 1, trials=2)


def test_independence_lists_no_ordered_tuples(monkeypatch):
    forbid_work(monkeypatch, (regularity_module, "permutations"))
    assert independence_test(3, 12, 2, seed=1, trials=2) == independence_brute(3, 12, 2, 1, trials=2)


def test_independence_statistic_sits_below_the_bound():
    r = independence_test(2, 30, 2, seed=4, trials=2)
    assert 0 < r.max_discrepancy <= r.bound
    assert len(r.discrepancies) == 2


# -- extraction -------------------------------------------------------------------


def test_extract_complete_host_is_one_on_populated_orbits():
    p = random_hyperpartition(3, 6, 2, seed=19)
    w = extract_step_hypergraphon(complete_hypergraph(3, 6), p)
    assert w.kind == "proj"
    assert w.resolution == 2
    assert w.values and all(v == 1.0 for v in w.values.values())

    empty = extract_step_hypergraphon(UniformHypergraph(3, 6, []), p)
    assert empty.values == {}


def test_extract_recovers_the_sampling_indicator():
    w = build_fixture_w()
    sample = sample_w_random(w, 24, seed=10)
    p = latent_hyperpartition(sample, 2)
    extracted = extract_step_hypergraphon(sample.hypergraph, p)
    assert all(v in (0.0, 1.0) for v in extracted.values.values())
    for key, value in extracted.values.items():
        assert w.eval_box(key) == value


def test_extract_density_tracks_the_host_density():
    w = build_fixture_w()
    sample = sample_w_random(w, 40, seed=0)
    p = latent_hyperpartition(sample, 2)
    extracted = extract_step_hypergraphon(sample.hypergraph, p)
    t_host = float(hom_density(single_triple(), sample.hypergraph))
    t_grid = exact_density(single_triple(), extracted)
    assert abs(t_host - t_grid) <= 0.02  # counting-lemma-style agreement


# -- HP format --------------------------------------------------------------------


def test_hp_round_trip():
    p = random_hyperpartition(3, 5, 3, seed=12)
    text = serialize_hyperpartition(p)
    assert parse_hyperpartition(text) == p
    assert parse_hyperpartition(text.encode()) == p


@given(st.integers(1, 4), st.integers(0, 5), st.integers(1, 4), st.integers(0, 2**64 - 1))
@settings(max_examples=60)
def test_hp_round_trip_on_random_partitions(k, n, l, seed):
    p = random_hyperpartition(k, n, l, seed)
    assert parse_hyperpartition(serialize_hyperpartition(p)) == p


def test_hp_serialization_shape():
    p = Hyperpartition(1, 2, 2, [[1, 0]])
    assert serialize_hyperpartition(p) == "HP 1 2 2\nLEVEL 1\n0 1\n1 0\n"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "missing HP header"),
        ("HP 1 2\n", "malformed header"),
        ("HP 1 2 2\n0 1\n1 0\n", "expected 'LEVEL 1'"),
        ("HP 1 2 2\nLEVEL 1\n1 0\n0 1\n", "lexicographic order"),
        ("HP 1 2 2\nLEVEL 1\n0 5\n1 0\n", "label 5"),
        ("HP 1 2 2\nLEVEL 1\n0 1\n", "missing line"),
        # The header's n bounds nothing: the reader must stop at the first
        # missing line, not build anything of size n first.
        ("HP 1 1000000000000 2\nLEVEL 1\n", "missing line"),
        ("HP 2 1000000000000 2\nLEVEL 1\n0 0\n", "missing line"),
        ("HP 1 2 2\nLEVEL 1\n0 1\n1 0\nextra 1\n", "trailing"),
        ("HP 2 2 1\nLEVEL 1\n0 0\n1 0\nLEVEL 1\n0 1 0\n", "expected 'LEVEL 2'"),
    ],
)
def test_hp_parse_errors(text, fragment):
    with pytest.raises(FormatError, match=fragment):
        parse_hyperpartition(text)


@pytest.mark.parametrize(
    "faults,fragment",
    [
        # A value fault on line 3 ahead of a syntax fault on line 5, and the reverse.
        ({2: "0 5", 4: "2 x"}, "class label 5 outside 0..1"),
        ({2: "0 x", 4: "2 5"}, "class label: 'x' is not an integer"),
        ({2: "0 5", 4: "1 0"}, "class label 5 outside 0..1"),
        ({2: "1 0", 4: "2 5"}, "got '1 0', out of order"),
    ],
)
def test_hp_reports_the_first_of_two_faulty_lines(faults, fragment):
    lines = "HP 1 3 2\nLEVEL 1\n0 0\n1 1\n2 0\n".splitlines()
    for i, line in faults.items():
        lines[i] = line
    with pytest.raises(FormatError) as info:
        parse_hyperpartition("\n".join(lines) + "\n")
    assert info.value.line == 3 and fragment in str(info.value)
