"""Step hypergraphons: evaluation, densities, sampling, formats."""

import gc
import random
import sys
import tracemalloc
from array import array
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb, sqrt

import pytest
from hypothesis import example, given, strategies as st

from hyperlim import (
    BudgetError,
    FormatError,
    INDICATOR,
    LatentSample,
    PROJECTED,
    StepHypergraphon,
    UniformHypergraph,
    complete_hypergraph,
    constant_hypergraphon,
    exact_density,
    mc_density,
    parse_hypergraphon,
    parse_latents,
    project,
    sample_hypergraph,
    sample_w_random,
    serialize_hypergraphon,
    serialize_latents,
    simplicial_support,
    subset_indexing,
)
import hyperlim.hypergraphon as hypergraphon_module
from hyperlim.hypergraphon import _edge_coordinate_map
from hyperlim.rng import _BLOCK, MASK64, Stream, derive, fold, stream

from conftest import (
    build_fixture_w,
    build_half_w,
    cyclic_garbage,
    forbid_work,
    past_one_block,
    shared_pair_triples,
    single_triple,
    triangle,
)
from oracles import flat_density, nested_density

CLOSED_FORM_TOL = 1e-12


# -- construction and evaluation ----------------------------------------------


def test_indicator_constructor_validates():
    with pytest.raises(ValueError, match="value 1"):
        StepHypergraphon(2, 2, INDICATOR, {(0, 0, 0): 0.5})
    with pytest.raises(ValueError, match="canonical"):
        StepHypergraphon(2, 2, INDICATOR, {(1, 0, 0): 1.0})
    with pytest.raises(ValueError, match="coordinates"):
        StepHypergraphon(2, 2, INDICATOR, {(0, 0): 1.0})
    with pytest.raises(ValueError, match="out of range"):
        StepHypergraphon(2, 2, INDICATOR, {(0, 0, 2): 1.0})
    with pytest.raises(ValueError, match="outside"):
        StepHypergraphon(2, 2, PROJECTED, {(0, 0, 0): 1.25})
    with pytest.raises(ValueError, match="kind"):
        StepHypergraphon(2, 2, "weighted", {})


def test_zero_valued_boxes_are_dropped():
    w = StepHypergraphon(2, 2, PROJECTED, {(0, 0, 0): 0.0, (0, 0, 1): 0.5})
    assert (0, 0, 0) not in w.values
    assert w.eval_box((0, 0, 0)) == 0.0


def test_eval_box_is_symmetric():
    w = build_half_w()
    # Orbit of (0, 1, 0): swapping the two vertices swaps the singles.
    assert w.eval_box((0, 1, 0)) == 1.0
    assert w.eval_box((1, 0, 0)) == 1.0
    assert w.eval_box((1, 0, 1)) == 0.0
    with pytest.raises(ValueError):
        w.eval_box((0, 1))
    with pytest.raises(ValueError):
        w.eval_box((0, 1, 5))


def test_eval_box_applies_the_constructor_box_rule():
    # A non-int index is refused whether or not the box holds a value.
    w = StepHypergraphon(2, 2, INDICATOR, {(0, 0, 0): 1.0})
    for bad in [(0, 0, 0.5), (0, 0, True), (0.0, 0, 0), (1, 0, 1.0)]:
        with pytest.raises(ValueError, match="not an int"):
            w.eval_box(bad)


def random_symmetric_w(k: int, l: int, kind: str, seed: int) -> StepHypergraphon:
    """About half of all orbits nonzero; projected values are distinct random floats."""
    rng = random.Random(seed)
    idx = subset_indexing(k)
    values = {}
    for box in product(range(l), repeat=idx.n_coords):
        if idx.canonicalize(box) != box:
            continue
        if kind == PROJECTED:
            values[box] = rng.choice((0.0, rng.random()))
        elif rng.random() < 0.5:
            values[box] = 1.0
    return StepHypergraphon(k, l, kind, values)


def extreme_w() -> StepHypergraphon:
    """Projected k=2 W whose values have denominators 2**1, 2**55 and 2**1074."""
    return StepHypergraphon(2, 2, PROJECTED, {
        (0, 0, 0): 0.5, (0, 0, 1): 0.1, (0, 1, 0): 5e-324, (0, 1, 1): 1.0, (1, 1, 0): 0.75,
    })


def test_extreme_denominators_read_back_bit_for_bit_and_project_exactly():
    # exact_density and mc_density take this W as examples of their
    # properties below.
    w = extreme_w()
    assert w._scale == 2**1074
    idx = subset_indexing(2)
    for box in product(range(2), repeat=3):
        assert w.eval_box(box).hex() == w.values.get(idx.canonicalize(box), 0.0).hex()
    expected = {}
    for box in _orbits(2, 2):
        mean = sum(Fraction(w.eval_box(box[:-1] + (t,))) for t in range(2)) / 2
        if mean:
            expected[box] = float(mean)
    assert project(w).values == expected
    assert expected[(0, 1, 0)] == expected[(0, 1, 1)] == 0.5  # (5e-324 + 1) / 2


def test_mc_density_memory_does_not_grow_with_the_sample_count():
    # Every sample of a constant W is nonzero, so a per-sample store
    # would grow by at least 8 bytes per sample, 72 KB over the 9 000
    # extra samples, against the 8 KiB allowed. Each sample makes one
    # draw, the fewest a nonzero one can; tracemalloc slows each about 70x.
    w = constant_hypergraphon(1, 0.3)
    pattern = UniformHypergraph(1, 1, [(0,)])
    peaks = []
    for n_samples in (10**3, 10**4):
        gc.collect()
        tracemalloc.start()
        try:
            mc_density(pattern, w, n_samples, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 8 << 10, peaks


def test_mc_density_memory_does_not_grow_with_the_resolution():
    # Each coordinate's allowed box values are a set read off W's table,
    # so l = 2**24 costs what l = 2 does; one mask of l bits is 2 MiB.
    pattern = UniformHypergraph(1, 1, [(0,)])
    for l in (2, 2**24):
        w = StepHypergraphon(1, l, INDICATOR, {(l - 1,): 1.0})
        gc.collect()
        tracemalloc.start()
        try:
            mc_density(pattern, w, 2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10, (l, peak)


def test_w_takes_the_one_resolution_rule():
    # W's resolution obeys check_shape, as a hyperpartition's does: an
    # int in 1..2**64, since sampled boxes are held in 64 bits.
    for l, message in ((0, "must be an int of at least 1"), (2**64 + 1, r"above 2\*\*64"),
                       (2**70, r"above 2\*\*64"), (2.0, "must be an int"), (True, "must be an int")):
        with pytest.raises(ValueError, match=message):
            StepHypergraphon(1, l, INDICATOR, {})
    assert StepHypergraphon(1, 2**64, INDICATOR, {}).resolution == 2**64
    with pytest.raises(FormatError, match=r"^line 1: resolution l=18446744073709551617 above 2\*\*64"):
        parse_hypergraphon(f"HGON 1 {2**64 + 1} ind 0\n")


@pytest.mark.parametrize("k,l", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("kind", [INDICATOR, PROJECTED])
def test_eval_box_matches_the_stored_orbit_of_every_box(k, l, kind):
    w = random_symmetric_w(k, l, kind, seed=1000 * k + 10 * l + (kind == INDICATOR))
    idx = subset_indexing(k)
    for box in product(range(l), repeat=idx.n_coords):
        assert w.eval_box(box) == w.values.get(idx.canonicalize(box), 0.0)
    m = idx.n_coords
    for bad in [(0,) * (m - 1), (0,) * (m + 1), (-1,) + (0,) * (m - 1), (0,) * (m - 1) + (l,)]:
        with pytest.raises(ValueError):
            w.eval_box(bad)


def test_exact_density_retains_no_memory():
    # W's whole table (5**7 boxes, about half of them nonzero) is read;
    # nothing read may be kept.
    w = random_symmetric_w(3, 5, PROJECTED, seed=35)
    pattern = single_triple()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        exact_density(pattern, w)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


def test_constant_hypergraphon_kinds():
    assert constant_hypergraphon(2, 0.0).kind == INDICATOR
    assert constant_hypergraphon(2, 0.0).values == {}
    one = constant_hypergraphon(2, 1.0)
    assert one.kind == INDICATOR and one.resolution == 1
    half = constant_hypergraphon(3, 0.5)
    assert half.kind == PROJECTED and half.eval_box((0,) * 7) == 0.5
    with pytest.raises(ValueError):
        constant_hypergraphon(2, 1.5)


# -- exact density -------------------------------------------------------------


def test_triangle_density_in_half_indicator_against_inline_enumeration():
    # Independent oracle: sum W over all 2**6 box assignments with exact
    # rationals. Edge factors read (single, single, pair) coordinates.
    w = build_half_w()
    support = simplicial_support(triangle())  # 3 singles then 3 pairs
    pos = {s: i for i, s in enumerate(support)}
    edges = [(0, 1), (0, 2), (1, 2)]
    total = Fraction(0)
    for assign in product(range(2), repeat=6):
        term = Fraction(1)
        for (a, b) in edges:
            value = w.eval_box((assign[pos[(a,)]], assign[pos[(b,)]], assign[pos[(a, b)]]))
            term *= Fraction(value)
        total += term
    expected = total / 2**6
    assert expected == Fraction(1, 8)
    assert exact_density(triangle(), w) == 0.125


def test_constant_closed_form():
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        for pattern in (triangle(), single_triple(), shared_pair_triples()):
            w = constant_hypergraphon(pattern.k, p)
            assert abs(exact_density(pattern, w) - p ** len(pattern.edges)) < CLOSED_FORM_TOL


def test_edgeless_pattern_has_density_one():
    w = constant_hypergraphon(2, 0.0)
    assert exact_density(UniformHypergraph(2, 4, []), w) == 1.0


def test_fixture_density_values(fixture_w):
    assert exact_density(single_triple(), fixture_w) == 1 / 16
    assert exact_density(shared_pair_triples(), fixture_w) == 2.0**-7


def test_density_arity_mismatch_and_budget():
    with pytest.raises(ValueError, match="arity"):
        exact_density(triangle(), build_fixture_w())
    w = StepHypergraphon(2, 11, PROJECTED, {(0, 0, 0): 0.5})
    with pytest.raises(BudgetError):
        exact_density(triangle(), w, budget=10**6)  # 11**6 boxes


@pytest.mark.parametrize("budget", [0, -1, float("nan"), float("inf"), 2.5, 2.0, True])
def test_budget_below_one_is_bad_input(monkeypatch, budget, half_w):
    # A BudgetError would report a refused grid; a budget below 1 or not an
    # int is a malformed argument, whatever the grid size, and a NaN or inf
    # one would switch the grid check off.
    forbid_work(monkeypatch, (hypergraphon_module, "simplicial_support"))
    with pytest.raises(ValueError, match=f"^budget must be an int of at least 1, got {budget!r}$"):
        exact_density(triangle(), half_w, budget=budget)


def test_grouped_sum_matches_flat_sum(fixture_w):
    # Fubini on the grid: the iterated exact mean over any grouping of the
    # coordinates, rounded once, is exact_density's value.
    pattern = shared_pair_triples()
    s = len(simplicial_support(pattern))
    flat = exact_density(pattern, fixture_w)
    rng = random.Random(5)
    coords = list(range(s))
    for _ in range(5):
        rng.shuffle(coords)
        cut = sorted(rng.sample(range(1, s), rng.randint(1, 3)))
        groups = []
        prev = 0
        for c in cut + [s]:
            groups.append(coords[prev:c])
            prev = c
        assert float(nested_density(pattern, fixture_w, groups)) == flat


@cache
def _orbits(k, l):
    idx = subset_indexing(k)
    return sorted({idx.canonicalize(b) for b in product(range(l), repeat=idx.n_coords)})


def _random_w(k, l, kind, density, rng):
    values = {
        o: 1.0 if kind == INDICATOR else rng.random()
        for o in _orbits(k, l)
        if rng.random() < density
    }
    return StepHypergraphon(k, l, kind, values)


@st.composite
def density_cases(draw):
    """(pattern, W) at k in {2, 3}, with at most 2**11 boxes for the oracle.

    W is an indicator, a projected W with random values, or the projection
    of either; projected values make the rounding of every sum visible.
    """
    k = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(k, k + 2))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), k))), unique=True,
                          max_size=3))
    pattern = UniformHypergraph(k, n, sorted(edges))
    s = len(simplicial_support(pattern))
    l = draw(st.sampled_from([l for l in (1, 2, 3) if l**s <= 2**11]))
    kind = draw(st.sampled_from((INDICATOR, PROJECTED)))
    density = draw(st.sampled_from((0.1, 0.5, 0.9, 1.0)))
    w = _random_w(k, l, kind, density, random.Random(draw(st.integers(0, 2**32))))
    return pattern, project(w) if draw(st.booleans()) else w


@given(density_cases())
@example((shared_pair_triples(), project(build_fixture_w())))
@example((triangle(), extreme_w()))
def test_exact_density_is_the_exact_sum_rounded_once(case):
    pattern, w = case
    assert exact_density(pattern, w) == float(flat_density(pattern, w))


# -- Monte Carlo ---------------------------------------------------------------


def test_mc_density_is_deterministic(fixture_w):
    pattern = single_triple()
    a = mc_density(pattern, fixture_w, 6000, seed=11)
    b = mc_density(pattern, fixture_w, 6000, seed=11)
    assert a == b
    assert mc_density(pattern, fixture_w, 6000, seed=12) != a


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_mc_density_draws_are_the_documented_streams(half_w, seed):
    # Sample i reads its support coordinates from stream(seed, "mc", i).
    # Indicator values make every estimate an exact hit count, so checking
    # each prefix of the samples pins each sample's own value.
    pattern = triangle()
    support = simplicial_support(pattern)
    idx = subset_indexing(2)
    hits = []
    for i in range(40):
        st = stream(seed, "mc", i)
        assign = {sub: (st.next_u64() * 2) >> 64 for sub in support}
        hits.append(all(
            half_w.eval_box([assign[tuple(e[p] for p in pos)] for pos in idx.subsets]) == 1.0
            for e in pattern.edges
        ))
    assert 0 < sum(hits) < len(hits)
    for n_samples in range(2, len(hits) + 1):
        estimate = mc_density(pattern, half_w, n_samples, seed).estimate
        assert estimate == sum(hits[:n_samples]) / n_samples


def reference_mc_density(pattern, w, n_samples, seed):
    """The sequential definition of mc_density: (estimate, standard error).

    Sample i draws all s support coordinates in order from
    Stream(fold(derive(seed, "mc"), i)); its value is the exact product of
    its edges' ``eval_box`` values as Fractions. The estimate is the exact
    mean, and the standard error the square root of the exact ddof=1
    variance over n_samples, each rounded to a float once.
    """
    support = simplicial_support(pattern)
    coord_maps = _edge_coordinate_map(pattern, support)
    base = derive(seed, "mc")
    values = []
    for i in range(n_samples):
        st_i = Stream(fold(base, i))
        assign = [(st_i.next_u64() * w.resolution) >> 64 for _ in support]
        value = Fraction(1)
        for cmap in coord_maps:
            value *= Fraction(w.eval_box([assign[c] for c in cmap]))
        values.append(value)
    mean = sum(values, Fraction(0)) / n_samples
    variance = sum(((v - mean) ** 2 for v in values), Fraction(0)) / (n_samples - 1)
    return float(mean), sqrt(float(variance / n_samples))


def _dense_projected_w(k, l, seed):
    # Every orbit nonzero, each at its own random value.
    rng = random.Random(seed)
    return StepHypergraphon(k, l, PROJECTED, {o: rng.random() for o in _orbits(k, l)})


@st.composite
def mc_cases(draw):
    """(pattern, W): W of either kind at k, l in 1..3, empty at density 0.

    Projected values are distinct random floats, so a change in the order
    of the product over edges shows up in the last bits.
    """
    k, l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    density = draw(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))
    kind = draw(st.sampled_from((INDICATOR, PROJECTED)))
    w = _random_w(k, l, kind, density, random.Random(draw(st.integers(0, 2**32))))
    # Random patterns include edgeless ones and ones with isolated vertices.
    n = draw(st.integers(0, 5))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), k))), unique=True,
                          max_size=4)) if n >= k else []
    patterns = [UniformHypergraph(k, n, sorted(edges)), complete_hypergraph(k, k + 2)]
    if k == 3:
        patterns.append(shared_pair_triples())
    return draw(st.sampled_from(patterns)), w


@given(mc_cases(), st.integers(2, 60),
       st.one_of(st.sampled_from((0, MASK64)), st.integers(0, MASK64)))
@example((complete_hypergraph(2, 4), _dense_projected_w(2, 2, seed=1)), 60, 0)
@example((triangle(), extreme_w()), 60, 0)
def test_mc_density_equals_the_sequential_reference_bit_for_bit(case, n_samples, seed):
    pattern, w = case
    est = mc_density(pattern, w, n_samples, seed)
    assert (est.estimate, est.standard_error) == reference_mc_density(pattern, w, n_samples, seed)


@pytest.mark.parametrize("n_samples", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_mc_density_equals_the_reference_across_block_edges(half_w, n_samples):
    # Samples are hashed a block of _BLOCK at a time. The cases drop samples
    # at checked coordinates (half_w), drop none (every box of the dense W
    # is nonzero), or have no edge, where every sample is 1.
    cases = [(triangle(), half_w), (complete_hypergraph(2, 4), _dense_projected_w(2, 2, seed=1)),
             (UniformHypergraph(2, 3, []), half_w)]
    for pattern, w in cases:
        for seed in (0, MASK64):
            est = mc_density(pattern, w, n_samples, seed)
            assert (est.estimate, est.standard_error) == reference_mc_density(pattern, w, n_samples, seed)
    assert mc_density(UniformHypergraph(2, 3, []), half_w, n_samples, 5)[:2] == (1.0, 0.0)


@pytest.mark.parametrize("l", [2**64 - 1, 2**64])
def test_mc_density_boxes_the_widest_lane_products_exactly(l):
    # m * l nearly fills a lane's 128-bit slot here. W holds the box of
    # every third sample's draw, so the estimate counts those samples, and
    # a box read from the wrong half or the wrong slot shows.
    seed, n_samples = 7, _BLOCK + 5
    base = derive(seed, "mc")
    boxes = [(Stream(fold(base, i)).next_u64() * l) >> 64 for i in range(n_samples)]
    kept = set(boxes[::3])
    w = StepHypergraphon(1, l, INDICATOR, {(b,): 1.0 for b in kept})
    pattern = UniformHypergraph(1, 1, [(0,)])
    est = mc_density(pattern, w, n_samples, seed)
    assert est.estimate == sum(b in kept for b in boxes) / n_samples
    assert (est.estimate, est.standard_error) == reference_mc_density(pattern, w, n_samples, seed)


def test_mc_density_matches_exact_within_four_sigma(fixture_w):
    pattern = single_triple()
    exact = exact_density(pattern, fixture_w)
    est = mc_density(pattern, fixture_w, 8000, seed=0)
    assert est.standard_error > 0
    assert abs(est.estimate - exact) <= 4 * est.standard_error


def test_mc_density_rejects_tiny_sample_counts(fixture_w):
    with pytest.raises(ValueError):
        mc_density(single_triple(), fixture_w, 1, seed=0)


@pytest.mark.parametrize("n_samples", [1, 2.5, 2.0, True, float("nan"), float("inf")])
def test_mc_density_refuses_a_bad_sample_count_before_any_sample(monkeypatch, fixture_w, n_samples):
    forbid_work(monkeypatch, (hypergraphon_module, "simplicial_support"), (hypergraphon_module, "derive"))
    with pytest.raises(ValueError, match="n_samples must be an int of at least 2"):
        mc_density(single_triple(), fixture_w, n_samples, seed=0)


# -- sampling ------------------------------------------------------------------


def test_sampling_the_all_one_indicator_gives_complete(fixture_w):
    w1 = StepHypergraphon(3, 1, INDICATOR, {(0,) * 7: 1.0})
    sample = sample_w_random(w1, 7, seed=3)
    assert sample.hypergraph == complete_hypergraph(3, 7)

    w0 = StepHypergraphon(3, 1, INDICATOR, {})
    assert sample_w_random(w0, 7, seed=3).hypergraph.edges == ()


@pytest.mark.parametrize("n", [-1, 2.5, 3.0, True])
def test_sampling_refuses_a_bad_vertex_count_before_any_draw(monkeypatch, fixture_w, n):
    forbid_work(monkeypatch, (hypergraphon_module, "subset_draws"))
    with pytest.raises(ValueError, match="n_vertices must be an int of at least 0"):
        sample_w_random(fixture_w, n, seed=0)


def test_sampling_rejects_projected_kind():
    with pytest.raises(ValueError, match="indicator"):
        sample_w_random(constant_hypergraphon(2, 0.5), 5, seed=0)


def test_half_indicator_edge_density_is_binomial_at_half(half_w):
    # Each pair is an independent fair coin, so the sampled density sits
    # within 4 sigma of 1/2, sigma = sqrt(0.25 / C(100,2)).
    sample = sample_w_random(half_w, 100, seed=0)
    sigma = sqrt(0.25 / comb(100, 2))
    assert abs(float(Fraction(len(sample.hypergraph.edges), comb(100, 2))) - 0.5) <= 4 * sigma


def test_sample_latents_cover_all_subsets(fixture_w):
    sample = sample_w_random(fixture_w, 5, seed=9)
    assert len(sample.latents) == comb(5, 1) + comb(5, 2) + comb(5, 3)
    assert all(0 <= m < 2**64 for m in sample.latents)


def lat_subsets(n, k):
    """Every subset of range(n) of size 1..k, by size, then lexicographically."""
    return [s for r in range(1, k + 1) for s in combinations(range(n), r)]


def test_sampling_matches_latent_boxes_exactly(fixture_w):
    # Edge iff the indicator is 1 on the subset boxes; recompute directly.
    sample = sample_w_random(fixture_w, 8, seed=21)
    idx = subset_indexing(3)
    boxes = {sub: (m * 2) >> 64 for sub, m in zip(lat_subsets(8, 3), sample.latents)}
    edge_set = sample.hypergraph.edge_set
    for e in combinations(range(8), 3):
        vec = tuple(boxes[tuple(e[i] for i in pos)] for pos in idx.subsets)
        assert (fixture_w.eval_box(vec) == 1.0) == (e in edge_set)


def test_latents_are_a_read_only_typed_store(fixture_w):
    sample = sample_w_random(fixture_w, 6, seed=5)
    # A held latent cannot become one that the LAT reader refuses, nor change at all.
    with pytest.raises(TypeError):
        sample.latents[0] = 2**64
    with pytest.raises(TypeError):
        sample.latents[0] = 0
    values = sample.latents.tolist()
    given = LatentSample(sample.hypergraph, values, sample.seed)
    values[0] ^= 1  # the caller's list is copied, not kept
    for s in (sample, given):
        assert isinstance(s.latents, memoryview)
        assert (s.latents.readonly, s.latents.format, s.latents.itemsize) == (True, "Q", 8)
    assert given.latents.tolist() == sample.latents.tolist()
    assert given == sample


def test_latent_samples_compare_by_value_and_have_no_hash(fixture_w):
    sample = sample_w_random(fixture_w, 5, seed=3)
    latents = sample.latents.tolist()
    assert sample == LatentSample(sample.hypergraph, latents, 3)
    assert sample != LatentSample(sample.hypergraph, latents, 4)
    assert sample != LatentSample(sample.hypergraph, [m ^ 1 for m in latents], 3)
    with pytest.raises(TypeError):
        hash(sample)


def test_sampling_refuses_a_resolution_past_64_bits():
    # Boxes are held in typed arrays of at most 64 bits.
    with pytest.raises(ValueError, match=r"above 2\*\*64"):
        sample_w_random(StepHypergraphon(1, 2**64 + 1, INDICATOR, {}), 3, seed=0)
    top = (2**64 - 1,)
    sample = sample_w_random(StepHypergraphon(1, 2**64, INDICATOR, {top: 1.0}), 3, seed=0)
    assert list(sample.hypergraph.edges) == [(v,) for v in range(3) if sample.latents[v] == top[0]]


SEEDS = (0, 1, 2**40 + 17, 2**64 - 1)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sampled_latents_are_the_documented_streams(k):
    # The prefix walk must reproduce stream(seed, "latent", r, *sub) for
    # every subset, in size-then-lex order.
    w = StepHypergraphon(k, 1, INDICATOR, {})
    for n in sorted({0, 1, k - 1, k, 9}):
        for seed in SEEDS:
            expected = [
                stream(seed, "latent", len(sub), *sub).next_u64() for sub in lat_subsets(n, k)
            ]
            assert sample_w_random(w, n, seed).latents.tolist() == expected


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_a_sample_keeps_its_latents_in_an_exact_size_store(k):
    # The store is allocated at its final size and filled in place, so it
    # holds no growth slack: its size is its items plus the array header.
    header = sys.getsizeof(array("Q"))
    w = StepHypergraphon(k, 1, INDICATOR, {})
    for n in sorted({0, 1, k, 9, 80 // k}):
        store = sample_w_random(w, n, 7).latents.obj
        assert type(store) is array and store.typecode == "Q"
        assert len(store) == sum(comb(n, r) for r in range(1, k + 1))
        assert sys.getsizeof(store) == header + store.itemsize * len(store)


@cache
def _every_lower_vector_live(k: int, l: int) -> StepHypergraphon:
    """W is 1 iff the top box is 0: every lower box vector can give an edge."""
    idx = subset_indexing(k)
    lower = product(range(l), repeat=idx.n_coords - 1)
    return StepHypergraphon(k, l, INDICATOR, {idx.canonicalize(b + (0,)): 1.0 for b in lower})


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_sampled_edges_match_eval_box_on_random_w(k, l):
    # W holds a seeded random half of the orbits that the sample's own
    # box vectors fall in, so edges and non-edges both occur. W with an
    # empty table and W with every lower vector live are checked too;
    # the graph-only sampler must give the same graph on every W.
    idx = subset_indexing(k)
    rng = random.Random(1000 * k + l)
    for n, seed in ((k, 5), (9, 2**40 + 17)):
        latents = sample_w_random(StepHypergraphon(k, l, INDICATOR, {}), n, seed).latents
        by_subset = dict(zip(lat_subsets(n, k), latents))

        def vec(e):
            return tuple((by_subset[tuple(e[i] for i in pos)] * l) >> 64 for pos in idx.subsets)

        orbits = sorted({idx.canonicalize(vec(e)) for e in combinations(range(n), k)})
        half = StepHypergraphon(k, l, INDICATOR, {o: 1.0 for o in orbits if rng.random() < 0.5})
        empty = StepHypergraphon(k, l, INDICATOR, {})
        # At k = 4, l = 3 that W would hold 3**14 lower vectors; l <= 2 covers k = 4.
        dense = [_every_lower_vector_live(k, l)] if l ** (2**k - 2) <= 2**14 else []
        for w in [half, empty, *dense]:
            sample = sample_w_random(w, n, seed)
            assert sample.latents == latents
            expected = [e for e in combinations(range(n), k) if w.eval_box(vec(e)) == 1.0]
            assert list(sample.hypergraph.edges) == expected
            assert sample_hypergraph(w, n, seed) == sample.hypergraph


def test_an_empty_w_walks_no_prefix_past_the_first_vertex(monkeypatch):
    # With no box in W's support no key prefix is live: the graph-only
    # sampler folds the root hash (seed, "latent", k) and no vertex.
    folds = []
    monkeypatch.setattr(hypergraphon_module, "fold", lambda h, v: folds.append(v) or fold(h, v))
    for k in (1, 2, 3, 4):
        folds.clear()
        assert sample_hypergraph(StepHypergraphon(k, 2, INDICATOR, {}), 12, seed=1).edges == ()
        assert folds == [k]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_the_graph_only_sampler_draws_the_documented_top_streams(k):
    # W is 1 iff the top box is 0 at l = 2, and every lower vector is
    # live, so every k-subset's edge is decided by its own top stream.
    # At the last n the live candidates fill more than one block of hashed lanes.
    w = _every_lower_vector_live(k, 2)
    for n in sorted({0, k, 9, past_one_block(k)}):
        for seed in SEEDS:
            expected = [
                e for e in combinations(range(n), k)
                if stream(seed, "latent", k, *e).next_u64() < 2**63
            ]
            assert list(sample_hypergraph(w, n, seed).edges) == expected


def test_sampling_leaves_no_cycle_for_the_collector(fixture_w):
    # The sampler takes core.prefix_walk, a recursive closure, pruned to
    # W's live keys: unlinked when the walk ends, the walk's rows and the
    # sampler's live and top tables are freed by reference count.
    assert cyclic_garbage(lambda: sample_hypergraph(fixture_w, 40, 0))[0] == 0
    assert cyclic_garbage(lambda: sample_w_random(fixture_w, 40, 0))[0] == 0


def test_sample_w_random_keeps_one_latent_store_at_its_peak(fixture_w):
    # The top level is drawn straight into the store that the sample keeps,
    # with no copy: the peak is what the sample holds plus a block's worth
    # of buffers, not a second store of every latent.
    sample_w_random(fixture_w, 8, 0)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        sample = sample_w_random(fixture_w, 60, 0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    store = 8 * len(sample.latents)
    assert peak - held < store // 2, (peak, held, store)


# -- projection ----------------------------------------------------------------


def test_projection_identity_on_fixtures():
    patterns = {2: [triangle()], 3: [single_triple(), shared_pair_triples()]}
    for w in (build_half_w(), build_fixture_w(), constant_hypergraphon(2, 0.75)):
        projected = project(w)
        assert projected.kind == PROJECTED
        for pattern in patterns[w.k]:
            lhs = exact_density(pattern, w)
            rhs = exact_density(pattern, projected)
            assert abs(lhs - rhs) < CLOSED_FORM_TOL


def test_projection_averages_the_top_coordinate(half_w):
    projected = project(half_w)
    # Pair box averaged over its two values: (1 + 0) / 2.
    assert projected.eval_box((0, 0, 0)) == 0.5
    assert projected.eval_box((0, 0, 1)) == 0.5
    assert projected.eval_box((0, 1, 1)) == 0.5


@pytest.mark.parametrize("k,l", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("kind", [INDICATOR, PROJECTED])
def test_projection_is_the_exact_mean_over_the_top_coordinate_rounded_once(k, l, kind):
    w = random_symmetric_w(k, l, kind, seed=100 * k + l)
    expected = {}
    for box in _orbits(k, l):
        mean = sum(Fraction(w.eval_box(box[:-1] + (t,))) for t in range(l)) / l
        if mean:
            expected[box] = float(mean)
    projected = project(w)
    assert projected.kind == PROJECTED
    assert projected.values == expected


# -- HGON format ---------------------------------------------------------------


def test_hgon_round_trip(fixture_w):
    for w in (fixture_w, build_half_w(), constant_hypergraphon(2, 0.3)):
        assert parse_hypergraphon(serialize_hypergraphon(w)) == w


def test_hgon_serialization_is_stable(fixture_w):
    assert serialize_hypergraphon(fixture_w) == (
        "HGON 3 2 ind 4\n"
        "0 0 0 0 0 0 0 1\n"
        "0 0 1 0 0 0 0 1\n"
        "0 1 1 0 0 0 0 1\n"
        "1 1 1 0 0 0 0 1\n"
    )


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "missing HGON header"),
        ("HGON 2 2 ind\n", "malformed header"),
        ("HGON 2 2 fuzzy 0\n", "kind"),
        ("HGON 2 2 ind 1\n", "expected 1 entry"),
        ("HGON 2 2 ind 1\n0 0 1\n", "expected 3 box indices"),
        ("HGON 2 2 ind 1\n0 0 2 1\n", "out of range"),
        ("HGON 2 2 ind 1\n1 0 0 1\n", "not a canonical"),
        ("HGON 2 2 ind 2\n0 0 0 1\n0 0 0 1\n", "duplicate"),
        ("HGON 2 2 ind 1\n0 0 0 0.5\n", "value 1"),
        ("HGON 2 2 proj 1\n0 0 0 1.5\n", "outside"),
    ],
)
def test_hgon_parse_errors(text, fragment):
    with pytest.raises(FormatError, match=fragment):
        parse_hypergraphon(text)


@pytest.mark.parametrize(
    "text,message",
    [
        # A whole orbit listed: its second box is refused.
        ("HGON 2 2 ind 3\n0 0 0 1\n0 1 0 1\n1 0 0 1\n",
         "line 4: box (1, 0, 0) is not a canonical orbit representative"),
        # A non-canonical box is reported ahead of any later fault.
        ("HGON 2 2 ind 2\n1 0 0 1\n0 0 0 0.5\n",
         "line 2: box (1, 0, 0) is not a canonical orbit representative"),
        ("HGON 2 2 ind 2\n1 0 0 1\n1 0 0 1\n",
         "line 2: box (1, 0, 0) is not a canonical orbit representative"),
        ("HGON 2 2 ind 2\n1 0 0 1\n0 0\n",
         "line 2: box (1, 0, 0) is not a canonical orbit representative"),
        ("HGON 2 2 ind 1\n1 0 0 0.5\n",
         "line 2: box (1, 0, 0) is not a canonical orbit representative"),
        # An earlier fault is reported ahead of a later non-canonical box.
        ("HGON 2 2 ind 2\n0 0 0 0.5\n1 0 0 1\n", "line 2: indicator entries must have value 1"),
        ("HGON 2 2 ind 3\n0 0 0 1\n0 0 0 1\n1 0 0 1\n", "line 3: duplicate orbit entry (0, 0, 0)"),
    ],
)
def test_hgon_reports_the_first_faulty_line(text, message):
    with pytest.raises(FormatError) as info:
        parse_hypergraphon(text)
    assert str(info.value) == message


HGON_PROJ = "HGON 2 2 proj 3\n0 0 0 0.5\n0 0 1 0.5\n0 1 1 0.5\n"


@pytest.mark.parametrize(
    "faults,fragment",
    [
        # A value fault on line 2 ahead of a syntax fault on line 4, and the reverse.
        ({1: "0 0 0 1.5", 3: "0 1 1 x"}, "value 1.5 outside [0, 1]"),
        ({1: "0 0 0 x", 3: "0 1 1 1.5"}, "value 'x' is not a number"),
        ({1: "0 0 2 0.5", 3: "0 1"}, "out of range 0..1"),
        ({1: "0 0", 3: "0 0 2 0.5"}, "expected 3 box indices and a value"),
        # Two value faults.
        ({1: "0 0 0 2", 3: "1 0 1 0.5"}, "value 2.0 outside [0, 1]"),
        ({1: "1 0 1 0.5", 3: "0 1 1 2"}, "box (1, 0, 1) is not a canonical"),
    ],
)
def test_hgon_reports_the_first_of_two_faulty_lines(faults, fragment):
    lines = HGON_PROJ.splitlines()
    for i, line in faults.items():
        lines[i] = line
    with pytest.raises(FormatError) as info:
        parse_hypergraphon("\n".join(lines) + "\n")
    assert info.value.line == 2 and fragment in str(info.value)


@st.composite
def step_hypergraphons(draw, kinds=(INDICATOR, PROJECTED)):
    """A W at k, l <= 3 on a random set of orbits: an indicator, or values in [0, 1]."""
    k = draw(st.integers(1, 3))
    l = draw(st.integers(1, 3))
    orbits = draw(st.lists(st.sampled_from(_orbits(k, l)), unique=True, max_size=40))
    if draw(st.sampled_from(kinds)) == INDICATOR:
        return StepHypergraphon(k, l, INDICATOR, dict.fromkeys(orbits, 1.0))
    return StepHypergraphon(k, l, PROJECTED, {o: draw(st.floats(0.0, 1.0)) for o in orbits})


@given(step_hypergraphons())
@example(extreme_w())
def test_hgon_round_trips_on_random_w(w):
    text = serialize_hypergraphon(w)
    parsed = parse_hypergraphon(text)
    assert parsed == w
    assert serialize_hypergraphon(parsed) == text


# -- LAT format ----------------------------------------------------------------


@given(step_hypergraphons(kinds=(INDICATOR,)), st.integers(0, 6), st.integers(0, 2**64 - 1))
def test_lat_round_trips_on_random_samples(w, n, seed):
    sample = sample_w_random(w, n, seed)
    text = serialize_latents(sample)
    parsed = parse_latents(text)
    assert parsed == sample
    assert serialize_latents(parsed) == text


def test_lat_round_trip_is_bit_exact(fixture_w):
    sample = sample_w_random(fixture_w, 6, seed=2**40 + 17)
    text = serialize_latents(sample)
    parsed = parse_latents(text)
    assert parsed.hypergraph == sample.hypergraph
    assert parsed.latents == sample.latents
    assert parsed.seed == sample.seed
    assert serialize_latents(parsed) == text


def test_lat_parse_errors(fixture_w):
    sample = sample_w_random(fixture_w, 4, seed=1)
    text = serialize_latents(sample)
    with pytest.raises(FormatError):
        parse_latents(text.replace("LAT 3 4 1", "LAT 3 5 1", 1))
    with pytest.raises(FormatError):
        parse_latents("LAT 3 4 1\n")
    with pytest.raises(FormatError, match="latent lines"):
        parse_latents("LAT 1 1000000000000 1\n0 0000000000000000\n")
    bad = text.replace("0 1 2 ", "0 1 5 ", 1)
    with pytest.raises(FormatError):
        parse_latents(bad)


@pytest.mark.parametrize(
    "latents,seed,match",
    [
        ([2**64, 0], 0, "latent 18446744073709551616 outside"),  # 17 hex digits
        ([-1, 0], 0, "latent -1 outside"),  # a signed token
        ([0, 2**64 - 1], -5, "seed"),
        ([0, 2**64 - 1], 2**64, "seed"),
        ([2**64, "a"], 0, "latent 18446744073709551616 outside"),  # one value past 64 bits, one not an int
        ([True, 0], 0, "latent True outside"),  # array('Q') would read it as 1
    ],
)
def test_latent_sample_refuses_what_its_lat_file_could_not_hold(latents, seed, match):
    # Two vertices at k = 2: two singleton latents, then the pair's.
    empty = UniformHypergraph(2, 2, [])
    with pytest.raises(ValueError, match=match):
        LatentSample(empty, latents + [0], seed)
    with pytest.raises(ValueError, match="latent True outside"):
        LatentSample(empty, memoryview(bytes([1, 0, 0])).cast("?"), 0)  # a view can yield bools
    extreme = LatentSample(empty, [0, 2**64 - 1, 0], 2**64 - 1)
    assert parse_latents(serialize_latents(extreme)) == extreme


@pytest.mark.parametrize(
    "token",
    [
        "0x0123456789abcdef",  # radix prefix
        "+0123456789abcdef",  # sign
        "01234567_89abcdef",  # digit separator
        "123456789abcdef",  # 15 digits
        "00123456789abcdef",  # 17 digits
        "0123456789ABCDEF",  # upper case
    ],
)
def test_lat_latents_are_exactly_16_lowercase_hex_digits(fixture_w, token):
    lines = serialize_latents(sample_w_random(fixture_w, 4, seed=1)).splitlines()
    lines[1] = "0 " + token
    with pytest.raises(FormatError, match="^line 2: .*16 lowercase hex digits"):
        parse_latents("\n".join(lines) + "\n")


@pytest.mark.parametrize("a,b", [(1, 2), (5, 6), (4, 5)])
def test_lat_lines_must_be_in_size_then_lex_order(fixture_w, a, b):
    # Swaps (0,) with (1,), (0, 1) with (0, 2), and (3,) with (0, 1).
    lines = serialize_latents(sample_w_random(fixture_w, 4, seed=1)).splitlines()
    lines[a], lines[b] = lines[b], lines[a]
    with pytest.raises(FormatError, match=f"^line {a + 1}: .*out of order"):
        parse_latents("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "faults,lineno,fragment",
    [
        # Lines 2 to 7 hold the six latents, 8 the HG header, 9 and 10 the edges.
        ({1: "0 zz", 9: "1 9"}, 2, "'zz' is not a fraction"),
        ({8: "0 9", 9: "1 x"}, 9, "vertex 9 out of range"),
        ({8: "0 x", 9: "1 9"}, 9, "vertex id: 'x' is not an integer"),
        ({8: "1 0", 9: "0 9"}, 9, "strictly increasing"),
    ],
)
def test_lat_reports_the_first_of_two_faulty_lines(faults, lineno, fragment):
    sample = LatentSample(UniformHypergraph(2, 3, [(0, 1), (1, 2)]), [0] * 6, 5)
    lines = serialize_latents(sample).splitlines()
    assert lines[7:] == ["HG 2 3 2", "0 1", "1 2"]
    for i, line in faults.items():
        lines[i] = line
    with pytest.raises(FormatError) as info:
        parse_latents("\n".join(lines) + "\n")
    assert info.value.line == lineno and fragment in str(info.value)


def test_lat_reports_embedded_hg_faults_at_their_file_line(fixture_w):
    lines = serialize_latents(sample_w_random(fixture_w, 4, seed=1)).splitlines()
    assert lines[-1] == "0 1 2"
    lines[-1] = "0 1 9"
    with pytest.raises(FormatError, match=f"^line {len(lines)}: vertex 9 out of range"):
        parse_latents("\n".join(lines) + "\n")
