"""Hitting sets over image families and end-to-end removal experiments."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from hyperlim import (
    BudgetError,
    UniformHypergraph,
    complete_hypergraph,
    exact_hitting_set,
    hom_count,
    removal_experiment,
)
from hyperlim.homomorphism import HomImageSet, enumerate_hom_images
from hyperlim.removal import _branch_and_bound, _decode, _encode

from conftest import REMOVAL_WORK, forbid_work, single_triple, triangle


def image_set(*images):
    return HomImageSet(frozenset(frozenset(i) for i in images))


def brute_minimum(images):
    cands = sorted({e for img in images for e in img})
    for m in range(len(cands) + 1):
        for sub in combinations(cands, m):
            if all(set(sub) & img for img in images):
                return m
    raise AssertionError("unhittable family")


def _reference_packing_bound(uncovered):
    # Edge-disjoint images each force a distinct removal.
    used = 0
    bound = 0
    for _, _, mask in uncovered:
        if not mask & used:
            bound += 1
            used |= mask
    return bound


def reference_hitting_set(images):
    """The list-based branch and bound that the bitset search replaced.

    Recursive, no sibling exclusion, packing bound rebuilt over the image
    list at every node; the edges it returns are the ones to match.
    """
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

    best = []
    remaining = encoded
    while remaining:
        coverage = [0] * len(candidates)
        for _, bits, _ in remaining:
            for i in bits:
                coverage[i] += 1
        pick = coverage.index(max(coverage))
        best.append(pick)
        remaining = [img for img in remaining if not img[2] & 1 << pick]
    best.sort()

    def search(uncovered, chosen):
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best):
                best = sorted(chosen)
            return
        if len(chosen) + _reference_packing_bound(uncovered) >= len(best):
            return
        _, branch, _ = min(uncovered)
        for i in branch:
            chosen.append(i)
            search([img for img in uncovered if not img[2] & 1 << i], chosen)
            chosen.pop()

    search(encoded, [])
    return tuple(candidates[i] for i in best)


def search(images):
    """The bitset search: (hitting set, node count)."""
    family = _encode(images)
    best, nodes = _branch_and_bound(family)
    return _decode(family, best), nodes


def random_family(rng):
    # Images drawn from a sliding window of at most 12 edges keep the large
    # families sparse enough for the reference to finish quickly.
    edges = [(0, i + 1) for i in range(rng.randint(1, 100))]
    size = rng.randint(1, 4)
    width = rng.randint(size, max(size, min(len(edges), 12)))
    images = set()
    for _ in range(rng.randint(1, 100)):
        start = rng.randrange(max(1, len(edges) - width + 1))
        window = edges[start:start + width]
        images.add(frozenset(rng.sample(window, rng.randint(1, min(size, len(window))))))
    return frozenset(images)


# -- hitting sets -----------------------------------------------------------


def test_single_image_needs_one_edge():
    hs = image_set([(0, 1), (1, 2)])
    assert exact_hitting_set(hs, budget=0)[0] == ((0, 1),)
    removed, optimal = exact_hitting_set(hs)
    assert removed == ((0, 1),) and optimal


def test_disjoint_images_need_one_edge_each():
    hs = image_set([(0, 1)], [(2, 3)], [(4, 5)])
    assert exact_hitting_set(hs, budget=0)[0] == ((0, 1), (2, 3), (4, 5))
    removed, optimal = exact_hitting_set(hs)
    assert len(removed) == 3 and optimal


def test_common_edge_collapses_the_family():
    hs = image_set([(0, 1), (0, 2)], [(0, 1), (3, 4)], [(0, 1)])
    assert exact_hitting_set(hs, budget=0)[0] == ((0, 1),)
    assert exact_hitting_set(hs) == (((0, 1),), True)


def test_empty_family_is_already_hit():
    hs = HomImageSet(frozenset())
    assert exact_hitting_set(hs, budget=0)[0] == ()
    assert exact_hitting_set(hs) == ((), True)


def test_greedy_tie_breaks_toward_the_smallest_edge():
    hs = image_set([(0, 1), (2, 3)], [(4, 5), (6, 7)])
    assert exact_hitting_set(hs, budget=0)[0] == ((0, 1), (4, 5))


def test_exact_beats_greedy_on_a_pinned_instance():
    hs = image_set(
        [(0, 1), (0, 2)],
        [(0, 1), (0, 2), (0, 4)],
        [(0, 1), (0, 4), (0, 5)],
        [(0, 2)],
        [(0, 3), (0, 5)],
        [(0, 4)],
    )
    assert exact_hitting_set(hs, budget=0)[0] == ((0, 1), (0, 2), (0, 3), (0, 4))
    removed, optimal = exact_hitting_set(hs)
    assert removed == ((0, 2), (0, 3), (0, 4)) and optimal


def test_exact_agrees_with_exhaustion_and_greedy_never_wins():
    rng = random.Random(11)
    for _ in range(120):
        edges = [(0, i + 1) for i in range(rng.randint(4, 8))]
        images = [
            frozenset(rng.sample(edges, rng.randint(1, 3)))
            for _ in range(rng.randint(3, 7))
        ]
        hs = HomImageSet(frozenset(images))
        removed, optimal = exact_hitting_set(hs)
        assert optimal
        assert all(set(removed) & img for img in images)
        assert len(removed) == brute_minimum(images)
        assert len(exact_hitting_set(hs, budget=0)[0]) >= len(removed)


def test_negative_budget_is_refused():
    hs = image_set([(0, 1)])
    with pytest.raises(ValueError, match="budget"):
        exact_hitting_set(hs, budget=-1)
    assert exact_hitting_set(hs, budget=0) == (((0, 1),), False)


def test_budget_overflow_falls_back_to_greedy():
    hs = image_set(*([(2 * i, 100), (2 * i + 1, 100)] for i in range(13)))
    assert len({e for img in hs.images for e in img}) == 26
    removed, optimal = exact_hitting_set(hs)
    assert not optimal
    assert removed == exact_hitting_set(hs, budget=0)[0]
    removed, optimal = exact_hitting_set(hs, budget=26)
    assert optimal and len(removed) == 13


def test_search_returns_the_reference_edges_on_seeded_families():
    rng = random.Random(2024)
    wide = 0
    for _ in range(2000):
        images = random_family(rng)
        expected = reference_hitting_set(images)
        assert exact_hitting_set(HomImageSet(images), budget=100) == (expected, True)
        wide += len(images) > 64 and len({e for img in images for e in img}) > 64
    # Image and edge bitsets both span more than one machine word here.
    assert wide >= 50


@given(
    st.lists(
        st.frozensets(st.integers(0, 140).map(lambda v: (v, v + 1)), min_size=1, max_size=4),
        max_size=24,
    )
)
@settings(max_examples=300, deadline=None)
def test_search_matches_the_reference_on_generated_families(images):
    images = frozenset(images)
    assert search(images)[0] == reference_hitting_set(images)


@pytest.mark.parametrize("n,nodes", [(9, 2206), (10, 9716)])
def test_search_on_complete_graphs_matches_the_reference_in_pinned_work(n, nodes):
    # A weaker bound or a lost sibling exclusion raises the node count,
    # which is exact on any machine.
    images = enumerate_hom_images(triangle(), complete_hypergraph(2, n)).images
    removed, visited = search(images)
    # The reference needs about 10 s on K10, so its answer there is pinned.
    expected = reference_hitting_set(images) if n == 9 else decode(K10_REFERENCE_REMOVED)
    assert removed == expected
    assert len(removed) == comb(n, 2) - n * n // 4  # Mantel
    assert visited == nodes


def test_a_search_deeper_than_the_recursion_limit_finishes():
    # 1 100 disjoint triangles under the pinned greedy-beating gadget: the
    # first descent chooses 1 103 edges, one per level.
    gadget = [
        [(0, 1), (0, 2)],
        [(0, 1), (0, 2), (0, 4)],
        [(0, 1), (0, 4), (0, 5)],
        [(0, 2)],
        [(0, 3), (0, 5)],
        [(0, 4)],
    ]
    disjoint = [[(v, v + 1), (v, v + 2), (v + 1, v + 2)] for v in range(10, 3310, 3)]
    hs = image_set(*gadget, *disjoint)
    assert len(exact_hitting_set(hs, budget=0)[0]) == 1104
    removed, optimal = exact_hitting_set(hs, budget=10**4)
    assert optimal and len(removed) == 1103
    assert removed[:3] == ((0, 2), (0, 3), (0, 4))
    assert all(set(removed) & img for img in hs.images)


# -- removal experiments -----------------------------------------------------


def test_hom_free_host_removes_nothing():
    r = removal_experiment(triangle(), UniformHypergraph(2, 4, [(0, 1), (2, 3)]))
    assert r.removed == ()
    assert r.n_images == 0
    assert r.residual == 0
    assert r.verified and r.optimal
    assert r.removed_fraction == 0


def test_host_equal_to_pattern_loses_its_one_edge():
    r = removal_experiment(single_triple(), single_triple())
    assert r.removed == ((0, 1, 2),)
    assert r.removed_fraction == Fraction(1, 1)
    assert r.residual == 0 and r.verified and r.optimal
    assert r.method == "exact"
    assert r.n_images == 1


def test_planted_edge_in_a_bipartite_host_is_found_exactly():
    # K33 is triangle-free; adding (0,1) creates exactly the triangles
    # (0,1,r) for r in the right class, all sharing the planted edge.
    bipartite = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]
    host = UniformHypergraph(2, 6, sorted(bipartite + [(0, 1)]))
    assert hom_count(triangle(), host).count > 0
    r = removal_experiment(triangle(), host)
    assert r.removed == ((0, 1),)
    assert r.removed_fraction == Fraction(1, comb(6, 2))
    assert r.residual == 0 and r.verified and r.optimal
    assert r.n_images == 3


def test_greedy_mode_still_verifies():
    host = complete_hypergraph(2, 4)
    r = removal_experiment(triangle(), host, exact_budget=0)
    assert r.method == "greedy"
    assert r.residual == 0 and r.verified
    # stripping the removed edges kills every copy, by recount
    stripped = host.without_edges(r.removed)
    assert hom_count(triangle(), stripped).count == 0


def test_exact_budget_overflow_reports_greedy_method():
    r = removal_experiment(
        UniformHypergraph(2, 2, [(0, 1)]), complete_hypergraph(2, 5), exact_budget=3
    )
    assert r.method == "greedy"
    assert not r.optimal
    assert len(r.removed) == 10
    assert r.residual == 0 and r.verified


def test_experiment_past_its_cap_raises_before_any_hitting_set(monkeypatch):
    forbid_work(monkeypatch, *REMOVAL_WORK)
    with pytest.raises(BudgetError, match="more than 1 distinct images"):
        removal_experiment(triangle(), complete_hypergraph(2, 6), cap=1)


def test_empty_host_is_trivially_verified():
    r = removal_experiment(triangle(), UniformHypergraph(2, 0, []))
    assert r.removed == ()
    assert r.removed_fraction == 0
    assert r.residual == 0 and r.verified


def test_experiment_validates_inputs():
    with pytest.raises(ValueError, match="budget"):
        removal_experiment(triangle(), complete_hypergraph(2, 4), exact_budget=-1)
    r = removal_experiment(triangle(), complete_hypergraph(2, 4), exact_budget=0)
    assert r.method == "greedy" and r.verified
    with pytest.raises(ValueError, match="at least one edge"):
        removal_experiment(UniformHypergraph(2, 3, []), complete_hypergraph(2, 4))


def test_removal_over_random_hosts_always_verifies():
    rng = random.Random(303)
    for _ in range(25):
        n = rng.randint(3, 6)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        host = UniformHypergraph(2, n, edges)
        r = removal_experiment(triangle(), host)
        assert r.verified and r.residual == 0
        assert hom_count(triangle(), host.without_edges(r.removed)).count == 0
        assert len(r.removed) <= len(edges)


# Hitting sets as returned before images became bitmasks, pinned so that a
# change to the branch order or the tie-break fails even where the optimum
# size holds. Each entry lists the removed edges as two hex digits, one per
# vertex.
K9_REMOVED = "01 06 07 08 16 17 18 23 24 25 34 35 45 67 68 78"
# What reference_hitting_set returns for triangles in K10.
K10_REFERENCE_REMOVED = "01 02 03 04 12 13 14 23 24 34 56 57 58 59 67 68 69 78 79 89"
RANDOM_HOST_REMOVED = [  # (exact, greedy) for host i: G(6 + i % 7, 1/2) drawn by Random(i)
    ("03", "03"),
    ("01 06 25", "01 06 25"),
    ("34", "34"),
    ("07 13", "07 13"),
    ("01 05 15 26 46", "01 05 06 15 16 56"),
    ("13 18 27 59 5a 6a 9a", "13 18 27 59 5a 6a 9a"),
    ("04 09 2a 2b 35 56 7a 8a", "04 09 26 29 35 38 5a 68 7a"),
    ("12 24", "12 24"),
    ("01 23 35 36 56", "01 23 35 36 56"),
    ("02 15 26", "02 15 26"),
    ("04 14 27 46", "04 14 27 46"),
    ("14 29 35 38 47", "01 13 29 36 37 47"),
    ("06 14 15 39 48 57 59 7a", "06 14 15 39 48 57 59 7a"),
    ("05 07 18 19 35 37 49 57 68 69 6a 8a", "05 06 07 18 19 35 36 37 49 56 57 67 6b 8a"),
    ("01", "01"),
    ("06", "06"),
    ("01 07 16 23", "01 07 16 23"),
    ("48 56", "48 56"),
    ("01 03 07 23 56 58", "01 03 07 23 56 58"),
    ("05 0a 12 14 16 1a 4a 59 78", "05 0a 12 14 16 1a 4a 59 78"),
    ("05 13 25 29 46 48 78 ab", "0b 13 1a 25 29 46 48 5a 78"),
]


def decode(pinned: str) -> tuple:
    return tuple(tuple(int(c, 16) for c in token) for token in pinned.split())


def test_exact_search_returns_the_pinned_k9_hitting_set():
    r = removal_experiment(triangle(), complete_hypergraph(2, 9), exact_budget=64)
    assert r.method == "exact" and r.optimal
    assert r.removed == decode(K9_REMOVED)


@pytest.mark.parametrize("i", range(len(RANDOM_HOST_REMOVED)))
def test_hitting_sets_on_random_hosts_are_pinned(i):
    n = 6 + i % 7
    rng = random.Random(i)
    host = UniformHypergraph(2, n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
    exact, greedy = RANDOM_HOST_REMOVED[i]
    r = removal_experiment(triangle(), host, exact_budget=64)
    assert r.method == "exact"
    assert r.removed == decode(exact)
    assert removal_experiment(triangle(), host, exact_budget=0).removed == decode(greedy)
