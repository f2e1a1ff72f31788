"""Determinism and distribution contracts of the seeded stream layer."""

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from hyperlim.rng import (
    _BLOCK, MASK64, Stream, _first_draws, check_seed, derive, fold, mix64, stream, subset_draws,
)


def test_streams_are_pure_functions_of_their_coordinates():
    a = [stream(7, "latent", 1, 5).next_u64() for _ in range(4)]
    b = [stream(7, "latent", 1, 5).next_u64() for _ in range(4)]
    assert a == b

    s = stream(7, "latent", 1, 5)
    assert [s.next_u64() for _ in range(4)] != [s.next_u64() for _ in range(4)]


def test_golden_stream_values_are_frozen():
    # Regression anchors: any change to the mixing constants or the
    # label hashing breaks every seeded artifact in the repo.
    s = stream(0, "latent", 1, 5)
    assert [hex(s.next_u64()) for _ in range(3)] == [
        "0x2cd2dc9aa339c18a",
        "0xbc40ea38cd725b6a",
        "0xd990ebccda20c48",
    ]
    assert derive(0, "hyperpartition", 2, 3, 7) == 0xCCC5FC30A79A32FF
    assert mix64(1) == 0x5692161D100B05E5


def test_labels_and_indices_separate_streams():
    assert derive(0, "latent") != derive(0, "mc")
    assert derive(0, "latent", 1) != derive(0, "latent", 2)
    assert derive(0, "latent", 1, 2) != derive(0, "latent", 2, 1)
    assert derive(1, "latent") != derive(2, "latent")


@given(
    st.integers(0, MASK64), st.text(max_size=8), st.lists(st.integers(0, MASK64), max_size=5)
)
def test_derive_is_a_left_fold_of_its_indices(seed, label, indices):
    h = derive(seed, label)
    for i in indices:
        h = fold(h, i)
    assert h == derive(seed, label, *indices)


# SplitMix64's golden-gamma increment, written out so the test pins it.
GAMMA = 0x9E37_79B9_7F4B_7C15


@given(st.integers(0, MASK64), st.integers(1, 40))
def test_stream_draw_j_is_mix64_of_the_jth_counter(state, j):
    s = Stream(state)
    for _ in range(j - 1):
        s.next_u64()
    assert s.next_u64() == mix64((state + j * GAMMA) % 2**64)


@pytest.mark.parametrize("seed", [0, 1, 2**40 + 17, 2**64 - 1])
def test_subset_draws_are_first_draws_of_the_subset_streams(seed):
    for r in range(1, 5):
        for n in range(0, 9):
            subs = combinations(range(n), r)
            expected = [stream(seed, "latent", r, *sub).next_u64() for sub in subs]
            assert subset_draws(seed, "latent", n, r).tolist() == expected
    # The samplers pass _first_draws gapped lists of live vertices, not ranges.
    for prefix in ((), (2,), (0, 3, 5)):
        h = derive(seed, "latent", len(prefix) + 1, *prefix)
        for vs in ([], [7], [6, 9, 40, 2**20 + 3], [1, 2**64 - 1]):
            expected = [stream(seed, "latent", len(prefix) + 1, *prefix, v).next_u64() for v in vs]
            assert _first_draws([(h, vs)]).tolist() == expected
    with pytest.raises(ValueError):
        subset_draws(seed, "latent", 3, 0)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_bulk_draws_that_cross_blocks_are_the_subset_streams(seed):
    # Rows are laid end to end and hashed _BLOCK lanes at a time: levels
    # whose leaf rows straddle block edges, one row longer than two blocks,
    # and runs of short gapped rows. At about 62% of states h, h + gamma
    # wraps past 2**64.
    for n, r in ((2 * _BLOCK + 3, 1), (60, 2), (22, 3)):
        expected = [stream(seed, "latent", r, *sub).next_u64() for sub in combinations(range(n), r)]
        assert subset_draws(seed, "latent", n, r).tolist() == expected
    rows = [(derive(seed, "latent", 2, p), [p + 1, p + 4, 2**64 - 1]) for p in range(_BLOCK // 2)]
    expected = [stream(seed, "latent", 2, p, v).next_u64() for p in range(_BLOCK // 2)
                for v in (p + 1, p + 4, 2**64 - 1)]
    assert _first_draws(rows).tolist() == expected


def test_mix64_behaves_like_a_permutation_on_a_sample():
    outs = {mix64(i) for i in range(2000)}
    assert len(outs) == 2000
    assert all(0 <= v <= MASK64 for v in outs)


@given(st.integers(0, MASK64), st.integers(1, 10**6))
def test_next_below_stays_in_range(seed, n):
    v = stream(seed, "t").next_below(n)
    assert 0 <= v < n


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "7", None])
def test_check_seed_rejects_non_u64(bad):
    with pytest.raises((ValueError, TypeError)):
        check_seed(bad)


def test_check_seed_accepts_u64_range():
    check_seed(0)
    check_seed(2**64 - 1)
