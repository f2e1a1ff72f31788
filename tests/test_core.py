import pickle
import random
import re
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import hyperlim.homomorphism as homomorphism_module
import hyperlim.regularity as regularity_module
import hyperlim.removal as removal_module
from hyperlim import (
    FormatError,
    Hyperpartition,
    INDICATOR,
    LatentSample,
    StepHypergraphon,
    UniformHypergraph,
    complete_hypergraph,
    enumerate_hom_images,
    exact_hitting_set,
    parse_hypergraph,
    removal_experiment,
    sampled_cylinder_family,
    serialize_hypergraph,
    simplicial_support,
    subset_indexing,
)
from hyperlim.core import _content_lines, prefix_rows, prefix_walk

from conftest import REMOVAL_WORK, cyclic_garbage, forbid_work, triangle


# -- UniformHypergraph construction -------------------------------------------


def test_constructor_accepts_canonical_input():
    h = UniformHypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])
    assert h.k == 2 and h.n_vertices == 3
    assert h.edges == ((0, 1), (0, 2), (1, 2))
    assert (0, 2) in h.edge_set
    assert (2, 0) not in h.edge_set


@pytest.mark.parametrize(
    "k,n,edges",
    [
        (0, 3, []),
        (5, 6, []),
        (2, -1, []),
        (2, 3, [(0, 1, 2)]),       # wrong arity
        (2, 3, [(1, 0)]),          # not increasing
        (2, 3, [(0, 0)]),          # repeated vertex
        (2, 3, [(0, 3)]),          # out of range
        (2, 3, [(0, 2), (0, 1)]),  # not lexicographic
        (2, 3, [(0, 1), (0, 1)]),  # duplicate
    ],
)
def test_constructor_rejects_noncanonical_input(k, n, edges):
    with pytest.raises(ValueError):
        UniformHypergraph(k, n, edges)


@pytest.mark.parametrize(
    "cls,args",
    [
        (UniformHypergraph, (2, 3, [(0, 1.5)])),
        (UniformHypergraph, (2, 3, [(False, True)])),
        (UniformHypergraph, (2.0, 3, [(0, 1)])),
        (UniformHypergraph, (2, 3.0, [(0, 1)])),
        (StepHypergraphon, (2, 2, INDICATOR, {(0, 0, 0.5): 1.0})),
        (StepHypergraphon, (2, 2.0, INDICATOR, {(0, 0, 0): 1.0})),
        (StepHypergraphon, (True, 2, INDICATOR, {})),
        (Hyperpartition, (1, 2, 2.0, [[0, 1]])),
        (Hyperpartition, (1, 3, 2, [[0, 0.5, 1]])),
        (LatentSample, (UniformHypergraph(1, 2, []), [1, 2.5], 0)),
    ],
)
def test_constructors_refuse_values_that_are_not_ints(cls, args):
    # Each value would be written as a token ('1.5', 'False', '2.0') that
    # the format's reader refuses, so the constructor refuses it first.
    with pytest.raises(ValueError, match="int"):
        cls(*args)


def test_from_edges_normalizes():
    h = UniformHypergraph.from_edges(2, 4, [[2, 0], (0, 2), [3, 1]])
    assert h.edges == ((0, 2), (1, 3))
    with pytest.raises(ValueError, match="repeated vertex"):
        UniformHypergraph.from_edges(2, 4, [(1, 1)])


def test_without_edges():
    tri = triangle()
    assert tri.without_edges([(0, 1)]).edges == ((0, 2), (1, 2))


def test_equality_and_hash_are_structural():
    a = UniformHypergraph(2, 3, [(0, 1)])
    b = UniformHypergraph(2, 3, [(0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != UniformHypergraph(2, 4, [(0, 1)])


# -- subset indexing and the coordinate action --------------------------------


def test_subset_order_is_size_then_lex():
    idx = subset_indexing(3)
    assert idx.subsets == ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))
    assert idx.n_coords == 7


@pytest.mark.parametrize("k", [2, 3, 4])
def test_permute_point_respects_composition(k):
    idx = subset_indexing(k)

    def permute_point(p, vec):
        return idx.orbit(vec)[idx.perms.index(p)]

    vec = tuple(range(idx.n_coords))  # all coordinates distinguishable
    for p in idx.perms:
        for q in idx.perms:
            composed = tuple(p[q[i]] for i in range(k))
            assert permute_point(p, permute_point(q, vec)) == permute_point(composed, vec)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_canonicalize_is_orbit_minimum_by_independent_construction(k):
    # Rebuild the action from scratch: position i of the permuted vector
    # reads the original coordinate of the preimage subset. k=1 is the
    # one-coordinate case; k=4 takes a seeded sample over three values.
    idx = subset_indexing(k)
    if k < 4:
        vecs = list(product(range(2), repeat=idx.n_coords))
    else:
        rng = random.Random(4)
        vecs = [tuple(rng.randrange(3) for _ in range(idx.n_coords)) for _ in range(300)]
    for vec in vecs:
        orbit = []
        for p in idx.perms:
            pinv = [0] * k
            for i, pi in enumerate(p):
                pinv[pi] = i
            out = tuple(
                vec[idx.index[tuple(sorted(pinv[a] for a in s))]] for s in idx.subsets
            )
            orbit.append(out)
        assert idx.canonicalize(vec) == min(orbit)
        assert idx.orbit(vec) == orbit
        assert idx.canonicalize(idx.canonicalize(vec)) == idx.canonicalize(vec)
        for image in orbit:
            assert idx.canonicalize(image) == idx.canonicalize(vec)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_coordinate_action_rejects_wrong_length(k):
    idx = subset_indexing(k)
    for n in (idx.n_coords - 1, idx.n_coords + 1):
        vec = (0,) * n
        with pytest.raises(ValueError, match="coordinates"):
            idx.canonicalize(vec)
        with pytest.raises(ValueError, match="coordinates"):
            idx.orbit(vec)


# -- derived constructions -----------------------------------------------------


def test_simplicial_support_of_triangle():
    assert simplicial_support(triangle()) == (
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2),
    )


def test_simplicial_support_of_shared_triples():
    h = UniformHypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])
    support = simplicial_support(h)
    assert len(support) == 4 + 5 + 2  # singles, pairs, triples
    assert (2, 3) not in support  # only subsets of actual edges appear


def test_complete_hypergraph_counts():
    assert len(complete_hypergraph(2, 4).edges) == 6
    assert len(complete_hypergraph(3, 5).edges) == 10
    assert complete_hypergraph(3, 2).edges == ()  # k > n: nothing to take
    with pytest.raises(ValueError):
        complete_hypergraph(5, 6)


def test_link_masks_mark_exactly_the_completing_vertices():
    rng = random.Random(7)
    for k in (1, 2, 3):
        n = 7
        h = UniformHypergraph(k, n, [e for e in combinations(range(n), k) if rng.random() < 0.5])
        edge_set = h.edge_set
        for s in combinations(range(n), k - 1):
            mask = h.links.get(s, 0)
            for v in range(n):
                assert mask >> v & 1 == (tuple(sorted(s + (v,))) in edge_set)
        assert all(mask for mask in h.links.values())


def test_a_prefix_walk_leaves_no_cycle_for_the_collector():
    # The walk is a recursive closure: unlinked when the walk ends or is
    # dropped part way, its rows are freed by reference count.
    n = 12
    rows = [prefix_rows(bytes(comb(n, r)), n, r) for r in (1, 2, 3)]
    assert sum(1 for _ in prefix_walk(rows, 3)) == comb(n, 2)
    # Every value is 0: live keys of zeros walk it all, as an unpruned walk does.
    live = [{(0,)}, {(0, 0, 0)}]
    assert sum(1 for _ in prefix_walk(rows, 3, live)) == comb(n, 2)
    for walk in (lambda: prefix_walk(rows, 3), lambda: prefix_walk(rows, 3, live)):
        assert cyclic_garbage(lambda: list(walk()))[0] == 0
        assert cyclic_garbage(lambda: next(walk()))[0] == 0


def _key_prefix(key: tuple, j: int) -> tuple:
    """The values of the first j + 1 vertices' subsets: walk order lists them first."""
    return key[: 2 ** (j + 1) - 1]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_a_pruned_walk_yields_the_unpruned_prefixes_whose_key_prefixes_are_live(k):
    rng = random.Random(k)
    n = 8
    levels = [bytes(rng.randrange(2) for _ in range(comb(n, r))) for r in range(1, k + 1)]
    rows = [prefix_rows(level, n, r) for r, level in enumerate(levels, start=1)]
    # Without level k a prefix's columns lack only the last one, T = verts.
    full = list(prefix_walk(rows, k))
    lower = list(prefix_walk(rows[:-1], k))
    assert lower == [(verts, key, cols[:-1]) for verts, key, cols in full]
    assert len(full) == comb(n, k - 1)
    for held, walked in ((rows, full), (rows[:-1], lower)):
        keys = {_key_prefix(key, j) for _, key, _ in walked for j in range(k - 1)}
        choices = [keys, set()] + [{p for p in keys if rng.random() < 0.6} for _ in range(6)]
        for chosen in choices:
            live = [{p for p in chosen if len(p) == 2 ** (j + 1) - 1} for j in range(k - 1)]
            expected = [
                step for step in walked
                if all(_key_prefix(step[1], j) in live[j] for j in range(k - 1))
            ]
            assert list(prefix_walk(held, k, live)) == expected


def test_a_hypergraph_pickles_with_its_links():
    # Protocols 0 and 1 refuse any class with __slots__ and no __getstate__.
    h = UniformHypergraph(3, 6, [(0, 1, 2), (0, 1, 5), (2, 3, 4)])
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(h, protocol))
        assert back == h and hash(back) == hash(h)
        assert back.links == h.links and back.edge_set == h.edge_set


# -- the count rule -------------------------------------------------------------


# The triangle's 20 distinct images in K6, listed before any work is forbidden.
K6_TRIANGLES = enumerate_hom_images(triangle(), complete_hypergraph(2, 6))

# The caps and budgets that no parametrized refusal test of their own module
# takes: case -> (a call taking the bad value, the name it is refused under,
# the least value allowed, the work it must refuse before).
COUNT_CASES = {
    "enumerate_hom_images cap": (
        lambda v: enumerate_hom_images(triangle(), complete_hypergraph(2, 6), cap=v), "cap", 1,
        [(homomorphism_module, "_covered_order"), (homomorphism_module, "_walk")]),
    "removal_experiment cap": (
        lambda v: removal_experiment(triangle(), complete_hypergraph(2, 6), cap=v), "cap", 1,
        [(homomorphism_module, "_covered_order"), *REMOVAL_WORK]),
    "removal_experiment exact_budget": (
        lambda v: removal_experiment(triangle(), complete_hypergraph(2, 6), exact_budget=v), "budget", 0,
        [(removal_module, "enumerate_hom_images"), *REMOVAL_WORK]),
    "exact_hitting_set budget": (
        lambda v: exact_hitting_set(K6_TRIANGLES, budget=v), "budget", 0,
        [(removal_module, name) for name in ("_encode", "_greedy", "_branch_and_bound")]),
    "sampled_cylinder_family count": (
        lambda v: sampled_cylinder_family(6, 2, v, seed=0), "cylinder count", 1,
        [(regularity_module, "derive"), (regularity_module, "fold")]),
}
BAD_COUNTS = {"nan": float("nan"), "inf": float("inf"), "2.5": 2.5, "2.0": 2.0, "True": True}


@pytest.mark.parametrize("bad", [*BAD_COUNTS, "least-1"])
@pytest.mark.parametrize("case", COUNT_CASES)
def test_a_cap_budget_or_count_refuses_a_bad_value_before_any_work(monkeypatch, case, bad):
    # One rule, core.check_count, with one message: a NaN or inf budget
    # would otherwise switch off the price check it feeds.
    call, what, least, work = COUNT_CASES[case]
    value = BAD_COUNTS.get(bad, least - 1)
    forbid_work(monkeypatch, *work)
    message = f"{what} must be an int of at least {least}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)
    # The least allowed value starts the forbidden work, so the forbid pins something.
    with pytest.raises(AssertionError, match="work started"):
        call(least)


# -- HG text format ------------------------------------------------------------

HG_SAMPLE = """\
# a triangle
HG 2 3 3

0 1
0 2
1 2
"""


def test_parse_skips_comments_and_blank_lines():
    assert parse_hypergraph(HG_SAMPLE) == triangle()
    assert parse_hypergraph(HG_SAMPLE.encode()) == triangle()


def test_serialize_is_canonical_and_round_trips():
    text = serialize_hypergraph(triangle())
    assert text == "HG 2 3 3\n0 1\n0 2\n1 2\n"
    assert parse_hypergraph(text) == triangle()


def test_parse_accepts_edges_in_any_order():
    assert parse_hypergraph("HG 2 3 2\n1 2\n0 1\n").edges == ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "missing HG header"),
        ("HX 2 3 0\n", "malformed header"),
        ("HG 2 3\n", "malformed header"),
        ("HG x 3 0\n", "not an integer"),
        ("HG 7 3 0\n", "out of supported range"),
        ("HG 2 3 2\n0 1\n", "expected 2 edge lines"),
        ("HG 2 3 0\n0 1\n", "expected 0 edge lines"),
        ("HG 2 3 1\n0 1 2\n", "expected 2 vertex ids"),
        ("HG 2 3 1\n0 5\n", "out of range"),
        ("HG 2 3 1\n1 1\n", "repeated vertex"),
        ("HG 2 3 1\n2 1\n", "strictly increasing"),
        ("HG 2 3 2\n0 1\n0 1\n", "duplicate edge"),
    ],
)
def test_parse_errors_name_the_problem(text, fragment):
    with pytest.raises(FormatError, match=fragment):
        parse_hypergraph(text)


@pytest.mark.parametrize(
    "text,fragment",
    [
        # A value fault ahead of a syntax fault, and the reverse.
        ("HG 2 4 3\n0 9\n0 2\n1 x\n", "vertex 9 out of range"),
        ("HG 2 4 3\n0 x\n0 2\n1 9\n", "vertex id: 'x' is not an integer"),
        # Two value faults: file order, not the order of the sorted edges.
        ("HG 2 4 3\n2 1\n0 2\n0 9\n", "strictly increasing"),
        ("HG 2 4 3\n1 1\n0 2\n1 1\n", "repeated vertex 1"),
    ],
)
def test_parse_reports_the_first_of_two_faulty_lines(text, fragment):
    with pytest.raises(FormatError) as info:
        parse_hypergraph(text)
    assert info.value.line == 2 and fragment in str(info.value)


def test_parse_errors_carry_line_numbers():
    try:
        parse_hypergraph("# c\nHG 2 3 1\n\n9 9\n")
    except FormatError as exc:
        assert exc.line == 4
        assert str(exc).startswith("line 4:")
    else:
        pytest.fail("expected FormatError")


@given(st.lists(st.sampled_from(["a", " ", "\u00e9", "\n", "\r", "\r\n", "\x0b", "\x0c",
                                  "\x1c", "\x85", "\u2028"])), st.data())
def test_a_non_utf8_byte_is_numbered_as_splitlines_numbers_lines(pieces, data):
    # The line holding the bad byte is the line that a marker character
    # put in its place falls on, as str.splitlines numbers lines.
    text = "".join(pieces)
    at = data.draw(st.integers(0, len(text)))
    marked = (text[:at] + "\0" + text[at:]).splitlines()
    lineno = next(i for i, line in enumerate(marked, 1) if "\0" in line)
    bad = text[:at].encode("utf-8") + b"\xff" + text[at:].encode("utf-8")
    with pytest.raises(FormatError, match=f"^line {lineno}: invalid UTF-8 byte 0xff"):
        _content_lines(bad)


@st.composite
def hypergraphs(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(0, 6))
    pool = list(combinations(range(n), k))
    edges = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    return UniformHypergraph(k, n, sorted(edges))


@given(hypergraphs())
@settings(max_examples=150)
def test_hg_round_trip(h):
    assert parse_hypergraph(serialize_hypergraph(h)) == h
