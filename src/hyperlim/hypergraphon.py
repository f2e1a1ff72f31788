"""Step hypergraphons: symmetric step functions on the subset-coordinate cube.

A step hypergraphon of arity k at resolution l assigns a value to every
box of the grid ``{0..l-1}**(2**k - 1)``, one coordinate per nonempty
subset of {0..k-1}, invariantly under the symmetric-group action. Only
canonical orbit representatives are stored; missing orbits read 0.
Indicator kind ("ind") takes values in {0,1}; projected kind ("proj")
takes values in [0,1].

Every stored value is a dyadic rational, so W keeps its box table as
ints over one power-of-two denominator, fixed at construction. Every
integral of W reads that table and sums exactly, on ints:

- the density integral t(K, W), by a sparse exact eliminator, and the
  projection of W, by one pass over the table, each result rounded to a
  float once;
- the Monte-Carlo estimate of t(K, W), as two running sums S1 = sum(v)
  and S2 = sum(v**2) of the n sample values v over the denominator D:
  the estimate is S1 / (n D) and the standard error is the square root
  of (n S2 - S1**2) / (n**2 (n - 1) D**2), the ddof=1 variance of the
  mean, each quotient rounded once.
"""

from __future__ import annotations

import re
from array import array
from functools import partial, reduce
from heapq import heapify, heappop, heappush
from itertools import combinations, compress, repeat
from math import comb, prod, sqrt
from operator import mul
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .core import (
    BudgetError,
    FormatError,
    UniformHypergraph,
    _content_lines,
    _first_refused,
    _header,
    _parse_hypergraph_lines,
    _parse_int,
    _subset_lines,
    check_count,
    check_shape,
    hypergraph_lines,
    pick,
    prefix_rows,
    prefix_walk,
    simplicial_support,
    subset_indexing,
    unsigned_array,
    walk_order,
)
from .rng import (
    _BLOCK,
    _draw_boxes,
    _fill_subset_draws,
    _first_draws,
    _fold_lanes,
    _in_blocks,
    _lanes,
    _words,
    check_seed,
    derive,
    fold,
    subset_draws,
)

INDICATOR = "ind"
PROJECTED = "proj"


def _check_box(box: Sequence[int], n_coords: int, resolution: int) -> tuple[int, ...]:
    """``box`` as a tuple, refused unless it holds n_coords int indices in 0..resolution-1."""
    key = tuple(box)
    if len(key) != n_coords:
        raise ValueError(f"box {key}: expected {n_coords} coordinates")
    if any(type(b) is not int or not 0 <= b < resolution for b in key):
        raise ValueError(f"box {key}: index out of range 0..{resolution - 1} or not an int")
    return key


class StepHypergraphon:
    """Grid-valued symmetric step function; see module docstring.

    ``values`` maps canonical orbit representatives (tuples of 2**k - 1
    box indices) to values; exact zeros are dropped on construction. The
    constructor also expands every stored orbit into a table from each of
    its boxes to the orbit's value, at most k! * len(values) entries, held
    as an int over ``_scale``, the largest power-of-two denominator among
    the values. That table is the only source of box values and is never
    written after construction.
    """

    __slots__ = ("k", "resolution", "kind", "values", "_indexing", "_table", "_scale")

    def __init__(self, k: int, resolution: int, kind: str, values: Mapping[tuple[int, ...], float]):
        check_shape(k, 0, resolution)
        if kind not in (INDICATOR, PROJECTED):
            raise ValueError(f"kind must be {INDICATOR!r} or {PROJECTED!r}, got {kind!r}")
        idx = subset_indexing(k)
        stored: dict[tuple[int, ...], float] = {}
        table: dict[tuple[int, ...], float] = {}
        for key, value in values.items():
            key = _check_box(key, idx.n_coords, resolution)
            orbit = idx.orbit(key)
            if min(orbit) != key:
                raise ValueError(f"box {key} is not a canonical orbit representative")
            v = float(value)
            if kind == INDICATOR:
                if v != 1.0:
                    raise ValueError("indicator entries must have value 1")
            elif not 0.0 <= v <= 1.0:
                raise ValueError(f"box {key}: value {v} outside [0, 1]")
            if v == 0.0:
                continue
            stored[key] = v
            for box in orbit:
                table[box] = v
        ratios = {v: v.as_integer_ratio() for v in stored.values()}
        scale = max((d for _, d in ratios.values()), default=1)
        for box, v in table.items():
            n, d = ratios[v]
            table[box] = n * (scale // d)
        self.k = k
        self.resolution = resolution
        self.kind = kind
        self.values = stored
        self._indexing = idx
        self._table = table
        self._scale = scale

    def eval_box(self, box: Sequence[int]) -> float:
        """Value on a raw (not necessarily canonical) box vector."""
        key = _check_box(box, self._indexing.n_coords, self.resolution)
        return self._table.get(key, 0) / self._scale

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StepHypergraphon)
            and self.k == other.k
            and self.resolution == other.resolution
            and self.kind == other.kind
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return (
            f"StepHypergraphon(k={self.k}, l={self.resolution}, kind={self.kind!r}, "
            f"boxes={len(self.values)})"
        )


def constant_hypergraphon(k: int, p: float) -> StepHypergraphon:
    """The constant function p; indicator kind when p is 0 or 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"constant value {p} outside [0, 1]")
    zero_box = (0,) * (2**k - 1)
    if p == 0.0:
        return StepHypergraphon(k, 1, INDICATOR, {})
    if p == 1.0:
        return StepHypergraphon(k, 1, INDICATOR, {zero_box: 1.0})
    return StepHypergraphon(k, 1, PROJECTED, {zero_box: p})


def _edge_coordinate_map(pattern: UniformHypergraph, support: Sequence[tuple[int, ...]]):
    """Per edge: support index of each subset coordinate, in grid order.

    The order-preserving bijection from positions to an edge is plain
    indexing into the sorted edge tuple.
    """
    idx = subset_indexing(pattern.k)
    where = {s: i for i, s in enumerate(support)}
    out = []
    for e in pattern.edges:
        out.append(tuple(where[tuple(e[i] for i in positions)] for positions in idx.subsets))
    return out


def _check_density_args(pattern: UniformHypergraph, w: StepHypergraphon) -> None:
    if pattern.k != w.k:
        raise ValueError(f"arity mismatch: pattern k={pattern.k}, hypergraphon k={w.k}")


# ---------------------------------------------------------------------------
# Exact sums of products of sparse factors (bucket elimination).
#
# A factor is (scope, entries). Position i of every key of ``entries`` is
# the value of variable scope[i], and its value is an int; absent keys
# are 0.
# ---------------------------------------------------------------------------

_UNIT = ((), {(): 1})


def _join(a, b, keep: tuple[int, ...]):
    """Product of factors a and b, summed onto the variables ``keep``.

    The smaller factor is indexed by the variables the two share, and
    the larger one is read once against that index.
    """
    if len(a[1]) < len(b[1]):
        a, b = b, a
    sa, sb = a[0], b[0]
    shared = [v for v in sa if v in sb]
    pick_a = pick([sa.index(v) for v in shared])
    pick_b = pick([sb.index(v) for v in shared])
    joint = sa + sb
    pick_out = pick([joint.index(v) for v in keep])
    index: dict[tuple[int, ...], list] = {}
    for kb, vb in b[1].items():
        index.setdefault(pick_b(kb), []).append((kb, vb))
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for ka, va in a[1].items():
        for kb, vb in index.get(pick_a(ka), ()):
            key = pick_out(ka + kb)
            out[key] = get(key, 0) + va * vb
    return keep, out


def _min_degree_order(scopes: Sequence[tuple[int, ...]]) -> list[int]:
    """Every variable, fewest neighbours first (ties by index), with fill-in."""
    adj: dict[int, set[int]] = {}  # each variable's set holds itself too
    for scope in scopes:
        for v in scope:
            adj.setdefault(v, set()).update(scope)
    heap = [(len(nb), v) for v, nb in adj.items()]
    heapify(heap)
    order = []
    while heap:
        d, v = heappop(heap)
        if v in adj and d == len(adj[v]):  # else summed out already, or a stale degree
            nb = adj.pop(v)
            order.append(v)
            for u in nb - {v}:
                adj[u] |= nb
                adj[u].discard(v)
                heappush(heap, (len(adj[u]), u))
    return order


def _eliminate(table, scopes: Sequence[tuple[int, ...]]) -> int:
    """Sum over every variable of the product of one factor per scope.

    Every factor reads ``table`` itself, its scope naming the variables of
    the box coordinates. Variables go in min-degree order: the factors that
    mention one are joined one by one, and each variable that no factor
    left mentions is summed out as soon as it is joined. Every factor left
    at the end is a scalar; returns their product.
    """
    factors = {i: (scope, table) for i, scope in enumerate(scopes)}
    where: dict[int, set[int]] = {}  # variable -> ids of the live factors that mention it
    for i, scope in enumerate(scopes):
        for u in scope:
            where.setdefault(u, set()).add(i)
    for i, v in enumerate(_min_degree_order(scopes), len(scopes)):
        if v not in where:
            continue  # summed out with an earlier group
        ids = set(where[v])
        group = [factors.pop(j) for j in sorted(ids)]
        for scope, _ in group:
            for u in scope:
                where[u] -= ids
        product = _UNIT
        for j, factor in enumerate(group):
            later = {u for scope, _ in group[j + 1 :] for u in scope}
            joint = dict.fromkeys(product[0] + factor[0])
            out = tuple(u for u in joint if where[u] or u in later)
            product = _join(product, factor, out)
            for u in joint.keys() - set(out):
                del where[u]
        factors[i] = product
        for u in product[0]:
            where[u].add(i)
    return prod(entries.get((), 0) for _, entries in factors.values())


def exact_density(
    pattern: UniformHypergraph, w: StepHypergraphon, budget: int = 10**6
) -> float:
    """Exact density integral of ``pattern`` against ``w``, rounded once.

    One coordinate per element of the simplicial support of the pattern;
    the integrand multiplies the box value of every edge. The box count
    l**s is checked against ``budget`` before any work, which also bounds
    every intermediate table. Each edge is one sparse factor over W's box
    table, and the coordinates are summed out exactly by
    :func:`_eliminate` on W's integer table; the work follows the table,
    not the l**s boxes.
    """
    _check_density_args(pattern, w)
    check_count("budget", budget)
    support = simplicial_support(pattern)
    boxes = w.resolution ** len(support)
    if boxes > budget:
        raise BudgetError(f"exact density needs {boxes} grid boxes, budget is {budget}")
    scopes = _edge_coordinate_map(pattern, support)
    return _eliminate(w._table, scopes) / (w._scale ** len(scopes) * boxes)


class DensityEstimate(NamedTuple):
    """Monte-Carlo density estimate with its sample standard error."""

    estimate: float
    standard_error: float
    n_samples: int
    seed: int


def _mc_block(block: int, live: int, steps: Sequence[tuple], l: int, get) -> tuple[int, int]:
    """S1 and S2 of the ``live`` Monte-Carlo samples whose states are the lanes of ``block``.

    Each draw step hashes the coordinate of every live sample at once,
    and each step that refuses a sample drops it from the states and from
    every column drawn so far, so later steps hash only the samples left.
    Every list is as long as the block, and all of them are freed on
    return.
    """
    states = None  # the live states as a list, once a step has dropped a sample
    cols: dict[int, list[int]] = {}
    vals = None  # per live sample, the product of the edge values multiplied in so far
    for j, values, cmap in steps:
        if cmap is None:
            if block is None:
                block = _lanes(states)
            cols[j] = boxes = _draw_boxes(block, live, j + 1, l)
            if values is None:
                continue
            keep = list(map(values.__contains__, boxes))
        else:
            keep = list(map(get, zip(*[cols[c] for c in cmap]), repeat(0)))
            vals = keep if vals is None else list(map(mul, vals, keep))
        if all(keep):
            continue
        if states is None:
            states = _words(block, live).tolist()
        states = list(compress(states, keep))
        live, block = len(states), None
        if not live:
            return 0, 0
        for c, col in cols.items():
            cols[c] = list(compress(col, keep))
        if vals is not None:
            vals = list(compress(vals, keep))
    if vals is None:  # no edge: every sample is 1
        return live, live
    return sum(vals), sum(map(mul, vals, vals))


def mc_density(
    pattern: UniformHypergraph,
    w: StepHypergraphon,
    n_samples: int,
    seed: int,
) -> DensityEstimate:
    """Monte-Carlo estimate of the density integral.

    Sample i reads support coordinate j from draw j + 1 of
    ``stream(seed, "mc", i)``, so the estimate is a pure function of
    (seed, n_samples). A sample's value is the exact product of its edge
    values, an int over D = W's denominator ** |E|. The run keeps only
    S1 and S2, the exact sums of the values and of their squares: the
    estimate is S1 / (n D), and the standard error, the ddof=1 sample
    deviation over sqrt(n), is the square root of
    (n S2 - S1**2) / (n**2 (n - 1) D**2). Each quotient is rounded once.

    The stream is counter-based, so each coordinate is drawn on its own,
    only when it is needed, and any set of draws can be hashed together.
    The samples are taken a block of ``rng._BLOCK`` at a time, breadth
    first: each step draws one coordinate, or multiplies in one edge's
    value, for every sample of the block still live, in one call of the
    block kernel. A coordinate may only take box values that occur, at
    every grid position it fills, in some nonzero box of W. Those
    coordinates are drawn first, fewest allowed values first, and a
    sample whose value falls outside its allowed set is 0 and dropped
    from the block. The rest are drawn edge by edge, and a sample is
    dropped at its first edge value 0. The sums are exact ints, so the
    result does not depend on the block. Memory is bounded by the block:
    it does not grow with n_samples or with W's resolution.
    """
    _check_density_args(pattern, w)
    check_seed(seed)
    check_count("n_samples", n_samples, 2)
    support = simplicial_support(pattern)
    s = len(support)
    l = w.resolution
    coord_maps = _edge_coordinate_map(pattern, support)
    table = w._table

    # allowed[j]: the box values that can occur at coordinate j of a
    # nonzero sample, read off W's table; every coordinate lies in an edge.
    position_values = [set() for _ in range(subset_indexing(w.k).n_coords)]
    for box in table:
        for p, b in enumerate(box):
            position_values[p].add(b)
    allowed: list = [None] * s
    for cmap in coord_maps:
        for p, j in enumerate(cmap):
            here = position_values[p]
            allowed[j] = here if allowed[j] is None else allowed[j] & here
    # A step (j, allowed values, None) draws coordinate j, from draw j + 1
    # of each sample's stream, and checks it; a step (0, None, cmap)
    # multiplies in one edge's value. Every coordinate is drawn before the
    # first edge reads it. A coordinate that may take every value is drawn
    # unchecked: its step holds None, not the l values.
    checked = sorted((j for j in range(s) if len(allowed[j]) < l),
                     key=lambda j: (len(allowed[j]), j))
    steps = [(j, allowed[j], None) for j in checked]
    drawn = set(checked)
    for cmap in coord_maps:
        for j in cmap:
            if j not in drawn:
                drawn.add(j)
                steps.append((j, None, None))
        steps.append((0, None, cmap))

    # Sample i's state is fold(derive(seed, "mc"), i); a block holds the
    # states of the samples base..base + b - 1.
    head = derive(seed, "mc")
    s1 = s2 = 0
    for base in range(0, n_samples, _BLOCK):
        b = min(_BLOCK, n_samples - base)
        t1, t2 = _mc_block(_fold_lanes(head, base, b), b, steps, l, table.get)
        s1 += t1
        s2 += t2

    n, d = n_samples, w._scale ** len(coord_maps)
    se = sqrt((n * s2 - s1 * s1) / (n * n * (n - 1) * d * d))
    return DensityEstimate(s1 / (n * d), se, n_samples, seed)


class LatentSample:
    """A W-random draw: the hypergraph plus every latent subset coordinate.

    ``latents`` holds one 64-bit fraction m per vertex subset of size 1..k,
    standing for the uniform variate m / 2**64, in LAT order: by size,
    then lexicographically (the order of ``itertools.combinations``). An
    edge is present iff the indicator evaluates to 1 on the box vector
    read off the latents of its subsets, with boxes computed exactly as
    ``(m * l) >> 64``.

    Whatever sequence it is given, the sample keeps its latents as a
    read-only memoryview of one ``array('Q')``, 8 bytes per subset: every
    held value fits a LAT file, and no write can change one. Compare it
    to a list through ``.tolist()``. A memoryview is not picklable, and a
    ``'Q'`` view is not hashable, so neither is a sample: it compares by
    (hypergraph, latents, seed) and has no hash.
    """

    __slots__ = ("hypergraph", "latents", "seed")

    def __init__(self, hypergraph: UniformHypergraph, latents: Sequence[int], seed: int):
        check_seed(seed)
        expected = sum(comb(hypergraph.n_vertices, r) for r in range(1, hypergraph.k + 1))
        if len(latents) != expected:
            raise ValueError(f"expected {expected} latents, got {len(latents)}")
        try:
            store = array("Q", latents)
            # array() takes a bool as 0 or 1. An array holds none, and the
            # samplers and parse_latents pass one: they skip the pass.
            if not isinstance(latents, array) and bool in map(type, latents):
                raise TypeError
        except (OverflowError, TypeError):
            # array('Q') names no value; report the first one it cannot hold.
            m = next(m for m in latents if type(m) is bool or not isinstance(m, int)
                     or not 0 <= m < 1 << 64)
            raise ValueError(f"latent {m!r} outside 0..2**64 - 1 or not an int") from None
        self.hypergraph = hypergraph
        self.latents = memoryview(store).toreadonly()
        self.seed = seed

    @classmethod
    def _owning(cls, hypergraph: UniformHypergraph, store: array, seed: int) -> LatentSample:
        """A sample that keeps ``store`` itself: an array('Q') of every latent, in LAT order.

        For a sampler that built ``store`` and drops it: no copy and no
        check, which the constructor makes for any other caller.
        """
        self = cls.__new__(cls)
        self.hypergraph = hypergraph
        self.latents = memoryview(store).toreadonly()
        self.seed = seed
        return self

    def __eq__(self, other) -> bool:
        return isinstance(other, LatentSample) and (self.hypergraph, self.latents, self.seed) == (
            other.hypergraph, other.latents, other.seed
        )


def check_sample_arguments(w: StepHypergraphon, n: int, seed: int) -> None:
    """Refuse a W that is not indicator kind, a bad vertex count or a bad seed, before any draw."""
    if w.kind != INDICATOR:
        raise ValueError("sampling requires an indicator-kind hypergraphon")
    check_shape(w.k, n, w.resolution)
    check_seed(seed)


def _sampled_graph(w: StepHypergraphon, n: int, seed: int, lower: Iterable[array]):
    """The graph of G(n, w), given its latent levels 1..k-1 from :func:`subset_draws`.

    The levels are boxed, ``(m * l) >> 64``, into typed prefix rows for
    :func:`~hyperlim.core.prefix_walk`, the walk that ``cells`` and
    ``independence_test`` take too. W's table is reindexed once to list a
    box's coordinates in :func:`~hyperlim.core.walk_order`, whose last
    coordinate is the top one. A key prefix is live if it extends to a box
    of W's support; the walk skips every prefix that is not, with its whole
    subtree, and a candidate edge ``verts + (v,)`` reads the top boxes that
    make it an edge off its lower key ``key + c``, as ``cell_counts`` reads
    its vectors. A candidate with some such top box gets its top latent
    from :func:`~hyperlim.rng._first_draws` on the hash of
    (seed, "latent", k, *verts), so it equals
    ``stream(seed, "latent", k, *E).next_u64()`` bit for bit, and only the
    candidates whose edge it decides pay for it. A prefix has only a few
    live candidates, so the prefixes are gathered into runs of about
    ``rng._BLOCK`` candidates, each hashed in one call.
    """
    k, l = w.k, w.resolution
    order = walk_order(k)
    table = [tuple(box[i] for i in order) for box in w._table]
    live = [{key[: 2 ** (j + 1) - 1] for key in table} for j in range(k - 1)]
    tops: dict[tuple[int, ...], set[int]] = {}
    for key in table:
        tops.setdefault(key[:-1], set()).add(key[-1])
    get = tops.get
    boxes = (unsigned_array(((m * l) >> 64 for m in draws), l - 1) for draws in lower)
    rows = [prefix_rows(level, n, r) for r, level in enumerate(boxes, start=1)]
    head = fold(derive(seed, "latent"), k)

    def runs():
        up = h_up = None
        for verts, key, cols in prefix_walk(rows, k, live):
            # For k = 1 the top coordinate is the only one: every vertex is a candidate.
            candidates = zip(*cols) if cols else repeat((), n)
            found = [(v, ts) for v, c in enumerate(candidates, verts[-1] + 1 if verts else 0)
                     if (ts := get(key + c))]
            if found:
                if verts[:-1] != up:  # siblings share the hash of their parent
                    up, h_up = verts[:-1], reduce(fold, verts[:-1], head)
                yield reduce(fold, verts[-1:], h_up), [v for v, _ in found], verts, found

    edges: list[tuple[int, ...]] = []
    for run in _in_blocks(runs()):
        draws = iter(_first_draws(run))
        for _, _, verts, found in run:
            # zip reads found first, so it stops there without taking the next row's draw.
            edges.extend(verts + (v,) for (v, ts), m in zip(found, draws) if (m * l) >> 64 in ts)
    return UniformHypergraph(k, n, edges)


def sample_w_random(w: StepHypergraphon, n: int, seed: int) -> LatentSample:
    """Draw the n-vertex random hypergraph generated by an indicator ``w``.

    Every subset B with 1 <= |B| <= k gets an independent uniform latent
    derived from (seed, "latent", |B|, *B); the k-subset E becomes an edge
    iff w is 1 at the box vector of E's subset latents. Deterministic
    given (w, n, seed), independent of evaluation order.

    Every level's latents come from :func:`subset_draws`, once each, and
    the sample holds them all. The graph is :func:`sample_hypergraph`'s,
    found by :func:`_sampled_graph` from levels 1..k-1. The sample's own
    store is allocated at its final size, Σ_{r≤k} C(n, r) items, and kept
    without a copy: the lower levels are copied into it and the top level
    is drawn straight into it.
    """
    check_sample_arguments(w, n, seed)
    lower = [subset_draws(seed, "latent", n, r) for r in range(1, w.k)]
    graph = _sampled_graph(w, n, seed, lower)
    latents = array("Q", [0]) * sum(comb(n, r) for r in range(1, w.k + 1))
    start = 0
    for level in lower:
        latents[start : start + len(level)] = level
        start += len(level)
    lower = level = None  # freed before the top level is drawn
    _fill_subset_draws(latents, start, seed, "latent", n, w.k)
    return LatentSample._owning(graph, latents, seed)


def sample_hypergraph(w: StepHypergraphon, n: int, seed: int) -> UniformHypergraph:
    """The hypergraph of ``sample_w_random(w, n, seed)``, with no latents kept.

    Levels 1..k-1 are drawn by :func:`subset_draws`; a top latent is drawn
    only for a candidate edge whose lower box vector is live.
    """
    check_sample_arguments(w, n, seed)
    return _sampled_graph(w, n, seed, (subset_draws(seed, "latent", n, r) for r in range(1, w.k)))


def project(w: StepHypergraphon) -> StepHypergraphon:
    """Average out the top (full-set) coordinate; projected kind.

    The result is represented on the full coordinate grid, constant in the
    top coordinate, the last of a box. The top coordinate is summed out of
    W's integer box table in one pass, exactly, and each average is rounded
    once. The top coordinate is fixed by every permutation, so a box is
    canonical iff its lower coordinates are; each canonical lower box with
    a nonzero average is stored once per top box value.
    """
    idx = subset_indexing(w.k)
    l = w.resolution
    sums: dict[tuple[int, ...], int] = {}
    for box, v in w._table.items():
        sums[box[:-1]] = sums.get(box[:-1], 0) + v
    values: dict[tuple[int, ...], float] = {}
    for prefix, total in sums.items():
        if idx.canonicalize(prefix + (0,))[:-1] == prefix:
            v = total / (w._scale * l)
            for t in range(l):
                values[prefix + (t,)] = v
    return StepHypergraphon(w.k, l, PROJECTED, values)


# ---------------------------------------------------------------------------
# HGON text format
#
#   HGON <k> <l> <kind> <s>        kind in {ind, proj}
#   <b_1> ... <b_{2^k-1}> <value>  (s lines, canonical orbit representatives)
#
# Duplicate or non-canonical orbit entries are parse errors.
# ---------------------------------------------------------------------------


# An unsigned ASCII decimal, as format(v, ".17g") writes one: no sign,
# no '_' separator, no other script's digits, no inf or nan.
_DECIMAL = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def parse_hypergraphon(text: str | bytes) -> StepHypergraphon:
    """Parse the HGON format; raises FormatError with a line number."""
    lines = _content_lines(text)
    lineno, k, (l_tok, kind, s_tok) = _header(lines, "HGON <k> <l> <kind> <s>")
    l = _parse_int(l_tok, "resolution l", lineno)
    s = _parse_int(s_tok, "entry count s", lineno)
    # Resolution, kind and every entry's box and value are left to the
    # constructor; the header is checked by building an empty W.
    build = partial(StepHypergraphon, k, l, kind)
    _first_refused([(lineno, {})], build)
    body = lines[1:]
    if len(body) != s:
        raise FormatError(f"expected {s} entry lines, found {len(body)}", lineno)
    width = subset_indexing(k).n_coords
    values: dict[tuple[int, ...], float] = {}
    linenos: list[int] = []  # the line of each entry of values
    try:
        for elineno, line in body:
            tokens = line.split()
            if len(tokens) != width + 1:
                raise FormatError(f"expected {width} box indices and a value", elineno)
            key = tuple(_parse_int(t, "box index", elineno) for t in tokens[:width])
            if key in values:
                raise FormatError(f"duplicate orbit entry {key}", elineno)
            if _DECIMAL.fullmatch(tokens[width]) is None:
                raise FormatError(f"value {tokens[width]!r} is not a number", elineno)
            values[key] = float(tokens[width])
            linenos.append(elineno)
        return build(values)
    except ValueError:
        _first_refused(((ln, dict([entry])) for ln, entry in zip(linenos, values.items())), build)
        raise


def serialize_hypergraphon(w: StepHypergraphon) -> str:
    """Canonical HGON text: the header, then the stored orbits in sorted order."""
    lines = [f"HGON {w.k} {w.resolution} {w.kind} {len(w.values)}"]
    for key in sorted(w.values):
        value = w.values[key]
        tail = "1" if w.kind == INDICATOR else format(value, ".17g")
        lines.append(" ".join(str(b) for b in key) + " " + tail)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# LAT text format: latents plus the sampled hypergraph.
#
#   LAT <k> <n> <seed>
#   <v_1> ... <v_r> <u-hex>        (one line per subset, size 1..k,
#                                   ordered by size then lexicographically;
#                                   u is a 64-bit fraction, exactly 16
#                                   lowercase hex digits)
#   HG ...                         (embedded HG block)
# ---------------------------------------------------------------------------


_HEX64 = re.compile("[0-9a-f]{16}")


def latent_lines(sample: LatentSample) -> Iterator[str]:
    """Canonical LAT text in pieces of whole lines, each ending in a line feed.

    The header, then one piece per (r-1)-prefix holding the lines of its
    extensions by a larger last vertex, then the lines of the embedded HG
    block. Only one prefix row is built at a time.
    """
    hg = sample.hypergraph
    n, latents = hg.n_vertices, iter(sample.latents)
    names = [str(v) for v in range(n)]
    yield f"LAT {hg.k} {n} {sample.seed}\n"
    for r in range(1, hg.k + 1):
        for prefix in combinations(range(n), r - 1):
            head = "".join([names[v] + " " for v in prefix])
            yield "".join([
                f"{head}{names[v]} {m:016x}\n"
                for v, m in zip(range(prefix[-1] + 1 if prefix else 0, n), latents)
            ])
    yield from hypergraph_lines(hg)


def serialize_latents(sample: LatentSample) -> str:
    """Canonical LAT text: the pieces of :func:`latent_lines`, joined."""
    return "".join(latent_lines(sample))


def parse_latents(text: str | bytes) -> LatentSample:
    """Parse the LAT format; raises FormatError with a line number."""
    lines = _content_lines(text)
    lineno, k, (n_tok, seed_tok) = _header(lines, "LAT <k> <n> <seed>")
    n = _parse_int(n_tok, "vertex count n", lineno)
    seed = _parse_int(seed_tok, "seed", lineno)
    _first_refused([(lineno, seed)], check_seed)
    expected = sum(comb(n, r) for r in range(1, k + 1))
    body = lines[1:]
    if len(body) < expected:
        raise FormatError(f"expected {expected} latent lines before the HG block", lineno)
    latents = array("Q")
    rows = iter(body)
    for r in range(1, k + 1):
        level = []
        for elineno, token in _subset_lines(rows, n, r, lineno):
            if _HEX64.fullmatch(token) is None:
                raise FormatError(
                    f"{token!r} is not a fraction of 16 lowercase hex digits", elineno
                )
            level.append(int(token, 16))
        latents.fromlist(level)
    hypergraph = _parse_hypergraph_lines(body[expected:])
    if hypergraph.k != k or hypergraph.n_vertices != n:
        raise FormatError("embedded HG block disagrees with the LAT header", lineno)
    return LatentSample(hypergraph, latents, seed)
