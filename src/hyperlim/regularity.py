"""Hyperpartitions, cells, cylinder intersections, and regularity diagnostics.

An l-hyperpartition labels every r-subset of the vertex set with a class
in {0..l-1}, for each level r <= k. Subset counts are unordered (C(n,r))
throughout; all regularity ratios are invariant under that convention.
Level r = 1 carries no cylinder structure and is assessed by equitability
only.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, compress, islice, permutations, repeat
from math import comb, sqrt
from operator import and_
from typing import NamedTuple, Sequence

from .core import (
    FormatError,
    MAX_ARITY,
    UniformHypergraph,
    _content_lines,
    _first_refused,
    _header,
    _parse_int,
    _subset_lines,
    check_count,
    check_shape,
    prefix_rows,
    prefix_walk,
    subset_indexing,
    unsigned_array,
    walk_order,
)
from .hypergraphon import PROJECTED, LatentSample, StepHypergraphon
from .rng import (
    _GAMMA,
    _stream_draws,
    check_seed,
    derive,
    fold,
    mix64,
    stream,
    subset_draws,
)

#: CellProfile: the class labels of every nonempty position-subset of a
#: k-subset, canonicalized under the symmetric-group coordinate action.
CellProfile = tuple[int, ...]

#: Side thresholds of sampled cylinders: int(q * 2**64) for q = 1/4, 1/2, 3/4.
_SIDE_THRESHOLDS = (1 << 62, 1 << 63, 3 << 62)


class Hyperpartition:
    """Total labeling of all r-subsets, r = 1..k, into l classes each.

    ``levels[r - 1][i]`` is the class of the i-th r-subset of the vertex
    set in lexicographic order, the order of ``itertools.combinations``:
    C(n, r) labels per level, the layout of the HP file. Whatever
    sequences it is given, each level is kept as a read-only memoryview
    of an array in the narrowest unsigned typecode that holds l - 1 (one
    byte per label up to l = 256), so no write can change a label.
    """

    __slots__ = ("k", "n_vertices", "resolution", "levels")

    def __init__(
        self, k: int, n_vertices: int, resolution: int, levels: Sequence[Sequence[int]]
    ):
        check_shape(k, n_vertices, resolution)
        if len(levels) != k:
            raise ValueError(f"expected {k} levels, got {len(levels)}")
        frozen = []
        for r, level in enumerate(levels, start=1):
            expected = comb(n_vertices, r)
            if len(level) != expected:
                raise ValueError(f"level {r}: expected {expected} labeled subsets, got {len(level)}")
            try:
                if bool in map(type, level):
                    raise TypeError  # array() takes a bool as 0 or 1
                for label in (min(level), max(level)) if level else ():
                    if not 0 <= label < resolution:
                        raise ValueError(f"level {r}: label {label} outside 0..{resolution - 1}")
                store = unsigned_array(level, resolution - 1)
            except TypeError:
                raise ValueError(f"level {r}: every label must be an int") from None
            frozen.append(memoryview(store).toreadonly())
        self.k = k
        self.n_vertices = n_vertices
        self.resolution = resolution
        self.levels = tuple(frozen)

    def label(self, subset: tuple[int, ...]) -> int:
        """The class of a strictly increasing subset of range(n), of size 1..k."""
        subset = tuple(subset)
        n, r = self.n_vertices, len(subset)
        if not (1 <= r <= self.k and all(type(v) is int for v in subset)
                and subset == tuple(sorted(set(subset))) and 0 <= subset[0] and subset[-1] < n):
            raise ValueError(
                f"{subset} is not a strictly increasing subset of range({n}) of size 1..{self.k}"
            )
        # The lexicographic rank of the subset among the r-subsets of range(n).
        rank = comb(n, r) - 1 - sum(comb(n - 1 - s, r - i) for i, s in enumerate(subset))
        return self.levels[r - 1][rank]

    def class_hypergraph(self, r: int, j: int) -> UniformHypergraph:
        """The class P^j_r as an r-uniform hypergraph."""
        if not 1 <= r <= self.k:
            raise ValueError(f"level {r} outside 1..{self.k}")
        if not 0 <= j < self.resolution:
            raise ValueError(f"class {j} outside 0..{self.resolution - 1}")
        subsets = combinations(range(self.n_vertices), r)
        edges = [sub for sub, lab in zip(subsets, self.levels[r - 1]) if lab == j]
        return UniformHypergraph(r, self.n_vertices, edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hyperpartition)
            and (self.k, self.n_vertices, self.resolution) ==
                (other.k, other.n_vertices, other.resolution)
            and self.levels == other.levels
        )

    def __repr__(self) -> str:
        return (
            f"Hyperpartition(k={self.k}, n={self.n_vertices}, l={self.resolution})"
        )


def random_hyperpartition(k: int, n: int, l: int, seed: int) -> Hyperpartition:
    """Independent uniform class labels for every subset, per level.

    Each label is derived from (seed, "hyperpartition", r, *subset) as
    ``stream(...).next_below(l)``: the first u64 of that stream times l,
    shifted down 64 bits. The partition is therefore a pure function of
    the seed, independent of iteration order.
    """
    check_seed(seed)
    check_shape(k, n, l)
    levels = [
        [(u * l) >> 64 for u in subset_draws(seed, "hyperpartition", n, r)]
        for r in range(1, k + 1)
    ]
    return Hyperpartition(k, n, l, levels)


def latent_hyperpartition(sample: LatentSample, l: int) -> Hyperpartition:
    """Box the latent coordinates of a W-random draw at resolution l.

    Label of subset B = floor(l * u_B), computed exactly on the 64-bit
    fractions. At the resolution of the sampled indicator, every cell is
    edge-pure by construction. The latents list every subset by size,
    then lexicographically, so level r is the next C(n, r) of them, boxed.
    """
    k, n = sample.hypergraph.k, sample.hypergraph.n_vertices
    check_shape(k, n, l)
    latents = iter(sample.latents)
    levels = [[(u * l) >> 64 for u in islice(latents, comb(n, r))] for r in range(1, k + 1)]
    return Hyperpartition(k, n, l, levels)


# -- cells ------------------------------------------------------------------


def cell_profile(partition: Hyperpartition, subset: tuple[int, ...]) -> CellProfile:
    """Canonical label profile of a k-subset.

    Two k-subsets share a profile iff some vertex alignment matches the
    classes of all their corresponding sub-subsets, so profiles index the
    partition's cells.
    """
    idx = subset_indexing(partition.k)
    raw = tuple(
        partition.label(tuple(subset[i] for i in positions)) for positions in idx.subsets
    )
    return idx.canonicalize(raw)


def cell_counts(
    host: UniformHypergraph, partition: Hyperpartition
) -> dict[CellProfile, tuple[int, int]]:
    """Per cell: (number of k-subsets, number of those that are edges).

    The k-subsets are walked as a prefix tree by
    :func:`~hyperlim.core.prefix_walk`, so a subset's raw label vector is
    built from its prefix's. Subsets are tallied by that vector, and each
    distinct vector is canonicalized once, by the rule of
    :func:`cell_profile`. Cells appear in the order a lexicographic scan
    of the k-subsets first meets them.
    """
    if host.k != partition.k or host.n_vertices != partition.n_vertices:
        raise ValueError("host and partition disagree on arity or vertex count")
    k, n = partition.k, partition.n_vertices
    idx = subset_indexing(k)
    order = walk_order(k)
    gather = sorted(range(len(order)), key=order.__getitem__)
    rows = [prefix_rows(level, n, r) for r, level in enumerate(partition.levels, start=1)]
    edge_rows = prefix_rows(bytes(map(host.edge_set.__contains__, combinations(range(n), k))), n, k)
    # Raw label vectors in walk order, each with the subset's edge flag last.
    tally: Counter = Counter()
    for verts, key, cols in prefix_walk(rows, k):
        tally.update(map(key.__add__, zip(*cols, edge_rows[verts])))
    by_raw: dict[tuple[int, ...], list[int]] = {}
    for vec, count in tally.items():
        entry = by_raw.setdefault(vec[:-1], [0, 0])
        entry[0] += count
        entry[1] += count * vec[-1]
    counts: dict[CellProfile, list[int]] = {}
    for raw, (size, edges) in by_raw.items():
        entry = counts.setdefault(idx.canonicalize([raw[i] for i in gather]), [0, 0])
        entry[0] += size
        entry[1] += edges
    return {profile: (size, edges) for profile, (size, edges) in counts.items()}


def cell_density(
    host: UniformHypergraph, partition: Hyperpartition
) -> dict[CellProfile, Fraction]:
    """Exact edge density of every nonempty cell."""
    return {
        profile: Fraction(edges, size)
        for profile, (size, edges) in cell_counts(host, partition).items()
    }


def cell_approximation(
    host: UniformHypergraph, partition: Hyperpartition
) -> tuple[frozenset[CellProfile], Fraction]:
    """Majority-vote cell union and its symmetric-difference fraction.

    Includes exactly the cells with density strictly above 1/2, which
    minimizes |H triangle T| over all unions of cells (per-cell choices
    are independent; ties lose nothing by exclusion).
    """
    counts = cell_counts(host, partition)
    total = comb(host.n_vertices, host.k)
    chosen = []
    mismatch = 0
    for profile, (size, edges) in counts.items():
        if 2 * edges > size:
            chosen.append(profile)
            mismatch += size - edges
        else:
            mismatch += edges
    if total == 0:
        return frozenset(), Fraction(0)
    return frozenset(chosen), Fraction(mismatch, total)


def equitability(partition: Hyperpartition) -> dict[int, Fraction]:
    """Per level r: (largest class - smallest class) / C(n, r), exactly.

    All l classes count, including empty ones. The overall measure is the
    maximum over levels.
    """
    out = {}
    for r in range(1, partition.k + 1):
        total = comb(partition.n_vertices, r)
        if total == 0:
            out[r] = Fraction(0)
            continue
        counts = Counter(partition.levels[r - 1])
        # A class that no label names is empty, and then it is the smallest.
        smallest = min(counts.values()) if len(counts) == partition.resolution else 0
        out[r] = Fraction(max(counts.values()) - smallest, total)
    return out


# -- cylinder intersections ---------------------------------------------------


class CylinderIntersection:
    """r sides of arity r-1 on a common vertex set.

    An r-subset {a_1..a_r} is a member iff the left-out elements can be
    assigned bijectively to the sides: some permutation puts, for every i,
    the subset minus its i-th assigned element into side i. `contains`
    decides one subset by brute force over all r! assignments (r <= 4)
    and is the oracle for the counting kernel of the regularity checks,
    which never lists the members.

    Construction builds the kernel's table once (see `_good_masks`) and
    the member count |L| from it. Both are derived from the sides and left
    out of comparisons, so equality and hashing look only at the sides.
    """

    __slots__ = ("sides", "_good", "_size")

    def __init__(self, sides: Sequence[UniformHypergraph]):
        sides = tuple(sides)
        r = len(sides)
        if not 2 <= r <= MAX_ARITY:
            raise ValueError(f"need 2..{MAX_ARITY} sides, got {r}")
        n = sides[0].n_vertices
        for b in sides:
            if b.k != r - 1:
                raise ValueError(f"side arity {b.k} != r-1 = {r - 1}")
            if b.n_vertices != n:
                raise ValueError("sides must share one vertex set")
        self.sides = sides
        self._good = _good_masks(sides)
        self._size = sum(map(int.bit_count, self._good.values()))

    def __eq__(self, other) -> bool:
        return isinstance(other, CylinderIntersection) and self.sides == other.sides

    def __hash__(self) -> int:
        return hash(self.sides)

    @property
    def arity(self) -> int:
        """r, the size of a member subset: one side per left-out element."""
        return len(self.sides)

    @property
    def n_vertices(self) -> int:
        """The size of the vertex set that every side shares."""
        return self.sides[0].n_vertices

    def contains(self, subset: tuple[int, ...]) -> bool:
        """Membership of one sorted r-subset, by brute force over the r! assignments."""
        r = self.arity
        if any(type(v) is not int or not 0 <= v < self.n_vertices for v in subset):
            raise ValueError(f"{subset} out of vertex range or not ints")
        if len(subset) != r or tuple(sorted(set(subset))) != tuple(subset):
            raise ValueError(f"{subset} is not a sorted {r}-subset")
        minus = [subset[:j] + subset[j + 1 :] for j in range(r)]
        edge_sets = [b.edge_set for b in self.sides]
        for perm in permutations(range(r)):
            if all(minus[perm[i]] in edge_sets[i] for i in range(r)):
                return True
        return False


def _good_masks(sides: Sequence[UniformHypergraph]) -> dict[tuple[int, ...], int]:
    """Per sorted (r-1)-subset T: bitmask of v > max(T) with T + {v} in the cylinder.

    For S = T + {v}, facet T goes to some side X holding T, and the facets
    T - t + {v} go bijectively to the other sides, so the mask is an OR
    over those r! assignments of ANDs of r-1 link masks of the other sides,
    each read at T - t. The mask starts at the bits above max(T), which
    drops every other bit of the links. Each side takes its (r-1)!
    bijections in turn, one pass over its edges per bijection. Subsets T
    in no side have no members above them and are left out.
    """
    r = len(sides)
    good: dict[tuple[int, ...], int] = {}
    for x, side in enumerate(sides):
        others = [other.links for other in sides[:x] + sides[x + 1 :]]
        for perm in permutations(range(r - 1)):
            # The y-th other side takes facet S - t[perm[y]], read at T - t[perm[y]].
            plan = list(zip(others, perm))
            for t in side.edges:
                m = -(2 << t[-1])
                for links, i in plan:
                    m &= links.get(t[:i] + t[i + 1 :], 0)
                if m:
                    good[t] = good.get(t, 0) | m
    return good


def regularity_deviation(
    g: UniformHypergraph, cyl: CylinderIntersection, size_gate: float | Fraction
) -> Fraction | None:
    """|density of g - density of g inside the cylinder|, or None.

    None marks a skipped (too small) cylinder: assessment requires
    |L| >= size_gate * C(n, r). L itself is never listed: |G & L| is the
    sum over (r-1)-subsets T of popcount(good[T] & links[T]), with g's
    link masks, one pass over the smaller of the two tables. The members
    of good[T] lie above max(T), so each edge of g in L counts once.
    """
    if g.k != cyl.arity or g.n_vertices != cyl.n_vertices:
        raise ValueError("hypergraph and cylinder disagree on arity or vertex count")
    total = comb(g.n_vertices, g.k)
    size = cyl._size
    if size == 0 or Fraction(size, total) < size_gate:
        return None
    good, links = cyl._good, g.links
    small, large = (good, links) if len(good) <= len(links) else (links, good)
    inside = sum(map(int.bit_count, map(and_, small.values(), map(large.get, small, repeat(0)))))
    return abs(Fraction(len(g.edges), total) - Fraction(inside, size))


class RegularityReport(NamedTuple):
    """Outcome of testing one hypergraph against a cylinder family."""

    epsilon: float
    tested: int
    admitted: int
    max_deviation: Fraction | None
    witness: CylinderIntersection | None = None


def check_regularity_family(
    g: UniformHypergraph,
    epsilon: float,
    family: Sequence[CylinderIntersection],
) -> RegularityReport:
    """Max admitted deviation over a provided cylinder family.

    The witness is the first cylinder attaining the maximum, present iff
    that maximum exceeds epsilon (the same epsilon gates cylinder size).
    Epsilon must lie in (0, 1): at 1 or above no deviation can exceed it
    and no proper cylinder passes the size gate, so every verdict would be
    regular without a test; an empty family is refused for that reason too.

    Each cylinder costs one :func:`regularity_deviation`: a pass over at
    most C(n, r-1) entries of its own table, built when the cylinder was,
    against g's link masks, built when g was, whatever the number of edges
    of g.
    """
    _check_epsilon(epsilon)
    if not family:
        raise ValueError("empty cylinder family: a regular verdict would rest on no test")
    admitted = 0
    max_dev: Fraction | None = None
    argmax = None
    for cyl in family:
        dev = regularity_deviation(g, cyl, epsilon)
        if dev is None:
            continue
        admitted += 1
        if max_dev is None or dev > max_dev:
            max_dev = dev
            argmax = cyl
    witness = argmax if (max_dev is not None and max_dev > epsilon) else None
    return RegularityReport(epsilon, len(family), admitted, max_dev, witness)


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")


def check_sampled_arguments(n: int, r: int, epsilon: float, count: int, seed: int) -> None:
    """Refuse a sampled check at level r on n vertices that would test nothing.

    Called before any cylinder is built. Epsilon must lie in (0, 1) (see
    :func:`check_regularity_family`), at least one cylinder must be drawn,
    and the seed must fit in 64 bits. With fewer than r vertices there is
    no r-subset, so every cylinder is empty by construction and the check
    would report a regular verdict backed by no test; that is refused too.
    """
    _check_epsilon(epsilon)
    check_count("cylinder count", count)
    check_seed(seed)
    if n < r:
        raise ValueError(f"no {r}-subsets on {n} vertices, so every cylinder is empty")


def sampled_cylinder_family(n: int, r: int, count: int, seed: int) -> list[CylinderIntersection]:
    """Seeded random cylinder intersections on n vertices at level r.

    Side i of cylinder m has density q = 1/4, 1/2 or 3/4, picked by
    ``stream(seed, "cylinder-density", m, i).next_below(3)``, and holds
    the j-th (r-1)-subset, in lexicographic order, iff the j-th
    ``next_u64`` of ``stream(seed, "cylinder-side", m, i)`` is below
    ``int(q * 2**64)``. The family is a pure function of the seed. Both
    labels are derived once and folded with m and i. A side's draws come
    from the counter identity of :mod:`hyperlim.rng`, a block of
    ``_BLOCK`` consecutive draws per kernel call, and the side keeps the
    subsets whose draw is below its threshold, with no per-draw Python
    step. A vertex count that is not an int of at least 0, a level
    outside 2..MAX_ARITY, or a count below 1, is refused before any draw.
    """
    if not 2 <= r <= MAX_ARITY:
        raise ValueError(f"cylinder level r={r} outside 2..{MAX_ARITY}")
    check_count("n_vertices", n, 0)
    check_seed(seed)
    check_count("cylinder count", count)
    subsets = list(combinations(range(n), r - 1))
    picks = len(_SIDE_THRESHOLDS)
    density_state = derive(seed, "cylinder-density")
    side_state = derive(seed, "cylinder-side")
    family = []
    for m in range(count):
        density_m = fold(density_state, m)
        side_m = fold(side_state, m)
        sides = []
        for i in range(r):
            threshold = _SIDE_THRESHOLDS[(mix64(fold(density_m, i) + _GAMMA) * picks) >> 64]
            below = map(threshold.__gt__, _stream_draws(fold(side_m, i), len(subsets)))
            sides.append(UniformHypergraph(r - 1, n, list(compress(subsets, below))))
        family.append(CylinderIntersection(tuple(sides)))
    return family


def check_regularity_sampled(
    g: UniformHypergraph, epsilon: float, count: int, seed: int
) -> RegularityReport:
    """Sampled regularity check against ``count`` seeded random cylinders.

    Every argument is checked by :func:`check_sampled_arguments` before
    the family is built.
    """
    if g.k < 2:
        raise ValueError("level 1 has no cylinder structure; use equitability")
    check_sampled_arguments(g.n_vertices, g.k, epsilon, count, seed)
    family = sampled_cylinder_family(g.n_vertices, g.k, count, seed)
    return check_regularity_family(g, epsilon, family)


# -- total-independence diagnostic -------------------------------------------


class IndependenceResult(NamedTuple):
    """Worst observed product-vs-intersection gap over seeded partitions."""

    max_discrepancy: float
    bound: float
    trials: int
    seed: int
    discrepancies: tuple[float, ...]


def independence_test(
    k: int, n: int, l: int, seed: int = 0, trials: int = 4
) -> IndependenceResult:
    """Finite analog of label independence across position-subsets.

    Per trial: draw a random l-hyperpartition and one target class per
    nonempty position-subset A_i of 0..k-1; over all k-tuples of distinct
    vertices, compare the fraction landing in every chosen class
    simultaneously against the product of the per-subset fractions.
    Reports the max |gap| and the reference bound
    4 * sqrt(p0 (1 - p0) / C(n, k)) with p0 = l**-(2**k - 1). Every
    argument is checked before the bound or any partition is computed.

    The tuples are never listed. A per-subset fraction is the share of
    its class among the |A_i|-subsets. For the joint fraction, the
    k-subsets are walked by :func:`~hyperlim.core.prefix_walk`, as in
    :func:`cell_counts`, and each one's label vector is tested for
    membership in the orbit of the targets: one walk of the C(n, k)
    subsets per trial, with no cell built.
    """
    check_seed(seed)
    check_shape(k, n, l)
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    check_count("trials", trials)
    idx = subset_indexing(k)
    subsets = idx.subsets
    p0 = float(l) ** -len(subsets)
    bound = 4.0 * sqrt(p0 * (1.0 - p0) / comb(n, k))
    order = walk_order(k)
    discrepancies = []
    for t in range(trials):
        partition = random_hyperpartition(k, n, l, derive(seed, "independence-partition", t))
        targets = tuple(
            stream(seed, "independence-class", t, i).next_below(l)
            for i in range(len(subsets))
        )
        # Positions A_i of the ordered tuples cover each |A_i|-subset equally often.
        product_mu = Fraction(1)
        for positions, target in zip(subsets, targets):
            r = len(positions)
            product_mu *= Fraction(partition.levels[r - 1].tolist().count(target), comb(n, r))
        # The k! orderings of a k-subset read the orbit of its label vector,
        # each entry |Stab(targets)| times; only subsets whose vector lies in
        # the orbit of the targets meet them. Vectors are read in walk order.
        orbit = idx.orbit(targets)
        wanted = {tuple([vec[i] for i in order]) for vec in orbit}
        rows = [prefix_rows(level, n, r) for r, level in enumerate(partition.levels, start=1)]
        size = sum(
            sum(map(wanted.__contains__, map(key.__add__, zip(*cols))))
            for _, key, cols in prefix_walk(rows, k)
        )
        mu_inter = Fraction(size * orbit.count(targets), comb(n, k) * len(idx.perms))
        discrepancies.append(abs(float(mu_inter - product_mu)))
    return IndependenceResult(max(discrepancies), bound, trials, seed, tuple(discrepancies))


def extract_step_hypergraphon(
    host: UniformHypergraph, partition: Hyperpartition
) -> StepHypergraphon:
    """Cell densities as a projected-kind grid at the partition resolution.

    Each nonempty cell's canonical profile is a box orbit (the level-k
    class is the top coordinate); its value is the exact cell density.
    Empty cells read 0. When the cells are edge-pure the values are
    exactly {0, 1} and agree with any indicator that generated them.
    """
    values = {
        profile: float(density)
        for profile, density in cell_density(host, partition).items()
        if density != 0
    }
    return StepHypergraphon(partition.k, partition.resolution, PROJECTED, values)


# ---------------------------------------------------------------------------
# HP text format
#
#   HP <k> <n> <l>
#   LEVEL <r>                      (for r = 1..k)
#   <v_1> ... <v_r> <label>        (C(n,r) lines, subsets in lexicographic
#                                   order)
# ---------------------------------------------------------------------------


def serialize_hyperpartition(partition: Hyperpartition) -> str:
    """Canonical HP text: the header, then one LEVEL block per r, a line per r-subset."""
    lines = [f"HP {partition.k} {partition.n_vertices} {partition.resolution}"]
    for r, level in enumerate(partition.levels, start=1):
        lines.append(f"LEVEL {r}")
        for sub, label in zip(combinations(range(partition.n_vertices), r), level):
            lines.append(" ".join(str(v) for v in sub) + f" {label}")
    return "\n".join(lines) + "\n"


def parse_hyperpartition(text: str | bytes) -> Hyperpartition:
    """Parse the HP format; raises FormatError with a line number."""
    lines = _content_lines(text)
    lineno, k, (n_tok, l_tok) = _header(lines, "HP <k> <n> <l>")
    n = _parse_int(n_tok, "vertex count n", lineno)
    l = _parse_int(l_tok, "resolution l", lineno)
    _first_refused([(lineno, l)], partial(check_shape, k, n))
    rows = iter(lines[1:])
    levels = []
    for r in range(1, k + 1):
        blineno, bline = next(rows, (lineno, None))
        if bline is None:
            raise FormatError(f"missing 'LEVEL {r}' block", lineno)
        if bline.split() != ["LEVEL", str(r)]:
            raise FormatError(f"expected 'LEVEL {r}', got {bline!r}", blineno)
        level = []
        for elineno, token in _subset_lines(rows, n, r, blineno):
            label = _parse_int(token, "class label", elineno)
            if label >= l:
                raise FormatError(f"class label {label} outside 0..{l - 1}", elineno)
            level.append(label)
        levels.append(level)
    extra = next(rows, None)
    if extra is not None:
        raise FormatError("trailing content after the last level block", extra[0])
    return Hyperpartition(k, n, l, levels)
