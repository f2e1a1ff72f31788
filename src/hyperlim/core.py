"""k-uniform hypergraphs on 0-based vertex sets, and the shared indexing helpers.

The arity cap is k <= 4: coordinate grids and cell enumerations grow
doubly-exponentially in k, and 2**k - 1 = 15 coordinates is the tested
ceiling. Edges are unordered k-subsets stored as sorted tuples.
"""

from __future__ import annotations

from array import array
from functools import lru_cache, partial
from itertools import combinations, permutations
from operator import itemgetter, length_hint
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

MAX_ARITY = 4

#: Unsigned array typecodes, narrowest first, each with the least value it cannot hold.
_UNSIGNED = tuple((code, 1 << 8 * array(code).itemsize) for code in "BHIQ")


class FormatError(ValueError):
    """Malformed text input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured budget; no partial result is returned."""


def check_arity(k: int) -> None:
    # type(...) is int refuses bools and floats, which no text format can spell.
    if type(k) is not int or not 1 <= k <= MAX_ARITY:
        raise ValueError(f"arity k={k!r} out of supported range 1..{MAX_ARITY} or not an int")


def check_count(what: str, value: int, least: int = 1) -> None:
    """Refuse a count, cap or budget that is not an int of at least ``least``.

    The rule of every size argument: a bool, a float (NaN and inf too) or
    any other non-int is refused, so no budget can switch its check off.
    """
    if type(value) is not int or value < least:
        raise ValueError(f"{what} must be an int of at least {least}, got {value!r}")


def check_shape(k: int, n_vertices: int, resolution: int) -> None:
    """Refuse an arity, a vertex count below 0 or a resolution outside 1..2**64.

    Each must be an int. Partition labels and sampled boxes, the classes
    of a resolution, are held in 64-bit arrays; a hypergraph has one class,
    and a step hypergraphon, which has no vertex set, passes 0 vertices.
    """
    check_arity(k)
    check_count("n_vertices", n_vertices, 0)
    check_count("resolution l", resolution)
    if resolution > 1 << 64:
        raise ValueError(f"resolution l={resolution} above 2**64: classes are held in 64 bits")


def pick(positions: Sequence[int]):
    """Callable returning the tuple of a sequence's items at ``positions``.

    ``itemgetter`` returns a bare value for one index and takes no empty
    list, so those two cases build the tuple themselves.
    """
    if len(positions) == 1:
        p = positions[0]
        return lambda seq: (seq[p],)
    return itemgetter(*positions) if positions else lambda seq: ()


class UniformHypergraph:
    """A simple k-uniform hypergraph on vertices 0..n_vertices-1.

    The constructor expects canonical input: every edge a strictly
    increasing k-tuple, edges strictly increasing lexicographically.
    Use :meth:`from_edges` to normalize arbitrary edge iterables.

    The pass that checks every vertex of every edge also builds ``links``:
    per sorted (k-1)-subset S, the int with bit v set iff S + {v} is an
    edge. Subsets that complete to no edge are left out, so a missing key
    reads as the empty mask 0. The table is never written after
    construction; every kernel that reads the hypergraph through its links
    (hom counting, cylinder tables, regularity counts) reads this one.
    """

    __slots__ = ("k", "n_vertices", "edges", "links")

    def __init__(self, k: int, n_vertices: int, edges: Sequence[tuple[int, ...]] = ()):
        check_shape(k, n_vertices, 1)
        edges = tuple(tuple(e) for e in edges)
        links: dict[tuple[int, ...], int] = {}
        prev = None
        for e in edges:
            if len(e) != k:
                raise ValueError(f"edge {e} does not have arity {k}")
            for i, v in enumerate(e):
                if type(v) is not int or not 0 <= v < n_vertices:
                    raise ValueError(
                        f"vertex {v!r} out of range 0..{n_vertices - 1} or not an int, in edge {e}"
                    )
                if i and e[i - 1] >= v:
                    if e[i - 1] == v:
                        raise ValueError(f"repeated vertex {v} within edge {e}")
                    raise ValueError(f"edge {e}: vertices not in strictly increasing order")
                s = e[:i] + e[i + 1 :]
                links[s] = links.get(s, 0) | 1 << v
            if prev is not None and prev >= e:
                raise ValueError(f"edges not in canonical order or duplicated near {e}")
            prev = e
        self.k = k
        self.n_vertices = n_vertices
        self.edges = edges
        self.links = links

    @classmethod
    def from_edges(cls, k: int, n_vertices: int, edges: Iterable[Iterable[int]]) -> "UniformHypergraph":
        """Build from arbitrary edge iterables; sorts and deduplicates."""
        return cls(k, n_vertices, sorted({tuple(sorted(e)) for e in edges}))

    @property
    def edge_set(self) -> frozenset:
        """The edges as a frozenset, built on each call."""
        return frozenset(self.edges)

    def without_edges(self, drop: Iterable[tuple[int, ...]]) -> "UniformHypergraph":
        """A new hypergraph on the same vertices, less every edge listed in ``drop``."""
        gone = {tuple(e) for e in drop}
        return UniformHypergraph(
            self.k, self.n_vertices, [e for e in self.edges if e not in gone]
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniformHypergraph)
            and self.k == other.k
            and self.n_vertices == other.n_vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.k, self.n_vertices, self.edges))

    def __repr__(self) -> str:
        return f"UniformHypergraph(k={self.k}, n={self.n_vertices}, m={len(self.edges)})"


class SubsetIndexing:
    """Canonical indexing of the 2**k - 1 nonempty subsets of {0..k-1}.

    Order: by size, then lexicographically. Coordinate vectors over this
    index carry the natural symmetric-group action; `canonicalize` returns
    the lexicographic minimum of an orbit, which is the storage key for
    box grids and cell profiles alike. The action of each permutation is
    a fixed gather of coordinates, built once here; nothing is stored
    afterwards.
    """

    __slots__ = ("k", "subsets", "index", "perms", "_actions")

    def __init__(self, k: int):
        check_arity(k)
        self.k = k
        subsets = []
        for size in range(1, k + 1):
            subsets.extend(combinations(range(k), size))
        self.subsets = tuple(subsets)
        self.index = {s: i for i, s in enumerate(subsets)}
        self.perms = tuple(permutations(range(k)))
        self._actions = tuple(self._build_action(p) for p in self.perms)

    @property
    def n_coords(self) -> int:
        """The number of box coordinates, 2**k - 1: one per nonempty subset of {0..k-1}."""
        return len(self.subsets)

    def _build_action(self, perm: tuple[int, ...]):
        # Coordinate j moves to the index of perm(A_j), so position i of
        # the result reads the coordinate whose subset perm maps to A_i.
        source = [0] * len(self.subsets)
        for j, s in enumerate(self.subsets):
            source[self.index[tuple(sorted(perm[a] for a in s))]] = j
        return pick(source)

    def orbit(self, vec: Sequence) -> list[tuple]:
        """Images of ``vec`` under every permutation, in ``perms`` order."""
        key = tuple(vec)
        if len(key) != len(self.subsets):
            raise ValueError(f"vector {key}: expected {len(self.subsets)} coordinates")
        return [action(key) for action in self._actions]

    def canonicalize(self, vec: Sequence) -> tuple:
        """Lexicographic minimum of the orbit of ``vec`` under all of S_k."""
        return min(self.orbit(vec))


@lru_cache(maxsize=None)
def subset_indexing(k: int) -> SubsetIndexing:
    """Shared per-arity indexing instance."""
    return SubsetIndexing(k)


def simplicial_support(hypergraph: UniformHypergraph) -> tuple[tuple[int, ...], ...]:
    """All nonempty subsets of the edges, deduplicated and ordered.

    Order: by size, then lexicographically. Every nonempty subset of a
    member is a member (downward closure), since subsets of subsets of
    edges are subsets of edges. A single k-edge yields 2**k - 1 elements.
    """
    seen = set()
    for e in hypergraph.edges:
        for size in range(1, hypergraph.k + 1):
            seen.update(combinations(e, size))
    return tuple(sorted(seen, key=lambda s: (len(s), s)))


def unsigned_array(values: Iterable[int], top: int) -> array:
    """``values`` in an array of the narrowest unsigned typecode that holds ``top``.

    A value the typecode cannot hold (negative, or too wide) raises
    OverflowError. ``top`` must lie in 0..2**64 - 1.
    """
    for code, limit in _UNSIGNED:
        if top < limit:
            return array(code, values)
    raise ValueError(f"{top} does not fit in 64 bits")


def prefix_rows(values: Sequence, n: int, r: int) -> dict[tuple[int, ...], Sequence]:
    """One value per r-subset of range(n), in lexicographic order, as rows.

    Row T, for each sorted (r-1)-subset T, is the slice of ``values``
    holding the values of T + (v,) for v from max(T) + 1 to n - 1. Rows
    of an array or a memoryview are arrays or views, one object each,
    so no value is boxed until the walk reads it.
    """
    rows = {}
    start = 0
    for prefix in combinations(range(n), r - 1):
        stop = start + (n - 1 - prefix[-1] if prefix else n)
        rows[prefix] = values[start:stop]
        start = stop
    return rows


def _walk_steps(k: int) -> list[list[tuple[int, ...]]]:
    # steps[j]: the position subsets T of range(j) whose subset T + (j,)
    # becomes known when position j is fixed, by size then lexicographically.
    return [[t for size in range(j + 1) for t in combinations(range(j), size)] for j in range(k)]


def walk_order(k: int) -> list[int]:
    """The `SubsetIndexing` index of each coordinate, in the order `prefix_walk` fixes them."""
    index = subset_indexing(k).index
    return [index[t + (j,)] for j, step in enumerate(_walk_steps(k)) for t in step]


def prefix_walk(
    rows: Sequence[Mapping[tuple[int, ...], Sequence]],
    k: int,
    live: Sequence[Container[tuple]] | None = None,
):
    """Walk the k-subsets of range(n) as a prefix tree, in lexicographic order.

    ``rows[r - 1]`` lays out one value per r-subset as :func:`prefix_rows`
    does, for r = 1..k, or for r = 1..k-1 only. Yields ``(verts, key, cols)``
    once per sorted (k-1)-subset ``verts``: ``key`` holds the values of the
    nonempty subsets of ``verts`` in :func:`walk_order`, and the items c of
    ``zip(*cols)``, for v = max(verts) + 1, max(verts) + 2, ..., hold the
    values of the subsets T + (v,), T a subset of ``verts``. So ``key + c``
    is the value vector of ``verts + (v,)`` in walk order, and each key is
    built once and shared by every extension of its prefix. Without level
    k, ``cols`` lacks the last column, that of T = ``verts``, and ``key + c``
    is the vector less its top value; for k = 1, ``cols`` is then empty.

    ``live[j]``, for j < k - 1, holds the keys of the (j+1)-vertex prefixes
    to walk on: a prefix whose key it lacks is skipped with its subtree.
    With ``live`` None every prefix is walked.
    """
    held = len(rows)
    steps = [[t for t in step if len(t) < held] for step in _walk_steps(k)]

    def walk(verts: tuple[int, ...], key: tuple):
        j = len(verts)
        lo = verts[-1] + 1 if verts else 0
        cols = []
        for t in steps[j]:
            members = tuple(verts[i] for i in t)
            # Row T starts at vertex max(T) + 1; slice it from lo.
            cols.append(rows[len(t)][members][lo - (members[-1] + 1 if members else 0):])
        if j == k - 1:
            yield verts, key, cols
        else:
            for v, c in enumerate(zip(*cols), lo):
                ext = key + c
                if live is None or ext in live[j]:
                    yield from walk(verts + (v,), ext)

    try:
        yield from walk((), ())
    finally:
        del walk  # its closure holds itself: unlinked, the rows it captured are freed with the walk


def complete_hypergraph(k: int, n: int) -> UniformHypergraph:
    """All k-subsets of {0..n-1}; empty when k > n."""
    return UniformHypergraph(k, n, list(combinations(range(n), k)))


# ---------------------------------------------------------------------------
# HG text format
#
#   HG <k> <n> <m>
#   <v_1> ... <v_k>     (m lines, vertices strictly increasing)
#
# '#' lines are comments; blank lines are ignored. Canonical serialization
# lists edges in lexicographic order, LF line endings, UTF-8.
# ---------------------------------------------------------------------------


def _content_lines(text: str | bytes) -> list[tuple[int, str]]:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            # The bytes before the fault decode; it sits on their last line,
            # or on a new one if they end with a line break.
            lineno = len((text[: exc.start].decode("utf-8") + "x").splitlines())
            raise FormatError(
                f"invalid UTF-8 byte 0x{text[exc.start]:02x} ({exc.reason})", lineno
            ) from None
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def _parse_int(token: str, what: str, lineno: int) -> int:
    # ASCII digits only: no sign, no '_' separator, no other script's digits.
    if token.isascii() and token.isdigit():
        return int(token)
    raise FormatError(f"{what}: {token!r} is not an integer (ASCII digits only)", lineno)


def _subset_lines(
    lines: Iterator[tuple[int, str]], n: int, r: int, lineno: int
) -> Iterator[tuple[int, str]]:
    """Read one line per r-subset of range(n), in lexicographic order.

    Each line holds the subset's members, spelled as ``str`` writes them,
    and then one value token. Takes C(n, r) lines from ``lines`` and
    yields each one's number and value token, for the caller to parse.
    ``lineno`` names the line that announced them, for a missing one.
    A header may claim any n: with L lines left in the list iterator, only
    the first L + 1 subsets can be reached, and those lie in range(L + r),
    as each one with a member v >= L + r follows every (0, ..., r - 2, j < v).
    """
    m = min(n, length_hint(lines) + r)
    for sub in combinations(range(m), r):
        want = list(map(str, sub))
        item = next(lines, None)
        if item is None:
            raise FormatError(f"level {r}: missing line for subset {sub}", lineno)
        elineno, line = item
        tokens = line.split()
        if tokens[:-1] != want:
            raise FormatError(
                f"got {line!r}, out of order: expected '{' '.join(want)}' and a value"
                " (subsets in lexicographic order)",
                elineno,
            )
        yield elineno, tokens[-1]


def parse_hypergraph(text: str | bytes) -> UniformHypergraph:
    """Parse the HG format; raises FormatError with a line number."""
    return _parse_hypergraph_lines(_content_lines(text))


def _header(lines: list[tuple[int, str]], form: str) -> tuple[int, int, list[str]]:
    """Check the header line of a text format against ``form``.

    ``form`` reads like 'HG <k> <n> <m>': a tag, then k, then the other
    fields. Checks that the input is not empty, the tag and the field
    count, and parses k and checks its arity. Returns the header's line
    number, k, and the header tokens after k.
    """
    fields = form.split()
    if not lines:
        raise FormatError(f"empty input: missing {fields[0]} header")
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != len(fields) or tokens[0] != fields[0]:
        raise FormatError(f"malformed header: expected '{form}'", lineno)
    k = _parse_int(tokens[1], "arity k", lineno)
    _first_refused([(lineno, k)], check_arity)
    return lineno, k, tokens[2:]


def _first_refused(entries: Iterable[tuple[int, object]], build: Callable) -> None:
    """Raise the first entry that ``build`` refuses on its own as a FormatError.

    ``entries`` holds (line number, entry) pairs in file order; the first
    ValueError of ``build(entry)`` is raised again at the entry's line.
    Readers leave value rules to the constructors and call this when one
    refuses, or when a later line is malformed; if it returns, the reader
    re-raises the original error.
    """
    for lineno, entry in entries:
        try:
            build(entry)
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None


def _parse_hypergraph_lines(lines: list[tuple[int, str]]) -> UniformHypergraph:
    # Content lines keep their numbers in the enclosing file, so an HG
    # block embedded in another format reports the file's line numbers.
    lineno, k, (n_tok, m_tok) = _header(lines, "HG <k> <n> <m>")
    n = _parse_int(n_tok, "vertex count n", lineno)
    m = _parse_int(m_tok, "edge count m", lineno)
    body = lines[1:]
    if len(body) != m:
        raise FormatError(f"expected {m} edge lines, found {len(body)}", lineno)
    # Vertex range and order are left to the constructor.
    edges: dict[tuple[int, ...], int] = {}  # edge -> its line, in file order
    try:
        for elineno, line in body:
            tokens = line.split()
            if len(tokens) != k:
                raise FormatError(f"expected {k} vertex ids, got {len(tokens)}", elineno)
            edge = tuple(_parse_int(t, "vertex id", elineno) for t in tokens)
            if edge in edges:
                raise FormatError(f"duplicate edge {edge}", elineno)
            edges[edge] = elineno
        return UniformHypergraph(k, n, sorted(edges))
    except ValueError:
        _first_refused(((ln, [e]) for e, ln in edges.items()), partial(UniformHypergraph, k, n))
        raise


def hypergraph_lines(hypergraph: UniformHypergraph) -> Iterator[str]:
    """Canonical HG text, one line at a time: the header, then the edges in
    lexicographic order, each line ending in a line feed."""
    yield f"HG {hypergraph.k} {hypergraph.n_vertices} {len(hypergraph.edges)}\n"
    for e in hypergraph.edges:
        yield " ".join(map(str, e)) + "\n"


def serialize_hypergraph(hypergraph: UniformHypergraph) -> str:
    """Canonical HG text: the lines of :func:`hypergraph_lines`, joined."""
    return "".join(hypergraph_lines(hypergraph))
