"""Output oracles for the benchmark's CLI invocations.

Each check reads one invocation's exit code, stdout, stderr and written
files and returns a list of problems; an empty list means the output is
right. The oracles do not depend on the workload seed: closed-form
densities, counts the benchmark computes itself, and rules that the
output must satisfy for any input. Digests of stdout and written files,
recorded for the default seed, are compared separately in ``run.py``.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb


@dataclass
class Output:
    """What one CLI invocation produced."""

    code: int
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes] = field(default_factory=dict)


def real(x: float) -> str:
    """The CLI's float format: 17 significant digits."""
    return format(float(x), ".17g")


def parse_hg(text: str) -> tuple[int, int, set[tuple[int, ...]]]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    tag, k, n, m = lines[0]
    if tag != "HG" or int(m) != len(lines) - 1:
        raise ValueError("malformed HG text")
    return int(k), int(n), {tuple(int(v) for v in ln) for ln in lines[1:]}


def _adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def count_triangles(n: int, edges) -> int:
    adj = _adjacency(n, edges)
    return sum(bin(adj[a] & adj[b] & ~((1 << (b + 1)) - 1)).count("1") for a, b in edges)


def count_k4(n: int, edges) -> int:
    """Number of 4-cliques of a graph, by bitset intersection."""
    adj = _adjacency(n, edges)
    total = 0
    for a, b in edges:
        common = adj[a] & adj[b] & ~((1 << (b + 1)) - 1)
        while common:
            low = common & -common
            c = low.bit_length() - 1
            common ^= low
            total += bin(common & adj[c]).count("1")
    return total


def _csv(out: Output) -> list[list[str]]:
    return list(csv.reader(io.StringIO(out.stdout.decode("utf-8"))))


def _ok_code(out: Output, expected: int = 0) -> list[str]:
    if out.code != expected:
        return [f"exit code {out.code}, expected {expected}: {out.stderr[-300:]!r}"]
    return []


# -- convergence ----------------------------------------------------------------


def check_convergence(out: Output, patterns: dict[str, tuple[int, Fraction]], ns, reps: int) -> list[str]:
    """CSV of ``experiment convergence``; ``patterns`` maps stem -> (|V(K)|, exact t(K, W))."""
    problems = _ok_code(out)
    if problems:
        return problems
    rows = _csv(out)
    if rows[0] != ["K", "n", "rep", "t_H", "t_W", "abs_diff"]:
        return [f"bad header {rows[0]}"]
    body = rows[1:]
    expected_rows = len(patterns) * len(ns) * (reps + 1)
    if len(body) != expected_rows:
        return [f"{len(body)} rows, expected {expected_rows}"]
    it = iter(body)
    for kid, (n_vertices, t_w) in patterns.items():
        for n in ns:
            diffs = []
            for rep in range(reps):
                row = next(it)
                if row[:3] != [kid, str(n), str(rep)]:
                    return [f"unexpected row {row}"]
                t_h = Fraction(row[3])
                if (t_h * n**n_vertices).denominator != 1:
                    problems.append(f"t_H {row[3]} is not hom / n^{n_vertices}")
                if row[4] != real(t_w):
                    problems.append(f"{kid}: t_W {row[4]}, expected {real(t_w)}")
                diff = abs(float(t_h) - float(t_w))
                if row[5] != real(diff):
                    problems.append(f"abs_diff {row[5]} != |t_H - t_W| = {real(diff)}")
                diffs.append(diff)
            mean = next(it)
            if mean != [kid, str(n), "mean", "", "", real(sum(diffs) / len(diffs))]:
                problems.append(f"bad mean row {mean}")
    return problems


def check_sample_fixture(out: Output, hg_name: str, lat_name: str, n: int, seed: int) -> list[str]:
    """``sample --latents`` of the k=3 fixture: edges re-derived from the latents.

    The fixture puts an edge on a triple iff the box (m * 2) >> 64 of its
    own latent and of its three pair latents is 0, i.e. every one of
    those 64-bit fractions is below 2**63.
    """
    problems = _ok_code(out)
    if problems:
        return problems
    try:
        hg_text = out.files[hg_name].decode("utf-8")
        lat_lines = out.files[lat_name].decode("utf-8").splitlines()
        k, n_hg, edges = parse_hg(hg_text)
    except (KeyError, ValueError, UnicodeDecodeError) as exc:
        return [f"unreadable sample output: {exc!r}"]
    if (k, n_hg) != (3, n):
        return [f"HG header k={k} n={n_hg}, expected k=3 n={n}"]
    if lat_lines[0] != f"LAT 3 {n} {seed}":
        return [f"LAT header {lat_lines[0]!r}"]
    n_latents = sum(comb(n, r) for r in range(1, 4))
    latents = {}
    try:
        for line in lat_lines[1 : 1 + n_latents]:
            *sub, hexu = line.split()
            latents[tuple(int(v) for v in sub)] = int(hexu, 16)
    except ValueError as exc:
        return [f"bad latent line: {exc}"]
    expected_subsets = [s for r in range(1, 4) for s in combinations(range(n), r)]
    if list(latents) != expected_subsets:
        return ["latent lines do not list every subset once, in order"]
    half = 1 << 63
    derived = {
        e for e in combinations(range(n), 3)
        if latents[e] < half and all(latents[p] < half for p in combinations(e, 2))
    }
    if derived != edges:
        problems.append(f"{len(derived ^ edges)} edges disagree with the latents")
    if "\n".join(lat_lines[1 + n_latents :]) + "\n" != hg_text:
        problems.append("LAT's embedded HG block differs from the HG file")
    return problems


# -- regularity -----------------------------------------------------------------


def check_regularity_row(out: Output, n: int, cylinders: int, seed: int, eps: float) -> list[str]:
    problems = _ok_code(out)
    if problems:
        return problems
    rows = _csv(out)
    header = ["n", "r", "eps", "cylinders", "seed", "tested", "admitted", "max_deviation", "witness"]
    if rows[0] != header or len(rows) != 2:
        return [f"bad CSV shape {rows[:1]} with {len(rows)} rows"]
    row = rows[1]
    if row[:6] != [str(n), "2", real(eps), str(cylinders), str(seed), str(cylinders)]:
        problems.append(f"unexpected fields {row[:6]}")
    admitted = int(row[6])
    if not 0 <= admitted <= cylinders:
        problems.append(f"admitted {admitted} outside 0..{cylinders}")
    dev = Fraction(row[7]) if row[7] else None
    if (dev is None) != (admitted == 0) or (dev is not None and not 0 <= dev <= 1):
        problems.append(f"max_deviation {row[7]!r} inconsistent with admitted={admitted}")
    if row[8] != str(int(dev is not None and dev > eps)):
        problems.append(f"witness {row[8]} inconsistent with max_deviation {row[7]}")
    return problems


def check_experiment_regularity(out: Output, k: int, l: int, cylinders: int, eps: float) -> list[str]:
    """Latent partition at W's own resolution: every cell is edge-pure, so cell_error is 0."""
    problems = _ok_code(out)
    if problems:
        return problems
    rows = _csv(out)
    if rows[0] != ["kind", "level", "class", "value", "detail"]:
        return [f"bad header {rows[0]}"]
    body = rows[1:]
    kinds = [r[0] for r in body]
    expected = ["equitability"] * k + ["regularity"] * ((k - 1) * l) + ["cell_error"]
    if kinds != expected:
        return [f"row kinds {kinds}"]
    for row in body[:k]:
        if not 0 <= Fraction(row[3]) <= 1:
            problems.append(f"equitability {row[3]} outside [0, 1]")
    for row in body[k:-1]:
        fields = dict(kv.split("=") for kv in row[4].split(";"))
        if fields["tested"] != str(cylinders) or not 0 <= int(fields["admitted"]) <= cylinders:
            problems.append(f"bad regularity detail {row[4]}")
        dev = Fraction(row[3]) if row[3] else None
        if fields["witness"] != str(int(dev is not None and dev > eps)):
            problems.append(f"witness inconsistent in {row}")
    if body[-1][3] != "0":
        problems.append(f"cell_error {body[-1][3]}, expected 0 at W's resolution")
    return problems


# -- density --------------------------------------------------------------------


def check_exact_density(out: Output, expected: Fraction) -> list[str]:
    problems = _ok_code(out)
    if not problems and out.stdout.decode("utf-8") != real(expected) + "\n":
        problems.append(f"density {out.stdout!r}, expected {real(expected)}")
    return problems


def check_mc_density(out: Output, exact: Fraction, samples: int, sigmas: float = 4.0) -> list[str]:
    problems = _ok_code(out)
    if problems:
        return problems
    found = re.search(r"^se=(\S+) samples=(\d+)$", out.stderr.decode("utf-8"), re.MULTILINE)
    if found is None:
        return [f"no 'se=... samples=...' line on stderr: {out.stderr[-300:]!r}"]
    est, se = float(out.stdout.decode("utf-8")), float(found[1])
    if int(found[2]) != samples:
        problems.append(f"samples={found[2]}, expected {samples}")
    if not abs(est - float(exact)) <= sigmas * se:
        problems.append(f"estimate {est} is more than {sigmas} se={se} from {float(exact)}")
    return problems


# -- removal --------------------------------------------------------------------


def check_hom_k4(out: Output, host_text: str) -> list[str]:
    """``hom K4 G``: every 4-clique of G is hit by 4! = 24 homomorphisms."""
    problems = _ok_code(out)
    if problems:
        return problems
    _, n, edges = parse_hg(host_text)
    hom = 24 * count_k4(n, edges)
    expected = f"hom={hom} t={Fraction(hom, n**4)}\n"
    if out.stdout.decode("utf-8") != expected:
        problems.append(f"got {out.stdout!r}, expected {expected!r}")
    return problems


def check_removal(out: Output, host_text: str, instance: str, method: str, removed: int | None) -> list[str]:
    """Triangle removal: verified with zero residual; ``removed`` is the known minimum, if any."""
    problems = _ok_code(out)
    if problems:
        return problems
    _, n, edges = parse_hg(host_text)
    rows = _csv(out)
    if rows[0] != ["instance", "edges", "images", "method", "removed", "fraction", "residual", "verified"]:
        return [f"bad header {rows[0]}"]
    row = rows[1]
    expected = [instance, str(len(edges)), str(count_triangles(n, edges)), method]
    if row[:4] != expected:
        problems.append(f"fields {row[:4]}, expected {expected}")
    if removed is not None and row[4] != str(removed):
        problems.append(f"removed {row[4]}, expected the minimum {removed}")
    if row[5] != str(Fraction(int(row[4]), comb(n, 2))):
        problems.append(f"fraction {row[5]} != removed / C(n, 2)")
    if row[6:] != ["0", "1"]:
        problems.append(f"residual/verified {row[6:]}, expected 0 and 1")
    return problems
