"""Command-line surface: file I/O plumbing and the headline experiments.

Every command is a pure function of its flags. A single --seed feeds each
seeded command; internal randomness comes from labeled substreams
("convergence-sample", "regularity-sample", "regularity-cylinders", plus
the library's own labels), and computation is single-threaded, so outputs
are bit-identical across runs.

Exit codes: 0 success, 2 input/parse error, 3 budget exceeded,
4 verification failed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

from .core import (
    BudgetError,
    UniformHypergraph,
    check_count,
    check_shape,
    hypergraph_lines,
    parse_hypergraph,
)
from .homomorphism import hom_count, hom_density
from .hypergraphon import (
    StepHypergraphon,
    check_sample_arguments,
    exact_density,
    latent_lines,
    mc_density,
    parse_hypergraphon,
    sample_hypergraph,
    sample_w_random,
)
from .regularity import (
    cell_approximation,
    cell_counts,
    check_regularity_family,
    check_regularity_sampled,
    check_sampled_arguments,
    equitability,
    latent_hyperpartition,
    parse_hyperpartition,
    sampled_cylinder_family,
)
from .removal import removal_experiment
from .rng import check_seed, derive

CONVERGENCE_HEADER = ["K", "n", "rep", "t_H", "t_W", "abs_diff"]
REGULARITY_HEADER = ["kind", "level", "class", "value", "detail"]


def _real(x: float) -> str:
    return format(float(x), ".17g")


def _read(path: str) -> bytes:
    return Path(path).read_bytes()


def _out_stream(path: str | None):
    if path:
        return open(path, "w", encoding="utf-8", newline="")
    return nullcontext(sys.stdout)


def _write_csv(path: str | None, header: list[str], rows: list[list[str]]) -> None:
    with _out_stream(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"{what}: expected comma-separated integers, got {text!r}") from None
    return values


def convergence_table(
    w: StepHypergraphon,
    patterns: list[tuple[str, UniformHypergraph]],
    ns: tuple[int, ...],
    reps: int,
    seed: int,
    budget: int = 10**6,
) -> tuple[list[list[str]], dict[tuple[str, int], float]]:
    """Sampled t(K, H_n) against exact t(K, W), with per-(K, n) means.

    Sample sub-seeds come from (seed, "convergence-sample", K index, n,
    rep). Returns CSV body rows (data rows then a rep="mean" summary row
    per block) and the mean |diff| per (K id, n). A bad seed, rep count,
    budget or sample size (each n must be at least 1 and goes through the
    sampler's own rule,
    :func:`~hyperlim.hypergraphon.check_sample_arguments`), a W that is not
    indicator kind, or an empty list of patterns or sizes, is refused
    before any density is computed, and every t(K, W) is computed, so a
    pattern of the wrong arity or over the budget is refused, before any
    sample. Samples are drawn by
    :func:`~hyperlim.hypergraphon.sample_hypergraph`, which keeps no latents.
    """
    check_seed(seed)
    check_count("reps", reps)
    check_count("budget", budget)
    if not patterns or not ns:
        raise ValueError("need at least one pattern and one sample size n")
    for n in ns:
        check_count("sample size n", n)
        check_sample_arguments(w, n, seed)
    rows: list[list[str]] = []
    means: dict[tuple[str, int], float] = {}
    t_ws = [exact_density(pattern, w, budget=budget) for _, pattern in patterns]
    for ki, ((kid, pattern), t_w) in enumerate(zip(patterns, t_ws)):
        for n in ns:
            diffs = []
            for rep in range(reps):
                sub_seed = derive(seed, "convergence-sample", ki, n, rep)
                t_h = hom_density(pattern, sample_hypergraph(w, n, sub_seed))
                diff = abs(float(t_h) - t_w)
                diffs.append(diff)
                rows.append([kid, str(n), str(rep), str(t_h), _real(t_w), _real(diff)])
            mean = sum(diffs) / len(diffs)
            means[(kid, n)] = mean
            rows.append([kid, str(n), "mean", "", "", _real(mean)])
    return rows, means


def regularity_table(
    w: StepHypergraphon,
    n: int,
    l: int,
    epsilon: float,
    cylinders: int,
    seed: int,
) -> list[list[str]]:
    """One W-sample's partition diagnostics: equitability, regularity, cells.

    Samples H ~ W with latents under (seed, "regularity-sample"), boxes
    the latents at resolution l, then reports per-level equitability, a
    sampled regularity check of every class at levels 2..k (one cylinder
    family per level, derived from (seed, "regularity-cylinders", r)), and
    the cell-approximation error of H. Every argument is checked before
    any work, by :func:`~hyperlim.regularity.check_sampled_arguments` at
    level k (so a run whose cylinders would all be empty by construction
    is refused too) and by :func:`~hyperlim.core.check_shape`, the rule of
    :class:`~hyperlim.regularity.Hyperpartition`.
    """
    check_sampled_arguments(n, w.k, epsilon, cylinders, seed)
    check_shape(w.k, n, l)
    sample = sample_w_random(w, n, derive(seed, "regularity-sample"))
    partition = latent_hyperpartition(sample, l)
    rows: list[list[str]] = []

    eq = equitability(partition)
    for r in sorted(eq):
        rows.append(["equitability", str(r), "", str(eq[r]), ""])

    for r in range(2, w.k + 1):
        family = sampled_cylinder_family(n, r, cylinders, derive(seed, "regularity-cylinders", r))
        for j in range(l):
            g = partition.class_hypergraph(r, j)
            report = check_regularity_family(g, epsilon, family)
            found = report.witness is not None
            rows.append(
                [
                    "regularity",
                    str(r),
                    str(j),
                    "" if report.max_deviation is None else str(report.max_deviation),
                    f"tested={report.tested};admitted={report.admitted};witness={int(found)}",
                ]
            )

    _, err = cell_approximation(sample.hypergraph, partition)
    rows.append(["cell_error", "", "", str(err), ""])
    return rows


# -- subcommands --------------------------------------------------------------


def cmd_hom(args) -> int:
    pattern = parse_hypergraph(_read(args.pattern))
    host = parse_hypergraph(_read(args.host))
    result = hom_count(pattern, host)
    print(f"hom={result.count} t={result.density()}")
    return 0


def cmd_density(args) -> int:
    pattern = parse_hypergraph(_read(args.pattern))
    w = parse_hypergraphon(_read(args.w))
    check_count("budget", args.budget)
    if args.mode == "exact":
        print(_real(exact_density(pattern, w, budget=args.budget)))
    else:
        est = mc_density(pattern, w, args.samples, args.seed)
        print(_real(est.estimate))
        print(f"se={_real(est.standard_error)} samples={est.n_samples}", file=sys.stderr)
    return 0


def cmd_sample(args) -> int:
    w = parse_hypergraphon(_read(args.w))
    # Latents are drawn in bulk and held only when they are written.
    if args.latents:
        sample = sample_w_random(w, args.n, args.seed)
        graph = sample.hypergraph
    else:
        graph = sample_hypergraph(w, args.n, args.seed)
    # Both files are streamed: no whole HG or LAT text is ever built.
    with _out_stream(args.out) as fh:
        fh.writelines(hypergraph_lines(graph))
    if args.latents:
        with _out_stream(args.latents) as fh:
            fh.writelines(latent_lines(sample))
    return 0


def cmd_cells(args) -> int:
    host = parse_hypergraph(_read(args.host))
    partition = parse_hyperpartition(_read(args.partition))
    counts = cell_counts(host, partition)
    rows = [
        [":".join(str(c) for c in profile), str(size), str(edges), str(Fraction(edges, size))]
        for profile, (size, edges) in sorted(counts.items())
    ]
    _write_csv(args.out, ["profile", "size", "edges", "density"], rows)
    return 0


def cmd_regularity(args) -> int:
    g = parse_hypergraph(_read(args.host))
    report = check_regularity_sampled(g, args.eps, args.M, args.seed)
    row = [
        str(g.n_vertices),
        str(g.k),
        _real(args.eps),
        str(args.M),
        str(args.seed),
        str(report.tested),
        str(report.admitted),
        "" if report.max_deviation is None else str(report.max_deviation),
        str(int(report.witness is not None)),
    ]
    _write_csv(
        args.out,
        ["n", "r", "eps", "cylinders", "seed", "tested", "admitted", "max_deviation", "witness"],
        [row],
    )
    return 0


def cmd_removal(args) -> int:
    pattern = parse_hypergraph(_read(args.pattern))
    host = parse_hypergraph(_read(args.host))
    result = removal_experiment(pattern, host, cap=args.cap, exact_budget=args.budget)
    instance = args.id if args.id is not None else Path(args.host).stem
    row = [
        instance,
        str(len(host.edges)),
        str(result.n_images),
        result.method,
        str(len(result.removed)),
        str(result.removed_fraction),
        str(result.residual),
        str(int(result.verified)),
    ]
    _write_csv(
        args.out,
        ["instance", "edges", "images", "method", "removed", "fraction", "residual", "verified"],
        [row],
    )
    return 0 if result.verified else 4


def cmd_experiment_convergence(args) -> int:
    ns = _parse_ints(args.ns, "--ns")
    w = parse_hypergraphon(_read(args.w))
    patterns = []
    seen: dict[str, int] = {}
    for path in args.patterns:
        stem = Path(path).stem
        if stem in seen:
            seen[stem] += 1
            stem = f"{stem}.{seen[stem]}"
        else:
            seen[stem] = 0
        patterns.append((stem, parse_hypergraph(_read(path))))
    rows, _ = convergence_table(w, patterns, ns, args.reps, args.seed, budget=args.budget)
    _write_csv(args.out, CONVERGENCE_HEADER, rows)
    return 0


def cmd_experiment_regularity(args) -> int:
    w = parse_hypergraphon(_read(args.w))
    l = args.l if args.l is not None else w.resolution
    rows = regularity_table(w, args.n, l, args.eps, args.M, args.seed)
    _write_csv(args.out, REGULARITY_HEADER, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperlim",
        description="Finite-scale hypergraph limit computations: densities, "
        "sampling, partitions, removal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hom", help="exact homomorphism count and density")
    p.add_argument("pattern", help="HG file for the pattern K")
    p.add_argument("host", help="HG file for the host H")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("density", help="density of a pattern in a step hypergraphon")
    p.add_argument("pattern", help="HG file for the pattern K")
    p.add_argument("w", help="HGON file for W")
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--samples", type=int, default=100_000, help="mc sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10**6, help="max exact grid size")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("sample", help="draw a W-random hypergraph")
    p.add_argument("w", help="HGON file for an indicator W")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write HG here instead of stdout")
    p.add_argument("--latents", help="also write the LAT file here")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("cells", help="cell sizes and densities of a hyperpartition")
    p.add_argument("host", help="HG file for H")
    p.add_argument("partition", help="HP file for the hyperpartition")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_cells)

    p = sub.add_parser("regularity", help="sampled regularity check of one hypergraph")
    p.add_argument("host", help="HG file for G")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--M", type=int, default=200, help="number of sampled cylinders")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_regularity)

    p = sub.add_parser("removal", help="hit every pattern image and verify")
    p.add_argument("pattern", help="HG file for K")
    p.add_argument("host", help="HG file for H")
    p.add_argument("--cap", type=int, default=10**6,
                   help="max distinct images; more exit 3 before any hitting set")
    p.add_argument("--budget", type=int, default=24,
                   help="most candidate edges solved exactly; 0 takes the greedy cover")
    p.add_argument("--id", help="instance id for the CSV (default: host file stem)")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_removal)

    exp = sub.add_parser("experiment", help="headline experiments")
    esub = exp.add_subparsers(dest="experiment", required=True)

    p = esub.add_parser("convergence", help="t(K, sample) vs exact t(K, W) over n")
    p.add_argument("w", help="HGON file for an indicator W")
    p.add_argument("patterns", nargs="+", help="HG files for the patterns K")
    p.add_argument("--ns", default="20,40,80", help="comma-separated sample sizes")
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10**6, help="max exact grid size")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_experiment_convergence)

    p = esub.add_parser("regularity", help="latent-partition diagnostics of one W-sample")
    p.add_argument("w", help="HGON file for an indicator W")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--l", type=int, default=None, help="partition resolution (default: W's)")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--M", type=int, default=50, help="sampled cylinders per level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_experiment_regularity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
