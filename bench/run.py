"""Benchmark of the hyperlim CLI: four workloads, end to end and per module.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]
    python3 bench/run.py --record-digests
    python3 -m pytest bench -q              (the benchmark's own self-tests)

Each workload is a job: a fixed sequence of ``python -m hyperlim``
invocations, each in a fresh interpreter, run one after another by this
process (a closed loop with one client). Inputs come from ``gen.py`` and
the workload seed. Every invocation runs with ``HYPERLIM_THREADS=2`` and
tracing off, from the ``src`` tree of the checkout this file sits in.

With ``--trace 0`` the job repeats until ``--seconds`` have passed. Each
invocation's wall time, CPU time and max RSS is taken as its median over
the repetitions, so a stall of the machine during one invocation of one
repetition does not move the job's figures:
    setup_s       CPU seconds from interpreter start through importing hyperlim
                  and parsing the workload's input files (median of several
                  fresh starts)
    wall_s        wall time of one whole job: the sum of its invocations' medians
    cpu_s         user + system CPU time of the job's CLI processes, likewise
    peak_rss_mib  largest max-RSS of any CLI process in the job
With ``--trace 1`` untraced and traced jobs alternate (``tracer.py`` loads
before ``hyperlim.cli.main`` in every traced invocation), and the metrics
are the per-layer self times and counts of the traced jobs (medians over
them) plus ``trace.overhead_s``, traced minus untraced job wall time.

Every invocation's output is checked by the oracles in ``checks.py`` and,
at the default seed, against the digests in ``digests.json``. A wrong exit
code or a failed check counts the invocation as failed. The last line of
stdout is the result: ``{"correct", "attempted", "failed", "metrics"}``.
The line before it records the machine, the sample counts and every raw
value next to its median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
import gen
import tracer
from checks import Output

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"

THREADS = "2"  # the core count of the machine the baseline was taken on
DEFAULT_SEED = 0
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # a run must end well inside 180 s, whatever the program does


@dataclass
class Call:
    """One CLI invocation of a job: arguments, files it writes, and its oracle."""

    argv: list[str]
    check: Callable[[Output], list[str]]
    writes: tuple[str, ...] = ()


@dataclass
class Workload:
    inputs: dict[str, str]  # file name -> text, written to the work dir
    calls: list[Call]


# -- workloads --------------------------------------------------------------------


def convergence(seed: int) -> Workload:
    inputs, seeds = gen.inputs_for("convergence", seed)
    ns, reps = (20, 40, 80), 1
    patterns = {"single": (3, Fraction(1, 16)), "pair": (4, Fraction(1, 128))}
    return Workload(inputs, [
        Call(["experiment", "convergence", "w3.hgon", "single.hg", "pair.hg",
              "--ns", ",".join(map(str, ns)), "--reps", str(reps), "--seed", str(seeds["convergence"])],
             lambda out: checks.check_convergence(out, patterns, ns, reps)),
        Call(["sample", "w3.hgon", "--n", "80", "--seed", str(seeds["sample"]),
              "--out", "sample.hg", "--latents", "sample.lat"],
             lambda out: checks.check_sample_fixture(out, "sample.hg", "sample.lat", 80, seeds["sample"]),
             writes=("sample.hg", "sample.lat")),
    ])


def regularity(seed: int) -> Workload:
    inputs, seeds = gen.inputs_for("regularity", seed)
    return Workload(inputs, [
        Call(["regularity", "g60.hg", "--M", "200", "--seed", str(seeds["regularity"])],
             lambda out: checks.check_regularity_row(out, 60, 200, seeds["regularity"], 0.1)),
        Call(["experiment", "regularity", "w3.hgon", "--n", "30", "--M", "20",
              "--seed", str(seeds["experiment"])],
             lambda out: checks.check_experiment_regularity(out, 3, 2, 20, 0.1)),
    ])


def density(seed: int) -> Workload:
    inputs, seeds = gen.inputs_for("density", seed)
    k4_3_exact = Fraction(1, 2**10)  # four top boxes and all six pair boxes 0
    return Workload(inputs, [
        Call(["density", "edge4.hg", "w4.hgon", "--mode", "exact"],
             lambda out: checks.check_exact_density(out, Fraction(1, 2))),
        Call(["density", "k4_3.hg", "w3.hgon", "--mode", "exact"],
             lambda out: checks.check_exact_density(out, k4_3_exact)),
        Call(["density", "k4_3.hg", "w3.hgon", "--mode", "mc", "--samples", "100000",
              "--seed", str(seeds["mc"])],
             lambda out: checks.check_mc_density(out, k4_3_exact, 100000)),
    ])


def removal(seed: int) -> Workload:
    inputs, _ = gen.inputs_for("removal", seed)
    n = gen.CLIQUE_N
    mantel = n * (n - 1) // 2 - n * n // 4  # fewest edges whose removal leaves K_n triangle-free
    return Workload(inputs, [
        Call(["hom", "k4.hg", "g100.hg"], lambda out: checks.check_hom_k4(out, inputs["g100.hg"])),
        Call(["removal", "triangle.hg", "k9.hg", "--budget", "64"],
             lambda out: checks.check_removal(out, inputs["k9.hg"], "k9", "exact", mantel)),
        Call(["removal", "triangle.hg", "g16.hg"],
             lambda out: checks.check_removal(out, inputs["g16.hg"], "g16", "greedy", None)),
    ])


WORKLOADS = {"convergence": convergence, "regularity": regularity, "density": density,
             "removal": removal}


# -- running invocations ------------------------------------------------------------


def cli_env() -> dict[str, str]:
    """Environment of every CLI process: tracing off, and bytecode caches written
    as in a default Python setup, whatever the caller's environment says."""
    env = dict(os.environ, PYTHONPATH=str(SRC), HYPERLIM_THREADS=THREADS)
    for name in ("HYPERLIM_TRACE", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    return env


@dataclass
class Invocation:
    wall: float
    cpu: float
    rss_kib: int
    output: Output


class Launcher:
    """The small process that spawns every timed CLI process; see launcher.py."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait(timeout=30)

    def invoke(self, cmd: list[str], work: Path, writes: tuple[str, ...], deadline: float) -> Invocation:
        """Run one process to completion in ``work``; its own rusage gives CPU and max RSS."""
        out_path, err_path = work / "stdout", work / "stderr"
        for name in writes:
            (work / name).unlink(missing_ok=True)
        request = {"cmd": cmd, "cwd": str(work), "env": cli_env(), "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": max(deadline - time.perf_counter(), 0.0)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(line)
        files = {name: (work / name).read_bytes() for name in writes if (work / name).exists()}
        output = Output(reply["code"], out_path.read_bytes(), err_path.read_bytes(), files)
        return Invocation(reply["wall"], reply["cpu"], reply["maxrss_kib"], output)


def digests_of(output: Output) -> dict[str, str]:
    out = {"stdout": hashlib.sha256(output.stdout).hexdigest()}
    for name, data in sorted(output.files.items()):
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def problems_of(call: Call, output: Output, expected_digests: dict[str, str] | None) -> list[str]:
    """Oracle problems plus, when digests are given, every digest that differs."""
    try:
        problems = call.check(output)
    except (ValueError, ArithmeticError, LookupError, StopIteration) as exc:
        problems = [f"output could not be checked: {exc!r}"]
    if expected_digests is not None:
        got = digests_of(output)
        problems += [f"{key} digest differs from the recorded one"
                     for key in expected_digests if got.get(key) != expected_digests[key]]
    return problems


@dataclass
class Job:
    walls: list[float]      # per invocation, in call order
    cpus: list[float]
    rss_mib: list[float]
    failed: int
    failures: list[str]
    docs: list[dict]


def run_job(launcher: Launcher, workload: Workload, work: Path, digests: list | None, deadline: float,
            traced: bool = False, job_id: int = 0) -> Job:
    job = Job([], [], [], 0, [], [])
    spans = work / "spans.json"
    for i, call in enumerate(workload.calls):
        if traced:
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), f"{job_id}.{i}", "--", *call.argv]
        else:
            cmd = [sys.executable, "-m", "hyperlim", *call.argv]
        inv = launcher.invoke(cmd, work, call.writes, deadline)
        job.walls.append(inv.wall)
        job.cpus.append(inv.cpu)
        job.rss_mib.append(inv.rss_kib / 1024)
        problems = problems_of(call, inv.output, digests[i] if digests else None)
        if traced:
            if spans.exists():
                job.docs.append(json.loads(spans.read_text(encoding="utf-8")))
            else:
                problems.append("no spans written")
        job.failed += bool(problems)
        job.failures += [f"{' '.join(call.argv[:2])}: {p}" for p in problems]
    return job


def per_call_medians(jobs: list[Job], field: str) -> list[float]:
    """Median of each invocation across jobs, in call order.

    A job's time is estimated from these medians, so that a stall of the
    machine during one invocation of one job does not move it.
    """
    return [statistics.median(values) for values in zip(*(getattr(j, field) for j in jobs))]


def measure_setup(workload: Workload, work: Path, deadline: float) -> list[float]:
    """CPU seconds from process start to the end of parsing every input, in fresh interpreters.

    The child reports its own process CPU time after parsing. CPU time,
    not wall time, because on a shared VM the host's CPU steal moves the
    wall time of a 0.15 s start by half of itself. One untimed start
    first writes the bytecode caches, as any user's first run would.
    """
    probe = (
        "import sys, time\n"
        "import hyperlim.cli\n"
        "from hyperlim.core import parse_hypergraph\n"
        "from hyperlim.hypergraphon import parse_hypergraphon\n"
        "for path in sys.argv[1:]:\n"
        "    text = open(path, encoding='utf-8').read()\n"
        "    (parse_hypergraphon if path.endswith('.hgon') else parse_hypergraph)(text)\n"
        "print(repr(time.process_time()))\n"
    )
    values = []
    for i in range(SETUP_REPEATS + 1):
        try:
            proc = subprocess.run([sys.executable, "-c", probe, *workload.inputs], cwd=work, env=cli_env(),
                                  capture_output=True, timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            raise RuntimeError("setup probe timed out") from None
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
        if i:
            values.append(float(proc.stdout))
    return values


# -- per-layer metrics ----------------------------------------------------------------


def layer_metrics(docs: list[dict]) -> dict[str, float]:
    """Per-layer self times, call counts, work counts and ratios of one traced job."""
    span_calls: dict[str, int] = {}
    span_self: dict[str, float] = {}
    counts: dict[tuple[str, str], int] = {}
    leaf_calls: dict[str, int] = {}
    leaf_self: dict[str, float] = {}
    canon_under_eval = 0
    for doc in docs:
        selfs = tracer.span_self_times(doc["spans"], doc["leaves"])
        for s in doc["spans"]:
            names = [s["name"]]
            if s["name"] == "regularity.regularity_deviation" and "counts" in s:
                names.append(f"{s['name']}.r{s['counts']['r']}")
            for name in names:
                span_calls[name] = span_calls.get(name, 0) + 1
                span_self[name] = span_self.get(name, 0.0) + selfs[s["id"]]
            for key, value in s.get("counts", {}).items():
                counts[(s["name"], key)] = counts.get((s["name"], key), 0) + value
        for _owner, name, under, calls, _total, own in doc["leaves"]:
            leaf_calls[name] = leaf_calls.get(name, 0) + calls
            leaf_self[name] = leaf_self.get(name, 0.0) + own
            if name == "core.canonicalize" and under == "hypergraphon.eval_box":
                canon_under_eval += calls

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for name in ("cli", "core.parse", "hypergraphon.sample_w_random", "hypergraphon.serialize_latents",
                 "hypergraphon.exact_density", "hypergraphon.mc_density", "homomorphism.hom_count",
                 "homomorphism.enumerate_hom_images", "regularity.sampled_cylinder_family",
                 "regularity.regularity_deviation.r2", "regularity.regularity_deviation.r3",
                 "regularity.latent_hyperpartition", "regularity.cell_approximation",
                 "removal.exact_hitting_set", "removal.removal_experiment"):
        m[f"{name}.self_s"] = span_self.get(name, 0.0)
    for name in ("hypergraphon.sample_w_random", "hypergraphon.exact_density", "homomorphism.hom_count",
                 "regularity.regularity_deviation", "removal.exact_hitting_set"):
        m[f"{name}.calls"] = span_calls.get(name, 0)
    for name in ("core.canonicalize", "rng.derive", "hypergraphon.eval_box"):
        m[f"{name}.calls"] = leaf_calls.get(name, 0)
        m[f"{name}.self_s"] = leaf_self.get(name, 0.0)
    for span, key in (("hypergraphon.sample_w_random", "latents"), ("hypergraphon.sample_w_random", "edge_tests"),
                      ("hypergraphon.exact_density", "boxes"), ("hypergraphon.mc_density", "samples"),
                      ("homomorphism.enumerate_hom_images", "images"),
                      ("regularity.sampled_cylinder_family", "cylinders")):
        m[f"{span}.{key}"] = counts.get((span, key), 0)
    m["hypergraphon.eval_box.miss_ratio"] = ratio(canon_under_eval, leaf_calls.get("hypergraphon.eval_box", 0))
    m["regularity.admitted_ratio"] = ratio(counts.get(("regularity.regularity_deviation", "admitted"), 0),
                                           span_calls.get("regularity.regularity_deviation", 0))
    m["removal.exact_ratio"] = ratio(counts.get(("removal.exact_hitting_set", "optimal"), 0),
                                     span_calls.get("removal.exact_hitting_set", 0))
    return m


# -- a run ------------------------------------------------------------------------------


def machine() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                             cpu_model)
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "hyperlim").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model, "python": platform.python_version(),
            "HYPERLIM_THREADS": THREADS, "git_commit": git_commit(), "src_sha256": src_hash.hexdigest()}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run of a workload; returns (result line, record)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    workload = WORKLOADS[name](seed)
    digests = None
    if seed == DEFAULT_SEED and DIGESTS.exists():
        digests = json.loads(DIGESTS.read_text(encoding="utf-8")).get(name)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        gen.write_files(workload.inputs, work)
        setup = measure_setup(workload, work, deadline)
        jobs: list[Job] = []
        traced_jobs: list[Job] = []
        t_measure = time.perf_counter()
        with Launcher() as launcher:
            while True:
                jobs.append(run_job(launcher, workload, work, digests, deadline))
                if trace:
                    traced_jobs.append(run_job(launcher, workload, work, digests, deadline, True,
                                               len(traced_jobs)))
                now = time.perf_counter()
                if now - t_measure >= seconds or now > deadline:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_jobs = jobs + traced_jobs
    attempted = len(workload.calls) * len(all_jobs)
    failures = [f for j in all_jobs for f in j.failures]
    failed = sum(j.failed for j in all_jobs)
    raw: dict[str, list]
    if trace:
        per_job = [layer_metrics(j.docs) for j in traced_jobs]
        raw = {key: [m[key] for m in per_job] for key in per_job[0]}
        medians = {key: statistics.median(values) for key, values in raw.items()}
        medians["trace.overhead_s"] = (sum(per_call_medians(traced_jobs, "walls"))
                                       - sum(per_call_medians(jobs, "walls")))
        raw["trace.overhead_s"] = [medians["trace.overhead_s"]]
        raw["traced_walls"] = [j.walls for j in traced_jobs]
        raw["untraced_walls"] = [j.walls for j in jobs]
        spans_file = WORK / f"trace-{name}-{seed}.json"
        spans_file.write_text(json.dumps(traced_jobs[-1].docs), encoding="utf-8")
    else:
        medians = {"setup_s": statistics.median(setup),
                   "wall_s": sum(per_call_medians(jobs, "walls")),
                   "cpu_s": sum(per_call_medians(jobs, "cpus")),
                   "peak_rss_mib": max(per_call_medians(jobs, "rss_mib"))}
        raw = {"setup_s": setup, "walls": [j.walls for j in jobs], "cpus": [j.cpus for j in jobs],
               "rss_mib": [j.rss_mib for j in jobs]}
    units = metric_units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in medians.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(), "jobs": len(jobs), "traced_jobs": len(traced_jobs),
        "setup_samples": len(setup), "failed_ratio": failed / attempted,
        "failures": failures[:20], "median": medians, "raw": raw,
    }
    return result, record


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def record_digests() -> None:
    """Run every workload's job once at the default seed and store its output digests."""
    recorded = {}
    for name, make in WORKLOADS.items():
        workload = make(DEFAULT_SEED)
        work = WORK / f"digests-{name}"
        try:
            gen.write_files(workload.inputs, work)
            entries = []
            with Launcher() as launcher:
                for call in workload.calls:
                    inv = launcher.invoke([sys.executable, "-m", "hyperlim", *call.argv], work, call.writes,
                                          time.perf_counter() + RUN_LIMIT_S)
                    problems = problems_of(call, inv.output, None)
                    if problems:
                        raise SystemExit(f"{name}: {call.argv[:2]} fails its oracle: {problems}")
                    entries.append(digests_of(inv.output))
            recorded[name] = entries
        finally:
            shutil.rmtree(work, ignore_errors=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the hyperlim CLI.")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (SRC / "hyperlim" / "__init__.py").is_file():
        print(f"error: no hyperlim package under {SRC}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, record = run(name, args.seed, args.seconds, bool(args.trace))
            results[name] = (result, record)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, (result, record) in results.items():
        for failure in record["failures"]:
            print(f"FAILED {name}: {failure}", file=sys.stderr)
        for key, metric in result["metrics"].items():
            print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}")
        print(f"{name} failed_ratio = {record['failed_ratio']:.6g} ratio  ({result['failed']}/{result['attempted']})")
    if args.workload == "all":
        print(json.dumps({name: result for name, (result, _) in results.items()}))
    else:
        result, record = results[args.workload]
        print(json.dumps({"record": record}))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
