"""Self-tests of the benchmark's own code. Run: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import threading
import time
from itertools import combinations
from pathlib import Path

import pytest

import checks
import gen
import run
import tracer
from checks import Output

BENCH = Path(__file__).resolve().parent


# -- generator ------------------------------------------------------------------------


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert gen.inputs_for(workload, 5) == gen.inputs_for(workload, 5)
    assert run.WORKLOADS[workload](5).inputs == gen.inputs_for(workload, 5)[0]


def test_generator_inputs_depend_on_the_seed():
    assert gen.inputs_for("regularity", 1)[0]["g60.hg"] != gen.inputs_for("regularity", 2)[0]["g60.hg"]
    assert gen.inputs_for("density", 1)[0]["w4.hgon"] != gen.inputs_for("density", 2)[0]["w4.hgon"]
    assert gen.inputs_for("convergence", 1)[1] != gen.inputs_for("convergence", 2)[1]


def test_k4_indicator_has_one_top_box_per_lower_orbit():
    lines = gen.inputs_for("density", 3)[0]["w4.hgon"].splitlines()
    assert lines[0] == "HGON 4 2 ind 996"
    lowers = [tuple(line.split()[:14]) for line in lines[1:]]
    assert len(set(lowers)) == len(lowers) == 996


# -- self-time arithmetic ----------------------------------------------------------------


def synthetic_doc():
    spans = [
        {"id": 0, "name": "cli", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "regularity.regularity_deviation", "parent": 0, "start": 1.0, "end": 4.0,
         "counts": {"r": 2, "admitted": 1}},
        # overlaps span 1, so the two cover 1.0 .. 6.0 of the root
        {"id": 2, "name": "hypergraphon.exact_density", "parent": 0, "start": 3.0, "end": 6.0,
         "counts": {"boxes": 8}},
        {"id": 3, "name": "core.parse", "parent": 1, "start": 2.0, "end": 2.5},
    ]
    leaves = [
        [0, "rng.derive", None, 4, 1.0, 1.0],
        [2, "hypergraphon.eval_box", None, 3, 0.75, 0.5],
        [2, "core.canonicalize", "hypergraphon.eval_box", 1, 0.25, 0.25],
    ]
    return {"spans": spans, "leaves": leaves}


def test_self_time_subtracts_child_cover_and_direct_leaf_time():
    doc = synthetic_doc()
    selfs = tracer.span_self_times(doc["spans"], doc["leaves"])
    assert selfs == pytest.approx({0: 10 - 5 - 1.0, 1: 3 - 0.5, 2: 3 - 0.75, 3: 0.5})


def test_covered_merges_overlaps_and_clips():
    assert tracer.covered([(1, 3), (2, 5), (7, 12)], 0, 10) == pytest.approx(7)
    assert tracer.covered([], 0, 10) == 0


def test_layer_metrics_of_a_synthetic_job():
    m = run.layer_metrics([synthetic_doc()])
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["regularity.regularity_deviation.r2.self_s"] == pytest.approx(2.5)
    assert m["hypergraphon.exact_density.self_s"] == pytest.approx(2.25)
    assert m["hypergraphon.eval_box.self_s"] == pytest.approx(0.5)
    assert m["hypergraphon.eval_box.miss_ratio"] == pytest.approx(1 / 3)
    assert m["hypergraphon.exact_density.boxes"] == 8
    assert m["regularity.admitted_ratio"] == 1.0
    assert m["rng.derive.calls"] == 4


def test_tracer_nests_leaves_and_charges_worker_threads_to_the_open_span():
    t = tracer.Tracer("t")
    inner = t.leaf("core.canonicalize", lambda: time.sleep(0.01))
    outer = t.leaf("hypergraphon.eval_box", lambda: (inner(), time.sleep(0.01)))

    def body():
        outer()
        worker = threading.Thread(target=outer)
        worker.start()
        worker.join()

    t.span("cli", body)()
    (span,) = t.spans
    table = {(owner, name, under): (calls, total, own) for owner, name, under, calls, total, own in t.leaves()}
    assert set(table) == {(span["id"], "hypergraphon.eval_box", None),
                          (span["id"], "core.canonicalize", "hypergraphon.eval_box")}
    calls, total, own = table[(span["id"], "hypergraphon.eval_box", None)]
    assert calls == 2
    # sleeping costs wall time on the main thread but no CPU time on the worker
    assert 0.02 <= total < 0.03 and 0.01 <= own < 0.015


def test_per_layer_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"] for m in spec["per_layer"]} == set(run.layer_metrics([])) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "cpu_s", "peak_rss_mib"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_digests_cover_every_call():
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    for name, make in run.WORKLOADS.items():
        calls = make(run.DEFAULT_SEED).calls
        assert len(digests[name]) == len(calls)
        for call, entry in zip(calls, digests[name]):
            assert set(entry) == {"stdout", *call.writes}


# -- corrupted outputs count as failed ------------------------------------------------------


def fixture_sample(n=10, seed=3):
    rng = random.Random(seed)
    latents = {s: rng.getrandbits(64) for r in (1, 2, 3) for s in combinations(range(n), r)}
    half = 1 << 63
    edges = [e for e in combinations(range(n), 3)
             if latents[e] < half and all(latents[p] < half for p in combinations(e, 2))]
    hg = gen.hg_text(3, n, edges)
    lat = [f"LAT 3 {n} {seed}"] + [" ".join(map(str, s)) + f" {u:016x}" for s, u in latents.items()]
    return Output(0, b"", b"", {"s.hg": hg.encode(), "s.lat": ("\n".join(lat) + "\n" + hg).encode()}), edges


def test_sample_oracle_accepts_a_consistent_draw_and_rejects_a_flipped_byte():
    out, edges = fixture_sample()
    assert edges, "the draw should have at least one edge"
    assert checks.check_sample_fixture(out, "s.hg", "s.lat", 10, 3) == []
    hg = bytearray(out.files["s.hg"])
    hg[-2] = ord("6") if hg[-2] != ord("6") else ord("5")  # last vertex of the last edge
    out.files["s.hg"] = bytes(hg)
    assert checks.check_sample_fixture(out, "s.hg", "s.lat", 10, 3) != []


def test_flipped_byte_in_stdout_fails_the_digest():
    good = Output(0, b"0.5\n", b"")
    call = run.Call(["density"], lambda out: checks.check_exact_density(out, 1 / 2))
    recorded = run.digests_of(good)
    assert run.problems_of(call, good, recorded) == []
    flipped = Output(0, b"0.4\n", b"")
    assert len(run.problems_of(call, flipped, recorded)) == 2  # oracle and digest


K5 = gen.hg_text(2, 5, combinations(range(5), 2))


def test_hom_oracle_rejects_a_wrong_count():
    assert checks.check_hom_k4(Output(0, b"hom=120 t=24/125\n", b""), K5) == []
    assert checks.check_hom_k4(Output(0, b"hom=96 t=12/78\n", b""), K5) != []
    assert checks.check_hom_k4(Output(2, b"hom=120 t=24/125\n", b""), K5) != []


def test_run_job_counts_wrong_outputs_as_failed(tmp_path):
    (tmp_path / "k4.hg").write_text(gen.K4, encoding="utf-8")
    (tmp_path / "k5.hg").write_text(K5, encoding="utf-8")
    k6 = gen.hg_text(2, 6, combinations(range(6), 2))
    workload = run.Workload({}, [
        run.Call(["hom", "k4.hg", "k5.hg"], lambda out: checks.check_hom_k4(out, K5)),
        # the oracle expects K6's count, so the CLI's (right) K5 count reads as wrong
        run.Call(["hom", "k4.hg", "k5.hg"], lambda out: checks.check_hom_k4(out, k6)),
    ])
    with run.Launcher() as launcher:
        job = run.run_job(launcher, workload, tmp_path, None, time.perf_counter() + 60)
        assert (len(job.walls), job.failed) == (2, 1)
        bad_digest = [{"stdout": "0" * 64}, None]
        job = run.run_job(launcher, workload, tmp_path, bad_digest, time.perf_counter() + 60)
    assert job.failed == 2


def test_traced_invocation_writes_spans(tmp_path):
    (tmp_path / "k4.hg").write_text(gen.K4, encoding="utf-8")
    (tmp_path / "k5.hg").write_text(K5, encoding="utf-8")
    workload = run.Workload({}, [run.Call(["hom", "k4.hg", "k5.hg"], lambda out: checks.check_hom_k4(out, K5))])
    with run.Launcher() as launcher:
        job = run.run_job(launcher, workload, tmp_path, None, time.perf_counter() + 60, traced=True)
    assert job.failed == 0
    m = run.layer_metrics(job.docs)
    assert m["homomorphism.hom_count.calls"] == 1
    assert m["core.parse.self_s"] > 0


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "density", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
