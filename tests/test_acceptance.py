"""Acceptance battery: eight end-to-end checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Every tolerance and battery size is pinned as a module constant; the
statistical checks use fixed seeds, so reruns are bit-for-bit repeatable.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import combinations, product

from hyperlim import (
    UniformHypergraph,
    cell_approximation,
    cell_density,
    check_regularity_family,
    constant_hypergraphon,
    exact_density,
    hom_count,
    hom_density,
    independence_test,
    latent_hyperpartition,
    mc_density,
    project,
    removal_experiment,
    sample_w_random,
    sampled_cylinder_family,
    serialize_hypergraph,
    serialize_hypergraphon,
    simplicial_support,
)
from hyperlim.cli import convergence_table
from hyperlim.homomorphism import enumerate_hom_images
from hyperlim.rng import derive

from conftest import build_fixture_w, build_half_w, cli_env, shared_pair_triples, single_triple
from oracles import disjoint_union, nested_density

EXACT_TOL = 1e-12          # closed forms and algebraic identities
MC_SIGMA = 4.0             # Monte-Carlo agreement window, in standard errors
CONVERGENCE_AT_80 = 0.02   # required mean |t(K,H_n) - t(K,W)| at n = 80
CELL_ERR_LIMIT = 0.15      # cell-approximation error at mismatched resolution
REG_EPSILON = 0.1          # regularity deviation threshold
REG_CYLINDERS = 200        # sampled cylinders per seed
BATTERY_SEEDS = 40         # seeds for the statistical batteries
MIN_CLEAN = 38             # >= 95% of BATTERY_SEEDS must be clean


@contextmanager
def verdict(num, label):
    info = {"detail": "ok"}
    try:
        yield info
    except AssertionError as exc:
        print(f"\n[{num}] {label}: FAIL ({exc})")
        raise
    print(f"\n[{num}] {label}: PASS ({info['detail']})")


def brute_hom_count(pattern, host):
    es = host.edge_set
    total = 0
    for f in product(range(host.n_vertices), repeat=pattern.n_vertices):
        for e in pattern.edges:
            img = tuple(sorted({f[v] for v in e}))
            if len(img) != pattern.k or img not in es:
                break
        else:
            total += 1
    return total


def test_1_hom_count_matches_brute_force():
    patterns_k2 = []
    for n in (2, 3):
        pool = list(combinations(range(n), 2))
        for m in range(len(pool) + 1):
            for sub in combinations(pool, m):
                patterns_k2.append(UniformHypergraph(2, n, list(sub)))
    patterns_k3 = [
        single_triple(),
        shared_pair_triples(),
        UniformHypergraph(3, 6, [(0, 1, 2), (3, 4, 5)]),
    ]
    with verdict(1, "hom counts equal exhaustive enumeration") as info:
        t0 = time.perf_counter()
        checked = 0
        for base, k, pats in ((1000, 2, patterns_k2), (2000, 3, patterns_k3)):
            for i in range(100):
                rng = random.Random(base + i)
                n = rng.randint(1, 5)
                host = UniformHypergraph(
                    k, n, [e for e in combinations(range(n), k) if rng.random() < 0.5]
                )
                for pat in pats:
                    assert hom_count(pat, host).count == brute_hom_count(pat, host), (
                        f"mismatch on host seed {base + i}"
                    )
                    checked += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"battery took {elapsed:.1f}s"
        info["detail"] = f"{checked} pattern/host pairs, {elapsed:.1f}s"


def ten_patterns():
    return [
        UniformHypergraph(2, 2, [(0, 1)]),
        UniformHypergraph(2, 3, [(0, 1), (1, 2)]),
        UniformHypergraph(2, 3, [(0, 1), (0, 2), (1, 2)]),
        UniformHypergraph(2, 4, [(0, 1), (0, 2), (0, 3)]),
        UniformHypergraph(2, 4, [(0, 1), (0, 3), (1, 2), (2, 3)]),
        UniformHypergraph(2, 5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        UniformHypergraph(2, 4, list(combinations(range(4), 2))),
        single_triple(),
        shared_pair_triples(),
        UniformHypergraph(3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
    ]


def test_2_constant_hypergraphon_closed_form():
    levels = (0.0, 0.25, 0.5, 0.75, 1.0)
    patterns = ten_patterns()
    with verdict(2, "constant W density is p^|E(K)|") as info:
        t0 = time.perf_counter()
        for p in levels:
            for pat in patterns:
                w = constant_hypergraphon(pat.k, p)
                closed = p ** len(pat.edges)
                assert abs(exact_density(pat, w) - closed) <= EXACT_TOL
        within = 0
        for seed in range(100):
            combo = seed % 50
            p, pat = levels[combo // 10], patterns[combo % 10]
            est = mc_density(pat, constant_hypergraphon(pat.k, p), 1000, seed=seed)
            if abs(est.estimate - p ** len(pat.edges)) <= MC_SIGMA * est.standard_error:
                within += 1
        elapsed = time.perf_counter() - t0
        assert within >= 99, f"only {within}/100 seeds within {MC_SIGMA} se"
        assert elapsed < 30.0, f"battery took {elapsed:.1f}s"
        info["detail"] = f"50 exact combos, mc {within}/100 within {MC_SIGMA} se, {elapsed:.1f}s"


def test_3_sample_densities_converge_to_w():
    w = build_fixture_w()
    patterns = [("single", single_triple()), ("pair", shared_pair_triples())]
    ns = (20, 40, 80)
    with verdict(3, "sampled t(K, H_n) converges to t(K, W)") as info:
        t0 = time.perf_counter()
        _, means = convergence_table(w, patterns, ns, reps=20, seed=0)
        for kid, _ in patterns:
            seq = [means[(kid, n)] for n in ns]
            assert all(a >= b for a, b in zip(seq, seq[1:])), f"{kid} means not monotone: {seq}"
            assert seq[-1] <= CONVERGENCE_AT_80, f"{kid} mean at n=80 is {seq[-1]:.4f}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"battery took {elapsed:.1f}s"
        summary = "; ".join(
            f"{kid} {' -> '.join(f'{means[(kid, n)]:.4f}' for n in ns)}" for kid, _ in patterns
        )
        info["detail"] = f"{summary}, {elapsed:.1f}s"


def exhaustive_min_hitting_set(images):
    candidates = sorted({e for img in images for e in img})
    for m in range(len(candidates) + 1):
        for sub in combinations(candidates, m):
            if all(set(sub) & img for img in images):
                return m
    raise AssertionError("unhittable image family")


def test_4_planted_removal_always_verifies():
    with verdict(4, "planted removal instances verify at residual 0") as info:
        t0 = time.perf_counter()
        cross_checked = 0
        max_images = 0
        for i in range(50):
            rng = random.Random(i)
            n = (6, 7, 8)[i % 3]
            pattern = single_triple() if i % 2 == 0 else shared_pair_triples()
            edges = set()
            for _ in range(1 + (i % 3)):
                spots = rng.sample(range(n), pattern.n_vertices)
                for e in pattern.edges:
                    edges.add(tuple(sorted(spots[v] for v in e)))
            host = UniformHypergraph(3, n, sorted(edges))
            result = removal_experiment(pattern, host)
            assert result.verified and result.residual == 0, f"instance {i} failed"
            assert result.n_images <= 20, f"instance {i} grew {result.n_images} images"
            max_images = max(max_images, result.n_images)
            images = enumerate_hom_images(pattern, host).images
            if result.optimal and len({e for img in images for e in img}) <= 12:
                assert len(result.removed) == exhaustive_min_hitting_set(images), (
                    f"instance {i} not minimal"
                )
                cross_checked += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"battery took {elapsed:.1f}s"
        info["detail"] = (
            f"50/50 verified, <= {max_images} images, "
            f"{cross_checked} matched the exhaustive minimum, {elapsed:.1f}s"
        )


def test_5_latent_partition_regularity_shadow():
    w = build_fixture_w()
    with verdict(5, "latent hyperpartitions look regular") as info:
        t0 = time.perf_counter()
        sample = sample_w_random(w, 60, seed=0)
        matched = latent_hyperpartition(sample, w.resolution)
        densities = cell_density(sample.hypergraph, matched)
        assert all(d in (0, 1) for d in densities.values()), "impure cell at matching l"
        _, err2 = cell_approximation(sample.hypergraph, matched)
        assert err2 == 0, f"cell error {err2} at matching resolution"

        _, err3 = cell_approximation(sample.hypergraph, latent_hyperpartition(sample, 3))
        assert err3 <= CELL_ERR_LIMIT, f"cell error {float(err3):.4f} at l=3"

        clean = 0
        for seed in range(BATTERY_SEEDS):
            draw = sample_w_random(w, 60, seed=seed)
            partition = latent_hyperpartition(draw, w.resolution)
            family = sampled_cylinder_family(
                60, 2, REG_CYLINDERS, derive(seed, "cylinder-battery")
            )
            reports = [
                check_regularity_family(partition.class_hypergraph(2, j), REG_EPSILON, family)
                for j in range(w.resolution)
            ]
            clean += all(r.witness is None for r in reports)
        elapsed = time.perf_counter() - t0
        assert clean >= MIN_CLEAN, f"only {clean}/{BATTERY_SEEDS} seeds witness-free"
        assert elapsed < 300.0, f"battery took {elapsed:.1f}s"
        info["detail"] = (
            f"pure cells, l=3 error {float(err3):.4f}, "
            f"{clean}/{BATTERY_SEEDS} witness-free, {elapsed:.1f}s"
        )


def test_6_partition_labels_behave_independently():
    with verdict(6, "independence statistic sits under the binomial bound") as info:
        below = 0
        worst_ratio = 0.0
        for seed in range(BATTERY_SEEDS):
            r = independence_test(2, 60, 2, seed=seed, trials=1)
            below += r.max_discrepancy <= r.bound
            worst_ratio = max(worst_ratio, r.max_discrepancy / r.bound)
        assert below >= MIN_CLEAN, f"only {below}/{BATTERY_SEEDS} below the bound"
        info["detail"] = f"{below}/{BATTERY_SEEDS} below, worst ratio {worst_ratio:.2f}"


def test_7_algebraic_identities_hold():
    fixture = build_fixture_w()
    half = build_half_w()
    triangle = UniformHypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])
    edge = UniformHypergraph(2, 2, [(0, 1)])
    with verdict(7, "multiplicativity, projection, and nesting identities") as info:
        rng = random.Random(77)
        for _ in range(100):
            k = rng.choice((2, 3))
            def pick(lo):
                n = rng.randint(lo, lo + 2)
                pool = list(combinations(range(n), k))
                return UniformHypergraph(k, n, [e for e in pool if rng.random() < 0.5])
            k1, k2 = pick(k), pick(k)
            n_host = rng.randint(1, 5)
            host = UniformHypergraph(
                k, n_host, [e for e in combinations(range(n_host), k) if rng.random() < 0.5]
            )
            assert hom_density(disjoint_union(k1, k2), host) == hom_density(
                k1, host
            ) * hom_density(k2, host)

        cases = [
            (single_triple(), fixture),
            (shared_pair_triples(), fixture),
            (edge, half),
            (triangle, half),
        ]
        for pat, w in cases:
            flat = exact_density(pat, w)
            assert abs(flat - exact_density(pat, project(w))) <= EXACT_TOL
            s = len(simplicial_support(pat))
            groups = [list(range(s // 2)), list(range(s // 2, s))]
            assert flat == float(nested_density(pat, w, groups))
        info["detail"] = (
            "100 product instances exact, 4 projection cases within 1e-12, 4 nesting cases exact"
        )


def test_8_hash_seed_never_changes_output(tmp_path):
    w3 = tmp_path / "w3.hgon"
    w3.write_text(serialize_hypergraphon(build_fixture_w()), encoding="utf-8")
    half = tmp_path / "half.hgon"
    half.write_text(serialize_hypergraphon(build_half_w()), encoding="utf-8")
    single = tmp_path / "single.hg"
    single.write_text(serialize_hypergraph(single_triple()), encoding="utf-8")
    edge = tmp_path / "edge.hg"
    edge.write_text("HG 2 2 1\n0 1\n", encoding="utf-8")
    triangle = tmp_path / "triangle.hg"
    triangle.write_text("HG 2 3 3\n0 1\n0 2\n1 2\n", encoding="utf-8")
    host = tmp_path / "host.hg"
    host.write_text(
        serialize_hypergraph(sample_w_random(build_half_w(), 14, seed=6).hypergraph),
        encoding="utf-8",
    )

    commands = [
        ["hom", str(triangle), str(host)],
        ["density", str(single), str(w3)],
        ["density", str(triangle), str(half), "--mode", "mc", "--samples", "4000", "--seed", "11"],
        ["sample", str(w3), "--n", "25", "--seed", "3"],
        ["regularity", str(host), "--M", "30", "--seed", "2"],
        ["removal", str(triangle), str(host), "--id", "t"],
        ["experiment", "convergence", str(half), str(edge), "--ns", "6,8", "--reps", "2", "--seed", "1"],
        ["experiment", "regularity", str(w3), "--n", "10", "--M", "4", "--seed", "0"],
    ]
    hash_seeds = ("0", "1", "random")
    with verdict(8, "output is bit-identical at any hash seed") as info:
        for argv in commands:
            outputs = set()
            for hash_seed in hash_seeds:
                proc = subprocess.run(
                    [sys.executable, "-m", "hyperlim", *argv],
                    capture_output=True,
                    env=cli_env(hash_seed),
                )
                assert proc.returncode in (0, 4), (argv, proc.stderr)
                outputs.add(proc.stdout)
            assert len(outputs) == 1, f"hash-seed-dependent output from {argv[0]}"
        info["detail"] = (
            f"{len(commands)} commands x hash seeds {{{', '.join(hash_seeds)}}} byte-identical"
        )
