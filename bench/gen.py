"""Seeded, stdlib-only input generator for the benchmark workloads.

Every HG and HGON text is written here directly; nothing comes from
hyperlim's sampler or serialisers, so the inputs stay fixed while the
code under test changes. The same (workload, seed) always gives the same
files and the same CLI seeds.

Usage: python3 bench/gen.py --workload NAME --seed N --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import random
from itertools import combinations, permutations, product
from pathlib import Path

WORKLOADS = ("convergence", "regularity", "density", "removal")

# Triangle removal hosts. Branch and bound on G(n, 1/2) is heavy-tailed: on
# a 2-core Xeon VM with Python 3.11, one seed each at n = 16, 17, 18 took
# 2 s, 21 s and 107 s, and K_9 minus one seeded edge took 0.5 s to 1.2 s.
# K_9 gives it the same real work (about 2 s) on every seed, with a known
# minimum (Mantel); G(16, 1/2) with the default budget takes the greedy
# fallback.
CLIQUE_N = 9
GNP_REMOVAL_N = 16


def sub_seed(seed: int, label: str) -> int:
    """A 64-bit seed for one CLI flag or generator stream, from the workload seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def hg_text(k: int, n: int, edges) -> str:
    edges = sorted(tuple(e) for e in edges)
    lines = [f"HG {k} {n} {len(edges)}"]
    lines.extend(" ".join(map(str, e)) for e in edges)
    return "\n".join(lines) + "\n"


def hgon_text(k: int, l: int, boxes) -> str:
    boxes = sorted(boxes)
    lines = [f"HGON {k} {l} ind {len(boxes)}"]
    lines.extend(" ".join(map(str, b)) + " 1" for b in boxes)
    return "\n".join(lines) + "\n"


def gnp(k: int, n: int, p: float, rng: random.Random) -> str:
    """G^(k)(n, p): every k-subset is an edge independently with probability p."""
    return hg_text(k, n, [e for e in combinations(range(n), k) if rng.random() < p])


def _coordinate_subsets(k: int) -> list[tuple[int, ...]]:
    # Nonempty subsets of {0..k-1}, by size then lexicographically.
    return [s for size in range(1, k + 1) for s in combinations(range(k), size)]


def _orbit_min(vec: tuple[int, ...], remaps) -> tuple[int, ...]:
    best = vec
    for remap in remaps:
        out = [0] * len(vec)
        for j, value in enumerate(vec):
            out[remap[j]] = value
        cand = tuple(out)
        if cand < best:
            best = cand
    return best


def _remaps(k: int):
    subsets = _coordinate_subsets(k)
    index = {s: i for i, s in enumerate(subsets)}
    return [
        tuple(index[tuple(sorted(p[a] for a in s))] for s in subsets)
        for p in permutations(range(k))
    ]


def fixture_w3() -> str:
    """k=3, l=2 indicator: edge iff the top box and all three pair boxes are 0.

    Edge probability (1/2)**4 = 1/16. Singleton boxes are free, and the
    four listed singleton patterns are the orbit minima of {0,1}**3.
    """
    singles = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
    return hgon_text(3, 2, [s + (0, 0, 0, 0) for s in singles])


def half_top_w4(rng: random.Random) -> str:
    """k=4, l=2 indicator with density exactly 1/2 for a single 4-edge.

    A seeded symmetric bit g is drawn for every orbit of the 14 lower
    coordinates, and W is 1 iff the top box equals g. For each lower box
    exactly one top box value is 1, so t(edge, W) = 1/2 whatever g is.
    The top coordinate is fixed by every permutation, so an orbit minimum
    is the lower orbit minimum followed by the top box.
    """
    remaps = [r[:-1] for r in _remaps(4)]
    orbits = sorted({_orbit_min(lower, remaps) for lower in product((0, 1), repeat=14)})
    return hgon_text(4, 2, [lower + (rng.randrange(2),) for lower in orbits])


SINGLE_TRIPLE = hg_text(3, 3, [(0, 1, 2)])
PAIR_TRIPLES = hg_text(3, 4, [(0, 1, 2), (0, 1, 3)])
EDGE4 = hg_text(4, 4, [(0, 1, 2, 3)])
K4_3 = hg_text(3, 4, combinations(range(4), 3))
K4 = hg_text(2, 4, combinations(range(4), 2))
TRIANGLE = hg_text(2, 3, combinations(range(3), 2))


def inputs_for(workload: str, seed: int) -> tuple[dict[str, str], dict[str, int]]:
    """Input files ({name: text}) and CLI seeds ({flag use: seed}) of a workload."""
    rng = random.Random(sub_seed(seed, f"{workload}/inputs"))
    if workload == "convergence":
        files = {"w3.hgon": fixture_w3(), "single.hg": SINGLE_TRIPLE, "pair.hg": PAIR_TRIPLES}
        seeds = {"convergence": sub_seed(seed, "convergence/experiment"),
                 "sample": sub_seed(seed, "convergence/sample")}
    elif workload == "regularity":
        files = {"g60.hg": gnp(2, 60, 0.5, rng), "w3.hgon": fixture_w3()}
        seeds = {"regularity": sub_seed(seed, "regularity/check"),
                 "experiment": sub_seed(seed, "regularity/experiment")}
    elif workload == "density":
        files = {"w4.hgon": half_top_w4(rng), "edge4.hg": EDGE4,
                 "w3.hgon": fixture_w3(), "k4_3.hg": K4_3}
        seeds = {"mc": sub_seed(seed, "density/mc")}
    elif workload == "removal":
        files = {"k4.hg": K4, "g100.hg": gnp(2, 100, 0.5, rng), "triangle.hg": TRIANGLE,
                 "k9.hg": hg_text(2, CLIQUE_N, combinations(range(CLIQUE_N), 2)),
                 "g16.hg": gnp(2, GNP_REMOVAL_N, 0.5, rng)}
        seeds = {}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files, seeds


def write_files(files: dict[str, str], out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    files, seeds = inputs_for(args.workload, args.seed)
    write_files(files, args.out)
    for label, value in seeds.items():
        print(f"{label}={value}")


if __name__ == "__main__":
    main()
