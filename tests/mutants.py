"""A standing mutation check for the fast kernels: each mutant must fail a test.

Run it by hand from the repository root; it is not part of the test suite
(pytest collects only ``test_*.py``) and takes about a minute:

    python3 tests/mutants.py

Each row of ``MUTANTS`` names a module of ``src/hyperlim``, a source
fragment, its replacement and the test files that must see the change. For
each row the script copies ``src/`` to a temporary directory, checks that
the fragment occurs exactly once, applies the replacement and runs the
named tests against the copy in a subprocess. A mutant is killed when that
run fails. The unmutated copy is run first, against every named file, and
must pass. The script reports each mutant that no test kills and exits 1
if there is one, or if a fragment is missing or not unique.

A kernel rewrite updates its rows in the same change:
``tests/test_tooling.py`` checks that every fragment still occurs exactly
once. Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/hyperlim
    fragment: str
    replacement: str
    tests: tuple[str, ...]  # test files, relative to the repository root


HOM_TESTS = ("tests/test_homomorphism.py",)
RNG_TESTS = ("tests/test_rng.py",)

MUTANTS = (
    Mutant("hom: the link table drops one ordering of each key", "homomorphism.py",
           "for first, *middle, end in permutations(key):",
           "for first, *middle, end in list(permutations(key))[1:]:", HOM_TESTS),
    Mutant("hom: a missing link reads as every vertex", "homomorphism.py",
           "return map(node.get, verts, repeat(0))",
           "return map(node.get, verts, repeat(-1))", HOM_TESTS),
    Mutant("hom: the product shortcut where one edge joins the last two positions", "homomorphism.py",
           "    if not nodes:\n        return cands.bit_count() * last.bit_count()",
           "    if len(nodes) < 2:\n        return cands.bit_count() * last.bit_count()", HOM_TESTS),
    Mutant("hom: a lookup skips the last-placed vertex of its prefix", "homomorphism.py",
           "    for u in prefix[1:]:",
           "    for u in prefix[1:-1]:", HOM_TESTS),
    Mutant("hom: enumeration skips the links of the vertex before last", "homomorphism.py",
           "add(v, reduce(and_, found, last))",
           "add(v, last)", HOM_TESTS),
    Mutant("hom: a candidate vertex off by one", "homomorphism.py",
           "return list(compress(count(), bin(mask)",
           "return list(compress(count(1), bin(mask)", HOM_TESTS),
    Mutant("rng: no entry mask in the block hash", "rng.py",
           "    x &= _ONES\n    x = ((x ^ x >> 30)",
           "    x = ((x ^ x >> 30)", RNG_TESTS),
    Mutant("rng: no mask before the first multiply", "rng.py",
           "x = ((x ^ x >> 30) & _ONES) * _MIX1 & _ONES",
           "x = (x ^ x >> 30) * _MIX1 & _ONES", RNG_TESTS),
    Mutant("rng: no mask before the second multiply", "rng.py",
           "x = ((x ^ x >> 27) & _ONES) * _MIX2 & _ONES",
           "x = (x ^ x >> 27) * _MIX2 & _ONES", RNG_TESTS),
    Mutant("rng: the last run of rows is dropped", "rng.py",
           "    if run:\n        yield run\n",
           "", RNG_TESTS),
)


def occurrences(row: Mutant, src: Path = ROOT / "src") -> int:
    """How many times the row's fragment occurs in its module under ``src``."""
    return (src / "hyperlim" / row.module).read_text(encoding="utf-8").count(row.fragment)


def tests_pass(src: Path, tests: tuple[str, ...]) -> bool:
    """Whether the named test files pass against the package under ``src``."""
    # The pythonpath override puts the copy first: the repository's own
    # pytest settings would otherwise import the package from ROOT/src.
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *tests]
    # No bytecode is written: a mutant and the next one can share a size
    # and an mtime second, and would then share a stale cache entry.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True)
    return proc.returncode == 0


def run(rows: tuple[Mutant, ...]) -> int:
    """Run every row; report each survivor. Returns the exit status."""
    bad = [row.name for row in rows if occurrences(row) != 1]
    for name in bad:
        print(f"FRAGMENT NOT FOUND EXACTLY ONCE: {name}")
    if bad:
        return 1
    survivors = []
    with tempfile.TemporaryDirectory(prefix="hyperlim-mutants-") as tmp:
        src = Path(tmp) / "src"
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
        shutil.copytree(ROOT / "src", src, ignore=ignore)
        every_file = tuple(sorted({t for row in rows for t in row.tests}))
        if not tests_pass(src, every_file):
            print(f"the unmutated copy fails {' '.join(every_file)}: fix that first")
            return 1
        for row in rows:
            path = src / "hyperlim" / row.module
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(row.fragment, row.replacement), encoding="utf-8")
            try:
                killed = not tests_pass(src, row.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            print(f"{'killed  ' if killed else 'SURVIVED'} {row.name}", flush=True)
            if not killed:
                survivors.append(row.name)
    print(f"{len(rows) - len(survivors)} of {len(rows)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(run(MUTANTS))
