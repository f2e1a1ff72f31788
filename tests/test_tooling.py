"""Tooling contracts: the package imports only the standard library, and
the benchmark's span tracer names hyperlim functions and their parameters.

`bench/tracer.py` wraps functions by name and skips any name it cannot
find, and a work counter that reads a renamed parameter is dropped
silently. These tests read the tracer's tables (the file is only loaded,
never changed), check every name against the package, and evaluate the
sampling counters on a real call.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from math import comb
from pathlib import Path

import pytest

from hyperlim import sample_w_random

from conftest import build_fixture_w

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def span_functions() -> dict:
    """Span name -> every function the tracer wraps under that name."""
    out: dict = {}
    for module, attr, name in tracer.SPANS:
        out.setdefault(name, []).append(getattr(importlib.import_module(f"hyperlim.{module}"), attr))
    return out


def counter_reads() -> dict[str, set[str]]:
    """Span name -> the argument names its COUNTERS lambda subscripts."""
    tree = ast.parse(TRACER_PATH.read_text(encoding="utf-8"))
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "COUNTERS" for t in node.targets)
    )
    reads = {}
    for key, fn in zip(table.keys, table.values):
        args = fn.args.args[0].arg
        reads[key.value] = {
            node.slice.value for node in ast.walk(fn.body)
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == args
        }
    return reads


@pytest.mark.parametrize("module,attr,name", tracer.SPANS)
def test_every_span_target_resolves(module, attr, name):
    assert callable(getattr(importlib.import_module(f"hyperlim.{module}"), attr, None)), name


@pytest.mark.parametrize("module,cls,attr,name", tracer.LEAVES)
def test_every_leaf_target_resolves(module, cls, attr, name):
    owner = importlib.import_module(f"hyperlim.{module}")
    if cls is not None:
        owner = getattr(owner, cls, None)
    assert callable(getattr(owner, attr, None)), name


def test_counters_read_only_parameters_of_the_wrapped_function():
    functions = span_functions()
    reads = counter_reads()
    assert set(reads) == set(tracer.COUNTERS)
    for name, args in reads.items():
        assert name in functions, f"COUNTERS names {name!r}, which no span wraps"
        for fn in functions[name]:
            params = inspect.signature(fn).parameters
            assert args <= params.keys(), f"{name} reads {sorted(args - params.keys())}"


def test_the_sampling_counters_read_real_values():
    # A counter that no longer matches the return value would read a
    # wrong figure, or lose its counts, without failing the benchmark.
    bound = inspect.signature(sample_w_random).bind(build_fixture_w(), 9, seed=4)
    bound.apply_defaults()
    result = sample_w_random(*bound.args, **bound.kwargs)
    counts = tracer.COUNTERS["hypergraphon.sample_w_random"](bound.arguments, result)
    assert counts == {"latents": comb(9, 1) + comb(9, 2) + comb(9, 3), "edge_tests": comb(9, 3)}


def test_the_package_imports_only_the_standard_library():
    # numpy and hypothesis may be installed where the tests run, so an
    # accidental import of either would pass every other test.
    sources = sorted((ROOT / "src" / "hyperlim").rglob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "hyperlim" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []


def test_the_cli_imports_no_private_package_name():
    # Argument rules live in the library function that takes the argument;
    # a private import into the CLI is how a rule would leak back into it.
    tree = ast.parse((ROOT / "src" / "hyperlim" / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").partition(".")[0] == "hyperlim")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
