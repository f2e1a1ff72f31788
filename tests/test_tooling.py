"""Tooling contracts: the package imports only the standard library and
its public list names exactly what it imports, every public name and
each public method and property of an exported class has a docstring, a
CLI process loads no `dataclasses` or introspection modules, the README
and the CLI parser name the same long options, every
`hyperlim.<module>.<name>` the README names exists, the README's
Determinism table names exactly the stream labels the package draws
from, no two `raise` sites in the package spell the same message, and
the benchmark's span tracer names hyperlim functions and their
parameters.

`bench/tracer.py` wraps functions by name and skips any name it cannot
find, and a work counter that reads a renamed parameter is dropped
silently. These tests read the tracer's tables (the file is only loaded,
never changed), check every name against the package, evaluate the
sampling, image and hitting-set counters on real calls, and check that the
regularity family check reaches the wrapped kernel once per cylinder.
"""

import argparse
import ast
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import hyperlim
import hyperlim.regularity as regularity_module
from hyperlim import (
    UniformHypergraph,
    complete_hypergraph,
    enumerate_hom_images,
    exact_hitting_set,
    sample_w_random,
    sampled_cylinder_family,
)
from hyperlim.cli import build_parser

from conftest import build_fixture_w, cli_env, triangle
from mutants import MUTANTS, occurrences

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


def traced_counts(name, fn, *args, **kwargs) -> dict:
    """What the tracer's counter for span ``name`` reads from a real call."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return tracer.COUNTERS[name](bound.arguments, fn(*bound.args, **bound.kwargs))


# A counter that no longer matches the return value would read a wrong
# figure, or lose its counts, without failing the benchmark.


def test_the_sampling_counters_read_real_values():
    counts = traced_counts("hypergraphon.sample_w_random", sample_w_random, build_fixture_w(), 9, seed=4)
    assert counts == {"latents": comb(9, 1) + comb(9, 2) + comb(9, 3), "edge_tests": comb(9, 3)}


def test_the_removal_counters_read_real_values():
    # Triangles have C(5, 3) = 10 distinct images in K5.
    args = (triangle(), complete_hypergraph(2, 5))
    assert traced_counts("homomorphism.enumerate_hom_images", enumerate_hom_images, *args) == {"images": 10}
    images = enumerate_hom_images(*args)
    assert traced_counts("removal.exact_hitting_set", exact_hitting_set, images) == {"optimal": 1}
    assert traced_counts("removal.exact_hitting_set", exact_hitting_set, images, budget=0) == {"optimal": 0}


def test_the_family_check_calls_the_traced_kernel_once_per_cylinder(monkeypatch):
    # The tracer wraps regularity_deviation where the module binds it, so
    # its span and the admitted ratio see check_regularity_family only if
    # the family check calls the kernel through that binding.
    kernel = regularity_module.regularity_deviation
    seen = []
    admitted = 0

    def counting(g, cyl, size_gate):
        nonlocal admitted
        ret = kernel(g, cyl, size_gate)
        seen.append(cyl)
        counts = tracer.COUNTERS["regularity.regularity_deviation"]({"cyl": cyl}, ret)
        assert counts["r"] == 3
        admitted += counts["admitted"]
        return ret

    monkeypatch.setattr(regularity_module, "regularity_deviation", counting)
    family = sampled_cylinder_family(9, 3, 12, seed=5)
    g = UniformHypergraph(3, 9, [(0, 1, 2), (0, 3, 4), (1, 5, 8), (2, 6, 7), (3, 4, 8)])
    report = regularity_module.check_regularity_family(g, 0.1, family)
    assert seen == family
    assert report.tested == len(family) and 0 < report.admitted == admitted


def test_the_public_names_are_exactly_the_imported_ones():
    tree = ast.parse((ROOT / "src" / "hyperlim" / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names
    ]
    assert sorted(hyperlim.__all__) == sorted(imported)


def test_every_public_name_has_a_docstring():
    # The Library section of the README points readers at these names.
    missing = []
    for name in hyperlim.__all__:
        obj = getattr(hyperlim, name)
        if not callable(obj):
            continue  # a constant
        if not obj.__doc__:
            missing.append(name)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                target = member.fget if isinstance(member, property) else member
                if not attr.startswith("_") and inspect.isfunction(target) and not target.__doc__:
                    missing.append(f"{name}.{attr}")
    assert missing == []


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


def test_the_splitmix_finalizer_is_written_only_in_rng():
    # rng.mix64 and its block form rng._mix_lanes are the finalizer's only
    # copies. A module that names a finalizer constant, or spells its value
    # in hex, holds an inlined copy that can drift from them.
    holders = set()
    for path in sorted((ROOT / "src" / "hyperlim").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        digits = text.lower().replace("_", "")
        if re.search(r"\b_MIX[12]\b", text) or "bf58476d1ce4e5b9" in digits or "94d049bb133111eb" in digits:
            holders.add(path.name)
    assert holders == {"rng.py"}


def test_the_prefix_tree_walk_is_written_only_in_core():
    # core.prefix_walk is the one walk over the rows of core.prefix_rows:
    # sample, cells and independence_test all take it. A module that
    # imports core._walk_steps, or defines a function that calls itself
    # and reads prefix rows, holds a second walk that can drift from it.
    # rng._fill_subset_draws walks a prefix tree of hashes, no rows.
    importers, walks = set(), set()
    for path in sorted((ROOT / "src" / "hyperlim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names_rows = "prefix_rows" in {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and "_walk_steps" in {a.name for a in node.names}:
                importers.add(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "_walk_steps":
                importers.add(path.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                calls = {n.func.id for n in ast.walk(node)
                         if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
                if node.name in calls and (names_rows or "rows" in names):
                    walks.add((path.name, node.name))
    assert importers == set()
    assert walks == {("core.py", "walk")}


def test_every_mutant_fragment_occurs_exactly_once():
    # tests/mutants.py is run by hand; a kernel rewrite that moves one of
    # its fragments must update the row in the same change.
    assert MUTANTS
    for row in MUTANTS:
        assert occurrences(row) == 1, row.name
        assert row.replacement != row.fragment, row.name
        assert all((ROOT / name).is_file() for name in row.tests), row.name


def test_the_cli_process_imports_no_dataclasses_or_introspection():
    # Every command starts a fresh interpreter; dataclasses pulls in inspect,
    # dis, ast and tokenize, which no command uses.
    code = "import sys, hyperlim.cli; print(sorted({'dataclasses', 'inspect', 'dis', 'ast'} & sys.modules.keys()))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env("0"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


def raise_templates() -> dict[str, list[str]]:
    """Message template -> every `raise` site in src/ that spells it.

    A template is the literal first argument of the raised exception, with
    each f-string field read as '{}'; a message built at run time is skipped.
    """
    sites: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "hyperlim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
                continue
            message = node.exc.args[0]
            if isinstance(message, ast.JoinedStr):
                template = "".join(
                    part.value if isinstance(part, ast.Constant) else "{}" for part in message.values
                )
            elif isinstance(message, ast.Constant) and isinstance(message.value, str):
                template = message.value
            else:
                continue
            sites.setdefault(template, []).append(f"{path.name}:{node.lineno}")
    return sites


def test_no_two_raise_sites_share_a_message_template():
    # Each input rule is written once, in the function that takes the
    # input; a message spelled at two sites is a copy of a rule that can drift.
    shared = {template: where for template, where in raise_templates().items() if len(where) > 1}
    assert shared == {}


def parser_long_options(parser: argparse.ArgumentParser) -> set[str]:
    """Every long option of a parser and of its subcommands, but --help."""
    out = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= parser_long_options(sub)
        else:
            out.update(o for o in action.option_strings if o.startswith("--") and o != "--help")
    return out


def readme_long_options(text: str) -> set[str]:
    return set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text))


def test_the_readme_and_the_parser_name_the_same_long_options():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = readme.split("\n## Commands\n", 1)[1].split("\n## ", 1)[0]
    defined = parser_long_options(build_parser())
    assert sorted(defined - readme_long_options(readme)) == []
    assert sorted(readme_long_options(commands) - defined) == []


def test_every_package_name_the_readme_spells_out_exists():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = re.findall(r"`hyperlim\.(\w+)\.(\w+)`", readme)
    assert named
    missing = []
    for module, name in named:
        try:
            found = hasattr(importlib.import_module(f"hyperlim.{module}"), name)
        except ImportError:
            found = False
        if not found:
            missing.append(f"hyperlim.{module}.{name}")
    assert missing == []


def source_stream_labels() -> set[str]:
    """The string labels that src/ passes to derive, stream and subset_draws."""
    labels = set()
    for path in (ROOT / "src" / "hyperlim").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    in ("derive", "stream", "subset_draws")
                    and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                labels.add(node.args[1].value)
    return labels


def test_the_readme_determinism_table_names_exactly_the_stream_labels():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Determinism\n", 1)[1].split("\n## ", 1)[0]
    table = set(re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE))
    assert sorted(table) == sorted(source_stream_labels())
