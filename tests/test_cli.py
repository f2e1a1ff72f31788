"""End-to-end CLI behavior: output formats, exit codes, determinism."""

import gc
import io
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from hyperlim import (
    BudgetError,
    INDICATOR,
    FormatError,
    StepHypergraphon,
    UniformHypergraph,
    complete_hypergraph,
    constant_hypergraphon,
    parse_hyperpartition,
    parse_latents,
    random_hyperpartition,
    sample_w_random,
    serialize_hypergraph,
    serialize_hypergraphon,
    serialize_hyperpartition,
    serialize_latents,
    subset_indexing,
)
import hyperlim.cli as cli_module
import hyperlim.hypergraphon as hypergraphon_module
from hyperlim.cli import convergence_table, main
from hyperlim.rng import _fill_subset_draws, subset_draws

from conftest import REMOVAL_WORK, build_fixture_w, build_half_w, cli_env, forbid_work

EDGE_HG = "HG 2 2 1\n0 1\n"
TRIANGLE_HG = "HG 2 3 3\n0 1\n0 2\n1 2\n"


@pytest.fixture
def files(tmp_path):
    """Small file zoo shared by most commands."""
    paths = {}

    def add(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)

    add("edge.hg", EDGE_HG)
    add("triangle.hg", TRIANGLE_HG)
    add("w3.hgon", serialize_hypergraphon(build_fixture_w()))
    add("half.hgon", serialize_hypergraphon(build_half_w()))
    add("zero.hgon", "HGON 3 2 ind 0\n")
    paths["tmp"] = tmp_path
    return paths


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- single commands -----------------------------------------------------------


def test_hom_frozen_output(files, capsys):
    code, out, _ = run_main(["hom", files["edge.hg"], files["triangle.hg"]], capsys)
    assert code == 0
    assert out == "hom=6 t=2/3\n"


def test_density_exact_output(files, capsys):
    # each pair coordinate is an independent fair coin, so the triangle
    # density is exactly 2**-3
    code, out, _ = run_main(["density", files["triangle.hg"], files["half.hgon"]], capsys)
    assert code == 0
    assert out == "0.125\n"


def test_density_mc_reports_error_bars(files, capsys):
    code, out, err = run_main(
        ["density", files["triangle.hg"], files["half.hgon"],
         "--mode", "mc", "--samples", "2000", "--seed", "3"],
        capsys,
    )
    assert code == 0
    estimate = float(out)
    assert err.startswith("se=") and "samples=2000" in err
    se = float(err.split()[0].removeprefix("se="))
    assert se > 0
    assert abs(estimate - 0.125) <= 4 * se


def test_density_budget_exit_code(files, capsys):
    code, _, err = run_main(
        ["density", files["triangle.hg"], files["half.hgon"], "--budget", "2"], capsys
    )
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "triangle.hg", "half.hgon", "--budget", "-1"],
        ["density", "triangle.hg", "half.hgon", "--budget", "0"],
        ["experiment", "convergence", "half.hgon", "triangle.hg", "--budget", "0"],
        ["removal", "triangle.hg", "triangle.hg", "--budget", "-1"],
        ["density", "triangle.hg", "half.hgon", "--mode", "exact", "--budget", "-1"],
        ["density", "triangle.hg", "half.hgon", "--mode", "mc", "--samples", "100", "--budget", "-1"],
        ["density", "triangle.hg", "half.hgon", "--mode", "mc", "--samples", "100", "--budget", "0"],
    ],
)
def test_budget_below_one_exits_2(files, capsys, argv):
    code, out, err = run_main([files.get(a, a) for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "budget" in err


@pytest.mark.parametrize(
    "seed,out,err",
    [
        (0, "0.001\n", "se=0.00022350055396996502 samples=20000\n"),
        (2, "0.0012999999999999999\n", "se=0.00025479157352097982 samples=20000\n"),
    ],
)
def test_density_mc_bytes_are_pinned(files, capsys, tmp_path, seed, out, err):
    # K4^(3) against the k=3 fixture: the exact density is 2**-10.
    k4_3 = tmp_path / "k4_3.hg"
    k4_3.write_text("HG 3 4 4\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n", encoding="utf-8")
    argv = ["density", str(k4_3), files["w3.hgon"], "--mode", "mc", "--samples", "20000",
            "--seed", str(seed)]
    assert run_main(argv, capsys) == (0, out, err)


@pytest.mark.parametrize(
    "bad",
    [
        "HG 2\n0 1\n",          # malformed header
        "HG 2 3 1\n0 0\n",      # repeated vertex
        "HG 9 3 0\n",           # unsupported arity
    ],
)
def test_parse_errors_exit_2(files, capsys, bad, tmp_path):
    p = tmp_path / "bad.hg"
    p.write_text(bad, encoding="utf-8")
    code, _, err = run_main(["hom", str(p), files["triangle.hg"]], capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "kind,text,lineno",
    [
        ("HG", "HG 2 11 1\n0 1_0\n", 2),  # a digit separator: once the edge (0, 10)
        ("HG", "HG 2 3 1\n+0 \u0661\n", 2),  # a sign and an Arabic-Indic digit: once (0, 1)
        ("HG", "HG 2 3 1\n0 \u0661\n", 2),
        ("HG", "HG 2 +3 1\n0 1\n", 1),
        ("HGON", "HGON 2 1 proj 1\n0 0 0 0.2_5\n", 2),  # once 0.25
        ("HGON", "HGON 2 1 proj 1\n0 0 0 \u0660.5\n", 2),  # once 0.5
        ("HGON", "HGON 2 1 proj 1\n0 0 0 -0.5\n", 2),
        ("HGON", "HGON 2 1 proj 1\n0 +0 0 0.5\n", 2),
    ],
)
def test_numeric_tokens_are_ascii_digits_only(files, capsys, tmp_path, kind, text, lineno):
    path = tmp_path / "bad"
    path.write_text(text, encoding="utf-8")
    argv = ["hom", str(path), files["triangle.hg"]] if kind == "HG" else [
        "density", files["edge.hg"], str(path)]
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {lineno}: "), err


def header_case(fmt, files):
    """A valid file of each format with its header on line 1, and the argv
    that reads it; LAT has no reading subcommand, so its argv is None."""
    if fmt == "HG":
        return TRIANGLE_HG, lambda path: ["hom", path, files["triangle.hg"]]
    if fmt == "HGON":
        text = serialize_hypergraphon(build_half_w())
        return text, lambda path: ["density", files["edge.hg"], path]
    if fmt == "HP":
        text = serialize_hyperpartition(random_hyperpartition(2, 3, 2, seed=0))
        return text, lambda path: ["cells", files["triangle.hg"], path]
    return serialize_latents(sample_w_random(build_fixture_w(), 4, seed=1)), None


def test_an_hgon_resolution_past_64_bits_exits_2_at_line_1(files, capsys, tmp_path):
    path = tmp_path / "wide.hgon"
    path.write_text(f"HGON 2 {2**64 + 1} ind 0\n", encoding="utf-8")
    code, out, err = run_main(["density", files["edge.hg"], str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: line 1: resolution l=18446744073709551617 above 2**64"), err


@pytest.mark.parametrize("fmt", ["HG", "HGON", "HP", "LAT"])
def test_every_single_header_fault_is_reported_at_line_1(files, capsys, tmp_path, fmt):
    # Dropping, duplicating or garbling any one header token.
    text, argv = header_case(fmt, files)
    header, body = text.split("\n", 1)
    tokens = header.split()
    assert tokens[0] == fmt
    if argv is not None:
        path = tmp_path / "good"
        path.write_text(text, encoding="utf-8")
        assert run_main(argv(str(path)), capsys)[0] == 0
    for i, tok in enumerate(tokens):
        for mutated in (
            tokens[:i] + tokens[i + 1 :],
            tokens[:i] + [tok, tok] + tokens[i + 1 :],
            tokens[:i] + [tok + "x"] + tokens[i + 1 :],
        ):
            bad = " ".join(mutated) + "\n" + body
            if argv is None:
                with pytest.raises(FormatError, match="^line 1: "):
                    parse_latents(bad)
                continue
            path = tmp_path / f"bad-{i}"
            path.write_text(bad, encoding="utf-8")
            code, out, err = run_main(argv(str(path)), capsys)
            assert (code, out) == (2, ""), mutated
            assert err.startswith("error: line 1: "), (mutated, err)


@pytest.mark.parametrize("fmt", ["HG", "HGON", "HP", "LAT"])
def test_a_non_utf8_byte_is_reported_at_its_line(files, capsys, tmp_path, fmt):
    text, argv = header_case(fmt, files)
    lines = text.encode("utf-8").split(b"\n")
    assert len(lines) > 3
    lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
    bad = b"\n".join(lines)
    message = "line 3: invalid UTF-8 byte 0xff (invalid start byte)"
    if argv is None:
        with pytest.raises(FormatError) as info:
            parse_latents(bad)
        assert str(info.value) == message
        return
    path = tmp_path / "bad"
    path.write_bytes(bad)
    assert run_main(argv(str(path)), capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["LAT", "HP"])
@pytest.mark.parametrize("position,spelling", [(0, "00"), (0, "+0"), (1, "+1"), (1, "01")])
def test_subset_members_must_be_spelled_as_written(fmt, position, spelling):
    # Read as integers, these spellings would name the subset (0, 1) and
    # parse, and the file would then not write back byte for byte.
    if fmt == "LAT":
        text = serialize_latents(sample_w_random(build_fixture_w(), 4, seed=1))
        parse = parse_latents
    else:
        text = serialize_hyperpartition(random_hyperpartition(2, 3, 2, seed=0))
        parse = parse_hyperpartition
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.split()[:-1] == ["0", "1"])
    tokens = lines[i].split()
    tokens[position] = spelling
    lines[i] = " ".join(tokens)
    with pytest.raises(FormatError, match=f"^line {i + 1}: .*out of order"):
        parse("\n".join(lines) + "\n")


def _run_quietly(argv):
    """main(argv) with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def valid_files(draw):
    """(format, k, n, text): a valid HG, HGON, HP or LAT file with a body."""
    fmt = draw(st.sampled_from(["HG", "HGON", "HP", "LAT"]))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 5))
    if fmt == "HG":
        edges = draw(st.lists(st.sampled_from(list(combinations(range(n), k))), unique=True,
                              min_size=1, max_size=6))
        return fmt, k, n, serialize_hypergraph(UniformHypergraph(k, n, sorted(edges)))
    if fmt == "HP":
        partition = random_hyperpartition(k, n, draw(st.integers(1, 3)), seed=draw(st.integers(0, 99)))
        return fmt, k, n, serialize_hyperpartition(partition)
    l = draw(st.integers(1, 2))
    idx = subset_indexing(k)
    orbits = sorted({idx.canonicalize(b) for b in product(range(l), repeat=idx.n_coords)})
    chosen = draw(st.lists(st.sampled_from(orbits), unique=True, min_size=1))
    w = StepHypergraphon(k, l, INDICATOR, dict.fromkeys(chosen, 1.0))
    if fmt == "HGON":
        return fmt, k, n, serialize_hypergraphon(w)
    return fmt, k, n, serialize_latents(sample_w_random(w, n, seed=draw(st.integers(0, 99))))


REPLACEMENTS = (
    "0", "1", "7", "-1", "0.5", "1e400", "nan", "x", "LEVEL", "ffffffffffffffff",
    "00", "+1", "1_0", "+0", "\u0661", "0.2_5", "\u0660.5",
)


@st.composite
def body_faults(draw):
    """A valid file as bytes, with one body line mutated in one of five ways."""
    fmt, k, n, text = draw(valid_files())
    lines = text.encode("utf-8").split(b"\n")[:-1]
    i = draw(st.integers(1, len(lines) - 1))
    tokens = lines[i].split()
    j = draw(st.integers(0, len(tokens) - 1))
    how = draw(st.sampled_from(["drop", "duplicate", "replace", "line", "byte"]))
    if how == "drop":
        lines[i] = b" ".join(tokens[:j] + tokens[j + 1 :])
    elif how == "duplicate":
        lines[i] = b" ".join(tokens[: j + 1] + tokens[j:])
    elif how == "replace":
        new = draw(st.sampled_from(REPLACEMENTS)).encode()
        lines[i] = b" ".join(tokens[:j] + [new] + tokens[j + 1 :])
    elif how == "line":
        lines.insert(i, lines[i])
    else:
        at = draw(st.integers(0, len(lines[i])))
        byte = draw(st.sampled_from((b"\x80", b"\xc3", b"\xfe", b"\xff")))
        lines[i] = lines[i][:at] + byte + lines[i][at:]
    return fmt, k, n, b"\n".join(lines) + b"\n"


@settings(max_examples=300, deadline=None)
@given(body_faults())
def test_a_body_line_fault_exits_0_or_2_with_a_line_number(tmp_path_factory, case):
    fmt, k, n, data = case
    if fmt == "LAT":  # no subcommand reads LAT
        try:
            parse_latents(data)
        except FormatError as exc:
            assert str(exc).startswith("line "), exc
        return
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "mutated"
    path.write_bytes(data)
    other = tmp / "other.hg"
    if fmt == "HG":
        argv = ["hom", str(path), str(path)]
    elif fmt == "HGON":
        other.write_text(serialize_hypergraph(complete_hypergraph(k, k)), encoding="utf-8")
        argv = ["density", str(other), str(path)]
    else:
        other.write_text(serialize_hypergraph(complete_hypergraph(k, n)), encoding="utf-8")
        argv = ["cells", str(other), str(path)]
    code, out, err = _run_quietly(argv)
    assert code in (0, 2), (code, err)
    if code == 2:
        assert out == ""
        assert err.startswith("error: line "), err


def test_cells_on_a_huge_hp_header_exits_2_at_once(files, tmp_path, capsys):
    path = tmp_path / "huge.hp"
    path.write_text("HP 1 1000000000000 2\nLEVEL 1\n", encoding="utf-8")
    code, out, err = run_main(["cells", files["triangle.hg"], str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2: level 1: missing line for subset (0,)"), err


def test_missing_file_exits_2(files, capsys):
    code, _, err = run_main(["hom", files["edge.hg"], str(files["tmp"] / "nope.hg")], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_arity_mismatch_exits_2(files, capsys):
    code, _, err = run_main(["density", files["edge.hg"], files["w3.hgon"]], capsys)
    assert code == 2
    assert "arity" in err


def test_sample_round_trips_through_files(files, capsys, tmp_path):
    from hyperlim import parse_hypergraph, parse_latents

    out_hg = tmp_path / "s.hg"
    out_lat = tmp_path / "s.lat"
    argv = ["sample", files["w3.hgon"], "--n", "7", "--seed", "1",
            "--out", str(out_hg), "--latents", str(out_lat)]
    assert main(argv) == 0
    capsys.readouterr()
    hg = parse_hypergraph(out_hg.read_text())
    assert hg.k == 3 and hg.n_vertices == 7
    sample = parse_latents(out_lat.read_text())
    assert sample.hypergraph == hg
    assert sample.seed == 1

    first = out_hg.read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert out_hg.read_bytes() == first


SAMPLED_W = {1: StepHypergraphon(1, 2, INDICATOR, {(0,): 1.0}), 3: build_fixture_w()}


@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 3) for n in sorted({0, 1, k, 80})])
def test_sample_streams_the_bytes_of_the_serializers(k, n, tmp_path, capsysbinary):
    # HG and LAT are written line by line; the bytes must be those of the joined strings.
    w = tmp_path / "w.hgon"
    w.write_text(serialize_hypergraphon(SAMPLED_W[k]), encoding="utf-8")
    sample = sample_w_random(SAMPLED_W[k], n, seed=4)
    hg_bytes = serialize_hypergraph(sample.hypergraph).encode()
    out_hg, out_lat = tmp_path / "s.hg", tmp_path / "s.lat"
    argv = ["sample", str(w), "--n", str(n), "--seed", "4"]
    assert main([*argv, "--latents", str(out_lat)]) == 0
    assert capsysbinary.readouterr().out == hg_bytes
    assert out_lat.read_bytes() == serialize_latents(sample).encode()
    assert main([*argv, "--out", str(out_hg)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert out_hg.read_bytes() == hg_bytes


def test_sample_writes_its_files_in_bounded_memory(files, tmp_path, capsys):
    # The k=3 fixture at n = 80 has 85 400 latents (683 kB at 8 bytes
    # each) and a 2.2 MB LAT text. Streaming both files and holding the
    # latents in a typed store peaks near 3.2 MiB under tracemalloc
    # (Python 3.11); building each text whole from a list of ints peaked
    # near 16.9 MiB.
    argv = ["sample", files["w3.hgon"], "--n", "80", "--seed", "0",
            "--out", str(tmp_path / "s.hg"), "--latents", str(tmp_path / "s.lat")]
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == ""
    assert peak < 6 << 20, peak


def test_sample_of_the_zero_indicator_is_empty(files, capsys):
    code, out, _ = run_main(["sample", files["zero.hgon"], "--n", "8"], capsys)
    assert code == 0
    assert out == "HG 3 8 0\n"


def test_cells_csv_golden(files, capsys, tmp_path):
    hp = tmp_path / "p.hp"
    hp.write_text(
        "HP 2 3 1\nLEVEL 1\n0 0\n1 0\n2 0\nLEVEL 2\n0 1 0\n0 2 0\n1 2 0\n",
        encoding="utf-8",
    )
    code, out, _ = run_main(["cells", files["triangle.hg"], str(hp)], capsys)
    assert code == 0
    assert out == "profile,size,edges,density\n0:0:0,3,3,1\n"


def test_regularity_csv_complete_host(files, capsys, tmp_path):
    host = tmp_path / "k8.hg"
    host.write_text(serialize_hypergraph(complete_hypergraph(2, 8)), encoding="utf-8")
    code, out, _ = run_main(
        ["regularity", str(host), "--M", "10", "--eps", "0.2", "--seed", "5"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,r,eps,cylinders,seed,tested,admitted,max_deviation,witness"
    fields = lines[1].split(",")
    assert fields[:5] == ["8", "2", "0.20000000000000001", "10", "5"]
    assert fields[5] == "10"
    assert fields[7] == "0" and fields[8] == "0"


def test_regularity_commands_have_no_grid_flag(files, capsys):
    # Side densities are fixed at 1/4, 1/2 and 3/4; argparse refuses --grid.
    for argv in (
        ["regularity", files["triangle.hg"]],
        ["experiment", "regularity", files["w3.hgon"], "--n", "6"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--grid", "0.5"])
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert "--grid" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--eps", "-1"], "epsilon"),
        (["--eps", "nan"], "epsilon"),
        (["--M", "-3"], "count"),
        (["--eps", "1"], "epsilon"),
        (["--eps", "2"], "epsilon"),
        (["--eps", "inf"], "epsilon"),
        (["--M", "0"], "count"),
    ],
)
def test_regularity_rejects_bad_eps_and_count(files, flags, message, capsys, tmp_path):
    # eps >= 1 admits no cylinder and M = 0 tests none; either would print
    # a regular verdict (witness=0) backed by no test.
    host = tmp_path / "k5.hg"
    host.write_text(serialize_hypergraph(complete_hypergraph(2, 5)), encoding="utf-8")
    for argv in (
        ["regularity", str(host)],
        ["experiment", "regularity", files["half.hgon"], "--n", "6"],
    ):
        code, out, err = run_main([*argv, *flags], capsys)
        assert code == 2, argv
        assert out == ""
        assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["regularity", "{one}"], "no 2-subsets on 1 vertices"),
        (["experiment", "regularity", "{w3}", "--n", "2"], "no 3-subsets on 2 vertices"),
    ],
)
def test_regularity_refuses_cylinders_empty_by_construction(files, argv, message, capsys):
    # Fewer vertices than r leaves no r-subset: nothing can be admitted, so
    # a regular verdict (witness=0) would be backed by no test.
    one = files["tmp"] / "one.hg"
    one.write_text("HG 2 1 0\n", encoding="utf-8")
    argv = [a.format(one=one, w3=files["w3.hgon"]) for a in argv]
    code, out, err = run_main(argv, capsys)
    assert code == 2, argv
    assert out == ""
    assert message in err


def test_removal_csv_and_success_exit(files, capsys, tmp_path):
    bipartite = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]
    host_text = serialize_hypergraph(UniformHypergraph(2, 6, sorted(bipartite + [(0, 1)])))
    host = tmp_path / "planted.hg"
    host.write_text(host_text, encoding="utf-8")
    code, out, _ = run_main(["removal", files["triangle.hg"], str(host)], capsys)
    assert code == 0
    assert out == (
        "instance,edges,images,method,removed,fraction,residual,verified\n"
        "planted,10,3,exact,1,1/15,0,1\n"
    )


def test_removal_budget_must_be_nonnegative(files, capsys, tmp_path):
    host = tmp_path / "k5.hg"
    host.write_text(serialize_hypergraph(complete_hypergraph(2, 5)), encoding="utf-8")
    code, out, err = run_main(["removal", files["triangle.hg"], str(host), "--budget", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "budget" in err
    code, out, _ = run_main(["removal", files["triangle.hg"], str(host), "--budget", "0"], capsys)
    assert code == 0
    assert out.splitlines()[1].split(",")[3] == "greedy"


def test_removal_has_no_mode_flag(files, capsys):
    # --budget 0 is the greedy run; argparse refuses the old --mode flag.
    with pytest.raises(SystemExit) as exc:
        main(["removal", files["triangle.hg"], files["triangle.hg"], "--mode", "greedy"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err


def test_patterns_deeper_than_the_recursion_limit(files, capsys, tmp_path):
    # Both backtracking walks descend one level per covered pattern vertex;
    # a 1 201-vertex path is deeper than Python's default recursion limit.
    n = 1201
    path = tmp_path / "path.hg"
    path.write_text(serialize_hypergraph(
        UniformHypergraph(2, n, [(i, i + 1) for i in range(n - 1)])), encoding="utf-8")
    code, out, _ = run_main(["hom", str(path), files["edge.hg"]], capsys)
    assert (code, out) == (0, f"hom=2 t=1/{2 ** (n - 1)}\n")
    code, out, _ = run_main(["removal", str(path), files["edge.hg"]], capsys)
    assert code == 0
    assert out.splitlines()[1] == "edge,1,1,exact,1,1,0,1"


def test_removal_past_its_cap_exits_3_before_any_hitting_set(files, capsys, tmp_path, monkeypatch):
    # Triangles have 20 distinct images in K6: a cap of 20 runs whole, and a
    # hitting set of fewer would show nothing about the rest.
    host = tmp_path / "k6.hg"
    host.write_text(serialize_hypergraph(complete_hypergraph(2, 6)), encoding="utf-8")
    argv = ["removal", files["triangle.hg"], str(host), "--id", "x", "--cap"]
    code, out, _ = run_main(argv + ["20"], capsys)
    assert (code, out.splitlines()[1]) == (0, "x,15,20,exact,6,2/5,0,1")
    forbid_work(monkeypatch, *REMOVAL_WORK)
    code, out, err = run_main(argv + ["1"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: more than 1 distinct images, cap is 1\n"


# -- experiments ----------------------------------------------------------------


def test_convergence_csv_structure(files, capsys):
    code, out, _ = run_main(
        ["experiment", "convergence", files["half.hgon"], files["edge.hg"],
         "--ns", "4,6", "--reps", "2", "--seed", "0"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "K,n,rep,t_H,t_W,abs_diff"
    assert len(lines) == 1 + 2 * 3  # per n: two data rows and a mean row
    for n, start in ((4, 1), (6, 4)):
        diffs = []
        for line in lines[start : start + 2]:
            kid, n_str, rep, t_h, t_w, diff = line.split(",")
            assert kid == "edge" and n_str == str(n)
            assert abs(abs(float(Fraction(t_h)) - float(t_w)) - float(diff)) < 1e-16
            diffs.append(float(diff))
        mean_row = lines[start + 2].split(",")
        assert mean_row[2] == "mean" and mean_row[3] == "" and mean_row[4] == ""
        assert float(mean_row[5]) == pytest.approx(sum(diffs) / 2, abs=1e-16)


def test_convergence_deduplicates_pattern_stems(files, capsys, tmp_path):
    sub = tmp_path / "other"
    sub.mkdir()
    dup = sub / "edge.hg"
    dup.write_text(EDGE_HG, encoding="utf-8")
    code, out, _ = run_main(
        ["experiment", "convergence", files["half.hgon"], files["edge.hg"], str(dup),
         "--ns", "4", "--reps", "1"],
        capsys,
    )
    assert code == 0
    kids = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert kids == ["edge", "edge", "edge.1", "edge.1"]


def test_experiment_regularity_csv_structure(files, capsys):
    code, out, _ = run_main(
        ["experiment", "regularity", files["w3.hgon"], "--n", "10", "--M", "4"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,level,class,value,detail"
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds == ["equitability"] * 3 + ["regularity"] * 4 + ["cell_error"]
    for line in lines[4:8]:
        detail = line.split(",")[4]
        assert detail.startswith("tested=4;admitted=")


def test_rerun_is_byte_identical(files, tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(
            ["experiment", "regularity", files["w3.hgon"], "--n", "10",
             "--M", "4", "--seed", "9", "--out", str(out)]
        ) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


# Every expensive step of the two experiment tables.
TABLE_WORK = [(cli_module, name) for name in
              ("exact_density", "sample_w_random", "sample_hypergraph", "sampled_cylinder_family")]


@pytest.mark.parametrize(
    "argv,message",
    [
        pytest.param(["experiment", "convergence", "w3.hgon", "triangle.hg", "--ns", "0"],
                     "sample size n must be an int of at least 1", id="argv0-positive"),
        pytest.param(["experiment", "convergence", "w3.hgon", "triangle.hg", "--reps", "0"],
                     "reps must be an int of at least 1", id="argv1-positive"),
        pytest.param(["experiment", "convergence", "w3.hgon", "triangle.hg", "--seed", "-1"],
                     "seed", id="convergence-seed-negative"),
        pytest.param(["experiment", "regularity", "w3.hgon", "--n", "10", "--l", "0"],
                     "resolution", id="regularity-l-0"),
        pytest.param(["experiment", "regularity", "w3.hgon", "--n", "10", "--eps", "1"],
                     "epsilon", id="regularity-eps-1"),
        pytest.param(["experiment", "regularity", "w3.hgon", "--n", "10", "--seed", "-1"],
                     "seed", id="regularity-seed-negative"),
        pytest.param(["experiment", "convergence", "w3.hgon", "triangle.hg", "--ns", ","],
                     "sample size", id="convergence-ns-empty"),
    ],
)
def test_experiment_arguments_exit_2_before_any_work(files, capsys, monkeypatch, argv, message):
    forbid_work(monkeypatch, *TABLE_WORK)
    code, out, err = run_main([files.get(a, a) for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "kwargs,message",
    [
        pytest.param({"reps": 0}, "reps must be an int of at least 1, got 0",
                     id="kwargs0-reps must be positive"),
        pytest.param({"ns": (4, 0)}, "sample size n must be an int of at least 1, got 0",
                     id="kwargs1-every n must be positive"),
        pytest.param({"seed": 2**64}, "seed must fit in 64 bits", id="seed-2**64"),
        pytest.param({"seed": -1}, "seed must fit in 64 bits", id="seed-negative"),
        pytest.param({"ns": ()}, "one sample size", id="ns-empty"),
        pytest.param({"patterns": []}, "one pattern", id="patterns-empty"),
        pytest.param(
            {"patterns": [("triangle", complete_hypergraph(3, 3)), ("edge", complete_hypergraph(2, 2))]},
            "arity mismatch", id="patterns-mixed-arity"),
        # K4^(3) has 14 support coordinates: 2**14 boxes at l = 2.
        pytest.param(
            {"patterns": [("triangle", complete_hypergraph(3, 3)), ("k4", complete_hypergraph(3, 4))],
             "budget": 10**4}, "exact density needs 16384 grid boxes", id="budget-below-grid"),
        pytest.param({"ns": (5, 2.5)}, "sample size n must be an int of at least 1, got 2.5",
                     id="kwargs8-n_vertices must be a nonnegative int"),
        pytest.param({"ns": (5, True)}, "sample size n must be an int of at least 1, got True",
                     id="kwargs9-n_vertices must be a nonnegative int"),
        pytest.param({"reps": 2.5}, "reps must be an int of at least 1, got 2.5",
                     id="kwargs10-reps must be positive"),
        pytest.param({"reps": True}, "reps must be an int of at least 1, got True",
                     id="kwargs11-reps must be positive"),
        pytest.param({"w": constant_hypergraphon(3, 0.5)}, "indicator", id="w-projected"),
        *(pytest.param({name: value}, f"{what} must be an int of at least 1, got {bad!r}",
                       id=f"{name}-{bad!r}")
          for bad in (float("nan"), float("inf"), 2.0)
          for name, value, what in (("reps", bad, "reps"), ("ns", (4, bad), "sample size n"))),
        *(pytest.param({"budget": bad}, f"budget must be an int of at least 1, got {bad!r}",
                       id=f"budget-{bad!r}")
          for bad in (0, float("nan"), float("inf"), 2.5, 2.0, True)),
    ],
)
def test_convergence_table_refuses_bad_arguments_before_any_work(monkeypatch, kwargs, message):
    # TABLE_WORK[0] is exact_density: a pattern that only t(K, W) refuses
    # lets the densities before it run, but no sample.
    forbid_work(monkeypatch, *(TABLE_WORK[1:] if kwargs.get("patterns") else TABLE_WORK))
    args = {"w": build_fixture_w(), "patterns": [("triangle", complete_hypergraph(3, 3))],
            "ns": (4,), "reps": 2, "seed": 0}
    with pytest.raises(BudgetError if "grid boxes" in message else ValueError, match=message):
        convergence_table(**(args | kwargs))


def test_only_a_sample_with_latents_draws_the_top_level_in_bulk(files, capsys, tmp_path, monkeypatch):
    # The graph-only paths draw levels 1..k-1 with subset_draws and each
    # top latent on its own; sample_w_random draws every level once, the
    # top one straight into the sample's store.
    levels = []

    def spy(seed, label, n, r):
        levels.append(r)
        return subset_draws(seed, label, n, r)

    def fill_spy(out, start, seed, label, n, r):
        levels.append(r)
        return _fill_subset_draws(out, start, seed, label, n, r)

    monkeypatch.setattr(hypergraphon_module, "subset_draws", spy)
    monkeypatch.setattr(hypergraphon_module, "_fill_subset_draws", fill_spy)
    w = build_fixture_w()
    convergence_table(w, [("triple", complete_hypergraph(3, 3))], (6, 9), 2, seed=0)
    assert levels == [1, 2] * 4
    levels.clear()
    assert main(["sample", files["w3.hgon"], "--n", "9", "--out", str(tmp_path / "s.hg")]) == 0
    assert levels == [1, 2]
    levels.clear()
    assert main(["sample", files["w3.hgon"], "--n", "9", "--latents", str(tmp_path / "s.lat")]) == 0
    capsys.readouterr()
    assert levels == [1, 2, 3]
    for k in (1, 2, 3, 4):
        levels.clear()
        sample_w_random(StepHypergraphon(k, 1, INDICATOR, {}), 6, seed=3)
        assert levels == list(range(1, k + 1))


# -- hash-seed independence -------------------------------------------------------


def test_hash_seed_does_not_change_bytes(files):
    argv = [sys.executable, "-m", "hyperlim", "density",
            files["triangle.hg"], files["half.hgon"],
            "--mode", "mc", "--samples", "3000", "--seed", "7"]
    outs = []
    for hash_seed in ("0", "1", "random"):
        proc = subprocess.run(argv, capture_output=True, env=cli_env(hash_seed))
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]
