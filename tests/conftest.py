import gc
import os
import tracemalloc
from itertools import count
from math import comb
from pathlib import Path

import pytest

import hyperlim
import hyperlim.removal
from hyperlim import INDICATOR, StepHypergraphon, UniformHypergraph
from hyperlim.rng import _BLOCK


def cli_env(hash_seed: str) -> dict:
    """Environment for a `python -m hyperlim` child process.

    Holds only `PATH`, `PYTHONHASHSEED` and a `PYTHONPATH` pointing at the
    directory that holds the imported `hyperlim` package, so the child runs
    the same code as the test process (bare checkout, editable install or
    wheel). `PYTHONHASHSEED` is the only setting that varies: it changes the
    iteration order of every set or dict keyed by strings, so the byte tests
    check that no output depends on that order.
    """
    return {
        "PATH": os.environ.get("PATH", ""),
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": str(Path(hyperlim.__file__).resolve().parent.parent),
    }


def build_fixture_w() -> StepHypergraphon:
    """k=3 indicator at l=2: edge iff the top box and all three pair boxes are 0.

    Edge probability (1/2)**4 = 1/16; the standard fixture for the
    sampling, convergence, and regularity tests.
    """
    values = {}
    for singles in [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]:
        values[singles + (0, 0, 0, 0)] = 1.0
    return StepHypergraphon(3, 2, INDICATOR, values)


def build_half_w() -> StepHypergraphon:
    """k=2 indicator at l=2: edge iff the pair box is 0 (probability 1/2)."""
    values = {}
    for singles in [(0, 0), (0, 1), (1, 1)]:
        values[singles + (0,)] = 1.0
    return StepHypergraphon(2, 2, INDICATOR, values)


def forbid_work(monkeypatch, *targets) -> None:
    """Make each (module, function name) in targets fail the test if called.

    Pins that an argument is refused before the work it would start.
    """
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for module, name in targets:
        monkeypatch.setattr(module, name, forbidden)


def past_one_block(r: int) -> int:
    """The fewest vertices with more r-subsets than one block of ``_BLOCK`` hashed lanes."""
    return next(n for n in count(r) if comb(n, r) > _BLOCK)


def cyclic_garbage(call) -> tuple[int, int]:
    """(objects, bytes) that ``call()`` leaves for the cyclic collector alone to free.

    The collector is off for the call, so every object the call makes stays
    in generation 0, and ``gc.collect(0)`` finds exactly the unreachable
    cycles it left. A young collection leaves the free lists alone, so the
    bytes it frees are those cycles' bytes.
    """
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        call()
        held = tracemalloc.get_traced_memory()[0]
        found = gc.collect(0)
        return found, held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()


# Every step of a removal run after its image enumeration.
REMOVAL_WORK = [(hyperlim.removal, name) for name in ("_greedy", "_branch_and_bound", "hom_count")]


def triangle() -> UniformHypergraph:
    return UniformHypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])


def single_triple() -> UniformHypergraph:
    return UniformHypergraph(3, 3, [(0, 1, 2)])


def shared_pair_triples() -> UniformHypergraph:
    """Two 3-edges sharing a pair of vertices."""
    return UniformHypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])


@pytest.fixture
def fixture_w():
    return build_fixture_w()


@pytest.fixture
def half_w():
    return build_half_w()
