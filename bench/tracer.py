"""Span tracer for one hyperlim CLI invocation, plus the self-time arithmetic.

Usage: python3 bench/tracer.py SPANS_OUT INVOCATION_ID -- CLI_ARGS...

The tracer wraps the public functions of hyperlim's modules from outside
the package, then calls ``hyperlim.cli.main(CLI_ARGS)`` and writes the
spans it recorded to SPANS_OUT as JSON. A function is rebound in every
hyperlim module that imported it by name (``derive`` lives in ``rng``,
``cli`` and ``regularity``), so calls through any binding are seen.

Spans carry name, start, end, parent span and invocation id, and stay in
memory until the invocation ends. Hot leaf functions (``derive``,
``eval_box``, ``canonicalize``) are not spans: each keeps a call count and
accumulated time per (owning span, name, enclosing leaf). Leaf time is
wall time on the main thread. On worker threads it is that thread's CPU
time, because wall time there includes waiting for the interpreter lock
while a sibling worker runs; a worker's leaves belong to the span the
main thread has open.

A span's self time is its duration minus the part covered by its child
spans and minus the leaf time charged directly to it.
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
import time
from itertools import combinations, count
from math import comb

# Spans: (module, attribute, span name). parse_hypergraphon lives in
# hypergraphon but is the same parsing layer as parse_hypergraph.
SPANS = (
    ("cli", "main", "cli"),
    ("core", "parse_hypergraph", "core.parse"),
    ("hypergraphon", "parse_hypergraphon", "core.parse"),
    ("hypergraphon", "sample_w_random", "hypergraphon.sample_w_random"),
    ("hypergraphon", "serialize_latents", "hypergraphon.serialize_latents"),
    ("hypergraphon", "exact_density", "hypergraphon.exact_density"),
    ("hypergraphon", "mc_density", "hypergraphon.mc_density"),
    ("homomorphism", "hom_count", "homomorphism.hom_count"),
    ("homomorphism", "enumerate_hom_images", "homomorphism.enumerate_hom_images"),
    ("regularity", "sampled_cylinder_family", "regularity.sampled_cylinder_family"),
    ("regularity", "regularity_deviation", "regularity.regularity_deviation"),
    ("regularity", "latent_hyperpartition", "regularity.latent_hyperpartition"),
    ("regularity", "cell_approximation", "regularity.cell_approximation"),
    ("removal", "exact_hitting_set", "removal.exact_hitting_set"),
    ("removal", "removal_experiment", "removal.removal_experiment"),
)

# Hot leaves: (module, class or None, attribute, leaf name).
LEAVES = (
    ("rng", None, "derive", "rng.derive"),
    ("hypergraphon", "StepHypergraphon", "eval_box", "hypergraphon.eval_box"),
    ("core", "SubsetIndexing", "canonicalize", "core.canonicalize"),
)


def _support_size(pattern) -> int:
    # Size of the simplicial support: distinct nonempty subsets of edges.
    return len({s for e in pattern.edges for r in range(1, len(e) + 1) for s in combinations(e, r)})


# Work counts read at the span boundary from bound arguments and the return value.
COUNTERS = {
    "hypergraphon.sample_w_random": lambda a, ret: {
        "latents": len(ret.latents), "edge_tests": comb(a["n"], a["w"].k)},
    "hypergraphon.exact_density": lambda a, ret: {
        "boxes": a["w"].resolution ** _support_size(a["pattern"])},
    "hypergraphon.mc_density": lambda a, ret: {"samples": ret.n_samples},
    "homomorphism.enumerate_hom_images": lambda a, ret: {"images": len(ret.images)},
    "regularity.sampled_cylinder_family": lambda a, ret: {"cylinders": len(ret)},
    "regularity.regularity_deviation": lambda a, ret: {
        "r": a["cyl"].arity, "admitted": int(ret is not None)},
    "removal.exact_hitting_set": lambda a, ret: {"optimal": int(ret[1])},
}


class Tracer:
    """Records spans and leaf aggregates for one invocation."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[dict] = []
        self._ids = count()
        self._local = threading.local()
        self._main_stack: list = []
        self._tables: list[dict] = []  # one leaf table per thread, merged at the end
        self._tables_lock = threading.Lock()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            table: dict = {}
            with self._tables_lock:
                self._tables.append(table)
            if threading.current_thread() is threading.main_thread():
                state = (self._main_stack, table, time.perf_counter, None)
            else:
                state = ([], table, time.thread_time, self._main_stack)
            self._local.state = state
        return state

    @staticmethod
    def _owner(stack, main_stack):
        # Frames are [is_leaf, name, owning span id, child leaf time].
        if stack:
            return stack[-1]
        if main_stack:
            return main_stack[-1]
        return None

    def span(self, name: str, fn):
        sig = inspect.signature(fn)
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            stack, _, _, main_stack = self._state()
            parent = self._owner(stack, main_stack)
            sid = next(self._ids)
            record = {"id": sid, "name": name, "inv": self.invocation,
                      "parent": None if parent is None else parent[2]}
            stack.append([False, name, sid, 0.0])
            ok = False
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                record["end"] = time.perf_counter()
                stack.pop()
                if ok and counter is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    try:
                        record["counts"] = counter(bound.arguments, result)
                    except (KeyError, AttributeError, TypeError):
                        pass  # a changed signature loses the counts, never the run
                self.spans.append(record)

        return wrapper

    def leaf(self, name: str, fn):
        def wrapper(*args, **kwargs):
            stack, table, clock, main_stack = self._state()
            parent = self._owner(stack, main_stack)
            frame = [True, name, None if parent is None else parent[2], 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                under = None
                # Only a leaf frame of this thread's own stack can enclose a leaf.
                if stack and parent[0]:
                    under = parent[1]
                    parent[3] += elapsed
                key = (frame[2], name, under)
                entry = table.get(key)
                if entry is None:
                    table[key] = [1, elapsed, elapsed - frame[3]]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[3]

        return wrapper

    def install(self) -> None:
        """Wrap every target in every hyperlim module that bound it by name."""
        import hyperlim.cli  # noqa: F401  (the package and cli import every other module)

        modules = [m for k, m in sys.modules.items() if k == "hyperlim" or k.startswith("hyperlim.")]
        for mod_name, attr, name in SPANS:
            original = getattr(sys.modules.get(f"hyperlim.{mod_name}"), attr, None)
            if original is not None:
                _rebind(modules, original, self.span(name, original))
        for mod_name, cls_name, attr, name in LEAVES:
            module = sys.modules.get(f"hyperlim.{mod_name}")
            owner = getattr(module, cls_name, None) if cls_name else module
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self.leaf(name, original)
            if cls_name:
                setattr(owner, attr, wrapper)
            else:
                _rebind(modules, original, wrapper)

    def leaves(self) -> list[list]:
        merged: dict = {}
        for table in self._tables:
            for key, (calls, total, own) in table.items():
                entry = merged.setdefault(key, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return [[owner, name, under, *vals] for (owner, name, under), vals in merged.items()]


def _rebind(modules, original, wrapper) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


# -- analysis -----------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_self_times(spans: list[dict], leaves: list[list]) -> dict[int, float]:
    """Self time of every span: duration minus child-span cover minus direct leaf time."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    leaf_time: dict[int, float] = {}
    for owner, _name, under, _calls, total, _own in leaves:
        if owner is not None and under is None:
            leaf_time[owner] = leaf_time.get(owner, 0.0) + total
    return {
        s["id"]: (s["end"] - s["start"])
        - covered(children.get(s["id"], []), s["start"], s["end"])
        - leaf_time.get(s["id"], 0.0)
        for s in spans
    }


def main() -> int:
    out_path, invocation, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT INVOCATION_ID -- CLI_ARGS...")
    import hyperlim.cli

    tracer = Tracer(invocation)
    tracer.install()
    code = 1
    try:
        code = hyperlim.cli.main(argv)
    finally:
        doc = {"invocation": invocation, "argv": argv, "exit": code,
               "spans": tracer.spans, "leaves": tracer.leaves()}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
