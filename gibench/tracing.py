"""Per-layer spans around graphbind's public functions, kept in memory.

A layer is a library function named after its module.  Instrumenting it
rebinds the function in every graphbind module that holds it, which is where
its callers look it up, so calls the library makes internally are caught as
well as the benchmark's own.  Everything is restored on exit.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# (layer, home module, function, modules to rebind in; None = every graphbind
# module that binds the function)
LAYERS = [
    ("refine.sas_step", "graphbind.refine", "sas_step", None),
    ("refine.wl_step", "graphbind.refine", "wl_step", None),
    ("refine.seed", "graphbind.refine", "seed_recognize_vertices", None),
    ("refine.stabilize", "graphbind.refine", "sas_stabilize", None),
    ("refine.stabilize", "graphbind.refine", "wl_stabilize", None),
    # The dimension and equivalence tests of the stabilization loop only.
    ("refine.fixpoint", "graphbind.refine", "dim", ("graphbind.refine",)),
    ("refine.fixpoint", "graphbind.refine", "is_equivalent", ("graphbind.refine",)),
    ("binding.wing_graph", "graphbind.binding", "wing_graph", None),
    ("binding.binding_graph", "graphbind.binding", "binding_graph", None),
    ("decide.gi_decide", "graphbind.decide", "gi_decide", None),
    ("partition.vertex_partition", "graphbind.partition", "vertex_partition", None),
    ("partition.is_equitable", "graphbind.partition", "is_equitable", None),
    ("partition.is_strongly_equitable", "graphbind.partition", "is_strongly_equitable", None),
    ("descgraph.gamma", "graphbind.descgraph", "gamma_description_graph", None),
    ("descgraph.spectral", "graphbind.descgraph", "spectral_description_graph", None),
    ("descgraph.adjoint", "graphbind.descgraph", "adjoint_description_graph", None),
    ("core.equivalent_variable_substitution", "graphbind.core", "equivalent_variable_substitution", None),
    ("oracle.automorphism_orbits", "graphbind.oracle", "automorphism_orbits", None),
    ("oracle.is_isomorphic_bruteforce", "graphbind.oracle", "is_isomorphic_bruteforce", None),
]

ROOT = "op"


def _graphbind_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "graphbind"]


@contextmanager
def rebound(make_wrapper, layers=LAYERS, checks: bool = False):
    """Replace each layer's function by make_wrapper(layer, fn) while inside.

    With checks=True the audit checks in graphbind.validate.CHECKS are
    wrapped too, as layers named validate.<check>.
    """
    undo = []
    try:
        for layer, home, attr, scope in layers:
            fn = getattr(sys.modules[home], attr)
            wrapper = make_wrapper(layer, fn)
            modules = [sys.modules[m] for m in scope] if scope else _graphbind_modules()
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        undo.append((module, name, fn))
                        setattr(module, name, wrapper)
        if checks:
            table = sys.modules["graphbind.validate"].CHECKS
            for name, (fn, kind) in list(table.items()):
                undo.append((table, name, (fn, kind)))
                table[name] = (make_wrapper(f"validate.{name}", fn), kind)
        yield
    finally:
        for target, name, original in reversed(undo):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)


class Tracer:
    """Spans of one operation: (layer, parent index, start, end)."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stable_dims: list[int] = []
        self._stack: list[int] = []

    def call(self, layer: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (layer, parent, start, end)
        if layer == "refine.stabilize":
            self.stable_dims.append(result.dims[-1])
        return result

    def wrapper(self, layer: str, fn):
        def traced(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)

        return traced

    def summary(self) -> dict:
        """Per layer: calls, total span time, and self time (a span's duration
        minus its children's)."""
        child_time = defaultdict(float)
        for layer, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        total_s: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, (layer, parent, start, end) in enumerate(self.spans):
            total_s[layer] += end - start
            self_s[layer] += end - start - child_time[index]
            calls[layer] += 1
        return {
            "total_s": dict(total_s),
            "self_s": dict(self_s),
            "calls": dict(calls),
            "stable_dims": list(self.stable_dims),
        }


class PeakRecorder:
    """Largest tracemalloc peak above the entry level of any call, per layer."""

    def __init__(self) -> None:
        self.peak_bytes: dict[str, int] = defaultdict(int)

    def wrapper(self, layer: str, fn):
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peak_bytes[layer] = max(self.peak_bytes[layer], peak)

        return measured

    @contextmanager
    def tracing(self):
        tracemalloc.start()
        try:
            with rebound(self.wrapper, [l for l in LAYERS if l[0] in ("refine.sas_step", "refine.wl_step")]):
                yield
        finally:
            tracemalloc.stop()
