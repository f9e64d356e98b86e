"""Per-layer tracing of flaglift from outside the program.

``install`` wraps the public functions of ``zmod``, ``surface``,
``cohomology``, ``flags``, ``lifting``, ``oracle`` and ``repfile`` at run
time; no file of the program changes.  A free function is bound by
``from .x import y`` in every module that uses it, so its wrapper is
installed under every name, in every module namespace, that holds the
original object.  Methods are wrapped once, on their class.

Each wrapped call records a span (id, layer, start, end, parent span, op
id) and adds to its layer's call count and self time; self time is the
call's duration minus the time of the wrapped calls inside it, so the self
times of all layers never sum to more than the traced wall time.  The
``zmod`` kernels run hundreds of thousands of times per run: they add to
the same counts and times but emit no spans, and ``RMatrix`` construction
is only counted (its time stays with the caller).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from dataclasses import dataclass

from flaglift import cohomology, flags, lifting, oracle, repfile, surface, zmod

_COMPLEX_OF = cohomology.complex_of  # the lru_cache object, before any wrapping


@dataclass(frozen=True)
class Layer:
    name: str  # metric prefix, <layer>.<function>
    targets: tuple  # (owner, attribute): a module (free function) or a class (method)
    kind: str  # "span", "kernel" (no spans) or "count" (calls only)
    expect: tuple[str, ...]  # workloads on which the layer must record calls


_ALL = ("lift-battery", "h-ladder", "oracle-audit")
_LIFT = ("lift-battery",)
_ORACLE = ("oracle-audit",)

LAYERS = (
    Layer("zmod.rmatrix", ((zmod.RMatrix, "__post_init__"),), "count", _ALL),
    Layer("zmod.matmul", ((zmod.RMatrix, "__matmul__"),), "kernel", _ALL),
    Layer("zmod.inverse", ((zmod.RMatrix, "inverse"),), "kernel", _ALL),
    Layer("zmod.smithify", ((zmod, "smithify"),), "kernel", _ALL),
    # only class equality builds a SpanReducer; no workload here compares classes
    Layer("zmod.echelonize", ((zmod, "echelonize"),), "kernel", ()),
    Layer("zmod.solve", ((zmod.LinearSolver, "solve"),), "kernel", _ALL),
    Layer("zmod.quotient_data", ((zmod, "quotient_data"),), "span", ("h-ladder", "oracle-audit")),
    Layer("surface.validate",
          ((surface.SurfaceRep, "__post_init__"), (surface.GModule, "__post_init__")), "span", _ALL),
    Layer("cohomology.complex_of", ((cohomology, "complex_of"),), "span", _ALL),
    Layer("cohomology.h_groups", ((cohomology, "h_groups"),), "span", ("h-ladder", "oracle-audit")),
    Layer("cohomology.split_section", ((cohomology, "split_section"),), "span", _LIFT),
    Layer("cohomology.extension_class", ((cohomology, "extension_class"),), "span", _LIFT),
    Layer("cohomology.solve_cup", ((cohomology, "solve_cup"),), "span", _LIFT),
    Layer("flags.is_kummer", ((flags, "is_kummer"),), "span", _LIFT),
    Layer("flags.segment_extension_splits", ((flags, "segment_extension_splits"),), "span", _LIFT),
    Layer("flags.is_wound_kummer", ((flags, "is_wound_kummer"),), "span", _LIFT),
    Layer("flags.dual", ((flags.Flag, "dual"),), "span", _LIFT),
    Layer("lifting.lift_kummer", ((lifting, "lift_kummer"),), "span", _LIFT),
    Layer("lifting.lift_kummer_truncation", ((lifting, "lift_kummer_truncation"),), "span", _LIFT),
    Layer("lifting.lift_wound_kummer", ((lifting, "lift_wound_kummer"),), "span", _LIFT),
    Layer("lifting.relator_defect", ((lifting, "relator_defect"),), "span", ("lift-battery", "oracle-audit")),
    Layer("lifting.gluift", ((lifting, "gluift"),), "span", _LIFT),
    Layer("lifting.lift_rep", ((lifting, "lift_rep"),), "span", _ORACLE),
    Layer("lifting.glue", ((lifting, "glue"),), "span", ("lift-battery", "oracle-audit")),
    Layer("oracle.brute_lift", ((oracle, "brute_lift"),), "span", _ORACLE),
    Layer("oracle.brute_glue", ((oracle, "brute_glue"),), "span", _ORACLE),
    Layer("oracle.brute_h1", ((oracle, "brute_h1"),), "span", _ORACLE),
    Layer("repfile.load", ((repfile, "load_rep"),), "span", _ALL),
)

# Inclusive time, published only where a layer's own self time hides the
# kernels it drives (validation walks the relator with matmul and inverse;
# quotient_data runs one solve per relation vector).  Neither recurses.
INCLUSIVE = ("surface.validate", "zmod.quotient_data")

# Counts derived from public arguments and results, per layer.


def _madds(args, result):
    a, b = args[0], args[1]
    return a.rows * a.cols * b.cols


def _cells(args, result):
    return args[0].rows * args[0].cols


def _brute_lift_candidates(args, result):
    f = args[0]
    return f.ring.p ** (2 * f.genus * f.d * (f.d - 1) // 2)


def _brute_glue_candidates(args, result):
    e = args[0]
    return e.ring.modulus ** (2 * e.genus)


OBSERVERS = {
    "zmod.matmul": {"madds": _madds},
    "zmod.smithify": {"cells": _cells},
    "zmod.solve": {"none": lambda args, result: result is None},
    "lifting.gluift": {"obstructed": lambda args, result: result.obstruction is not None},
    "lifting.lift_wound_kummer": {"adjusted": lambda args, result: bool(result.adjusted)},
    "oracle.brute_lift": {"candidates": _brute_lift_candidates,
                          "accepted": lambda args, result: len(result)},
    "oracle.brute_glue": {"candidates": _brute_glue_candidates,
                          "accepted": lambda args, result: len(result)},
    "repfile.load": {"bytes": lambda args, result: len(args[0])},
}

# Stats the program keeps to itself; they wait for an in-program stats facility.
NOT_OBSERVABLE = {
    "flags.kummer_cache.hit_ratio":
        "is_kummer's verdict cache is a private module dict with no public counter",
    "lifting.kummer_grid.attempts":
        "the splitting-grid attempt count is a local variable of a private engine helper",
}


class Tracer:
    """Spans and per-layer counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.stack = [[0.0, 0]]  # frames: [time of wrapped calls inside, enclosing span id]
        self.calls = {layer.name: 0 for layer in LAYERS}
        self.self_s = {layer.name: 0.0 for layer in LAYERS}
        self.total_s = {layer.name: 0.0 for layer in LAYERS}
        self.extra = {name: {k: 0 for k in obs} for name, obs in OBSERVERS.items()}
        self.spans: list[tuple] = []
        self.next_id = 1
        self.op = -1
        self.bindings = {layer.name: 0 for layer in LAYERS}

    def _wrap(self, layer: Layer, fn):
        name = layer.name
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        stack, spans = self.stack, self.spans
        observers = tuple(OBSERVERS.get(name, {}).items())
        extra = self.extra.get(name)
        clock = time.perf_counter
        emit = layer.kind == "span"
        tracer = self

        if layer.kind == "count":
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if emit:
                sid = tracer.next_id
                tracer.next_id += 1
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                calls[name] += 1
                self_s[name] += dt - frame[0]
                total_s[name] += dt
                if emit:
                    spans.append((sid, name, t0, t1, parent[1], tracer.op))
            for key, observe in observers:
                extra[key] += observe(args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self, extra_modules=()) -> None:
        """Wrap every layer function under every binding that holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "flaglift" or n.startswith("flaglift.")]
        modules.extend(extra_modules)
        for layer in LAYERS:
            for owner, attr in layer.targets:
                orig = getattr(owner, attr)
                wrapped = self._wrap(layer, orig)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapped)
                    self.bindings[layer.name] += 1
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
                            self.bindings[layer.name] += 1

    def report(self) -> dict:
        """Raw per-layer numbers of the pass (counts, seconds, derived stats)."""
        info = _COMPLEX_OF.cache_info()
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "extra": self.extra,
            "complex_of_cache": {"hits": info.hits, "misses": info.misses,
                                 "size": info.currsize},
            "spans": len(self.spans),
            "bindings": self.bindings,
        }

    def write_spans(self, path: str, t_origin: float) -> None:
        """One JSON row per span: id, layer, start/end in us from t_origin, parent, op."""
        with gzip.open(path, "wt") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                row = [sid, name, round((t0 - t_origin) * 1e6), round((t1 - t_origin) * 1e6),
                       parent, op]
                fh.write(json.dumps(row) + "\n")
