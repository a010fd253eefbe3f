"""Spans around the gsnmf package's public functions, recorded from outside.

A ``Tracer`` rebinds every public function of the package's layer modules,
on every gsnmf module object that holds it, so the caller's own lookup
(``engine`` imports ``digamma`` by name, ``pipeline`` imports ``fit`` and
``project_matrix`` by name) reaches the wrapper. Nothing under ``src/`` is
edited. Spans stay in memory as plain tuples and are written once, when the
traced command has finished.

``layer_metrics`` turns the spans of one command into the per-layer
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time

# The package's modules in dependency order; each is one layer of the trace.
LAYERS = ("numerics", "model", "engine", "projection", "pipeline", "io", "cli")

# A span: (name, start, end, parent index or -1, counts dict or None).


def _nbytes_arg(index):
    return lambda args, result: {"bytes": os.path.getsize(args[index])}


def _sweep_flop(args, result):
    # 6 V I T per sweep: three (V,I)x(I,T)-sized products in the allocation
    # step, 2 flops per multiply-add. Computed from the shapes, not counted.
    V, I = args[0].E_t.shape
    T = args[0].E_v.shape[1]
    return {"flop": 6 * V * I * T}


# Counts taken from the arguments or the returned value, after the span ends.
COUNTERS = {
    "numerics.digamma": lambda args, result: {"elems": getattr(args[0], "size", 1)},
    "numerics.log_gamma": lambda args, result: {"elems": getattr(args[0], "size", 1)},
    "engine.update_sweep": _sweep_flop,
    "projection.nnls": lambda args, result: {
        "iterations": result.iterations,
        "optimal": int(result.optimal),
    },
    "projection.project_matrix": lambda args, result: {"columns": args[1].shape[1]},
    "io.load_matrix": _nbytes_arg(0),
    "io.load_model": _nbytes_arg(0),
    "io.save_matrix": _nbytes_arg(1),
    "io.save_model": _nbytes_arg(1),
}


class Tracer:
    """Records nested call spans of rebound functions in one process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            done = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                counts = count(args, result) if count and done else None
                self.spans[index] = (name, start, end, parent, counts)

        return traced

    def install(self):
        """Rebind each layer's public functions wherever gsnmf modules hold them."""
        modules = [importlib.import_module("gsnmf")] + [
            importlib.import_module(f"gsnmf.{layer}") for layer in LAYERS
        ]
        for layer in LAYERS:
            module = importlib.import_module(f"gsnmf.{layer}")
            for name in ["main"] if layer == "cli" else module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{name}", fn)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapper)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent, _), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for s, e in sorted(kids):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With fewer than 11 samples no percentile has ten beyond it; the median
    stands in and the percentile reads 50.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    if n < 11:
        return statistics.median(values), 50.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced command (zeros for layers not reached)."""
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    for (name, start, end, _, counts), own in zip(spans, selfs):
        agg = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "durations": [], "counts": {}})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += own
        agg["durations"].append(end - start)
        for key, value in (counts or {}).items():
            agg["counts"][key] = agg["counts"].get(key, 0) + value

    def get(name, key):
        agg = by_name.get(name)
        if agg is None:
            return 0
        return agg["counts"].get(key, 0) if key not in agg else agg[key]

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for fn in ("numerics.digamma", "numerics.log_gamma"):
        for key in ("calls", "elems", "self_s"):
            m[f"{fn}.{key}"] = get(fn, key)
        m[f"{fn}.ns_per_elem"] = 1e9 * ratio(get(fn, "self_s"), get(fn, "elems"))

    for key in ("calls", "self_s", "total_s"):
        m[f"engine.variational_bound.{key}"] = get("engine.variational_bound", key)
    m["engine.bound_per_sweep"] = ratio(
        get("engine.variational_bound", "calls"), get("engine.update_sweep", "calls")
    )
    for key in ("calls", "self_s"):
        m[f"engine.update_sweep.{key}"] = get("engine.update_sweep", key)
    m["engine.update_sweep.gflop"] = get("engine.update_sweep", "flop") / 1e9
    m["engine.update_sweep.gflops"] = ratio(
        m["engine.update_sweep.gflop"], m["engine.update_sweep.self_s"]
    )

    def timing(fn):
        durations = by_name.get(fn, {}).get("durations", [])
        m[f"{fn}.p50_s"] = statistics.median(durations) if durations else 0.0
        m[f"{fn}.ptail_s"], m[f"{fn}.ptail_pct"] = tail(durations)

    m["engine.fit.calls"] = get("engine.fit", "calls")
    m["engine.fit.total_s"] = get("engine.fit", "total_s")
    timing("engine.fit")
    m["engine.multi_restart_fit.total_s"] = get("engine.multi_restart_fit", "total_s")

    for key in ("calls", "columns", "total_s"):
        m[f"projection.project_matrix.{key}"] = get("projection.project_matrix", key)
    m["projection.nnls.calls"] = get("projection.nnls", "calls")
    m["projection.nnls.self_s"] = get("projection.nnls", "self_s")
    m["projection.nnls.iterations"] = get("projection.nnls", "iterations")
    m["projection.nnls.iters_per_call"] = ratio(
        get("projection.nnls", "iterations"), get("projection.nnls", "calls")
    )
    m["projection.nnls.optimal_frac"] = ratio(
        get("projection.nnls", "optimal"), get("projection.nnls", "calls")
    )
    timing("projection.nnls")

    m["pipeline.evaluate.total_s"] = get("pipeline.evaluate", "total_s")
    m["pipeline.evaluate.self_s"] = get("pipeline.evaluate", "self_s")
    m["pipeline.stratified_folds.self_s"] = get("pipeline.stratified_folds", "self_s")
    for key in ("calls", "self_s"):
        m[f"pipeline.knn_cosine_classify.{key}"] = get("pipeline.knn_cosine_classify", key)

    for key in ("calls", "self_s"):
        m[f"model.as_data_matrix.{key}"] = get("model.as_data_matrix", key)
    for key in ("calls", "self_s", "bytes"):
        m[f"io.load_matrix.{key}"] = get("io.load_matrix", key)
    m["io.load_model.self_s"] = get("io.load_model", "self_s")
    for fn in ("io.save_model", "io.save_matrix"):
        m[f"{fn}.self_s"] = get(fn, "self_s")
        m[f"{fn}.bytes"] = get(fn, "bytes")

    m["cli.main.total_s"] = get("cli.main", "total_s")
    m["cli.main.self_s"] = get("cli.main", "self_s")
    m["trace.coverage"] = ratio(sum(selfs), m["cli.main.total_s"])
    return m
