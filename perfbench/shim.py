"""Run one ``somkit`` CLI command with every layer function traced.

Usage: python3 perfbench/shim.py TRACE.npz <somkit arguments...>

The shim wraps each public function of the layer modules (datasets,
distances, som, schedules, supervised, model_io, metrics) and installs the
wrapper under every name that refers to the function in any ``somkit``
module, because modules import functions by name: ``transform`` is patched
in ``somkit.som``, ``somkit.supervised`` and ``somkit.model_io`` alike. The
whole command runs inside one root span ``cli.<command>``.

Spans (name, start, end, parent) and per-function counters of work computed
from array shapes stay in memory and are written to TRACE.npz when the
command ends. The wrappers draw no random numbers and change no arguments,
so the command's outputs are the same as without the shim.
"""

from __future__ import annotations

import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("datasets", "distances", "som", "schedules", "supervised", "model_io", "metrics")

# floating-point operations per (row, node) pair of a BMU search over n
# features, counted from the metric's defining formula
TRANSFORM_FLOP = {
    "euclidean": lambda n: 3 * n,        # subtract, square, add
    "manhattan": lambda n: 3 * n,        # subtract, abs, add
    "tanimoto": lambda n: 8 * n,         # four boolean counts
    "mahalanobis": lambda n: 2 * n * n + 3 * n,  # d = x - w, d' C d
}


class Tracer:
    """Span and counter store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            before = hook.before(args, kwargs) if hook and hook.before else None
            starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook:
                hook.after(self, args, kwargs, result, before)
            return result

        return traced

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int32),
            span_start=np.frombuffer(self.span_start, dtype=np.float64),
            span_end=np.frombuffer(self.span_end, dtype=np.float64),
            counter_names=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=np.float64),
        )


class Hook:
    """Counters taken around one call.

    ``after(tracer, arguments, result, before)`` gets a function that binds
    the call's arguments by parameter name, so hooks that only look at the
    result pay nothing for binding.
    """

    def __init__(self, fn, after, before=None):
        self.signature = inspect.signature(fn)
        self._after = after
        self.before = before and (lambda args, kwargs: before(self.bind(args, kwargs)))

    def bind(self, args, kwargs) -> dict:
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def after(self, tracer, args, kwargs, result, before) -> None:
        self._after(tracer, lambda: self.bind(args, kwargs), result, before)


def _load_csv(t, a, result, _):
    t.count("datasets.load_csv.rows", result.n_samples)
    t.count("datasets.load_csv.bytes", os.path.getsize(a()["path"]))


def _distance_matrix(t, a, result, _):
    t.count("distances.distance_matrix.rows", len(a()["X"]))


def _kernel_matrix(t, a, h, _):
    t.count("som.kernel_matrix.active", np.count_nonzero(np.abs(h) > 1e-12))
    t.count("som.kernel_matrix.nodes", h.size)


def _online_update(t, a, grid, _):
    # the weight array read once and written once
    t.count("som.online_update.computed_bytes", 2 * grid.weights.nbytes)


def _batch_update(t, a, grid, _):
    # the (N, nodes) float64 kernel matrix between datapoints' BMUs and nodes
    n_rows = np.asarray(a()["X"]).shape[0]
    t.count("som.batch_update.computed_bytes", n_rows * grid.n_row * grid.n_column * 8)


def _transform(t, a, bmus, _):
    a = a()
    grid, X = a["grid"], np.asarray(a["X"])
    nodes, n = grid.n_row * grid.n_column, grid.feature_dim
    t.count("som.transform.rows", X.shape[0])
    t.count("som.transform.computed_flop", X.shape[0] * nodes * TRANSFORM_FLOP[a["metric"]](n))
    t.count("som.transform.computed_bytes", X.nbytes + grid.weights.nbytes + bmus.nbytes)


def _class_codes(a):
    return a["head"].codes.copy()


def _apply_class_update(t, a, head, before):
    t.count("supervised.apply_class_update.changed", np.count_nonzero(head.codes != before))
    t.count("supervised.apply_class_update.drawn", head.codes.size)


def _save_model(t, a, result, _):
    t.count("model_io.save_model.bytes", os.path.getsize(a()["path"]))


HOOKS = {
    "datasets.load_csv": (_load_csv, None),
    "distances.distance_matrix": (_distance_matrix, None),
    "som.kernel_matrix": (_kernel_matrix, None),
    "som.online_update": (_online_update, None),
    "som.batch_update": (_batch_update, None),
    "som.transform": (_transform, None),
    "supervised.apply_class_update": (_apply_class_update, _class_codes),
    "model_io.save_model": (_save_model, None),
}


def install(tracer: Tracer) -> None:
    """Replace every layer function, under all its names, with a traced wrapper."""
    import somkit.cli  # noqa: F401  imports every layer module

    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"somkit.{layer}"]
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            hook = None
            if name in HOOKS:
                after, before = HOOKS[name]
                hook = Hook(fn, after, before)
            wrapped[fn] = tracer.wrap(name, fn, hook)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "somkit" and not mod_name.startswith("somkit."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from somkit.cli import main as cli_main

    command = cli_args[0].replace("-", "_") if cli_args else "none"
    run = tracer.wrap(f"cli.{command}", cli_main)
    try:
        return run(cli_args)
    finally:
        tracer.save(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
