"""Outside-in span tracer for the hexwalk benchmark.

The tracer wraps hexwalk's public functions from the benchmark's side; no
file of the package changes.  Each wrapper is installed at every name its
callers resolve: ``hexwalk.hitting`` imports ``site_probability_curve`` and
``distribution_grid`` by name, ``hexwalk.cli`` imports the builders and the
scan functions by name, so the wrapper replaces the original object in every
hexwalk module that holds it.  Properties (the lazy ``spectrum`` and the
cached ``adjacency``) are wrapped on their class, so their spans nest inside
the curve and grid calls that trigger them.  ``numpy.linalg.eigh`` is
wrapped as a kernel span that belongs to the layer of the span that called
it.

Spans (name, layer, start, end, parent) and counts are kept in memory and
written out once the pass ends.  A span's self time is its duration minus
the durations of its direct children; since the worker is single-threaded
the children lie inside the parent, so the self times of all spans add up
to the summed durations of the top-level spans.

A target that a later refactor removes is skipped, and the metrics it fed
read zero; so does a work count whose parameter or attribute was renamed.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from collections import defaultdict

LAYERS = ("graphs", "quantum", "stochastic", "hitting", "imaging", "cli")

MODULES = tuple(f"hexwalk.{layer}" for layer in LAYERS) + ("hexwalk",)


def _nodes(a, result):
    return result.n_nodes


def _curve_cells(a, result):
    return len(a["zs"]) * a["hamiltonian"].dim


def _grid_cells(a, result):
    return len(a["ts"]) * a["generator"].dim


def _useful_rhs(a, result):
    t = float(a["t"])
    return 4 * max(1, math.ceil(t / a["params"].step)) if t > 0.0 else 0


def _parse_bytes(a, result):
    return len(a["text"].encode())


def _pixels(a, result):
    return result.rows * result.cols


def _circles(a, result):
    return len(a["mask"])


def _n3(a, result):
    return int(a["a"].shape[-1]) ** 3


NODES = {"graphs.nodes_built": _nodes}
CURVE_CELLS = {"quantum.curve_cells": _curve_cells}
GRID_CELLS = {"stochastic.grid_cells": _grid_cells}
USEFUL_RHS = {"stochastic.rhs_useful": _useful_rhs}
PARSED = {"imaging.parse_bytes": _parse_bytes, "imaging.pixels": _pixels}
CIRCLES = {"imaging.circles": _circles}

#: (module, attribute path, span name, counts).  Span names start with
#: their layer; ``counts`` maps a work-count metric to a function of the
#: call's bound arguments and its result.
TARGETS = (
    ("hexwalk.graphs", "hexagonal_graph", "graphs.build", NODES),
    ("hexwalk.graphs", "glued_tree", "graphs.build", NODES),
    ("hexwalk.graphs", "hypercube_graph", "graphs.build", NODES),
    ("hexwalk.graphs", "path_graph", "graphs.build", NODES),
    ("hexwalk.graphs", "Graph.adjacency", "graphs.adjacency", {}),
    ("hexwalk.graphs", "Graph.degrees", "graphs.adjacency", {}),
    ("hexwalk.quantum", "Hamiltonian.__init__", "quantum.operator", {}),
    ("hexwalk.quantum", "Hamiltonian.spectrum", "quantum.spectrum", {}),
    ("hexwalk.quantum", "site_probability_curve", "quantum.curve", CURVE_CELLS),
    ("hexwalk.quantum", "amplitude_grid", "quantum.evolve", {}),
    ("hexwalk.quantum", "evolve_quantum", "quantum.evolve", {}),
    ("hexwalk.stochastic", "ClassicalGenerator.__init__", "stochastic.operator", {}),
    ("hexwalk.stochastic", "ClassicalGenerator.spectrum", "stochastic.spectrum", {}),
    ("hexwalk.stochastic", "distribution_grid", "stochastic.grid", GRID_CELLS),
    ("hexwalk.stochastic", "evolve_classical", "stochastic.evolve", {}),
    ("hexwalk.stochastic", "evolve_qsw", "stochastic.qsw", USEFUL_RHS),
    ("hexwalk.stochastic", "lindblad_rhs", "stochastic.rhs", {}),
    ("hexwalk.hitting", "quantum_hitting_curve", "hitting.qscan", {}),
    ("hexwalk.hitting", "classical_hitting_curve", "hitting.chscan", {}),
    ("hexwalk.hitting", "classical_convergence_time", "hitting.converge", {}),
    ("hexwalk.hitting", "depth_sweep", "hitting.sweep", {}),
    ("hexwalk.hitting", "fit_linear", "hitting.fit", {}),
    ("hexwalk.hitting", "fit_power", "hitting.fit", {}),
    ("hexwalk.hitting", "variance_slope_1d", "hitting.variance", {}),
    ("hexwalk.imaging", "parse_image", "imaging.parse_image", PARSED),
    ("hexwalk.imaging", "parse_mask", "imaging.parse_mask", {}),
    ("hexwalk.imaging", "extract_probabilities", "imaging.extract", CIRCLES),
    ("hexwalk.cli", "main", "cli.main", {}),
)

#: Per-layer metric -> span whose summed self time it reports.
SELF_TIME_METRICS = {
    "graphs.build_s": "graphs.build",
    "graphs.adjacency_s": "graphs.adjacency",
    "quantum.eigh_s": "quantum.eigh",
    "quantum.curve_s": "quantum.curve",
    "quantum.evolve_s": "quantum.evolve",
    "stochastic.eigh_s": "stochastic.eigh",
    "stochastic.grid_s": "stochastic.grid",
    "stochastic.qsw_s": "stochastic.qsw",
    "stochastic.rhs_s": "stochastic.rhs",
    "hitting.qscan_s": "hitting.qscan",
    "hitting.converge_s": "hitting.converge",
    "hitting.chscan_s": "hitting.chscan",
    "hitting.fit_s": "hitting.fit",
    "hitting.sweep_s": "hitting.sweep",
    "imaging.parse_image_s": "imaging.parse_image",
    "imaging.parse_mask_s": "imaging.parse_mask",
    "imaging.extract_s": "imaging.extract",
    "cli.self_s": "cli.main",
}

#: Per-layer metric -> span whose number of calls it reports.
CALL_METRICS = {
    "graphs.build_calls": "graphs.build",
    "quantum.eigh_calls": "quantum.eigh",
    "quantum.curve_calls": "quantum.curve",
    "stochastic.eigh_calls": "stochastic.eigh",
    "stochastic.grid_calls": "stochastic.grid",
    "stochastic.rhs_calls": "stochastic.rhs",
    "hitting.converge_calls": "hitting.converge",
    "cli.calls": "cli.main",
}

#: Work counts recorded by the counters above (plus ``cli.bytes_written``,
#: which the worker sums from the files each CLI call wrote).
COUNT_METRICS = (
    "graphs.nodes_built",
    "quantum.eigh_n3",
    "quantum.curve_cells",
    "stochastic.eigh_n3",
    "stochastic.grid_cells",
    "imaging.parse_bytes",
    "imaging.circles",
    "imaging.pixels",
    "cli.bytes_written",
)


class Tracer:
    """Span recorder that wraps hexwalk's public functions in one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent index]
        self.stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.broken: set[str] = set()

    def _open(self, name, layer):
        parent = self.stack[-1] if self.stack else -1
        if layer is None:
            layer = self.spans[parent][1] if parent >= 0 else "unattributed"
            name = f"{layer}.{name}"
        record = [name, layer, 0.0, 0.0, parent]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter()
        return record

    def _close(self, record):
        record[3] = time.perf_counter()
        self.stack.pop()

    def _count(self, signature, args, kwargs, result, counts):
        """Add one call's work counts.

        A count whose parameter or attribute a refactor renamed is left out
        from then on, reads 0 and is listed as missing; it never changes the
        outcome of the call it counts.
        """
        try:
            bound = signature.bind(*args, **kwargs).arguments
        except TypeError:
            bound = {}
        for metric, count in counts.items():
            if metric in self.broken:
                continue
            try:
                self.counts[metric] += count(bound, result)
            except (KeyError, AttributeError, IndexError, TypeError, ValueError):
                self.broken.add(metric)

    def _wrap(self, fn, name, counts):
        layer = name.split(".", 1)[0]
        signature = inspect.signature(fn) if counts else None

        def traced(*args, **kwargs):
            record = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if counts:
                self._count(signature, args, kwargs, result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_eigh(self, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            record = self._open("eigh", None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            self._count(signature, args, kwargs, result, {f"{record[1]}.eigh_n3": _n3})
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; targets that do not exist are recorded as missing."""
        modules = [importlib.import_module(m) for m in MODULES]
        for module_name, path, name, counts in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = None if owner is None else inspect.getattr_static(owner, attr, None)
            if raw is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, property):
                setattr(owner, attr, property(self._wrap(raw.fget, name, counts)))
            elif outer:
                setattr(owner, attr, self._wrap(raw, name, counts))
            else:
                wrapped = self._wrap(raw, name, counts)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapped)
        linalg = importlib.import_module("numpy.linalg")
        linalg.eigh = self._wrap_eigh(linalg.eigh)

    def summary(self, wall: float) -> dict:
        """Per-layer metrics of everything recorded, for a pass of ``wall`` seconds."""
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_by_name: defaultdict[str, float] = defaultdict(float)
        self_by_layer = {layer: 0.0 for layer in LAYERS}
        calls: defaultdict[str, int] = defaultdict(int)
        top_level = 0.0
        all_self = 0.0
        for i, (name, layer, start, end, parent) in enumerate(self.spans):
            own = (end - start) - child_time[i]
            all_self += own
            self_by_name[name] += own
            calls[name] += 1
            if layer in self_by_layer:
                self_by_layer[layer] += own
            if parent < 0:
                top_level += end - start
        metrics = {f"{layer}.self_s": self_by_layer[layer] for layer in LAYERS}
        for metric, name in SELF_TIME_METRICS.items():
            metrics[metric] = self_by_name.get(name, 0.0)
        for metric, name in CALL_METRICS.items():
            metrics[metric] = calls.get(name, 0)
        counts = {k: v for k, v in self.counts.items() if k not in self.broken}
        for metric in COUNT_METRICS:
            metrics[metric] = counts.get(metric, 0)
        rhs_calls = calls.get("stochastic.rhs", 0)
        useful = counts.get("stochastic.rhs_useful", 0)
        metrics["stochastic.rhs_useful_ratio"] = useful / rhs_calls if rhs_calls else 0.0
        metrics["trace.wall_s"] = wall
        metrics["trace.unattributed_s"] = wall - sum(self_by_layer.values())
        return {
            "metrics": metrics,
            "spans": len(self.spans),
            # bookkeeping check: self times telescope to the top-level durations
            "self_total_s": all_self,
            "top_level_s": top_level,
            "missing_targets": self.missing + [f"count {m}" for m in sorted(self.broken)],
        }

    def dump(self, path) -> None:
        """Write the recorded spans and counts as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "layer", "start", "end", "parent"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )
