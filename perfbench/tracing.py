"""Spans around the calls into each paulipath module, and per-layer metrics.

The tracer replaces a function at the module attribute its caller looks
it up by (``paulipath.experiments.backpropagate``, not the definition in
``paulipath.propagation``), so nothing inside the library changes.  Each
call records one span: name, start, end, parent span and the workload
run id, plus counts read from its arguments or result.  Spans stay in
memory until the run ends.

A span's self time is its duration minus the part of it covered by its
child spans.  A layer is the span-name prefix before the first dot,
which is the paulipath module name.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict


def _circuit_counts(args, result) -> dict:
    layers = list(result.layers) + ([result.final_layer] if result.final_layer else [])
    return {"gates": sum(len(layer.gates) for layer in layers)}


def _backprop_counts(args, result) -> dict:
    s = result.stats
    return {
        "peak_terms": s.peak_term_count,
        "surviving_terms": s.surviving_path_count,
        "discarded_weight": s.paths_discarded_by_weight,
        "discarded_coeff": s.paths_discarded_by_coeff,
        "discarded_xy": s.paths_discarded_by_xy,
        "discarded_current_weight": s.paths_discarded_by_current_weight,
    }


def _mc_counts(args, result) -> dict:
    return {"samples": result[0].samples if result else 0}


def _pauli_counts(args, result) -> dict:
    return {"terms_evaluated": len(args[0])}


# (module, attribute its caller looks up, span name, counts from (args, result))
TRACE_POINTS = [
    ("paulipath.cli", "main", "cli.main", None),
    ("paulipath.cli", "dynamics_series", "experiments.dynamics_series", None),
    ("paulipath.cli", "sweep_table", "experiments.sweep_table", None),
    ("paulipath.cli", "build_hva", "circuits.build_hva", _circuit_counts),
    ("paulipath.cli", "build_trotter_tfim", "circuits.build_trotter_tfim", _circuit_counts),
    ("paulipath.cli", "sample_circuit", "circuits.sample_circuit", _circuit_counts),
    ("paulipath.experiments", "build_hva", "circuits.build_hva", _circuit_counts),
    ("paulipath.experiments", "build_trotter_tfim", "circuits.build_trotter_tfim",
     _circuit_counts),
    ("paulipath.cli", "backpropagate", "propagation.backpropagate", _backprop_counts),
    ("paulipath.experiments", "backpropagate", "propagation.backpropagate", _backprop_counts),
    ("paulipath.propagation", "expectation_product_state", "pauli.expectation_product_state",
     _pauli_counts),
    ("paulipath.experiments", "expectation_product_state", "pauli.expectation_product_state",
     _pauli_counts),
    ("paulipath.experiments", "estimate_many", "montecarlo.estimate_many", _mc_counts),
]


class Tracer:
    """Records spans for calls made through the functions it wraps."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list = []
        self.self_s = 0.0  # time spent in the wrappers themselves

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            stack = self._stack()
            span = {"id": next(self._ids), "name": name,
                    "parent": stack[-1]["id"] if stack else None, "run": self.run_id}
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if counts is not None:
                span["counts"] = counts(args, result)
            self.self_s += (span["start"] - entered) + (time.perf_counter() - span["end"])
            return result

        return traced

    def install(self) -> None:
        """Wrap every trace point in place; ``uninstall`` puts the originals back."""
        for mod_name, attr, name, counts in TRACE_POINTS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn, counts))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children[s["id"]]):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


LAYER_METRICS = {
    # name: (unit, better)
    "propagation.backpropagate_s": ("s", "lower"),
    "propagation.calls": ("count", "lower"),
    "propagation.peak_terms": ("count", "lower"),
    "propagation.surviving_terms": ("count", "lower"),
    "propagation.discarded_weight": ("count", "lower"),
    "propagation.discarded_coeff": ("count", "lower"),
    "propagation.discarded_xy": ("count", "lower"),
    "propagation.keep_ratio": ("ratio", "higher"),
    "pauli.expectation_s": ("s", "lower"),
    "pauli.terms_evaluated": ("count", "lower"),
    "circuits.build_s": ("s", "lower"),
    "circuits.calls": ("count", "lower"),
    "circuits.gates": ("count", "lower"),
    "montecarlo.estimate_s": ("s", "lower"),
    "montecarlo.calls": ("count", "lower"),
    "montecarlo.samples": ("count", "higher"),
    "montecarlo.us_per_sample": ("us", "lower"),
    "experiments.self_s": ("s", "lower"),
    "experiments.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced invocation (``trace.*`` excepted)."""
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(int)
    peak_terms = 0
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        self_s[layer] += own[s["id"]]
        calls[layer] += 1
        for key, value in s.get("counts", {}).items():
            sums[key] += value
        if s["name"] == "propagation.backpropagate":
            peak_terms = max(peak_terms, s.get("counts", {}).get("peak_terms", 0))
    discarded = sum(sums[k] for k in ("discarded_weight", "discarded_coeff",
                                      "discarded_xy", "discarded_current_weight"))
    attempted = sums["surviving_terms"] + discarded
    return {
        "propagation.backpropagate_s": self_s["propagation"],
        "propagation.calls": calls["propagation"],
        "propagation.peak_terms": peak_terms,
        "propagation.surviving_terms": sums["surviving_terms"],
        "propagation.discarded_weight": sums["discarded_weight"],
        "propagation.discarded_coeff": sums["discarded_coeff"],
        "propagation.discarded_xy": sums["discarded_xy"],
        "propagation.keep_ratio": sums["surviving_terms"] / attempted if attempted else 0.0,
        "pauli.expectation_s": self_s["pauli"],
        "pauli.terms_evaluated": sums["terms_evaluated"],
        "circuits.build_s": self_s["circuits"],
        "circuits.calls": calls["circuits"],
        "circuits.gates": sums["gates"],
        "montecarlo.estimate_s": self_s["montecarlo"],
        "montecarlo.calls": calls["montecarlo"],
        "montecarlo.samples": sums["samples"],
        "montecarlo.us_per_sample": (1e6 * self_s["montecarlo"] / sums["samples"]
                                     if sums["samples"] else 0.0),
        "experiments.self_s": self_s["experiments"],
        "experiments.calls": calls["experiments"],
        "cli.self_s": self_s["cli"],
    }


def median_metrics(per_run: list[dict]) -> dict:
    return {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
