"""The three pinned workloads: inputs made from a seed, and output checks.

Standard library only, so that the measuring process never imports numpy
or paulipath itself; only the worker processes do.

Each workload is one ``paulipath`` CLI invocation.  ``make_config(seed)``
returns the JSON config the CLI reads, ``argv(cfg_path, out_path)`` the
command line, and ``parse_rows(text)`` turns the CLI's output file into a
list of row dicts.  ``row_failures`` compares rows with the stored and
computed references and says which rows fail.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

DEFAULT_SEED = 0
# Kept out of every tuning run, for confirming later claims on inputs the
# change was not written against.
HELD_OUT_SEED = 1009

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")

# Expectations may differ from the reference in the last bits, because a
# different merge order rounds sums differently; path counts must not.
EXPECTATION_ATOL = 1e-10
EXPECTATION_RTOL = 1e-9
MC_SIGMAS = 4.0
MC_BOUND_SIGMAS = 3.0


def derive_seed(workload: str, seed: int) -> int:
    """Per-workload input seed, so workloads sharing a --seed stay independent."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _center_z(n: int, site: int) -> list[dict]:
    label = ["I"] * n
    label[site] = "Z"
    return [{"pauli": "".join(label), "coeff": 1.0}]


class Workload:
    name: str
    why: str
    command: str
    fmt: str
    rows: int  # rows one invocation must produce
    # True when rows are also checked against a reference the worker
    # computes for the run's seed (``worker.lightcone_reference``).
    computed_reference = False

    def make_config(self, seed: int) -> dict:
        raise NotImplementedError

    def argv(self, cfg_path: str, out_path: str) -> list[str]:
        return [self.command, "--config", cfg_path, "--out", out_path,
                "--format", self.fmt, "--threads", "1"]

    def parse_rows(self, text: str) -> list[dict]:
        if self.fmt == "json":
            return list(json.loads(text)["result"])
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        return [{k: float(v) for k, v in row.items() if k != "wall_time"}
                for row in csv.DictReader(lines)]

    def row_problem(self, row: dict, ref: dict) -> str | None:
        raise NotImplementedError

    def samples_per_run(self) -> int:
        return 0


class TfimDynamics(Workload):
    name = "tfim4x4_dynamics"
    why = ("propagation: one 16-qubit numpy-engine frontier (peak 267k terms, "
           "auxiliary cutoffs on) recomputed once per step; no MC work")
    command = "dynamics"
    fmt = "json"
    rows = 11

    def make_config(self, seed: int) -> dict:
        # Deterministic: the series has no random input, so the seed is unused.
        return {
            "lattice": {"type": "square", "rows": 4, "cols": 4, "periodic": True},
            "J": 3.004438, "h": 1.0, "dt": 0.04, "steps": 10,
            "noise": {"kind": "amplitude_damping", "param": 0.1},
            "noise_placement": "per_step",
            "truncation": {"k": 16, "coeff_cutoff": 2.0**-23, "xy_cutoff": 5},
        }

    def row_problem(self, row, ref):
        return _exact_row_problem(row, ref, "t")


class HvaMcSweep(Workload):
    name = "hva3x3_mc_sweep"
    why = ("montecarlo: 3x3 HVA trunc_frobenius walk, 3 noise points x 4 cutoffs, "
           "1e6 samples each, one thread; no propagation work")
    command = "sweep"
    fmt = "json"
    rows = 12
    samples = 1_000_000
    noise_grid = [0.05, 0.1, 0.2]

    def make_config(self, seed: int) -> dict:
        return {
            "lattice": {"type": "square", "rows": 3, "cols": 3, "periodic": True},
            "blocks": 6,
            "noise_kind": "amplitude_damping",
            "noise_grid": self.noise_grid,
            "k_grid": [18, 20, 22, 24],
            "functional": "trunc_frobenius",
            "samples": self.samples,
            "seed": derive_seed(self.name, seed),
        }

    def row_problem(self, row, ref):
        for col in ("noise_param", "k"):
            if row.get(col) != ref[col]:
                return f"{col} {row.get(col)!r} != {ref[col]!r}"
        est, err, bound = row.get("estimate"), row.get("stderr"), row.get("theory_bound")
        if not all(_finite(v) for v in (est, err, bound)):
            return "non-finite estimate, stderr or bound"
        combined = math.hypot(err, ref["stderr"])
        if abs(est - ref["estimate"]) > MC_SIGMAS * combined:
            return f"estimate {est!r} more than {MC_SIGMAS} sigma from {ref['estimate']!r}"
        if est > bound + MC_BOUND_SIGMAS * err:
            return f"estimate {est!r} above theory bound {bound!r}"
        return None

    def samples_per_run(self) -> int:
        return self.samples * len(self.noise_grid)


class Hva80KSweep(Workload):
    name = "hva80_ksweep"
    why = ("propagation on n>64 (dict engine), weight-only cutoff, small surviving "
           "set, one rerun per k in [24,28,32,36]; angles drawn from the seed")
    command = "propagate"
    fmt = "csv"
    rows = 4
    n = 80
    computed_reference = True

    def make_config(self, seed: int) -> dict:
        return {
            "circuit": {
                "builder": "hva",
                "lattice": {"type": "chain", "n": self.n},
                "blocks": 8,
                "noise": {"kind": "amplitude_damping", "param": 0.1},
                "angles": "uniform",
            },
            "observable": _center_z(self.n, self.n // 2),
            "state": "zeros",
            "truncation": {"k": None},
            "k_sweep": [24, 28, 32, 36],
            "seed": derive_seed(self.name, seed),
        }

    def row_problem(self, row, ref):
        return _exact_row_problem(row, ref, "k")


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (TfimDynamics(), HvaMcSweep(), Hva80KSweep())
}


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _exact_row_problem(row: dict, ref: dict, key: str) -> str | None:
    if row.get(key) != ref[key]:
        return f"{key} {row.get(key)!r} != {ref[key]!r}"
    value = row.get("expectation")
    if not _finite(value):
        return "non-finite expectation"
    tol = EXPECTATION_ATOL + EXPECTATION_RTOL * abs(ref["expectation"])
    if abs(value - ref["expectation"]) > tol:
        return f"expectation {value!r} != reference {ref['expectation']!r}"
    if row.get("surviving_paths") != ref["surviving_paths"]:
        return f"surviving_paths {row.get('surviving_paths')!r} != {ref['surviving_paths']!r}"
    return None


def stored_references(workload: Workload, seed: int) -> list[list[dict]]:
    """Stored reference row lists that apply to ``seed``.

    ``rows`` applies to every seed (inputs that do not depend on it, or a
    seed-independent Monte Carlo target); ``by_seed`` holds the outputs
    for the default and the held-out seed.
    """
    with open(os.path.join(REFERENCE_DIR, f"{workload.name}.json")) as fh:
        data = json.load(fh)
    refs = []
    if "rows" in data:
        refs.append(data["rows"])
    if str(seed) in data.get("by_seed", {}):
        refs.append(data["by_seed"][str(seed)])
    return refs


def row_failures(workload: Workload, rows: list[dict] | None,
                 references: list[list[dict]]) -> list[str]:
    """One message per failed row of one invocation; empty when all pass.

    ``rows`` is None when the invocation exited non-zero, which fails all
    of its rows.  A row fails when it is missing or fails its check
    against any of the reference lists.
    """
    if rows is None:
        return [f"row {i}: invocation failed" for i in range(workload.rows)]
    if not references:
        return [f"row {i}: no reference" for i in range(workload.rows)]
    if len(rows) > workload.rows:
        return [f"row {i}: output has {len(rows)} rows, expected {workload.rows}"
                for i in range(workload.rows)]
    failures = []
    for i in range(workload.rows):
        if i >= len(rows):
            failures.append(f"row {i}: missing")
            continue
        for ref in references:
            problem = (workload.row_problem(rows[i], ref[i]) if i < len(ref)
                       else "reference has no such row")
            if problem:
                failures.append(f"row {i}: {problem}")
                break
    return failures
