"""paulipath benchmark: time the CLI on pinned workloads and check its outputs.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload is one ``paulipath`` CLI invocation (see ``workloads.py``),
run through ``paulipath.cli.main`` inside a fresh worker process, so that
peak RSS and set-up time belong to that workload alone.  The run repeats
the invocation, one process after another, until the next one would end
after ``--seconds``; it always makes at least one (two with ``--trace 1``).
Before that, ``SETUP_SAMPLES`` processes only set up.  This process never
imports numpy or paulipath and starts one worker at a time; workers run
single-threaded.

End-to-end metrics (``--trace 0``), medians over the run's invocations:

- ``wall_s``: wall time of ``cli.main``, set-up excluded.
- ``cpu_s``: user plus system CPU time of the worker during ``cli.main``.
- ``setup_s``: interpreter start, ``import paulipath`` and writing the
  workload's config, over every worker of the run.
- ``peak_rss_mb``: ``ru_maxrss`` of the worker process.

The summary lines above the JSON result also give ``fail_ratio`` (failed
rows / attempted rows) and, for ``hva3x3_mc_sweep``, ``samples_per_s``
and ``mc_time_to_1pct_s`` (``wall_s`` times the largest
``(stderr / estimate / 0.01)**2`` over the grid).  They are not in the
JSON result because they are zero or undefined on some workloads.

With ``--trace 1`` the run alternates untraced and traced invocations
and reports the per-layer metrics of ``tracing.py`` (medians over the
traced ones), plus ``trace.wall_s`` and ``trace.overhead_s`` (traced
minus untraced median wall time; on a shared machine mostly noise) and
``trace.self_s`` (time the tracer's wrappers spent on their own work,
the part of that difference tracing itself causes).  Spans go to
``perfbench/out``.

Every run writes ``perfbench/out/<workload>-seed<N>-trace<T>.json`` with
the environment (nproc, Python, numpy, git commit), every invocation and
every failed row.  The last line on stdout is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 when a
result was printed, also when rows failed; 1 when the workers could not
even set up (for example, no ``src/paulipath`` in the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import LAYER_METRICS, median_metrics
from workloads import DEFAULT_SEED, WORKLOADS, row_failures, stored_references

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
# Workers still running this long after a workload's run began are killed,
# so that one run always ends within three minutes.
RUN_DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(mode: str, workload: str, seed: int, workdir: str, deadline: float,
          trace_id: str | None = None) -> dict | None:
    """Run one worker to completion; its report, or None if it produced none."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]
    if trace_id is not None:
        cmd += ["--trace", trace_id]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True,
                              env=_child_env(), timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        print(f"{workload}: {mode} worker killed at the run deadline", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def mc_time_to_1pct(wall_s: float, rows: list[dict]) -> float:
    worst = max(((r["stderr"] / r["estimate"] / 0.01) ** 2 for r in rows if r["estimate"] > 0),
                default=float("inf"))
    return wall_s * worst


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; raises SetupFailed if no worker can set up."""
    workload = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        setups = []
        for _ in range(SETUP_SAMPLES):
            rep = spawn("setup", name, seed, workdir, deadline)
            if rep is None:
                raise SetupFailed(f"{name}: worker could not set up (is src/paulipath there?)")
            setups.append(rep["setup_s"])
        versions = {"numpy": rep["numpy"], "paulipath": rep["paulipath"]}

        runs = []  # (traced, report or None)
        begin = time.monotonic()
        while True:
            traced = trace and len(runs) % 2 == 1
            trace_id = f"{name}:{seed}:{len(runs)}" if traced else None
            runs.append((traced, spawn("run", name, seed, workdir, deadline, trace_id)))
            now = time.monotonic()
            per_run = (now - begin) / len(runs)
            if now + per_run > deadline or (len(runs) >= 1 + trace
                                            and now + per_run - begin > seconds):
                break

        refs = stored_references(workload, seed)
        if workload.computed_reference:
            rep = spawn("reference", name, seed, workdir, deadline)
            # without the computed reference no row can be checked, so all fail
            refs = (refs + [rep["rows"]]) if rep is not None else []

    attempted = failed = 0
    failures = []
    for i, (_, rep) in enumerate(runs):
        bad = row_failures(workload, rep["rows"] if rep else None, refs)
        attempted += workload.rows
        failed += len(bad)
        failures += [f"invocation {i}: {msg}" for msg in bad]

    done = [(t, r) for t, r in runs if r is not None]
    plain = [r for t, r in done if not t]
    traced_reps = [r for t, r in done if t]
    if not plain or (trace and not traced_reps):
        raise SetupFailed(f"{name}: no invocation produced a report")
    wall = statistics.median(r["wall_s"] for r in plain)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "setup_s": statistics.median(setups + [r["setup_s"] for _, r in done]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    extra = {"fail_ratio": (failed / attempted, "ratio")}
    if workload.samples_per_run():
        extra["samples_per_s"] = (workload.samples_per_run() / wall, "1/s")
        good_rows = [r["rows"] for r in plain if r["rows"] and len(r["rows"]) == workload.rows]
        if good_rows:
            extra["mc_time_to_1pct_s"] = (mc_time_to_1pct(wall, good_rows[0]), "s")
    layers = None
    if trace:
        layers = median_metrics([r["layers"] for r in traced_reps])
        layers["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced_reps)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall

    result = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "elapsed_s": time.monotonic() - start,
        "environment": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform(), "git_commit": git_commit(),
                        **versions},
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "per_layer": None if layers is None else {
            k: {"value": layers[k], "unit": LAYER_METRICS[k][0]} for k in LAYER_METRICS},
        "setup_samples_s": setups,
        "invocations": [
            {"traced": t, **({k: v for k, v in r.items() if k != "spans"} if r else {})}
            for t, r in runs],
        "failures": failures,
    }
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    if trace:
        with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.jsonl"), "w") as fh:
            for r in traced_reps:
                for span in r["spans"]:
                    fh.write(json.dumps(span) + "\n")
    return result


def summary(result: dict) -> list[str]:
    n_runs = len(result["invocations"])
    lines = [f"{result['workload']} seed={result['seed']} trace={result['trace']}: "
             f"{n_runs} invocations, {result['attempted'] - result['failed']}/"
             f"{result['attempted']} rows correct, nproc={result['environment']['nproc']}"]
    shown = dict(result["end_to_end"], **result["extra"])
    if result["per_layer"] is not None:
        shown = dict(result["per_layer"], **{"fail_ratio": result["extra"]["fail_ratio"]})
    for key, m in shown.items():
        lines.append(f"  {key:<30} {m['value']:.6g} {m['unit']}")
    for msg in result["failures"][:10]:
        lines.append(f"  FAILED {msg}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # SystemExit inside subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(measure(name, args.seed, args.seconds, bool(args.trace)))
            for line in summary(results[-1]):
                print(line, flush=True)
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + k: v
               for r in results for k, v in r[section].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
