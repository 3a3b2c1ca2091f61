"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q

Reduced problem sizes appear here only; reported numbers always come
from the pinned workloads.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, row_failures  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(id, name, start, end, parent=None, **counts):
    s = {"id": id, "name": name, "parent": parent, "run": "t", "start": start, "end": end}
    if counts:
        s["counts"] = counts
    return s


def test_self_time_on_hand_built_tree():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "experiments.dynamics_series", 1.0, 4.0, parent=0),
        _span(2, "propagation.backpropagate", 3.0, 6.0, parent=0),  # overlaps span 1
        _span(3, "circuits.build_hva", 2.0, 2.5, parent=1),
        _span(4, "montecarlo.estimate_many", 9.0, 12.0, parent=0),  # runs past its parent
    ]
    own = tracing.self_times(spans)
    # children of 0 cover [1, 6] and [9, 10]
    assert own[0] == pytest.approx(4.0)
    assert own[1] == pytest.approx(2.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(0.5)
    assert own[4] == pytest.approx(3.0)


def test_layer_metrics_from_hand_built_spans():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "experiments.dynamics_series", 1.0, 9.0, parent=0),
        _span(2, "circuits.build_trotter_tfim", 1.0, 1.5, parent=1, gates=40),
        _span(3, "propagation.backpropagate", 1.5, 5.5, parent=1, peak_terms=7,
              surviving_terms=3, discarded_weight=2, discarded_coeff=4, discarded_xy=1,
              discarded_current_weight=0),
        _span(4, "propagation.backpropagate", 5.5, 7.5, parent=1, peak_terms=9,
              surviving_terms=5, discarded_weight=0, discarded_coeff=0, discarded_xy=0,
              discarded_current_weight=0),
        _span(5, "pauli.expectation_product_state", 7.5, 8.0, parent=1, terms_evaluated=8),
    ]
    m = tracing.layer_metrics(spans)
    assert set(m) == {k for k in tracing.LAYER_METRICS if not k.startswith("trace.")}
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["experiments.self_s"] == pytest.approx(1.0)
    assert m["propagation.backpropagate_s"] == pytest.approx(6.0)
    assert m["propagation.calls"] == 2
    assert m["propagation.peak_terms"] == 9
    assert m["propagation.surviving_terms"] == 8
    assert m["propagation.keep_ratio"] == pytest.approx(8 / 15)
    assert m["circuits.gates"] == 40
    assert m["pauli.terms_evaluated"] == 8
    assert m["montecarlo.calls"] == 0 and m["montecarlo.us_per_sample"] == 0.0


def _ref(name):
    return workloads.stored_references(WORKLOADS[name], workloads.DEFAULT_SEED)


def test_fail_ratio_exact_workloads():
    w = WORKLOADS["tfim4x4_dynamics"]
    refs = _ref(w.name)
    rows = [dict(r) for r in refs[0]]
    assert row_failures(w, rows, refs) == []
    assert len(row_failures(w, None, refs)) == w.rows  # non-zero exit fails every row

    wrong = [dict(r) for r in refs[0]]
    wrong[3]["expectation"] += 1e-6
    wrong[5]["surviving_paths"] += 1
    wrong[7]["expectation"] = math.nan
    assert len(row_failures(w, wrong, refs)) == 3
    assert len(row_failures(w, rows[:-2], refs)) == 2
    assert len(row_failures(w, rows + rows[:1], refs)) == w.rows

    # a deliberately wrong reference fails exactly the rows it disagrees with
    bad_ref = [dict(r) for r in refs[0]]
    bad_ref[2]["expectation"] *= 1.01
    assert len(row_failures(w, rows, [refs[0], bad_ref])) == 1

    # merge order may change the last bits
    close = [dict(r, expectation=r["expectation"] * (1 + 1e-14)) for r in refs[0]]
    assert row_failures(w, close, refs) == []


def test_fail_ratio_monte_carlo():
    w = WORKLOADS["hva3x3_mc_sweep"]
    refs = _ref(w.name)
    rows = [dict(r, stderr=r["stderr"] * 2) for r in refs[0]]
    assert row_failures(w, rows, refs) == []
    far = [dict(r) for r in rows]
    sigma = math.hypot(far[0]["stderr"], refs[0][0]["stderr"])
    far[0]["estimate"] += 5 * sigma
    far[1]["estimate"] += 3 * math.hypot(far[1]["stderr"], refs[0][1]["stderr"])
    assert len(row_failures(w, far, refs)) == 1
    above = [dict(r) for r in rows]
    above[4]["theory_bound"] = above[4]["estimate"] - 4 * above[4]["stderr"]
    assert len(row_failures(w, above, refs)) == 1
    assert len(row_failures(w, None, refs)) == w.rows


def test_metric_names_and_benchmark_file():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = ([w["name"] for w in bench["workloads"]] + [m["name"] for m in bench["end_to_end"]]
             + [m["name"] for m in bench["per_layer"]])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == \
        tracing.LAYER_METRICS
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in bench["end_to_end"] + bench["per_layer"])


def test_inputs_follow_the_seed():
    for name in ("hva3x3_mc_sweep", "hva80_ksweep"):
        w = WORKLOADS[name]
        assert w.make_config(3) == w.make_config(3)
        assert w.make_config(3)["seed"] != w.make_config(4)["seed"]
    tfim = WORKLOADS["tfim4x4_dynamics"]
    assert tfim.make_config(3) == tfim.make_config(4)


def test_tracer_on_reduced_dynamics(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import paulipath.cli
    import paulipath.experiments

    original = paulipath.experiments.backpropagate
    cfg = dict(WORKLOADS["tfim4x4_dynamics"].make_config(0), steps=3,
               lattice={"type": "square", "rows": 2, "cols": 2, "periodic": True})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    tracer = tracing.Tracer("reduced")
    tracer.install()
    try:
        rc = paulipath.cli.main(["dynamics", "--config", str(cfg_path),
                                 "--out", str(tmp_path / "out.json")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert paulipath.experiments.backpropagate is original
    m = tracing.layer_metrics(tracer.spans)
    assert m["propagation.calls"] == 3
    assert m["circuits.calls"] == 3
    assert m["experiments.calls"] == 1
    assert m["pauli.terms_evaluated"] > 0
    assert all(s["run"] == "reduced" for s in tracer.spans)
    assert 0.0 < tracer.self_s < sum(s["end"] - s["start"] for s in tracer.spans)


def test_lightcone_reference_matches_dict_engine(tmp_path):
    import worker

    w = WORKLOADS["hva80_ksweep"]
    cfg = w.make_config(5)
    cfg["circuit"]["blocks"] = 2
    cfg["k_sweep"] = [8, 10]
    cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "out.csv"
    cfg_path.write_text(json.dumps(cfg))
    assert worker.paulipath.cli.main(w.argv(str(cfg_path), str(out_path))) == 0
    rows = w.parse_rows(out_path.read_text())
    ref = worker.lightcone_reference(cfg)
    assert len(rows) == len(ref) == 2
    assert all(w.row_problem(r, q) is None for r, q in zip(rows, ref))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hva80_ksweep",
                           "--seed", "0", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
