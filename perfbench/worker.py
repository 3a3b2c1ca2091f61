"""One measured process: set up a workload, run it once, report one JSON line.

    python3 perfbench/worker.py {setup,run,reference} --workload NAME --seed N
        --workdir DIR --t0 MONOTONIC [--trace RUN_ID]

``setup`` starts the interpreter, imports paulipath and writes the
workload's config; it reports ``setup_s``, the time since ``--t0`` (the
parent's CLOCK_MONOTONIC reading taken just before it started this
process).  ``run`` does the same set-up and then calls
``paulipath.cli.main`` in-process, reporting wall and CPU time of that
call, the process's peak RSS and the output rows.  With ``--trace`` the
call runs with spans around each module boundary.  ``reference`` computes
an independent reference for ``hva80_ksweep`` (see ``lightcone_reference``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402

import paulipath  # noqa: E402
import paulipath.cli  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def lightcone_reference(cfg: dict) -> list[dict]:
    """k-sweep rows of an 80-qubit HVA config from the numpy engine.

    The CLI runs n > 64 on the dict engine.  The backward light cone of
    the centre Z covers far fewer than 64 sites, and gates outside it act
    on the identity (the adjoint of every channel is unital), so the same
    rows follow from the circuit restricted to the light cone, on the
    numpy engine.  Terms and weights are the same; sums may round
    differently.
    """
    from paulipath import (Chain, Circuit, Layer, PauliRotation, PauliString, PauliSum,
                           ProductState, TruncationConfig, backpropagate, build_hva,
                           expectation, make_amplitude_damping, sample_circuit)

    spec = cfg["circuit"]
    template = build_hva(Chain(spec["lattice"]["n"]),
                         make_amplitude_damping(spec["noise"]["param"]), spec["blocks"])
    circuit = sample_circuit(template, cfg["seed"])
    obs = PauliSum.from_json_obj(cfg["observable"])
    (centre,) = [q for q, ch in enumerate(cfg["observable"][0]["pauli"]) if ch != "I"]
    cone = {centre}
    for layer in reversed(circuit.layers):
        for g in layer.gates:
            if cone.intersection(g.support):
                cone.update(g.support)
    sites = sorted(cone)
    index = {q: i for i, q in enumerate(sites)}
    layers = []
    for layer in circuit.layers:
        gates = tuple(PauliRotation(g.generator, tuple(index[q] for q in g.support), g.angle)
                      for g in layer.gates if cone.issuperset(g.support))
        noise = None if layer.noise is None else tuple(layer.noise[q] for q in sites)
        layers.append(Layer(gates, noise))
    small = Circuit(len(sites), tuple(layers))
    (coeff,) = [c for _, c in obs.items()]
    small_obs = PauliSum(len(sites), [(PauliString.single(len(sites), index[centre], "Z"), coeff)])
    state = ProductState.zeros(len(sites))
    rows = []
    for k in cfg["k_sweep"]:
        res = backpropagate(small, small_obs, TruncationConfig(path_weight_cutoff=int(k)),
                            engine="numpy")
        rows.append({"k": float(k), "expectation": expectation(res, state),
                     "surviving_paths": float(res.stats.surviving_path_count)})
    return rows


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "reference"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", default=None, help="run id recorded on every span")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    cfg = workload.make_config(args.seed)
    cfg_path = os.path.join(args.workdir, "config.json")
    out_path = os.path.join(args.workdir, "out." + workload.fmt)
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    report = {"setup_s": time.monotonic() - args.t0, "numpy": numpy.__version__,
              "paulipath": paulipath.__version__}

    if args.mode == "reference":
        report["rows"] = lightcone_reference(cfg)
    elif args.mode == "run":
        tracer = None
        if args.trace is not None:
            tracer = tracing.Tracer(args.trace)
            tracer.install()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = paulipath.cli.main(workload.argv(cfg_path, out_path))
        except Exception:  # an escaped exception fails the invocation, like a non-zero exit
            traceback.print_exc()
            rc = -1
        report["wall_s"] = time.perf_counter() - t0
        report["cpu_s"] = time.process_time() - cpu0
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["rc"] = rc
        report["rows"] = None
        if rc == 0:
            with open(out_path) as fh:
                report["rows"] = workload.parse_rows(fh.read())
        if tracer is not None:
            report["spans"] = tracer.spans
            report["layers"] = dict(tracing.layer_metrics(tracer.spans),
                                    **{"trace.self_s": tracer.self_s})
    print(json.dumps(report))


if __name__ == "__main__":
    main()
