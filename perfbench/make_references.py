"""Write perfbench/references/*.json from the program as it is now.

    python3 perfbench/make_references.py

Run it only at a commit whose outputs are known to be right: the
benchmark fails every later commit whose rows disagree with these.

- ``tfim4x4_dynamics``: the series, which has no random input.
- ``hva80_ksweep``: the rows for the default and the held-out seed.
- ``hva3x3_mc_sweep``: one sweep with ``MC_REFERENCE_SAMPLES`` samples
  per point and its own seed; estimates for any benchmark seed are
  checked against it within their combined standard error.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import paulipath.cli  # noqa: E402

from workloads import DEFAULT_SEED, HELD_OUT_SEED, REFERENCE_DIR, WORKLOADS  # noqa: E402

MC_REFERENCE_SAMPLES = 8_000_000
MC_REFERENCE_SEED = 20250123


def cli_rows(workload, cfg: dict) -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "config.json")
        out_path = os.path.join(tmp, "out." + workload.fmt)
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        rc = paulipath.cli.main(workload.argv(cfg_path, out_path))
        if rc != 0:
            raise SystemExit(f"{workload.name}: paulipath exited with {rc}")
        with open(out_path) as fh:
            return workload.parse_rows(fh.read())


def main() -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    refs = {}

    tfim = WORKLOADS["tfim4x4_dynamics"]
    refs[tfim.name] = {"rows": cli_rows(tfim, tfim.make_config(DEFAULT_SEED))}

    hva80 = WORKLOADS["hva80_ksweep"]
    refs[hva80.name] = {"by_seed": {
        str(seed): cli_rows(hva80, hva80.make_config(seed))
        for seed in (DEFAULT_SEED, HELD_OUT_SEED)}}

    mc = WORKLOADS["hva3x3_mc_sweep"]
    cfg = dict(mc.make_config(DEFAULT_SEED), samples=MC_REFERENCE_SAMPLES,
               seed=MC_REFERENCE_SEED)
    refs[mc.name] = {"samples": MC_REFERENCE_SAMPLES, "seed": MC_REFERENCE_SEED,
                     "rows": cli_rows(mc, cfg)}

    for name, data in refs.items():
        with open(os.path.join(REFERENCE_DIR, f"{name}.json"), "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
