"""Command-line front end.

Subcommands: channel-info, propagate, estimate, oracle, sweep, dynamics.
Every output artifact embeds the resolved configuration, the seed and a
version string so reruns are reproducible (timing columns excepted).
Exit codes: 0 success, 2 configuration error, 3 infeasible size,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time

from . import __version__
from .channels import (
    InvalidChannelError,
    Scrambler,
    TwoDesign,
    channel_from_json,
    classify,
    contraction_sq_bound,
    contraction_sq_mean,
    contraction_sq_worstcase,
)
from .circuits import (
    Circuit,
    build_hva,
    build_trotter_tfim,
    circuit_from_json,
    lattice_from_json,
    sample_circuit,
)
from .experiments import dynamics_series, sweep_table
from .montecarlo import (
    TruncFrobenius,
    TruncMSE,
    UnsupportedEnsembleError,
    Variance,
    estimate as mc_estimate,
)
from .oracle import InfeasibleSizeError, simulate_exact
from .pauli import (
    PauliSum,
    ProductState,
    QubitCountMismatch,
    config_float,
    config_int,
    config_triple,
)
from .propagation import FrontierOverflowError, TruncationConfig, backpropagate, expectation


class ConfigError(ValueError):
    pass


class _ConfigObject(dict):
    """A JSON object from the user's config; a missing key is a ConfigError."""

    def __missing__(self, key):
        raise ConfigError(f"config is missing {key!r}")


def _int_value(obj: dict, key: str, *default) -> int:
    """``obj[key]`` (or the default, if given, when absent) as an integer, else exit 2."""
    return config_int(obj.get(key, *default) if default else obj[key], repr(key))


def _float_value(obj: dict, key: str) -> float:
    """``obj[key]`` as a finite number, else exit 2."""
    return config_float(obj[key], repr(key))


def _seed(args, obj: dict, default=0) -> int:
    """The ``--seed`` option if given, else ``obj["seed"]`` (or ``default``) as an integer."""
    return args.seed if args.seed is not None else _int_value(obj, "seed", default)


def _object(obj: dict, key: str) -> dict:
    """``obj[key]`` if it is a JSON object, else exit 2 naming the key."""
    value = obj[key]
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be an object, not {value!r}")
    return value


def _lattice_and_noise(obj: dict):
    """The ``lattice`` object and the optional ``noise`` channel of a builder config."""
    noise = None if obj.get("noise") is None else channel_from_json(_object(obj, "noise"))
    return lattice_from_json(_object(obj, "lattice")), noise


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # rejected below with the other non-positive values
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return value


def _list(obj: dict, key: str, convert, kind: str) -> list:
    """``obj[key]`` as a list of ``kind``, each entry read by ``convert``; else exit 2."""
    values = obj[key]
    if not isinstance(values, list):
        raise ConfigError(f"{key!r} must be a list of {kind}, not {values!r}")
    return [convert(v, f"{key!r} entry") for v in values]


def _version_string() -> str:
    try:
        desc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip()
    except Exception:
        desc = ""
    return f"paulipath {__version__}" + (f" ({desc})" if desc else "")


def _load_config(args) -> dict:
    if not args.config:
        raise ConfigError("--config FILE is required for this command")
    try:
        with open(args.config) as fh:
            cfg = json.load(fh, object_hook=_ConfigObject)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _resolve_state(spec, n: int) -> ProductState:
    if spec in (None, "zeros"):
        return ProductState.zeros(n)
    if isinstance(spec, list):
        state = ProductState.from_vectors([config_triple(v, "'state' Bloch vector") for v in spec])
        if state.n != n:
            raise ConfigError(f"state has {state.n} qubits, circuit has {n}")
        return state
    raise ConfigError(f"unknown state spec {spec!r}")


def _resolve_circuit(cfg: dict, seed: int) -> tuple[Circuit, dict]:
    """Build the circuit (sampling templates) and return it with the resolved spec."""
    spec = cfg.get("circuit")
    if not isinstance(spec, dict):
        raise ConfigError("config needs a 'circuit' object")
    template = _circuit_template(spec)
    resolved = dict(spec)
    if template.is_template():
        template = sample_circuit(template, seed)
        resolved["sampled_with_seed"] = seed
    return template, resolved


def _circuit_template(spec: dict) -> Circuit:
    builder = spec.get("builder")
    if builder is None:
        return circuit_from_json(spec)
    lattice, noise = _lattice_and_noise(spec)
    if builder == "hva":
        angles = spec.get("angles", "uniform")
        angle = None if angles == "uniform" else config_float(angles, "'angles'")
        return build_hva(lattice, noise, _int_value(spec, "blocks"), angle)
    if builder == "trotter_tfim":
        return build_trotter_tfim(
            lattice,
            _float_value(spec, "J"),
            _float_value(spec, "h"),
            _float_value(spec, "dt"),
            _int_value(spec, "steps"),
            noise,
            spec.get("noise_placement", "per_layer"),
        )
    raise ConfigError(f"unknown builder {builder!r}")


def _resolve_observable(cfg: dict, n: int) -> PauliSum:
    spec = cfg.get("observable")
    if spec is None:
        raise ConfigError("config needs an 'observable' list")
    if not isinstance(spec, list) or not all(
        isinstance(t, dict) and isinstance(t["pauli"], str) for t in spec
    ):
        raise ConfigError(f"'observable' must be a list of {{pauli, coeff}} objects, not {spec!r}")
    obs = PauliSum.from_json_obj(spec)
    if obs.n != n:
        raise ConfigError(f"observable has {obs.n} qubits, circuit has {n}")
    return obs


def _resolve_trunc(cfg: dict) -> TruncationConfig:
    spec = cfg.get("truncation")
    if spec is None:
        return TruncationConfig()
    return TruncationConfig.from_json_obj(spec)


def _emit(args, payload: dict, rows: list[dict] | None = None) -> None:
    """Write JSON (payload, the rows as its result) or CSV (rows under config comment lines)."""
    if args.format == "json" or rows is None:
        if rows is not None:
            payload["result"] = rows
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# version: {payload['version']}\n")
        buf.write(f"# config: {json.dumps(payload['config'], sort_keys=True)}\n")
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()) if rows else payload["columns"])
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_payload(args, cfg: dict, seed: int) -> dict:
    resolved = dict(cfg)
    resolved["seed"] = seed
    return {"version": _version_string(), "config": resolved}


# --- subcommands -------------------------------------------------------------------


def cmd_channel_info(args) -> int:
    if args.channel:
        spec = json.loads(args.channel, object_hook=_ConfigObject)
    else:
        spec = _load_config(args).get("channel")
    if not isinstance(spec, dict):
        raise ConfigError("provide --channel JSON or a config with a 'channel' object")
    ch = channel_from_json(spec)
    worst, two = contraction_sq_worstcase(ch), contraction_sq_mean(ch, TwoDesign())
    info = {
        "D": list(ch.d),
        "t": list(ch.t),
        "class": classify(ch).value,
        "norm_gain_bound": contraction_sq_bound(ch.d, ch.t),
        "contraction_sq_worstcase": worst,
        "contraction_sq_two_design": two,
        "effective_rate_worstcase": 1.0 - math.sqrt(worst),
        "effective_rate_two_design": 1.0 - math.sqrt(two),
    }
    if args.eta is not None:
        info["contraction_sq_scrambler"] = contraction_sq_mean(ch, Scrambler(args.eta))
        info["effective_rate_scrambler"] = 1.0 - math.sqrt(info["contraction_sq_scrambler"])
    if info["effective_rate_worstcase"] <= 0.0:
        info["warning"] = "effective depolarizing rate is zero; no path-weight decay"
    payload = {"version": _version_string(), "config": {"channel": spec}, "result": info}
    _emit(args, payload)
    return 0


def cmd_propagate(args) -> int:
    cfg = _load_config(args)
    seed = _seed(args, cfg)
    circuit, resolved_circuit = _resolve_circuit(cfg, seed)
    observable = _resolve_observable(cfg, circuit.n)
    state = _resolve_state(cfg.get("state"), circuit.n)
    trunc = _resolve_trunc(cfg)
    payload = _base_payload(args, cfg, seed)
    payload["config"]["circuit"] = resolved_circuit

    if "k_sweep" in cfg:
        # one pass at the largest k: the run at a smaller k is its rows with w < k
        ks = _list(cfg, "k_sweep", config_int, "integers")
        if any(k <= 0 for k in ks):
            raise ConfigError(f"'k_sweep' entries must be positive, not {ks!r}")
        rows = []
        if ks:
            t0 = time.perf_counter()
            k_max = dataclasses.replace(trunc, path_weight_cutoff=max(ks))
            res = backpropagate(circuit, observable, k_max, max_terms=args.max_terms)
            for k in ks:
                kept = res.kept_below(k)
                rows.append(
                    {
                        "k": k,
                        "expectation": expectation(kept, state),
                        "surviving_paths": kept.stats.surviving_path_count,
                        "wall_time": time.perf_counter() - t0,
                    }
                )
        payload["columns"] = ["k", "expectation", "surviving_paths", "wall_time"]
        _emit(args, payload, rows)
        return 0

    res = backpropagate(circuit, observable, trunc, max_terms=args.max_terms)
    value = expectation(res, state)
    if math.isnan(value) or math.isinf(value):
        raise FloatingPointError("propagation produced a non-finite expectation")
    payload["result"] = {"expectation": value, "stats": res.stats.to_json_obj()}
    _emit(args, payload)
    return 0


def cmd_oracle(args) -> int:
    cfg = _load_config(args)
    seed = _seed(args, cfg)
    circuit, resolved_circuit = _resolve_circuit(cfg, seed)
    observable = _resolve_observable(cfg, circuit.n)
    state = _resolve_state(cfg.get("state"), circuit.n)
    payload = _base_payload(args, cfg, seed)
    payload["config"]["circuit"] = resolved_circuit
    payload["result"] = {"expectation": simulate_exact(circuit, state, observable)}
    _emit(args, payload)
    return 0


def cmd_estimate(args) -> int:
    cfg = _load_config(args)
    est = cfg.get("estimator")
    if not isinstance(est, dict):
        raise ConfigError("config needs an 'estimator' object")
    seed = _seed(args, est, cfg.get("seed", 0))
    spec = cfg.get("circuit")
    if not isinstance(spec, dict):
        raise ConfigError("config needs a 'circuit' object")
    template = _circuit_template(spec)
    observable = _resolve_observable(cfg, template.n)
    kind = est.get("functional")
    state = _resolve_state(est.get("state"), template.n)
    if kind == "variance":
        functional = Variance(state)
    elif kind == "trunc_mse":
        functional = TruncMSE(_int_value(est, "k"), state)
    elif kind == "trunc_frobenius":
        functional = TruncFrobenius(_int_value(est, "k"))
    else:
        raise ConfigError(f"unknown functional {kind!r}")
    samples = _int_value(est, "samples", 100_000)
    result = mc_estimate(template, observable, functional, samples, seed)
    payload = _base_payload(args, cfg, seed)
    payload["result"] = result.to_json_obj()
    _emit(args, payload)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    seed = _seed(args, cfg)
    lattice = lattice_from_json(_object(cfg, "lattice"))
    rows = sweep_table(
        lattice,
        _int_value(cfg, "blocks"),  # ansatz depth is always explicit
        cfg["noise_kind"],
        _list(cfg, "noise_grid", config_float, "numbers"),
        _list(cfg, "k_grid", config_int, "integers"),
        cfg.get("functional", "trunc_frobenius"),
        _int_value(cfg, "samples", 100_000),
        seed,
        threads=args.threads,
        noise_placement=cfg.get("noise_placement", "per_block"),
    )
    payload = _base_payload(args, cfg, seed)
    payload["columns"] = ["noise_param", "k", "estimate", "stderr", "theory_bound"]
    _emit(args, payload, rows)
    return 0


def cmd_dynamics(args) -> int:
    cfg = _load_config(args)
    seed = _seed(args, cfg)
    lattice, noise = _lattice_and_noise(cfg)
    rows = dynamics_series(
        lattice,
        _float_value(cfg, "J"),
        _float_value(cfg, "h"),
        _float_value(cfg, "dt"),
        _int_value(cfg, "steps", 0),
        noise,
        _resolve_trunc(cfg),
        cfg.get("noise_placement", "per_layer"),
        max_terms=args.max_terms,
    )
    payload = _base_payload(args, cfg, seed)
    payload["columns"] = ["t", "expectation", "surviving_paths"]
    _emit(args, payload, rows)
    return 0


# --- entry point --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulipath",
        description="Pauli propagation for noisy circuits: truncated backpropagation, "
        "Monte Carlo error certification and an exact dense oracle.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    common.add_argument(
        "--threads", type=int, default=os.cpu_count(), help="worker threads for grids"
    )
    common.add_argument(
        "--max-terms",
        type=_positive_int,
        default=None,
        help="abort (exit 3) if the propagation frontier outgrows this many terms",
    )
    common.add_argument("--format", choices=("csv", "json"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("channel-info", parents=[common], help="analyze one noise channel")
    p.add_argument("--channel", help="inline channel JSON")
    p.add_argument("--eta", type=float, default=None, help="scrambler slack for dephasing")
    p.set_defaults(fn=cmd_channel_info)

    for name, fn, help_text in (
        ("propagate", cmd_propagate, "truncated backpropagation of an observable"),
        ("estimate", cmd_estimate, "Monte Carlo second-moment estimation"),
        ("oracle", cmd_oracle, "exact dense simulation (small n)"),
        ("sweep", cmd_sweep, "truncation-order sweep over a noise grid"),
        ("dynamics", cmd_dynamics, "transverse-field Ising time series"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, InvalidChannelError, QubitCountMismatch,
            json.JSONDecodeError, UnsupportedEnsembleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleSizeError, FrontierOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FloatingPointError, OverflowError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
