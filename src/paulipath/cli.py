"""Command-line front end, and the one reader and writer of the config format.

Subcommands: channel-info, propagate, estimate, oracle, sweep, dynamics.
Every config field is read here, through the typed readers below, into the
library's model objects; a badly typed or malformed field exits 2 naming
its key.  Every output artifact embeds the resolved configuration, the
seed and a version string so reruns are reproducible (timing columns
excepted).  Exit codes: 0 success, 2 configuration error, 3 infeasible
size or out of memory, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import numbers
import os
import subprocess
import sys
import time

from . import __version__
from .channels import (
    _BUILDERS,
    InvalidChannelError,
    NormalFormChannel,
    Scrambler,
    SingleQubitPTM,
    TwoDesign,
    classify,
    contraction_sq_mean,
    contraction_sq_worstcase,
)
from .circuits import (
    Circuit,
    CliffordGate,
    Gate,
    Layer,
    PauliRotation,
    RandomSingleQubitClifford,
    Square,
    build_hva,
    build_trotter_tfim,
    sample_circuit,
)
from .experiments import dynamics_series, sweep_table
from .montecarlo import (
    TruncFrobenius,
    TruncMSE,
    Variance,
    estimate as mc_estimate,
)
from .oracle import InfeasibleSizeError, simulate_exact
from .pauli import PauliString, PauliSum, ProductState, _is_int
from .propagation import FrontierOverflowError, TruncationConfig, backpropagate, expectation


class ConfigError(ValueError):
    pass


class _ConfigObject(dict):
    """A JSON object from the user's config; a missing key is a ConfigError."""

    def __missing__(self, key):
        raise ConfigError(f"config is missing {key!r}")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return int(text)


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


def _finite(value, name: str):
    """``value`` if it holds no NaN or infinity (Python's json reads both), else exit 2 naming its key."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} holds {json.dumps(value)}, which is not a finite number")
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            _finite(child, repr(key) if isinstance(key, str) else name)
    return value


def _parse(text: str, source: str):
    """``text`` as JSON (objects as ``_ConfigObject``) with every number finite, else exit 2."""
    try:
        return _finite(json.loads(text, object_hook=_ConfigObject), source)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source} is not valid JSON: {exc}") from None


def _load_config(args) -> dict:
    if not args.config:
        raise ConfigError("--config FILE is required for this command")
    try:
        with open(args.config) as fh:
            return _as_object(_parse(fh.read(), "config"), "config")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


# --- typed readers --------------------------------------------------------------------
# A value reader takes ``(value, name)`` and a field reader ``(obj, key)``; each
# returns the value as its type or raises a ValueError (exit 2) naming the field.


def config_int(value, name: str) -> int:
    """An integer config value (not a boolean) as an int; else ``ValueError`` naming it."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


def config_count(value, name: str) -> int:
    """A positive integer config value as an int; else ``ValueError`` naming it."""
    if (count := config_int(value, name)) <= 0:
        raise ValueError(f"{name} must be a positive integer, not {value!r}")
    return count


def config_float(value, name: str) -> float:
    """A finite real config value (not a boolean) as a float; else ``ValueError`` naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, not {value!r}")
    return float(value)


def _int_value(obj: dict, key: str, *default) -> int:
    """``obj[key]`` (or the default, if given, when absent) as an integer, else exit 2."""
    return config_int(obj.get(key, *default) if default else obj[key], repr(key))


def _float_value(obj: dict, key: str) -> float:
    """``obj[key]`` as a finite number, else exit 2."""
    return config_float(obj[key], repr(key))


def _seed(args, obj: dict, default=0) -> int:
    """The ``--seed`` option if given, else ``obj["seed"]`` (or ``default``), a nonnegative integer."""
    if args.seed is not None:
        seed, name = args.seed, "--seed"
    else:
        seed, name = _int_value(obj, "seed", default), repr("seed")
    if seed < 0:
        raise ConfigError(f"{name} must be nonnegative, not {seed}")
    return seed


def _as_object(value, name: str) -> dict:
    """``value`` if it is a JSON object, else exit 2 naming it."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, not {value!r}")
    return value


def _string(obj: dict, key: str) -> str:
    """``obj[key]`` if it is a string, else exit 2 naming the key."""
    value = obj[key]
    if not isinstance(value, str):
        raise ConfigError(f"{key!r} must be a string, not {value!r}")
    return value


def _list(obj: dict, key: str, convert, kind: str, *default) -> list:
    """``obj[key]`` (or the default, if given) as a list of ``kind``, entries read by ``convert``."""
    values = obj.get(key, *default) if default else obj[key]
    if not isinstance(values, list):
        raise ConfigError(f"{key!r} must be a list of {kind}, not {values!r}")
    return [convert(v, f"{key!r} entry") for v in values]


def _optional(obj: dict, key: str, convert, default=None):
    """``obj[key]`` read by the value reader ``convert``; ``default`` when absent or null."""
    value = obj.get(key)
    return default if value is None else convert(value, repr(key))


def _triple(value, name: str) -> tuple[float, float, float]:
    """A list of three finite numbers as floats (``config_float`` each); else exit 2."""
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{name} must be a list of three numbers, not {value!r}")
    return tuple(config_float(v, f"{name} entry") for v in value)


def _pauli(value, name: str) -> PauliString:
    """A non-empty label over I, X, Y, Z (qubit 0 first) as a Pauli string, else exit 2."""
    if not isinstance(value, str) or not value or not set(value.upper()) <= set("IXYZ"):
        raise ConfigError(f"{name} must be a non-empty label over I, X, Y, Z, not {value!r}")
    return PauliString.from_label(value)


def _rotation(value, name: str) -> SingleQubitPTM:
    """A 4x4 list of numbers that is the transfer matrix of a rotation, else exit 2."""
    if not isinstance(value, list) or len(value) != 4 or not all(
        isinstance(row, list) and len(row) == 4 for row in value
    ):
        raise ConfigError(f"{name} must be a 4x4 list of numbers, not {value!r}")
    matrix = [[config_float(v, f"{name} entry") for v in row] for row in value]
    try:
        return SingleQubitPTM(matrix)
    except ValueError as exc:
        raise ConfigError(f"{name} is not a rotation: {exc}") from None


def _channel(value, name: str) -> NormalFormChannel:
    """A channel: a builder ``kind`` with its ``param``, or ``custom`` with ``D`` and ``t``.

    A custom channel's optional ``pre`` and ``post`` are rotations.
    """
    spec = _as_object(value, name)
    kind = spec.get("kind")
    if isinstance(kind, str) and kind in _BUILDERS:
        return _BUILDERS[kind](_float_value(spec, "param"))
    if kind == "custom":
        return NormalFormChannel(
            _triple(spec["D"], "'D'"),
            _triple(spec["t"], "'t'"),
            pre=_optional(spec, "pre", _rotation),
            post=_optional(spec, "post", _rotation),
        )
    kinds = ["custom", *sorted(_BUILDERS)]
    raise InvalidChannelError(f"'kind' must be one of {kinds}, not {kind!r}")


def _lattice(value, name: str) -> Square:
    """A ``chain`` of ``n`` sites or a ``square`` of ``rows`` x ``cols``, maybe ``periodic``."""
    spec = _as_object(value, name)
    kind = spec.get("type")
    periodic = spec.get("periodic", False)
    if not isinstance(periodic, bool):
        raise ConfigError(f"'periodic' must be true or false, not {periodic!r}")
    if kind == "chain":
        return Square(1, config_count(spec["n"], "'n'"), periodic)
    if kind == "square":
        return Square(_int_value(spec, "rows"), _int_value(spec, "cols"), periodic)
    raise ConfigError(f"'type' must be one of ['chain', 'square'], not {kind!r}")


def _gate(value, name: str) -> Gate:
    """A gate on its ``support``: ``rot``, ``clifford`` (by ``name``) or ``random_clifford``.

    A rotation's ``angle`` is a number, or "uniform" for a placeholder.
    """
    spec = _as_object(value, name)
    kind = spec["type"]
    kinds = ["clifford", "random_clifford", "rot"]
    if kind not in kinds:
        raise ConfigError(f"'type' must be one of {kinds}, not {kind!r}")
    support = tuple(_list(spec, "support", config_int, "integers"))
    if kind == "clifford":
        return CliffordGate(_string(spec, "name"), support)
    if kind == "random_clifford":
        if len(support) != 1:
            raise ConfigError(f"'support' of random_clifford must be one qubit, not {support!r}")
        return RandomSingleQubitClifford(support[0])
    angle = spec["angle"]
    return PauliRotation(
        _pauli(spec["generator"], "'generator'"),
        support,
        None if angle == "uniform" else config_float(angle, "'angle'"),
    )


def _circuit(spec: dict) -> Circuit:
    """A custom circuit: ``n``, ``layers`` of ``gates`` and ``noise``, and a ``final_layer``.

    A layer's noise is one channel for every qubit, or a list of channels
    and nulls, one per qubit.
    """
    n = _int_value(spec, "n")
    layers = []
    for layer in _list(spec, "layers", _as_object, "objects", []):
        noise = layer.get("noise")
        if isinstance(noise, list):
            noise = tuple(None if ch is None else _channel(ch, "'noise' entry") for ch in noise)
        elif noise is not None:
            noise = (_channel(noise, "'noise'"),) * n
        layers.append(Layer(tuple(_list(layer, "gates", _gate, "gates", [])), noise))
    final = None
    if spec.get("final_layer"):  # an empty list is no final layer
        final = Layer(tuple(_list(spec, "final_layer", _gate, "gates")))
    return Circuit(n, tuple(layers), final)


def _circuit_template(cfg: dict) -> Circuit:
    """The ``circuit`` object: a custom circuit, or a ``builder`` and its parameters."""
    spec = _as_object(cfg["circuit"], "'circuit'")
    builder = spec.get("builder")
    if builder is None:
        return _circuit(spec)
    lattice, noise = _lattice(spec["lattice"], "'lattice'"), _optional(spec, "noise", _channel)
    if builder == "hva":
        angles = spec.get("angles", "uniform")
        angle = None if angles == "uniform" else config_float(angles, "'angles'")
        placement = spec.get("noise_placement", "per_round")
        return build_hva(lattice, noise, _int_value(spec, "blocks"), angle, placement)
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
    raise ConfigError(f"'builder' must be one of ['hva', 'trotter_tfim'], not {builder!r}")


def _resolve_circuit(cfg: dict, seed: int) -> tuple[Circuit, dict]:
    """Build the circuit (sampling templates) and return it with the resolved spec."""
    template = _circuit_template(cfg)
    resolved = dict(cfg["circuit"])
    if template.is_template():
        template = sample_circuit(template, seed)
        resolved["sampled_with_seed"] = seed
    return template, resolved


def _resolve_state(spec, n: int) -> ProductState:
    """The ``state``: absent, ``"zeros"`` or one Bloch vector per qubit in the unit ball."""
    if spec in (None, "zeros"):
        return ProductState.zeros(n)
    if not isinstance(spec, list):
        raise ConfigError(f"'state' must be \"zeros\" or a list of Bloch vectors, not {spec!r}")
    if len(spec) != n:
        raise ConfigError(f"'state' has {len(spec)} Bloch vectors, but the circuit has {n} qubits")
    vectors = [_triple(v, "'state' Bloch vector") for v in spec]
    try:
        return ProductState.from_vectors(vectors)
    except ValueError as exc:  # a vector outside the unit ball
        raise ConfigError(f"'state' {exc}") from None


def _pauli_sum(terms: list[dict]) -> PauliSum:
    """``{pauli, coeff}`` terms as a Pauli sum, each coefficient a finite number."""
    return PauliSum.from_strings([(t["pauli"], config_float(t["coeff"], "'coeff'")) for t in terms])


def _resolve_observable(cfg: dict, n: int) -> PauliSum:
    """The ``observable``: ``{pauli, coeff}`` terms, each on the circuit's n qubits, not all 0."""
    terms = _list(cfg, "observable", _as_object, "{pauli, coeff} objects")
    for term in terms:
        if _pauli(term["pauli"], "'pauli'").n != n:
            raise ConfigError(f"'pauli' {term['pauli']!r} is not a label on the circuit's {n} qubits")
    if not terms:
        raise ConfigError("'observable' has no terms")
    observable = _pauli_sum(terms)
    if not observable:
        raise ConfigError("'observable' has no term with a non-zero 'coeff'")
    return observable


def _resolve_trunc(cfg: dict) -> TruncationConfig:
    """The optional ``truncation`` object; an absent or null cutoff in it is none."""
    spec = _optional(cfg, "truncation", _as_object, {})
    if (coeff := _optional(spec, "coeff_cutoff", config_float, 0.0)) < 0.0:
        raise ConfigError(f"'coeff_cutoff' must be nonnegative, not {coeff!r}")
    return TruncationConfig(
        _optional(spec, "k", config_count),
        coeff,
        _optional(spec, "xy_cutoff", config_count),
        _optional(spec, "current_weight_cutoff", config_count),
    )


# --- output --------------------------------------------------------------------------


def _emit(args, payload: dict, rows: list[dict] | None = None) -> None:
    """Write JSON (payload, the rows as its result) or CSV (rows under config comment lines)."""
    try:  # JSON has no NaN or infinity: a run that computed one failed (exit 4) and writes nothing
        json.dumps([payload, rows], allow_nan=False)
    except ValueError:
        raise FloatingPointError(f"{args.command} would write a non-finite number") from None
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


def _base_payload(cfg: dict, seed: int) -> dict:
    return {"version": _version_string(), "config": {**cfg, "seed": seed}}


# --- subcommands -------------------------------------------------------------------


def cmd_channel_info(args) -> int:
    spec = _parse(args.channel, "--channel") if args.channel else _load_config(args)["channel"]
    ch = _channel(spec, "'channel'")
    worst, two = contraction_sq_worstcase(ch), contraction_sq_mean(ch, TwoDesign())
    info = {
        "D": list(ch.d),
        "t": list(ch.t),
        "class": classify(ch).value,
        "norm_gain_bound": worst,
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


def _finite_expectation(res, state) -> float:
    if not math.isfinite(value := expectation(res, state)):
        raise FloatingPointError("propagation produced a non-finite expectation")
    return value


def cmd_propagate(args) -> int:
    cfg = _load_config(args)
    seed = _seed(args, cfg)
    circuit, resolved_circuit = _resolve_circuit(cfg, seed)
    observable = _resolve_observable(cfg, circuit.n)
    state = _resolve_state(cfg.get("state"), circuit.n)
    trunc = _resolve_trunc(cfg)
    payload = _base_payload(cfg, seed)
    payload["config"]["circuit"] = resolved_circuit

    if "k_sweep" in cfg:
        # one pass at the largest k: the run at a smaller k is its rows with w < k
        ks = _list(cfg, "k_sweep", config_count, "positive integers")
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
                        "expectation": _finite_expectation(kept, state),
                        "surviving_paths": kept.stats.surviving_path_count,
                        "wall_time": time.perf_counter() - t0,
                    }
                )
        payload["columns"] = ["k", "expectation", "surviving_paths", "wall_time"]
        _emit(args, payload, rows)
        return 0

    res = backpropagate(circuit, observable, trunc, max_terms=args.max_terms)
    value = _finite_expectation(res, state)
    payload["result"] = {"expectation": value, "stats": dataclasses.asdict(res.stats)}
    _emit(args, payload)
    return 0


def cmd_oracle(args) -> int:
    cfg = _load_config(args)
    seed = _seed(args, cfg)
    circuit, resolved_circuit = _resolve_circuit(cfg, seed)
    observable = _resolve_observable(cfg, circuit.n)
    state = _resolve_state(cfg.get("state"), circuit.n)
    payload = _base_payload(cfg, seed)
    payload["config"]["circuit"] = resolved_circuit
    payload["result"] = {"expectation": simulate_exact(circuit, state, observable)}
    _emit(args, payload)
    return 0


def cmd_estimate(args) -> int:
    cfg = _load_config(args)
    est = _as_object(cfg["estimator"], "'estimator'")
    seed = _seed(args, est, cfg.get("seed", 0))
    template = _circuit_template(cfg)
    observable = _resolve_observable(cfg, template.n)
    kind = est.get("functional")
    state = _resolve_state(est.get("state"), template.n)
    if kind == "variance":
        functional = Variance(state)
    elif kind == "trunc_mse":
        functional = TruncMSE(config_count(est["k"], "'k'"), state)
    elif kind == "trunc_frobenius":
        functional = TruncFrobenius(config_count(est["k"], "'k'"))
    else:
        kinds = ["trunc_frobenius", "trunc_mse", "variance"]
        raise ConfigError(f"'functional' must be one of {kinds}, not {kind!r}")
    samples = _int_value(est, "samples", 100_000)
    result = mc_estimate(template, observable, functional, samples, seed)
    payload = _base_payload(cfg, seed)
    payload["result"] = {
        "mean": result.mean,
        "stderr": result.standard_error,
        "samples": result.samples,
        "nonzero_fraction": result.nonzero_fraction,
        "max_reweight": result.max_reweight,
    }
    _emit(args, payload)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    seed = _seed(args, cfg)
    noise_grid = _list(cfg, "noise_grid", config_float, "numbers")
    if not all(0.0 <= p <= 1.0 for p in noise_grid):
        raise ConfigError(f"'noise_grid' entries must lie in [0, 1], not {noise_grid!r}")
    rows = sweep_table(
        _lattice(cfg["lattice"], "'lattice'"),
        _int_value(cfg, "blocks"),  # ansatz depth is always explicit
        cfg["noise_kind"],
        noise_grid,
        _list(cfg, "k_grid", config_count, "positive integers"),
        cfg.get("functional", "trunc_frobenius"),
        _int_value(cfg, "samples", 100_000),
        seed,
        noise_placement=cfg.get("noise_placement", "per_block"),
    )
    payload = _base_payload(cfg, seed)
    payload["columns"] = ["noise_param", "k", "estimate", "stderr", "theory_bound"]
    _emit(args, payload, rows)
    return 0


def cmd_dynamics(args) -> int:
    cfg = _load_config(args)
    seed = _seed(args, cfg)
    rows = dynamics_series(
        _lattice(cfg["lattice"], "'lattice'"),
        _float_value(cfg, "J"),
        _float_value(cfg, "h"),
        _float_value(cfg, "dt"),
        _int_value(cfg, "steps", 0),
        _optional(cfg, "noise", _channel),
        _resolve_trunc(cfg),
        cfg.get("noise_placement", "per_layer"),
        max_terms=args.max_terms,
    )
    payload = _base_payload(cfg, seed)
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
        "--threads", type=_positive_int, help="accepted so old command lines parse; sweeps run in order"
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
    except (InfeasibleSizeError, FrontierOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's failed allocations are one
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {args.command} ran out of memory{detail}", file=sys.stderr)
        return 3
    except (FloatingPointError, OverflowError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
