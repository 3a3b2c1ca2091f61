"""Composite runs behind the CLI: truncation-order sweeps and time series."""

from __future__ import annotations

import numpy as np

from .channels import _BUILDERS
from .circuits import Square, build_hva, build_trotter_tfim
from .montecarlo import TruncFrobenius, TruncMSE, estimate_many
from .pauli import PauliString, PauliSum, ProductState, _is_int
from .propagation import TruncationConfig, backpropagate, expectation, expectation_product_state


def center_z(lattice: Square) -> PauliSum:
    n = lattice.n_sites
    return PauliSum(n, [(PauliString.single(n, lattice.center(), "Z"), 1.0)])


def theory_contraction_sq(kind: str, param: float) -> float:
    """Squared per-site damping used for reference decay curves.

    ``kind`` is one of the channel builders' kinds.  Relaxation noise gets
    its worst-case bound 1 - g + g^2; dephasing the quarter-scrambler mean
    (1 + (1-2p)^2)/2; uniform damping (depolarizing) the exact (1-p)^2.
    """
    if kind == "amplitude_damping":
        return 1.0 - param + param * param
    if kind == "dephasing":
        return (1.0 + (1.0 - 2.0 * param) ** 2) / 2.0
    return (1.0 - param) ** 2


def sweep_table(
    lattice: Square,
    blocks: int,
    noise_kind: str,
    noise_grid: list[float],
    k_grid: list[int],
    functional: str,
    samples: int,
    seed: int,
    noise_placement: str = "per_block",
) -> list[dict]:
    """Monte Carlo truncation-error grid over (noise strength, cutoff order).

    The noise points run in order, each one sampling walk (sub-seeded by
    its index) evaluated at every cutoff; every row carries the matching
    reference curve value coef^k (``trunc_mse`` is taken against the
    all-zero state).  Noise defaults to once per ansatz block so the
    gates between noise rounds scramble every qubit, which is what the
    reference decay curve assumes.
    """
    if not isinstance(noise_kind, str) or noise_kind not in _BUILDERS:
        raise ValueError(f"'noise_kind' must be one of {sorted(_BUILDERS)}, not {noise_kind!r}")
    if functional == "trunc_frobenius":
        fs = [TruncFrobenius(k) for k in k_grid]
    elif functional == "trunc_mse":
        fs = [TruncMSE(k, ProductState.zeros(lattice.n_sites)) for k in k_grid]
    else:
        raise ValueError(f"'functional' must be 'trunc_frobenius' or 'trunc_mse', not {functional!r}")
    observable = center_z(lattice)
    rows = []
    for idx, param in enumerate(noise_grid):
        ch = _BUILDERS[noise_kind](param)
        template = build_hva(lattice, ch, blocks, noise_placement=noise_placement)
        sub = int(np.random.SeedSequence([seed, idx]).generate_state(1)[0])
        results = estimate_many(template, observable, fs, samples, sub) if fs else []
        coef = theory_contraction_sq(noise_kind, param)
        rows += [
            {
                "noise_param": param,
                "k": k,
                "estimate": r.mean,
                "stderr": r.standard_error,
                "theory_bound": coef**k,
            }
            for k, r in zip(k_grid, results)
        ]
    return rows


def dynamics_series(
    lattice: Square,
    j_coupling: float,
    h_field: float,
    dt: float,
    steps: int,
    noise,
    trunc: TruncationConfig,
    noise_placement: str = "per_layer",
    max_terms: int | None = None,
) -> list[dict]:
    """Center-site Z expectation after each evolution step, from the all-zero state.

    Row 0 is the initial value; row s backpropagates through the first s
    steps of the splitting sequence.  The steps are identical, so row s
    resumes from row s-1's frontier through one more step: the series
    costs one pass over the circuit.
    """
    if not (_is_int(steps) and steps >= 0):
        raise ValueError(f"'steps' must be a nonnegative integer, not {steps!r}")
    observable = center_z(lattice)
    state = ProductState.zeros(lattice.n_sites)
    rows = [
        {
            "t": 0.0,
            "expectation": expectation_product_state(observable, state),
            "surviving_paths": len(observable),
        }
    ]
    res = observable
    for s in range(1, steps + 1):
        step = build_trotter_tfim(lattice, j_coupling, h_field, dt, 1, noise, noise_placement)
        res = backpropagate(step, res, trunc, max_terms=max_terms)
        rows.append(
            {
                "t": s * dt,
                "expectation": expectation(res, state),
                "surviving_paths": res.stats.surviving_path_count,
            }
        )
    return rows
