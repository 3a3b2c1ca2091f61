"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Seeds are pinned; every tolerance is stated
inline next to its assertion.
"""

import math
import time

import numpy as np
import pytest

from helpers import (
    coeff,
    effective_depolarizing_rate,
    frobenius_norm_sq,
    heisenberg_exact,
    noisy_layer_count,
    noisy_units,
    truncate_to_last_layers,
)
from paulipath import (
    Chain,
    Circuit,
    CliffordGate,
    PauliRotation,
    PauliString,
    PauliSum,
    ProductState,
    RandomSingleQubitClifford,
    Square,
    TruncFrobenius,
    TruncMSE,
    TruncationConfig,
    Variance,
    backpropagate,
    build_hva,
    build_trotter_tfim,
    estimate,
    estimate_many,
    expectation,
    make_amplitude_damping,
    make_dephasing,
    make_depolarizing,
    sample_circuit,
    simulate_exact,
)
from paulipath.circuits import Layer
from paulipath.experiments import center_z, dynamics_series, theory_contraction_sq
from validation import validate_estimator


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_c1_oracle_equivalence_exact_mode():
    rng = np.random.default_rng(2024)
    one_q = ["H", "S"]
    two_q = ["CNOT", "CZ"]
    builders = [make_depolarizing, make_dephasing, make_amplitude_damping]
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        depth = int(rng.integers(0, 7))
        layers = []
        for _ in range(depth):
            order = list(rng.permutation(n))
            gates = []
            while order:
                if len(order) >= 2 and rng.random() < 0.5:
                    a, b = int(order.pop()), int(order.pop())
                    if rng.random() < 0.5:
                        gates.append(CliffordGate(str(rng.choice(two_q)), (a, b)))
                    else:
                        gen = str(rng.choice(["XX", "ZZ", "YY", "XZ"]))
                        gates.append(
                            PauliRotation(
                                PauliString.from_label(gen), (a, b), float(rng.uniform(0, 2 * np.pi))
                            )
                        )
                else:
                    q = int(order.pop())
                    if rng.random() < 0.5:
                        gates.append(CliffordGate(str(rng.choice(one_q)), (q,)))
                    else:
                        gen = str(rng.choice(["X", "Y", "Z"]))
                        gates.append(
                            PauliRotation(
                                PauliString.from_label(gen), (q,), float(rng.uniform(0, 2 * np.pi))
                            )
                        )
            noise = tuple(
                builders[rng.integers(3)](float(rng.uniform(0, 0.6))) for _ in range(n)
            )
            layers.append(Layer(tuple(gates), noise))
        circuit = Circuit(n, tuple(layers))
        pairs = [
            (
                PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n))),
                float(rng.standard_normal()),
            )
            for _ in range(3)
        ]
        obs = PauliSum(n, pairs)
        if not obs:
            obs = PauliSum(n, [(PauliString.single(n, 0, "Z"), 1.0)])
        bloch = []
        for _ in range(n):
            v = rng.standard_normal(3)
            v = v / np.linalg.norm(v) * rng.random()
            bloch.append(tuple(v))
        state = ProductState.from_vectors(bloch)
        got = expectation(backpropagate(circuit, obs), state)
        want = simulate_exact(circuit, state, obs)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "oracle equivalence, exact mode",
        worst <= 1e-10 and elapsed < 30.0,
        f"worst |diff| = {worst:.2e} over 200 circuits in {elapsed:.1f}s",
    )


def test_c2_normal_form_arithmetic():
    obs = PauliSum.from_strings([("ZZ", 1.0), ("IZ", 1.0), ("ZI", 1.0)])
    ok = True
    details = []
    for q in (0.1, 0.5, 1.0):
        circuit = Circuit(2, (Layer((), (make_amplitude_damping(q),) * 2),))
        acted = heisenberg_exact(circuit, obs)
        checks = [
            abs(coeff(acted, PauliString.from_label("ZZ")) - (1 - q) ** 2) <= 1e-12,
            abs(coeff(acted, PauliString.from_label("IZ")) - (1 - q * q)) <= 1e-12,
            abs(coeff(acted, PauliString.from_label("ZI")) - (1 - q * q)) <= 1e-12,
            abs(coeff(acted, PauliString.from_label("II")) - (2 * q + q * q)) <= 1e-12,
        ]
        ok &= all(checks)
        if q == 1.0:
            ratio = frobenius_norm_sq(acted) / frobenius_norm_sq(obs)
            ok &= abs(ratio - 3.0) <= 1e-12
            details.append(f"ratio(q=1) = {ratio}")
    report(2, "two-site damping expansion", ok, "; ".join(details))


def test_c3_contraction_coefficients():
    from paulipath import Scrambler, contraction_sq_mean, contraction_sq_worstcase

    grid = [round(0.05 * i, 2) for i in range(1, 20)]
    worst_gap = 0.0
    ok = True
    for g in grid:
        val = contraction_sq_worstcase(make_amplitude_damping(g))
        ok &= val <= 1 - g + g * g + 1e-12
    for p in grid:
        got = contraction_sq_mean(make_dephasing(p), Scrambler(0.25))
        want = (1 + (1 - 2 * p) ** 2) / 2
        worst_gap = max(worst_gap, abs(got - want))
        ok &= abs(got - want) <= 1e-12
    report(
        3,
        "contraction coefficients on 19-point grids",
        ok,
        f"max |scrambler formula gap| = {worst_gap:.2e}",
    )


def test_c4_mse_bound_desk_scale():
    lat = Square(3, 3, periodic=True)
    obs = center_z(lat)
    ks = [18, 20, 22, 24]
    grids = {
        "amplitude_damping": (make_amplitude_damping, [0.02, 0.05, 0.1, 0.2]),
        "dephasing": (make_dephasing, [0.05, 0.1, 0.2]),
    }
    t0 = time.perf_counter()
    bound_ok = True
    decay_ok = True
    lines = []
    for kind, (mk, grid) in grids.items():
        for param in grid:
            ch = mk(param)
            template = build_hva(lat, ch, 6, noise_placement="per_block")
            results = estimate_many(
                template, obs, [TruncFrobenius(k) for k in ks], 1_000_000, 42
            )
            coef = theory_contraction_sq(kind, param)
            for k, r in zip(ks, results):
                if r.mean > coef**k + 3 * r.standard_error:
                    bound_ok = False
                    lines.append(f"{kind} {param} k={k}: {r.mean:.3e} > {coef**k:.3e}")
            if param >= 0.05:
                by_k = dict(zip(ks, results))
                for k in ks:
                    if k + 4 in by_k and by_k[k].mean > 0:
                        if by_k[k + 4].mean > by_k[k].mean / 2:
                            decay_ok = False
                            lines.append(
                                f"{kind} {param}: no 2x decay {k}->{k + 4} "
                                f"({by_k[k].mean:.3e} -> {by_k[k + 4].mean:.3e})"
                            )
    elapsed = time.perf_counter() - t0
    report(
        4,
        "Monte Carlo truncation error under the decay bound",
        bound_ok and decay_ok and elapsed < 600.0,
        f"{len(ks) * 7} grid points with 1e6 samples each in {elapsed:.0f}s "
        + "; ".join(lines),
    )


def _clifford_layers(n, channels, depth, entangler="CNOT"):
    """Noisy units whose input side is a fresh uniform-Clifford round.

    Each unit is [random 1q Cliffords, entangler + noise], and the
    circuit ends with one more random single-qubit round; this keeps
    every unit (and the adjoint of the last) invariant under Pauli
    right-multiplication, which the path-sampling estimator's
    orthogonality rests on.
    """
    layers = []
    for i in range(depth):
        cliffs = tuple(RandomSingleQubitClifford(q) for q in range(n))
        if n >= 2:
            layers.append(Layer(cliffs, None))
            pair = (i % (n - 1), i % (n - 1) + 1)
            layers.append(Layer((CliffordGate(entangler, pair),), channels))
        else:
            layers.append(Layer(cliffs, channels))
    final = Layer(tuple(RandomSingleQubitClifford(q) for q in range(n)), None)
    return Circuit(n, tuple(layers), final)


def test_c5_monte_carlo_unbiasedness():
    z1 = PauliSum.single("Z")
    z2 = PauliSum.single("ZI")
    z3 = PauliSum.single("ZII")
    s1, s2, s3 = ProductState.zeros(1), ProductState.zeros(2), ProductState.zeros(3)

    def rx_layer(n, chans):
        return Circuit(
            n,
            (
                Layer(
                    tuple(PauliRotation(PauliString.from_label("X"), (q,), None) for q in range(n)),
                    chans,
                ),
            ),
        )

    amp = make_amplitude_damping
    dep = make_dephasing
    dpo = make_depolarizing
    configs = [
        # non-unital family
        (rx_layer(1, (amp(0.3),)), z1, Variance(s1)),
        (_clifford_layers(2, (amp(0.25),) * 2, 3, "CZ"), z2, TruncMSE(4, s2)),
        (_clifford_layers(2, (amp(0.15),) * 2, 3), z2, TruncFrobenius(4)),
        (_clifford_layers(3, (amp(0.2),) * 3, 3), z3, Variance(s3)),
        (build_hva(Chain(3), amp(0.2), 3, noise_placement="per_block"), z3, TruncFrobenius(4)),
        (build_hva(Chain(3), amp(0.3), 3, noise_placement="per_block"), z3, TruncMSE(4, s3)),
        (build_hva(Chain(2), amp(0.1), 2, noise_placement="per_block"), z2, Variance(s2)),
        # dephasing family
        (build_hva(Chain(3), dep(0.15), 2), z3, TruncFrobenius(5)),
        (build_hva(Chain(2), dep(0.3), 2), z2, Variance(s2)),
        (_clifford_layers(3, (dep(0.2),) * 3, 3), z3, TruncMSE(4, s3)),
        (build_hva(Chain(3), dep(0.25), 3, noise_placement="per_block"), z3, TruncFrobenius(4)),
        (_clifford_layers(2, (dep(0.4),) * 2, 3), z2, Variance(s2)),
        (rx_layer(2, (dep(0.2),) * 2), z2, Variance(s2)),
        # depolarizing family and mixtures
        (build_hva(Chain(3), dpo(0.1), 2), z3, TruncFrobenius(5)),
        (_clifford_layers(2, (dpo(0.3),) * 2, 3), z2, Variance(s2)),
        (build_hva(Chain(3), dpo(0.2), 3, noise_placement="per_block"), z3, TruncMSE(4, s3)),
        (_clifford_layers(3, (amp(0.2), dep(0.3), dpo(0.1)), 3), z3, Variance(s3)),
        (rx_layer(1, (dpo(0.25),)), z1, Variance(s1)),
        (build_hva(Chain(2), dpo(0.15), 2), z2, TruncMSE(3, s2)),
        (_clifford_layers(3, (amp(0.35),) * 3, 3), z3, TruncFrobenius(5)),
    ]
    assert len(configs) == 20
    t0 = time.perf_counter()
    agrees = []
    for i, (template, obs, functional) in enumerate(configs):
        rep = validate_estimator(template, obs, functional, 60_000, 250, 100 + i)
        agrees.append(rep.agree)
    elapsed = time.perf_counter() - t0
    passing = sum(agrees)
    report(
        5,
        "Monte Carlo unbiasedness vs direct sampling",
        passing >= 19 and elapsed < 300.0,
        f"{passing}/20 within 4 combined standard errors in {elapsed:.0f}s",
    )


def test_c6_effective_depth():
    gamma = 0.3
    ch = make_amplitude_damping(gamma)
    template_full = build_hva(Chain(6), ch, 7)  # 21 damping rounds
    units, _ = noisy_units(template_full)
    template = Circuit(6, tuple(l for unit in units[:20] for l in unit))
    assert noisy_layer_count(template) == 20
    obs = center_z(Chain(6))
    state = ProductState.zeros(6)
    p = effective_depolarizing_rate(ch)
    t0 = time.perf_counter()
    sq_gaps = {j: [] for j in (2, 4, 6, 8)}
    for i in range(200):
        circuit = sample_circuit(template, 5000 + i)
        full = simulate_exact(circuit, state, obs)
        for j in sq_gaps:
            shallow = simulate_exact(truncate_to_last_layers(circuit, j), state, obs)
            sq_gaps[j].append((full - shallow) ** 2)
    ok = True
    details = []
    for j, vals in sq_gaps.items():
        vals = np.asarray(vals)
        mean = vals.mean()
        stderr = vals.std(ddof=1) / math.sqrt(len(vals))
        bound = 4.0 * (1 - p) ** (2 * j)  # ||O|| = 1 for a single Pauli
        ok &= mean <= bound + 3 * stderr
        details.append(f"j={j}: {mean:.4f} <= {bound:.4f}")
    elapsed = time.perf_counter() - t0
    report(
        6,
        "noise-induced shallow depth",
        ok and elapsed < 300.0,
        f"{'; '.join(details)} ({elapsed:.0f}s, 200 circuits)",
    )


def test_c7_variance_plateau_separation():
    lat = Chain(20)
    obs = center_z(lat)
    state = ProductState.zeros(20)
    depths = (5, 10, 20, 40)
    t0 = time.perf_counter()
    control_tmpl = build_hva(lat, make_depolarizing(0.1), 40, noise_placement="per_block")
    control = estimate(control_tmpl, obs, Variance(state), 100_000, 777)
    floor = control.mean + 3 * control.standard_error
    ok = True
    details = [f"control(depth 40, depolarizing 0.1) = {control.mean:.2e}"]
    for gamma in (0.1, 0.3):
        means = []
        for depth in depths:
            tmpl = build_hva(lat, make_amplitude_damping(gamma), depth, noise_placement="per_block")
            r = estimate(tmpl, obs, Variance(state), 100_000, 777)
            means.append(r.mean)
            ok &= r.mean - 3 * r.standard_error > floor
        details.append(f"gamma={gamma}: " + ",".join(f"{m:.4f}" for m in means))
    elapsed = time.perf_counter() - t0
    report(
        7,
        "variance plateau above depolarizing control",
        ok,
        f"{'; '.join(details)} ({elapsed:.0f}s)",
    )


def test_c8_dynamics_convergence():
    j_coupling, h_field, dt, steps, gamma = 3.004438, 1.0, 0.04, 10, 0.1
    noise = make_amplitude_damping(gamma)
    trunc15 = TruncationConfig(15, 2**-23, 5)
    trunc20 = TruncationConfig(20, 2**-23, 5)
    t0 = time.perf_counter()

    big = Square(4, 4, periodic=True)
    s15 = dynamics_series(big, j_coupling, h_field, dt, steps, noise, trunc15, "per_step")
    s20 = dynamics_series(big, j_coupling, h_field, dt, steps, noise, trunc20, "per_step")
    early_gap = max(
        abs(a["expectation"] - b["expectation"])
        for a, b in zip(s15, s20)
        if a["t"] <= 0.2 + 1e-12
    )

    small = Square(2, 2, periodic=True)
    o15 = dynamics_series(small, j_coupling, h_field, dt, steps, noise, trunc15, "per_step")
    o20 = dynamics_series(small, j_coupling, h_field, dt, steps, noise, trunc20, "per_step")
    obs = center_z(small)
    state = ProductState.zeros(4)
    oracle_gap = 0.0
    for s in range(steps + 1):
        t = s * dt
        if t > 0.2 + 1e-12:
            continue
        if s == 0:
            exact = 1.0
        else:
            circ = build_trotter_tfim(small, j_coupling, h_field, dt, s, noise, "per_step")
            exact = simulate_exact(circ, state, obs)
        oracle_gap = max(
            oracle_gap,
            abs(o15[s]["expectation"] - exact),
            abs(o20[s]["expectation"] - exact),
        )
    elapsed = time.perf_counter() - t0
    report(
        8,
        "dynamics convergence at desk scale",
        early_gap <= 0.02 and oracle_gap <= 0.01,
        f"4x4 max |k15-k20| (t<=0.2) = {early_gap:.4f}; "
        f"2x2 max |trunc-oracle| (t<=0.2) = {oracle_gap:.5f} ({elapsed:.0f}s)",
    )
