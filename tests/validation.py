"""Cross-validation of the path-sampling estimator against direct circuit sampling."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from paulipath import (
    Circuit,
    EstimateResult,
    PauliSum,
    TruncationConfig,
    TruncMSE,
    Variance,
    backpropagate,
    estimate,
    expectation,
    sample_circuit,
    simulate_exact,
)
from paulipath.montecarlo import Functional
from helpers import frobenius_norm_sq, result_terms


@dataclass(frozen=True)
class ValidationReport:
    mc: EstimateResult
    direct: float
    direct_stderr: float
    agree: bool


def _direct_value(circuit: Circuit, observable: PauliSum, f: Functional) -> float:
    if isinstance(f, Variance):
        return simulate_exact(circuit, f.state, observable) ** 2
    # the paths with w >= k, from one pass at a cutoff no path reaches: the
    # seed's weight and each weight boundary (one per noise round at most)
    # add at most n
    rounds = sum(layer.has_noise for layer in circuit.layers)
    every = backpropagate(circuit, observable, TruncationConfig(circuit.n * (rounds + 1) + 1))
    heavy = every.w >= f.k
    dropped = result_terms(replace(every, p=every.p[:, heavy], c=every.c[heavy]))
    if isinstance(f, TruncMSE):
        return expectation(dropped, f.state) ** 2
    return frobenius_norm_sq(dropped)


def validate_estimator(
    template: Circuit,
    observable: PauliSum,
    f: Functional,
    samples: int,
    circuits: int,
    seed: int,
) -> ValidationReport:
    """Compare the path-sampling estimate against brute circuit sampling.

    The direct route draws concrete circuits from the template, evaluates
    the functional exactly on each (dense oracle for the variance, the
    rows of one untruncated backpropagation at or above the cutoff for the
    truncation errors) and averages.  Agreement is within four combined standard errors.
    """
    if isinstance(f, Variance) and template.n > 4:
        raise ValueError("direct variance validation needs n <= 4 for the dense oracle")
    if circuits < 2:
        raise ValueError("need at least two directly sampled circuits")
    mc = estimate(template, observable, f, samples, seed)
    values = []
    for i in range(circuits):
        sub = int(np.random.SeedSequence([seed, 7919, i]).generate_state(1)[0])
        values.append(_direct_value(sample_circuit(template, sub), observable, f))
    direct = float(np.mean(values))
    direct_se = float(np.std(values, ddof=1) / np.sqrt(circuits))
    combined = float(np.hypot(mc.standard_error, direct_se))
    agree = abs(mc.mean - direct) <= 4.0 * combined
    return ValidationReport(mc, direct, direct_se, agree)
