"""Pauli propagation for quantum circuits with arbitrary single-qubit noise.

Backpropagates observables in the Heisenberg picture with path-weight
truncation, certifies truncation error and ensemble variance by Monte
Carlo path sampling, and cross-checks everything against an exact dense
simulator at small qubit counts.
"""

__version__ = "0.1.0"

from .channels import (
    ChannelClass,
    InvalidChannelError,
    NormalFormChannel,
    Scrambler,
    SingleQubitPTM,
    TwoDesign,
    WorstCase,
    adjoint_action,
    classify,
    contraction_sq_bound,
    contraction_sq_mean,
    contraction_sq_worstcase,
    effective_depolarizing_rate,
    make_amplitude_damping,
    make_custom,
    make_dephasing,
    make_depolarizing,
)
from .circuits import (
    Chain,
    Circuit,
    CliffordGate,
    Layer,
    PauliRotation,
    RandomSingleQubitClifford,
    Square,
    build_hva,
    build_trotter_tfim,
    sample_circuit,
    truncate_to_last_layers,
)
from .montecarlo import (
    EstimateResult,
    TruncFrobenius,
    TruncMSE,
    UnsupportedEnsembleError,
    ValidationReport,
    Variance,
    estimate,
    estimate_many,
    validate_estimator,
)
from .oracle import InfeasibleSizeError, simulate_exact
from .pauli import (
    PauliString,
    PauliSum,
    ProductState,
    QubitCountMismatch,
    commutes,
    multiply,
)
from .propagation import (
    BackpropResult,
    FrontierOverflowError,
    TruncationConfig,
    backpropagate,
    expectation,
    expectation_product_state,
)
