"""Optimal two-qubit circuits over fractional-SWAP gates.

Any two-qubit unitary factors as a canonical nonlocal core dressed with
single-qubit gates.  This package computes that factorization and emits
either three fractional-SWAP pulses with six local gates, or three CNOTs
with single-qubit z rotations, then verifies, analyzes entangling power,
and estimates wall-clock duration on exchange-based hardware.
"""

from .linalg import (
    ContractViolation,
    NumericalError,
    assert_unitary,
    haar_random_unitary,
    phase_distance,
)
from .gates import (
    CNOT,
    PLANCK_H,
    SWAP,
    heisenberg_evolution,
    named_gate,
    rz,
    swap_pow,
)
from .canonical import (
    BellPhases,
    CanonicalDecomposition,
    CanonicalParams,
    exp_minus_iH,
    in_weyl_chamber,
    kak_decompose,
    lambdas,
    reconstruct,
    split_local_product,
)
from .synthesis import (
    BELL_EXCHANGE,
    Circuit,
    CnotOp,
    CnotPhaseParams,
    GateOp,
    LocalOp,
    SwapAngles,
    SwapPowOp,
    build_core_cnot_circuit,
    circuit_from_dict,
    circuit_to_dict,
    cnot_phase_params,
    cnot_op,
    evaluate_circuit,
    expand_cnots_to_swaps,
    gate_counts,
    local_op,
    prune_circuit,
    swap_angles,
    swap_op,
    synthesize_cnot,
    synthesize_swap,
)
from .entanglement import (
    EpEstimate,
    appendix_a_residuals,
    appendix_a_terms,
    ep_closed_form_swap,
    ep_exact,
    ep_monte_carlo,
)
from .costmodel import (
    BUILTIN_PROFILES,
    HardwareProfile,
    Layer,
    Schedule,
    builtin_profile,
    compare_backends,
    profile_from_dict,
    schedule_circuit,
)

__version__ = "0.1.0"
