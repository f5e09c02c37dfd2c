"""The CNOT alternative: three CNOTs plus z rotations.

The fixed entangling skeleton interleaves three CNOTs with Hadamards;
four z-rotation angles steer it to any target class.  For a CNOT target
all four angles vanish and the skeleton collapses accordingly.
"""

import numpy as np

from swapsynth import (
    BELL_EXCHANGE,
    build_core_cnot_circuit,
    evaluate_circuit,
    exp_minus_iH,
    gate_counts,
    haar_random_unitary,
    kak_decompose,
    named_gate,
    phase_distance,
    synthesize_cnot,
    synthesize_swap,
)
from swapsynth.canonical import lambdas
from swapsynth.synthesis import cnot_phase_params, shifted_bell_phases

for label, u in [
    ("cnot", named_gate("cnot")),
    ("swap", named_gate("swap")),
    ("random", haar_random_unitary(4, seed=11)),
]:
    circuit = synthesize_cnot(u)
    params = cnot_phase_params(shifted_bell_phases(lambdas(kak_decompose(u).params)))
    residual = phase_distance(evaluate_circuit(circuit), u)
    print(f"{label:8s} rz angles ({params.zeta1:+.6f}, {params.xi1:+.6f}, "
          f"{params.zeta2:+.6f}, {params.xi2:+.6f})   counts {gate_counts(circuit)}"
          f"   residual {residual:.1e}")

# The skeleton alone, fed the random target's angles: three CNOTs around the
# two merged phase layers.  It is E(h') BELL_EXCHANGE exactly, for the
# target's coordinates h with hx lowered by pi/4.
core = build_core_cnot_circuit(params)
hx, hy, hz = kak_decompose(u).params
shifted = exp_minus_iH((hx - np.pi / 4.0, hy, hz)) @ BELL_EXCHANGE
print("\ncore ops:", " ".join(getattr(op, "label", "") or op.kind for op in core.ops))
print(f"core against E(h') BELL_EXCHANGE: {np.abs(evaluate_circuit(core) - shifted).max():.1e}")

u = haar_random_unitary(4, seed=99)
a = evaluate_circuit(synthesize_swap(u))
b = evaluate_circuit(synthesize_cnot(u))
print("\nboth backends, same gate:", phase_distance(a, b))
