"""Compile gates into three fractional-SWAP pulses.

The interesting part is the pulse exponents: a CNOT needs two half-SWAPs,
a full SWAP needs a single unit pulse, and a generic gate needs three
fractional ones.  Six single-qubit gates finish the job in every case.
"""

from swapsynth import (
    evaluate_circuit,
    gate_counts,
    haar_random_unitary,
    named_gate,
    phase_distance,
    synthesize_swap,
)


def show(label, u):
    circuit = synthesize_swap(u)
    exponents = [op.alpha for op in circuit.ops if op.kind == "swap_pow"]
    residual = phase_distance(evaluate_circuit(circuit), u)
    swaps, cnots, locals_ = gate_counts(circuit)
    print(f"{label:12s} exponents ({exponents[0]:.6f}, {exponents[1]:.6f}, {exponents[2]:.6f})"
          f"   {swaps} pulses + {locals_} locals   residual {residual:.1e}")


show("cnot", named_gate("cnot"))
show("cz", named_gate("cz"))
show("swap", named_gate("swap"))
show("iswap", named_gate("iswap"))
show("sqrt_swap", named_gate("sqrt_swap"))
for seed in (0, 1, 2):
    show(f"random {seed}", haar_random_unitary(4, seed=seed))

print("\nNote: exponents above 1/2 appear whenever the canonical hz is negative;")
print("restricting them to [0, 1/2] would cut the reachable set in half.")
