"""Compile gates into three fractional-SWAP pulses.

The interesting part is the pulse exponents: a CNOT needs two half-SWAPs,
a full SWAP needs a single unit pulse, and a generic gate needs three
fractional ones.  Six single-qubit gates finish the job in every case.
"""

from swapsynth import (
    evaluate_circuit,
    gate_counts,
    haar_random_unitary,
    kak_decompose,
    named_gate,
    phase_distance,
    swap_angles,
    synthesize_swap,
)


def show(label, u):
    circuit = synthesize_swap(u)
    exponents = [op.alpha for op in circuit.ops if op.kind == "swap_pow"]
    # The closed form: alpha = 2(hx+hy)/pi, beta = 2(hx-hz)/pi, gamma = 2(hy-hz)/pi.
    closed_form = swap_angles(kak_decompose(u).params)
    if tuple(exponents) != tuple(closed_form):
        raise SystemExit(f"{label}: circuit exponents {exponents} differ from {closed_form}")
    residual = phase_distance(evaluate_circuit(circuit), u)
    swaps, cnots, locals_ = gate_counts(circuit)
    print(f"{label:12s} exponents ({exponents[0]:.6f}, {exponents[1]:.6f}, {exponents[2]:.6f})"
          f" = swap_angles ({closed_form.alpha:.6f}, {closed_form.beta:.6f}, {closed_form.gamma:.6f})"
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
