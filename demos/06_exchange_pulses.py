"""From a physical exchange pulse to a circuit element.

Turning on an isotropic exchange coupling J(t) between two spins applies
a fractional SWAP whose exponent is set by the pulse area: integrating
J dt to half a Planck quantum gives a full SWAP, a quarter gives the
half-SWAP used in CNOT constructions.
"""

from swapsynth import (
    PLANCK_H,
    ep_closed_form_swap,
    heisenberg_evolution,
    phase_distance,
    swap_pow,
)

print("pulse area (units of h)   exponent   entangling power")
for fraction in (0.0, 0.125, 0.25, 0.375, 0.5):
    u, alpha, theta = heisenberg_evolution(fraction * PLANCK_H)
    check = phase_distance(u, swap_pow(alpha))
    print(f"{fraction:22.3f}   {alpha:8.4f}   {ep_closed_form_swap(alpha):.6f}"
          f"   (matches SWAP^alpha to {check:.0e})")

u, alpha, theta = heisenberg_evolution(PLANCK_H / 4)
print(f"\nquarter-quantum pulse: exponent {alpha}, global phase {theta:+.6f}")
print("two of them bracket a Pauli rotation to make a CNOT; see the synthesis demos.")
