"""Pull a random two-qubit gate apart and put it back together.

Every 4x4 unitary factors into single-qubit gates around an entangling
core described by three angles (hx, hy, hz).  The decomposition is exact:
rebuilding from the parts reproduces the input to machine precision.
"""

import numpy as np

from swapsynth import haar_random_unitary, in_weyl_chamber, kak_decompose, reconstruct

u = haar_random_unitary(4, seed=2029)
dec = kak_decompose(u)

hx, hy, hz = dec.params
print("canonical coordinates")
print(f"  hx = {hx:.9f}")
print(f"  hy = {hy:.9f}")
print(f"  hz = {hz:.9f}   (negative values are legitimate interior points)")
print(f"  in the canonical chamber: {in_weyl_chamber(dec.params)}")
print(f"global phase  {dec.global_phase:+.9f}")

f1, f2 = dec.front
b1, b2 = dec.back
print("\nfront pair determinants:", np.linalg.det(f1), np.linalg.det(f2))
print("back pair determinants: ", np.linalg.det(b1), np.linalg.det(b2))

rebuilt = reconstruct(dec)
print("\nrebuild error:", np.max(np.abs(rebuilt - u)))
