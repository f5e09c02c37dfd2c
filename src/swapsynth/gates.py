"""Two-qubit gate constructors and exchange-pulse evolution.

Convention: qubit 1 is the left tensor factor (most significant bit of the
computational index), qubit 2 the right.  CNOT defaults to qubit 1 as
control.  Fractional powers of SWAP interpolate along the one-parameter
group generated by the exchange interaction, with SWAP**0 = I and
SWAP**1 = SWAP.
"""

from __future__ import annotations

import cmath

import numpy as np

from .linalg import (
    ContractViolation,
    HADAMARD,
    ID2,
    ID4,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _frozen,
    _real,
    _real_array,
)


# Exact SI value of the Planck constant (2019 redefinition), in J*s.
PLANCK_H = 6.62607015e-34
HBAR = PLANCK_H / (2.0 * np.pi)

SWAP = _frozen(np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
))

CNOT = _frozen(np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
))

CZ = _frozen(np.diag([1, 1, 1, -1]).astype(complex))


def _swap_pow_block(alpha):
    """The 2x2 that SWAP**alpha applies on the span of |01>, |10>.  The
    exponent is admitted by ``linalg._real``."""
    # Reduced by the period first: pi * alpha loses every digit once alpha is large.
    e = cmath.exp(1j * np.pi * (_real(alpha, "swap exponent") % 2.0))
    p = (1.0 + e) / 2.0
    m = (1.0 - e) / 2.0
    # Filled entry by entry: converting a nested list costs more than the product it feeds.
    block = np.empty((2, 2), complex)
    block[0, 0] = block[1, 1] = p
    block[0, 1] = block[1, 0] = m
    return block


def swap_pow(alpha):
    """SWAP raised to a real power alpha.

    Acts as the identity on |00> and |11>; on the span of |01>, |10> it
    rotates through the one-parameter family

        [[ (1 + e^{i pi alpha}) / 2 , (1 - e^{i pi alpha}) / 2 ],
         [ (1 - e^{i pi alpha}) / 2 , (1 + e^{i pi alpha}) / 2 ]].

    Periodic in alpha with period 2.  alpha = 1/2 gives the square root
    of SWAP, the natural entangling primitive of an exchange pulse.
    """
    u = np.eye(4, dtype=complex)
    u[1:3, 1:3] = _swap_pow_block(alpha)
    return u


def rz(zeta):
    """Rotation about z: diag(e^{-i zeta}, e^{i zeta}).  An array of angles
    gives the (..., 2, 2) stack of the rotations its scalars give.

    zeta is read by ``linalg._real_array``, naming it "rotation angle": a
    string, a bool, None, a complex number or a list that mixes a bool
    with reals is refused.  NaN and the infinities pass and give NaN
    entries, as ``linalg._reals`` lets them pass.
    """
    zeta = _real_array(zeta, "rotation angle")
    e = np.exp(-1j * zeta)
    m = np.zeros((*zeta.shape, 2, 2), dtype=complex)
    m[..., 0, 0] = e
    # Added to the zero entry, conj(e) is e^{i zeta} bit for bit: the sum
    # turns its -0.0 imaginary part at zeta = -0.0 into the +0.0 of exp.
    m[..., 1, 1] += np.conjugate(e)
    return m


NAMED_GATES = {
    "cnot": CNOT,
    "cz": CZ,
    "swap": SWAP,
    "identity2": ID2,
    "identity4": ID4,
    "x": PAULI_X,
    "y": PAULI_Y,
    "z": PAULI_Z,
    "hadamard": HADAMARD,
    # Extensions beyond the core set, both 4x4.
    "sqrt_swap": _frozen(swap_pow(0.5)),
    "iswap": _frozen(np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    )),
}


def named_gate(name):
    """Look up a built-in gate (2x2 or 4x4) by its lowercase name."""
    key = str(name).strip().lower()
    if key not in NAMED_GATES:
        known = ", ".join(sorted(NAMED_GATES))
        raise ContractViolation(f"unknown gate {name!r}; known gates: {known}")
    return NAMED_GATES[key].copy()


def heisenberg_evolution(integrated_coupling):
    """Unitary generated by an isotropic exchange pulse, and its SWAP power.

    ``integrated_coupling`` is the time integral of the exchange coupling
    J(t) in joule-seconds; it may be negative for reverse evolution.  Only
    the integral matters for the final unitary, not the pulse shape.  It is
    read by ``linalg._real``, so a bool, a string or NaN is refused.

    The coupling J(t) S1.S2 between spin-1/2 operators S = sigma/2 gives,
    for phi = (integral of J dt) / hbar,

        U = e^{-i phi / 4} P_triplet + e^{3 i phi / 4} P_singlet,

    which equals SWAP**alpha up to the global phase theta = -phi/4 with

        alpha = (phi / pi) mod 2 = (2 * integral / h) mod 2.

    A pulse with integral h/2 therefore performs one full SWAP.  (With the
    other common normalization J sigma1.sigma2, alpha would be four times
    larger; this module consistently uses spin operators S = sigma/2.)

    Returns (u, alpha, theta) with u = e^{i theta} swap_pow(alpha), theta
    reported on the principal branch (-pi, pi].
    """
    phi = _real(integrated_coupling, "integrated_coupling") / HBAR
    alpha = float((phi / np.pi) % 2.0)
    theta = float(np.angle(np.exp(-1j * phi / 4.0)))
    return np.exp(1j * theta) * swap_pow(alpha), alpha, theta
