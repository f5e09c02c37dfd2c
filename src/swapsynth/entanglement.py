"""Entangling power of two-qubit gates.

The entangling power E_p(U) is the average linear entropy that U generates
when applied to independent Haar-random single-qubit product states.  It is
computed three ways that must agree: an exact 16x16 trace formula, a closed
form for fractional SWAP gates, and a seeded Monte Carlo estimator.

Reference values: E_p(CNOT) = 2/9, E_p(SWAP**1/2) = 1/6 (the maximum over
all SWAP powers), E_p(I) = E_p(SWAP) = 0.  The gap 1/6 < 2/9 is why a
single fractional SWAP can never reproduce a CNOT.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .gates import SWAP, swap_pow
from .linalg import (
    ContractViolation,
    _frozen,
    _kron,
    _rng,
    assert_unitary,
)


def _build_t13():
    """Permutation on (C2)^4 exchanging tensor slots 1 and 3.

    Maps basis ket index (a,b,c,d) to (c,b,a,d); its own inverse.
    """
    t = np.zeros((16, 16))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    src = 8 * a + 4 * b + 2 * c + d
                    dst = 8 * c + 4 * b + 2 * a + d
                    t[dst, src] = 1.0
    return t


T13 = _frozen(_build_t13())

# Fixed points of the slot exchange: all (a,b,c,d) with a = c, hence 2**3.
TRACE_T13 = 8
# Normalization of the product-state average: each single-qubit Haar second
# moment contributes a factor 1/(d(d+1)) = 1/6 at d = 2.
C2 = 6


def linear_entropy(state):
    """1 - tr(rho1**2) for a normalized pure two-qubit state.

    Zero exactly on product states, 1/2 on maximally entangled ones.
    """
    psi = np.asarray(state, dtype=complex).reshape(-1)
    if psi.shape != (4,):
        raise ContractViolation(f"expected a 4-vector, got shape {psi.shape}")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ContractViolation(f"state norm {norm} is not 1")
    m = psi.reshape(2, 2)
    rho1 = m @ m.conj().T
    return float(1.0 - np.trace(rho1 @ rho1).real)


def _trace_term(v):
    vv = _kron(v, v)
    return np.trace(vv.conj().T @ T13 @ vv @ T13).real


def ep_exact(u):
    """Entangling power by the exact two-copy trace formula.

    E_p(u) = 5/9 - (1/36) [ t(u) + t(SWAP u) ] where
    t(v) = tr( (v(x)v)^dag T13 (v(x)v) T13 ).
    """
    u = assert_unitary(u, name="u")
    if u.shape[0] != 4:
        raise ContractViolation(f"expected a 4x4 unitary, got {u.shape}")
    return float(5.0 / 9.0 - (_trace_term(u) + _trace_term(SWAP @ u)) / 36.0)


def ep_closed_form_swap(alpha):
    """E_p(SWAP**alpha) = (1 - cos(2 pi alpha)) / 12, period 1 in alpha."""
    return float(1.0 / 12.0 - np.cos(2.0 * np.pi * float(alpha)) / 12.0)


def appendix_a_terms(alpha):
    """The two copy-correlation traces entering E_p(SWAP**alpha).

    term2 = 17/2 + 6 cos(pi alpha) + (3/2) cos(2 pi alpha)
    term3 = 17/2 - 6 cos(pi alpha) + (3/2) cos(2 pi alpha)

    These equal the direct 16x16 traces t(SWAP**alpha) and
    t(SWAP**(alpha+1)) from :func:`ep_exact`; together they give
    E_p = 5/9 - (term2 + term3)/36, which collapses to the closed form.
    """
    a = float(alpha)
    base = 17.0 / 2.0 + 1.5 * np.cos(2.0 * np.pi * a)
    osc = 6.0 * np.cos(np.pi * a)
    return float(base + osc), float(base - osc)


def appendix_a_residuals(alpha):
    """How far each closed form of :func:`appendix_a_terms` is from its trace.

    Returns (|term2 - t(SWAP**alpha)|, |term3 - t(SWAP**(alpha+1))|), with
    t the direct 16x16 trace of :func:`ep_exact`; both are at machine
    precision when the closed forms hold.
    """
    term2, term3 = appendix_a_terms(alpha)
    v = swap_pow(alpha)
    return float(abs(term2 - _trace_term(v))), float(abs(term3 - _trace_term(SWAP @ v)))


class EpEstimate(NamedTuple):
    """Monte Carlo estimate of an entangling power."""

    mean: float
    std_error: float
    samples: int
    seed: int


def _haar_qubit_states(rng, n):
    z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def ep_monte_carlo(u, samples, seed):
    """Estimate E_p(u) by sampling Haar product states.

    Deterministic for a fixed (seed, samples) pair: qubit-1 states are
    drawn first, then qubit-2 states, from one seeded generator.  Returns
    mean, standard error (sample std / sqrt(n)), and the inputs.
    """
    u = assert_unitary(u, name="u")
    if u.shape[0] != 4:
        raise ContractViolation(f"expected a 4x4 unitary, got {u.shape}")
    samples = int(samples)
    if samples < 1:
        raise ContractViolation(f"samples must be >= 1, got {samples}")
    rng = _rng(seed)
    z1 = _haar_qubit_states(rng, samples)
    z2 = _haar_qubit_states(rng, samples)
    prod = np.einsum("na,nb->nab", z1, z2).reshape(samples, 4)
    out = prod @ u.T
    m = out.reshape(samples, 2, 2)
    rho = np.einsum("nij,nkj->nik", m, m.conj())
    purity = np.einsum("nik,nki->n", rho, rho).real
    ent = 1.0 - purity
    mean = float(np.mean(ent))
    if samples > 1:
        std_error = float(np.std(ent, ddof=1) / np.sqrt(samples))
    else:
        std_error = 0.0
    return EpEstimate(mean=mean, std_error=std_error, samples=samples, seed=int(seed))


def local_invariance_check(u, a, b):
    """|E_p((a (x) b) u) - E_p(u)|: zero because E_p ignores output locals."""
    a = assert_unitary(a, name="a")
    b = assert_unitary(b, name="b")
    if a.shape[0] != 2 or b.shape[0] != 2:
        raise ContractViolation("a and b must be 2x2 unitaries")
    u = assert_unitary(u, name="u")
    dressed = _kron(a, b) @ u
    return float(abs(ep_exact(dressed) - ep_exact(u)))
