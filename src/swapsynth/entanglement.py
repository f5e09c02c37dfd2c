"""Entangling power of two-qubit gates.

The entangling power E_p(U) is the average linear entropy that U generates
when applied to independent Haar-random single-qubit product states.  It is
computed three ways that must agree: an exact trace over two copies of U,
contracted with the exchange of qubit 1 between the copies (Zanardi, Zalka
& Faoro, PRA 62, 030301 (2000)), a closed form for fractional SWAP gates,
and a seeded Monte Carlo estimator.

Reference values: E_p(CNOT) = 2/9, E_p(SWAP**1/2) = 1/6 (the maximum over
all SWAP powers), E_p(I) = E_p(SWAP) = 0.  The gap 1/6 < 2/9 is why a
single fractional SWAP can never reproduce a CNOT.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .gates import SWAP, swap_pow
from .linalg import ContractViolation, _integer, _real, _rng, assert_unitary


def _trace_term(v):
    """t(v) = tr((v (x) v)^dag T (v (x) v) T), T exchanging qubit 1 of the two
    copies, as one contraction over qubit indices."""
    w = v.reshape(2, 2, 2, 2)
    return np.einsum("abcd,efgh,ebgd,afch->", w.conj(), w.conj(), w, w).real


def ep_exact(u):
    """Entangling power by the exact two-copy trace formula.

    E_p(u) = 5/9 - (1/36) [ t(u) + t(SWAP u) ] where
    t(v) = tr( (v(x)v)^dag T (v(x)v) T ), with T the exchange of qubit 1
    between the two copies, evaluated as one contraction over qubit indices.
    """
    u = assert_unitary(u, name="u", dim=4)
    return float(5.0 / 9.0 - (_trace_term(u) + _trace_term(SWAP @ u)) / 36.0)


def ep_closed_form_swap(alpha):
    """E_p(SWAP**alpha) = (1 - cos(2 pi alpha)) / 12, period 1 in alpha."""
    return float(1.0 / 12.0 - np.cos(2.0 * np.pi * (_real(alpha, "swap exponent") % 2.0)) / 12.0)


def appendix_a_terms(alpha):
    """The two copy-correlation traces entering E_p(SWAP**alpha).

    term2 = 17/2 + 6 cos(pi alpha) + (3/2) cos(2 pi alpha)
    term3 = 17/2 - 6 cos(pi alpha) + (3/2) cos(2 pi alpha)

    These equal the direct two-copy traces t(SWAP**alpha) and
    t(SWAP**(alpha+1)) from :func:`ep_exact`; together they give
    E_p = 5/9 - (term2 + term3)/36, which collapses to the closed form.
    """
    a = _real(alpha, "swap exponent") % 2.0
    base = 17.0 / 2.0 + 1.5 * np.cos(2.0 * np.pi * a)
    osc = 6.0 * np.cos(np.pi * a)
    return float(base + osc), float(base - osc)


def appendix_a_residuals(alpha):
    """How far each closed form of :func:`appendix_a_terms` is from its trace.

    Returns (|term2 - t(SWAP**alpha)|, |term3 - t(SWAP**(alpha+1))|), with
    t the direct two-copy trace of :func:`ep_exact`; both are at machine
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

    Each sample is the linear entropy 1 - tr(rho1**2) of the output state
    u |a>|b>, with rho1 its reduced state on qubit 1.  For a pure state
    with 2x2 amplitude matrix M that is 2 |det M|**2.  Deterministic for a
    fixed (seed, samples) pair: qubit-1 states are drawn first, then
    qubit-2 states, from one seeded generator.  Returns mean, standard
    error (sample std / sqrt(n)), and the inputs.
    """
    u = assert_unitary(u, name="u", dim=4)
    samples, seed = _integer(samples, "samples"), _integer(seed, "seed")
    if samples < 1:
        raise ContractViolation(f"samples must be >= 1, got {samples}")
    rng = _rng(seed)
    z1 = _haar_qubit_states(rng, samples)
    z2 = _haar_qubit_states(rng, samples)
    prod = (z1[:, :, np.newaxis] * z2[:, np.newaxis, :]).reshape(samples, 4)
    m = (prod @ u.T).reshape(samples, 2, 2)
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    ent = 2.0 * (det.real**2 + det.imag**2)
    mean = float(np.mean(ent))
    if samples > 1:
        std_error = float(np.std(ent, ddof=1) / np.sqrt(samples))
    else:
        std_error = 0.0
    return EpEstimate(mean=mean, std_error=std_error, samples=samples, seed=seed)
