"""Entangling power tests.

The closed forms are cross-checked against two independent references:
the operator-trace definition evaluated numerically, and a brute-force
Monte Carlo average of output linear entropies.
"""

import numpy as np
import pytest

from swapsynth.entanglement import (
    C2,
    T13,
    TRACE_T13,
    appendix_a_terms,
    ep_closed_form_swap,
    ep_exact,
    ep_monte_carlo,
    linear_entropy,
    local_invariance_check,
    _trace_term,
)
from swapsynth.gates import CNOT, SWAP, swap_pow
from swapsynth.linalg import (
    ContractViolation,
    ID4,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    haar_random_unitary,
)


def test_t13_is_an_involution_permutation():
    assert T13.shape == (16, 16)
    assert np.array_equal(T13 @ T13, np.eye(16))
    assert np.array_equal(np.sum(T13, axis=0), np.ones(16))
    assert np.trace(T13) == TRACE_T13 == 8


def test_t13_exchanges_first_and_third_qubit():
    # basis vector |a b c d> must land on |c b a d>
    for a, b, c, d in ((1, 0, 1, 1), (0, 1, 1, 0), (1, 1, 0, 1)):
        src = np.zeros(16)
        src[8 * a + 4 * b + 2 * c + d] = 1.0
        dst = T13 @ src
        assert dst[8 * c + 4 * b + 2 * a + d] == 1.0


def test_constants():
    assert C2 == 6
    # normalization: trace term of the identity is 16, of SWAP is 4
    assert _trace_term(ID4) == pytest.approx(16.0, abs=1e-12)
    assert _trace_term(SWAP) == pytest.approx(4.0, abs=1e-12)


def test_linear_entropy_examples():
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1.0
    assert linear_entropy(e00) == pytest.approx(0.0, abs=1e-14)
    for bell in (PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS):
        assert linear_entropy(bell) == pytest.approx(0.5, abs=1e-14)
    product = np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)
    assert linear_entropy(product) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ContractViolation):
        linear_entropy(np.array([1.0, 1.0, 0.0, 0.0]))


def test_linear_entropy_range():
    rng = np.random.default_rng(4)
    for _ in range(100):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        s = linear_entropy(v)
        assert -1e-12 <= s <= 0.5 + 1e-12


def test_ep_exact_landmarks():
    assert ep_exact(ID4) == pytest.approx(0.0, abs=1e-12)
    assert ep_exact(SWAP) == pytest.approx(0.0, abs=1e-12)
    assert ep_exact(CNOT) == pytest.approx(2.0 / 9.0, abs=1e-12)
    assert ep_exact(swap_pow(0.5)) == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_half_swap_weaker_than_cnot():
    assert ep_exact(swap_pow(0.5)) < ep_exact(CNOT)


def test_closed_form_matches_exact_on_grid():
    alphas = np.arange(100) * 0.02
    for a in alphas:
        assert abs(ep_closed_form_swap(a) - ep_exact(swap_pow(a))) < 1e-12


def test_closed_form_peak_and_period():
    assert ep_closed_form_swap(0.5) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert ep_closed_form_swap(1.5) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert ep_closed_form_swap(0.3) == pytest.approx(ep_closed_form_swap(0.7), abs=1e-15)


def test_appendix_terms_against_direct_traces():
    for a in np.arange(100) * 0.02:
        t2, t3 = appendix_a_terms(a)
        v = swap_pow(a)
        assert abs(t2 - _trace_term(v)) < 1e-12
        assert abs(t3 - _trace_term(SWAP @ v)) < 1e-12


def test_appendix_terms_landmarks():
    assert appendix_a_terms(0.0) == pytest.approx((16.0, 4.0))
    assert appendix_a_terms(0.5) == pytest.approx((7.0, 7.0))
    assert appendix_a_terms(1.0) == pytest.approx((4.0, 16.0))


def test_monte_carlo_agrees_with_exact():
    for u, label in ((CNOT, "cnot"), (swap_pow(0.5), "half swap")):
        est = ep_monte_carlo(u, samples=20000, seed=9)
        exact = ep_exact(u)
        assert est.samples == 20000
        assert abs(est.mean - exact) < 4.0 * est.std_error, label


def test_monte_carlo_swap_at_machine_noise():
    # SWAP sends every product state to a product state, so each sample
    # contributes zero entropy up to rounding.
    est = ep_monte_carlo(SWAP, samples=500, seed=1)
    assert abs(est.mean) < 1e-15
    assert est.std_error < 1e-15


def test_monte_carlo_deterministic():
    a = ep_monte_carlo(CNOT, samples=300, seed=12)
    b = ep_monte_carlo(CNOT, samples=300, seed=12)
    assert a == b
    c = ep_monte_carlo(CNOT, samples=300, seed=13)
    assert a.mean != c.mean


def test_monte_carlo_validates_samples():
    with pytest.raises(ContractViolation):
        ep_monte_carlo(CNOT, samples=0, seed=0)


def test_monte_carlo_rejects_negative_seed():
    with pytest.raises(ContractViolation):
        ep_monte_carlo(CNOT, samples=10, seed=-3)


def test_local_invariance():
    u = haar_random_unitary(4, seed=3)
    for s in range(10):
        a = haar_random_unitary(2, seed=s)
        b = haar_random_unitary(2, seed=s + 40)
        assert local_invariance_check(u, a, b) < 1e-12
        # right multiplication by locals also leaves the power unchanged
        v = u @ np.kron(a, b)
        assert abs(ep_exact(v) - ep_exact(u)) < 1e-12


def test_ep_exact_haar_band():
    # On Haar-random gates the entangling power concentrates well above
    # either landmark gate; loose sanity band only.
    values = [ep_exact(haar_random_unitary(4, seed=s)) for s in range(30)]
    assert 0.0 < min(values)
    assert max(values) <= 2.0 / 9.0 + 1e-9
