"""Entangling power tests.

The closed forms are cross-checked against two independent references:
the operator-trace definition evaluated numerically, and a brute-force
Monte Carlo average of output linear entropies.
"""

import numpy as np
import pytest

from swapsynth.entanglement import (
    appendix_a_terms,
    ep_closed_form_swap,
    ep_exact,
    ep_monte_carlo,
    _trace_term,
)
from swapsynth.gates import CNOT, SWAP, swap_pow
from swapsynth.linalg import (
    ContractViolation,
    ID4,
    haar_random_unitary,
)


def _slot_exchange_13():
    """Permutation on (C2)^4 taking basis ket |a b c d> to |c b a d>."""
    p = np.zeros((16, 16))
    for a, b, c, d in np.ndindex(2, 2, 2, 2):
        p[8 * c + 4 * b + 2 * a + d, 8 * a + 4 * b + 2 * c + d] = 1.0
    return p


def test_t13_is_an_involution_permutation():
    p = _slot_exchange_13()
    assert p.shape == (16, 16)
    assert np.array_equal(p @ p, np.eye(16))
    assert np.array_equal(np.sum(p, axis=0), np.ones(16))
    assert np.array_equal(np.sum(p, axis=1), np.ones(16))
    # |a b c d> is fixed exactly when a == c: 8 of the 16 basis kets
    assert np.trace(p) == 8


def test_t13_exchanges_first_and_third_qubit():
    p = _slot_exchange_13()
    # basis vector |a b c d> must land on |c b a d>
    for a, b, c, d in ((1, 0, 1, 1), (0, 1, 1, 0), (1, 1, 0, 1)):
        src = np.zeros(16)
        src[8 * a + 4 * b + 2 * c + d] = 1.0
        dst = p @ src
        assert dst[8 * c + 4 * b + 2 * a + d] == 1.0


def test_trace_term_matches_the_16x16_reference():
    p = _slot_exchange_13()
    assert np.array_equal(p @ p, np.eye(16))
    gates = [ID4, SWAP, CNOT, swap_pow(0.5), swap_pow(0.3) @ CNOT]
    gates += [haar_random_unitary(4, seed=s) for s in range(20)]
    for v in gates:
        vv = np.kron(v, v)
        reference = np.trace(vv.conj().T @ p @ vv @ p).real
        assert _trace_term(v) == pytest.approx(reference, abs=1e-12)


def test_constants():
    # normalization: trace term of the identity is 16, of SWAP is 4
    assert _trace_term(ID4) == pytest.approx(16.0, abs=1e-12)
    assert _trace_term(SWAP) == pytest.approx(4.0, abs=1e-12)


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


def test_closed_forms_reject_bad_exponent():
    for bad in (float("nan"), float("inf"), "wide", "0.5", None, True, False, np.bool_(False)):
        with pytest.raises(ContractViolation):
            ep_closed_form_swap(bad)
        with pytest.raises(ContractViolation):
            appendix_a_terms(bad)


def test_appendix_terms_landmarks():
    assert appendix_a_terms(0.0) == pytest.approx((16.0, 4.0))
    assert appendix_a_terms(0.5) == pytest.approx((7.0, 7.0))
    assert appendix_a_terms(1.0) == pytest.approx((4.0, 16.0))
    # An even exponent far past the period: reduced before it meets pi.
    assert appendix_a_terms(1e308) == (16.0, 4.0)


def test_monte_carlo_agrees_with_exact():
    for u, label in ((CNOT, "cnot"), (swap_pow(0.5), "half swap")):
        est = ep_monte_carlo(u, samples=20000, seed=9)
        exact = ep_exact(u)
        assert est.samples == 20000
        assert abs(est.mean - exact) < 4.0 * est.std_error, label


def test_monte_carlo_sample_is_the_reduced_state_purity():
    # One sample per call, so the mean is that sample's linear entropy.  The
    # reference draws the same states in the same order (qubit 1, then
    # qubit 2) and takes 1 - tr(rho1^2) of rho1 = tr_2 |psi><psi|.
    def haar_qubit(rng):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        return z / np.linalg.norm(z)

    for u in (CNOT, swap_pow(0.5), haar_random_unitary(4, seed=5)):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            a = haar_qubit(rng)
            b = haar_qubit(rng)
            psi = (u @ np.kron(a, b)).reshape(2, 2)
            rho1 = psi @ psi.conj().T
            entropy = 1.0 - np.trace(rho1 @ rho1).real
            assert abs(ep_monte_carlo(u, samples=1, seed=seed).mean - entropy) < 1e-14


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
    # Integers only, by operator.index with bool refused: no 2.5 run as 2
    # samples, no "7" as 7, no True as 1, for samples and for seed alike.
    for bad in (2.5, "7", True, None, 7.0):
        with pytest.raises(ContractViolation, match=r"^samples must be an integer"):
            ep_monte_carlo(CNOT, samples=bad, seed=0)
    for bad in (True, 1.0, "3", None):
        with pytest.raises(ContractViolation, match=r"^seed must be an integer"):
            ep_monte_carlo(CNOT, samples=10, seed=bad)
    est = ep_monte_carlo(CNOT, samples=np.int64(10), seed=np.uint8(3))
    assert (est.samples, est.seed) == (10, 3)
    assert type(est.samples) is int and type(est.seed) is int
    assert est == ep_monte_carlo(CNOT, samples=10, seed=3)


def test_monte_carlo_rejects_negative_seed():
    with pytest.raises(ContractViolation):
        ep_monte_carlo(CNOT, samples=10, seed=-3)


def test_local_invariance():
    u = haar_random_unitary(4, seed=3)
    for s in range(10):
        a = haar_random_unitary(2, seed=s)
        b = haar_random_unitary(2, seed=s + 40)
        # E_p ignores local gates on the output ...
        assert abs(ep_exact(np.kron(a, b) @ u) - ep_exact(u)) < 1e-12
        # ... and right multiplication by locals also leaves the power unchanged
        v = u @ np.kron(a, b)
        assert abs(ep_exact(v) - ep_exact(u)) < 1e-12


def test_ep_exact_haar_band():
    # On Haar-random gates the entangling power concentrates well above
    # either landmark gate; loose sanity band only.
    values = [ep_exact(haar_random_unitary(4, seed=s)) for s in range(30)]
    assert 0.0 < min(values)
    assert max(values) <= 2.0 / 9.0 + 1e-9
