import numpy as np
import pytest

from swapsynth.linalg import (
    BELL_BASIS,
    ContractViolation,
    HADAMARD,
    ID2,
    ID4,
    NumericalError,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PHI_PLUS,
    PSI_MINUS,
    _kron,
    assert_unitary,
    diagonalize_complex_symmetric_unitary,
    haar_random_unitary,
    phase_distance,
    project_su,
)

SWAP4 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def test_constants_are_unitary():
    for m in (ID2, ID4, PAULI_X, PAULI_Y, PAULI_Z, HADAMARD, BELL_BASIS):
        assert_unitary(m)


def test_pauli_algebra():
    assert np.allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z)
    assert np.allclose(PAULI_Y @ PAULI_Z, 1j * PAULI_X)
    assert np.allclose(PAULI_Z @ PAULI_X, 1j * PAULI_Y)
    for p in (PAULI_X, PAULI_Y, PAULI_Z):
        assert np.allclose(p @ p, ID2)


def test_bell_states():
    assert np.allclose(np.kron(ID2, PAULI_X) @ PHI_PLUS, np.array([0, 1, 1, 0]) / np.sqrt(2))
    # singlet picks up a sign under exchange of the two slots
    swapped = PSI_MINUS.reshape(2, 2).T.reshape(4)
    assert np.allclose(swapped, -PSI_MINUS)


def test_assert_unitary_rejects():
    with pytest.raises(ContractViolation):
        assert_unitary(np.ones((2, 2)))
    with pytest.raises(ContractViolation):
        assert_unitary(np.zeros((3,)))
    # A NaN entry makes the deviation NaN, which must fail the check too.
    with pytest.raises(ContractViolation):
        assert_unitary(np.diag([np.nan, 1.0]))


def test_phase_distance_basics():
    u = haar_random_unitary(4, seed=3)
    assert phase_distance(u, u) < 1e-15
    assert phase_distance(u, 1j * u) < 1e-15
    assert phase_distance(ID4, SWAP4) == pytest.approx(0.5)
    assert phase_distance(ID2, PAULI_X) == pytest.approx(1.0)


def test_phase_distance_symmetry_and_triangle():
    us = [haar_random_unitary(4, seed=s) for s in (1, 2, 3)]
    for u in us:
        for v in us:
            assert abs(phase_distance(u, v) - phase_distance(v, u)) < 1e-14
    # the square roots satisfy the triangle inequality
    d = lambda a, b: np.sqrt(phase_distance(a, b))
    assert d(us[0], us[2]) <= d(us[0], us[1]) + d(us[1], us[2]) + 1e-12


def test_haar_reproducible_and_unitary():
    u1 = haar_random_unitary(4, seed=123)
    u2 = haar_random_unitary(4, seed=123)
    assert np.array_equal(u1, u2)
    assert phase_distance(u1, haar_random_unitary(4, seed=124)) > 1e-3
    for s in range(20):
        assert_unitary(haar_random_unitary(4, seed=s))
        assert_unitary(haar_random_unitary(2, seed=s))


def test_haar_first_moment():
    # Mean of |<0|U|0>|^2 over the group is 1/dim; checks the sampling
    # measure, not just unitarity.
    n = 20000
    acc = 0.0
    for s in range(n):
        acc += abs(haar_random_unitary(2, seed=s)[0, 0]) ** 2
    assert acc / n == pytest.approx(0.5, abs=0.02)


def test_haar_rejects_other_dims():
    with pytest.raises(ContractViolation):
        haar_random_unitary(3, seed=0)


def test_haar_rejects_negative_seed():
    for seed in (-1, -3):
        with pytest.raises(ContractViolation):
            haar_random_unitary(4, seed=seed)


def test_private_kron_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(8)

    def draw(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    pairs = [(draw(2), draw(2)), (draw(4), draw(4)), (draw(2), draw(4)), (draw(4), draw(2))]
    constants = (ID2, ID4, PAULI_X, PAULI_Y, PAULI_Z, HADAMARD, BELL_BASIS)
    pairs += [(a, b) for a in constants for b in constants]
    for a, b in pairs:
        got, want = _kron(a, b), np.kron(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


def test_project_su_examples():
    v, phi = project_su(ID4)
    assert phi == pytest.approx(0.0)
    assert np.allclose(v, ID4)
    u = np.exp(0.3j) * haar_random_unitary(4, seed=9)
    v, phi = project_su(u)
    assert abs(np.linalg.det(v) - 1) < 1e-12
    assert np.max(np.abs(np.exp(1j * phi) * v - u)) < 1e-12


def _random_orthogonal(rng):
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    return q @ np.diag(np.sign(np.diag(r)))


def test_diagonalize_identity_and_distinct():
    d, q = diagonalize_complex_symmetric_unitary(ID4)
    assert np.allclose(np.abs(d), 1)
    assert np.allclose(q @ np.diag(d) @ q.T, ID4)
    m = np.diag(np.exp(1j * np.array([0.1, 0.7, -2.0, 2.5])))
    d, q = diagonalize_complex_symmetric_unitary(m)
    assert np.max(np.abs(q @ np.diag(d) @ q.T - m)) < 1e-12


def test_diagonalize_round_trips():
    # build-then-factor: Q D Q^T for random orthogonal Q must come back
    rng = np.random.default_rng(7)
    for trial in range(300):
        q0 = _random_orthogonal(rng)
        angles = rng.uniform(-np.pi, np.pi, size=4)
        if trial % 3 == 0:
            angles[1] = angles[0]          # exact degeneracy
        if trial % 5 == 0:
            angles[2] = angles[3] + 1e-12  # near-degenerate cluster
        elif trial % 5 == 1:
            angles[2] = -angles[3] + 1e-7  # Re(m) clusters, m does not
        m = q0 @ np.diag(np.exp(1j * angles)) @ q0.T
        d, q = diagonalize_complex_symmetric_unitary(m)
        assert np.max(np.abs(q @ np.diag(d) @ q.T - m)) < 5e-9
        assert np.max(np.abs(q.imag)) == 0.0
        assert np.max(np.abs(q @ q.T - ID4)) < 1e-9
        assert sorted(np.angle(d)) == pytest.approx(sorted(angles), abs=1e-7)


def test_diagonalize_rejects_nonsymmetric():
    u = haar_random_unitary(4, seed=5)
    if np.max(np.abs(u - u.T)) > 1e-6:
        with pytest.raises((ContractViolation, NumericalError)):
            diagonalize_complex_symmetric_unitary(u)
