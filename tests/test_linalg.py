import itertools

import numpy as np
import pytest

from swapsynth.canonical import _PLACES, _WALL_TOL, _chamber_gauge, _det4, in_weyl_chamber, lambdas
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
    _check_unitary,
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


def _refusal(u, atol=1e-10):
    with pytest.raises(ContractViolation) as exc:
        _check_unitary(u, "m", atol=atol)
    return str(exc.value)


@pytest.mark.parametrize("dim", [2, 4])
def test_stacked_check_names_its_first_failing_member(dim):
    good = [haar_random_unitary(dim, seed=seed) for seed in range(4)]
    small = good[0] * (1.0 + 1e-6)
    large = good[1] * 2.0
    nan = good[2].copy()
    nan[0, 0] = np.nan
    for failing in ((small, large), (large, small), (nan, large), (small, nan)):
        stack = np.array([good[3], failing[0], good[2], failing[1], good[0]])
        # The first failing member's own deviation, byte for byte, not the stack's largest.
        assert _refusal(stack) == _refusal(failing[0])
        assert _refusal(stack[3:]) == _refusal(failing[1])
    assert _refusal(small) == "m is not unitary: max deviation 2.000e-06 exceeds 1e-10"
    assert _refusal(nan).startswith("m is not unitary: max deviation nan exceeds ")
    # A member that passes a looser bound is not named by it.
    assert _refusal(np.array([small, large]), atol=1e-3) == _refusal(large, atol=1e-3)
    assert _check_unitary(np.array(good), "m") is not None


def test_phase_distance_basics():
    u = haar_random_unitary(4, seed=3)
    assert phase_distance(u, u) < 1e-15
    assert phase_distance(u, 1j * u) < 1e-15
    assert phase_distance(ID4, SWAP4) == pytest.approx(0.5)
    assert phase_distance(ID2, PAULI_X) == pytest.approx(1.0)


NAN4 = np.full((4, 4), np.nan, dtype=complex)

# phase_distance checks u and v for unitarity as one stack; each fault must
# still raise the error that admitting u, then v, one at a time raised.
PHASE_DISTANCE_FAULTS = {
    "u non-unitary, v of the wrong shape": (
        2.0 * ID4, HADAMARD, "u is not unitary: max deviation 3.000e+00 exceeds 1e-10"
    ),
    "v non-unitary": (ID4, 2.0 * ID4, "v is not unitary: max deviation 3.000e+00 exceeds 1e-10"),
    "both non-unitary": (3.0 * ID4, 2.0 * ID4, "u is not unitary: max deviation 8.000e+00 exceeds 1e-10"),
    "u not square": (np.ones((2, 3)), ID4, "u must be a non-empty square matrix, got shape (2, 3)"),
    "u of strings": ([["1", "0"], ["0", "1"]], ID4, "u must be a matrix of numbers, got dtype <U1"),
    "v all NaN": (ID4, NAN4, "v is not unitary: max deviation nan exceeds 1e-10"),
    "u all NaN, v of strings": (NAN4, [["1"]], "u is not unitary: max deviation nan exceeds 1e-10"),
    "v of the wrong shape": (ID4, HADAMARD, "v must be a 4x4 matrix, got shape (2, 2)"),
}


@pytest.mark.parametrize("fault", PHASE_DISTANCE_FAULTS)
def test_phase_distance_raises_the_first_fault_of_u_then_v(fault):
    u, v, message = PHASE_DISTANCE_FAULTS[fault]
    with pytest.raises(ContractViolation) as exc:
        phase_distance(u, v)
    assert str(exc.value) == message


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
    for dim in (3, 4.0, "4"):
        with pytest.raises(ContractViolation):
            haar_random_unitary(dim, seed=0)
    # An integer of any type passes.
    assert np.array_equal(haar_random_unitary(np.int64(4), seed=0), haar_random_unitary(4, seed=0))


def test_haar_rejects_negative_seed():
    for seed in (-1, -3):
        with pytest.raises(ContractViolation):
            haar_random_unitary(4, seed=seed)
    # An integer, as ep_monte_carlo's seed: True is not seed 1.
    for seed in (True, np.True_, 1.0, "1", None):
        with pytest.raises(ContractViolation, match=r"^seed must be an integer"):
            haar_random_unitary(4, seed=seed)
    assert np.array_equal(haar_random_unitary(4, seed=np.int64(1)), haar_random_unitary(4, seed=1))


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
    rng, factors = np.random.default_rng(7), np.random.default_rng(8)
    ties = 0
    for trial in range(300):
        q0 = _random_orthogonal(rng)
        angles = rng.uniform(-np.pi, np.pi, size=4)
        if trial % 3 == 0:
            angles[1] = angles[0]          # exact degeneracy
        if trial % 5 == 0:
            angles[2] = angles[3] + 1e-12  # near-degenerate cluster
        elif trial % 5 == 1:
            angles[2] = -angles[3] + 1e-7  # Re(m) clusters, m does not
        # det m = 1, as for the m of kak_decompose: a free angle, or a tied
        # pair, takes up the sum, keeping every tie.
        if trial % 3:
            angles[1] -= angles.sum()
        elif trial % 5 > 1:
            angles[2] -= angles.sum()
        elif trial % 5 == 0:
            angles[3] -= angles.sum() / 2.0
            angles[2] = angles[3] + 1e-12
        else:
            angles[:2] -= angles.sum() / 2.0
        angles = np.angle(np.exp(1j * angles))
        m = q0 @ np.diag(np.exp(1j * angles)) @ q0.T
        d, q = diagonalize_complex_symmetric_unitary(m)
        assert np.max(np.abs(q @ np.diag(d) @ q.T - m)) < 5e-9
        assert np.max(np.abs(q.imag)) == 0.0
        assert np.max(np.abs(q @ q.T - ID4)) < 1e-9
        assert sorted(np.angle(d)) == pytest.approx(sorted(angles), abs=1e-7)
        # The chamber gauge of kak_decompose, a pure function of the
        # half-angles and the columns, on vm = o2 diag(e^{-i half}) q^T with
        # det vm = 1, as kak_decompose forms it.
        half = (np.angle(d) * -0.5).tolist()
        n = round(sum(half) / np.pi)
        o2 = _random_orthogonal(factors)
        o2[:, 0] *= np.sign(np.linalg.det(o2) * np.linalg.det(q)) * (-1) ** n
        vm = (o2 * np.exp(-1j * np.array(half))) @ q.T
        h, slots, (o2_signs, q_signs), turns = _chamber_gauge(half, q.T.tolist())
        assert sorted(slots) == [0, 1, 2, 3]
        assert all(s in (1.0, -1.0) for s in o2_signs + q_signs)
        q_g, o2_g = q[:, slots] * q_signs, o2[:, slots] * o2_signs
        # The chamber as an order of the Bell phases in slot order.
        lam = lambdas(h)
        phases = [lam.l00, lam.l10, lam.l01, lam.l11]
        l00, l10, l01, l11 = phases
        assert in_weyl_chamber(h) and abs(sum(phases)) < 1e-15
        assert l01 >= l00 - 1e-15 and l00 >= l10 - 1e-15 and l10 >= l11 - 1e-15
        assert l01 + l00 <= np.pi / 2.0 + 2.0 * _WALL_TOL + 1e-15
        if l01 + l00 >= np.pi / 2.0 - 2.0 * _WALL_TOL:
            assert l00 + l10 >= -2e-13 - 1e-15
        # Each phase is its eigenpair's half-angle moved by k pi and by the
        # quarter turns, and o2's column is negated exactly when k is odd.
        assert turns in (0, -1)
        k = [(p - half[j] - turns * np.pi / 2.0) / np.pi for p, j in zip(phases, slots)]
        assert max(abs(x - round(x)) for x in k) < 1e-9
        k = [round(x) for x in k]
        assert o2_signs == [s * (-1) ** x for s, x in zip(q_signs, k)]
        # The turn adds pi to the two phases it puts first (slots 2 and 0);
        # the moves before it take pi from the n largest phases, or add pi
        # to the -n smallest, the later in the chamber order first.
        moves = [x - (turns != 0 and i in (0, 2)) for i, x in enumerate(k)]
        assert all(x == -np.sign(n) for x in moves if x)
        rank = {j: (half[j], _PLACES[j]) for j in slots}
        moved = [j for j, x in zip(slots, moves) if x]
        kept = [j for j, x in zip(slots, moves) if not x]
        assert len(moved) == abs(n)
        assert all((rank[j] > rank[i]) == (n > 0) for j in moved for i in kept)
        # Equal half-angles moved alike stand in the chamber order.
        for i, j in itertools.combinations(range(4), 2):
            if half[slots[i]] == half[slots[j]] and moves[i] == moves[j]:
                ties += 1
                assert (_PLACES[i] < _PLACES[j]) == (_PLACES[slots[i]] < _PLACES[slots[j]])
        # First entries above 1e-8 positive, slot 3 carrying det q = 1.
        first = [next(x for x in col if abs(x) > 1e-8) for col in q_g.T.tolist()]
        assert all(x > 0 for x in first[:3])
        assert _det4(q_g.T.tolist()) == pytest.approx(1.0, abs=1e-9)
        assert _det4(o2_g.T.tolist()) == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(1j**turns * (o2_g * np.exp(-1j * np.array(phases))) @ q_g.T - vm)) < 5e-9
    assert ties >= 40


def test_diagonalize_rejects_nonsymmetric():
    u = haar_random_unitary(4, seed=5)
    if np.max(np.abs(u - u.T)) > 1e-6:
        with pytest.raises((ContractViolation, NumericalError)):
            diagonalize_complex_symmetric_unitary(u)
