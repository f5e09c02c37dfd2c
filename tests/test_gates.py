import cmath

import numpy as np
import pytest

from swapsynth.gates import (
    CNOT,
    CZ,
    PLANCK_H,
    SWAP,
    _swap_pow_block,
    heisenberg_evolution,
    named_gate,
    rz,
    swap_pow,
)
from swapsynth.linalg import (
    ContractViolation,
    ID2,
    ID4,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    assert_unitary,
    haar_random_unitary,
    phase_distance,
)
from swapsynth.synthesis import Circuit, SwapPowOp, cnot_op, evaluate_circuit, prune_circuit, swap_op


def test_fixed_gates():
    assert np.allclose(CNOT, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert np.array_equal(cnot_op(2).unitary(), [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
    assert np.allclose(CZ, np.diag([1, 1, 1, -1]))
    assert np.allclose(SWAP @ SWAP, ID4)


def test_reduce_exponent():
    # A SWAP exponent counts only modulo its period 2.
    for alpha, reduced in ((2.25, 0.25), (-0.5, 1.5), (4.0, 0.0), (2**60, 0.0), (1e308, 0.0)):
        assert np.max(np.abs(swap_pow(alpha) - swap_pow(reduced))) < 1e-14
    # Pruning drops an even exponent as an identity, so it must evaluate as one.
    circuit = Circuit(ops=[swap_op(2**60)])
    assert np.max(np.abs(evaluate_circuit(circuit) - evaluate_circuit(prune_circuit(circuit)))) < 1e-14
    for bad in (float("nan"), float("inf"), "wide", "0.5", None, True, np.bool_(True), np.float64("nan"), 10**400):
        with pytest.raises(ContractViolation):
            swap_pow(bad)
    # numpy real scalars pass, as analyze ep-curve hands them in.
    for good in (np.float64(0.5), np.float32(0.5), np.int64(1)):
        assert np.array_equal(swap_pow(good), swap_pow(float(good)))


def test_swap_pow_endpoints():
    assert np.allclose(swap_pow(0.0), ID4)
    assert np.allclose(swap_pow(1.0), SWAP)
    assert np.allclose(swap_pow(2.0), ID4)


@pytest.mark.parametrize("alpha", (0.0, -0.0, 0.5, -0.5, 1.0, 1.5, 2.0, 1e15))
def test_swap_pow_block_is_the_nested_list_build(alpha):
    """The block filled entry by entry has the bytes of the nested-list
    build it replaced, signed zeros included."""
    e = cmath.exp(1j * np.pi * (alpha % 2.0))
    p, m = (1.0 + e) / 2.0, (1.0 - e) / 2.0
    nested = np.array([[p, m], [m, p]])
    block = _swap_pow_block(alpha)
    assert block.dtype == nested.dtype and block.shape == nested.shape
    assert block.tobytes() == nested.tobytes()


def test_swap_pow_op_applies_to_a_real_matrix():
    """A real u gives the complex product: the block's entries are not cast
    to the real parts they would have in a real copy of u."""
    for alpha in (0.31, 0.5, 1.0, 1.5):
        got = SwapPowOp(alpha).apply(np.eye(4))
        assert got.dtype == complex
        assert np.array_equal(got, swap_pow(alpha))


def test_swap_pow_half():
    # the half power mixes the middle block with weight (1 +- i)/2
    v = swap_pow(0.5)
    p = (1 + 1j) / 2
    m = (1 - 1j) / 2
    expect = np.array(
        [[1, 0, 0, 0], [0, p, m, 0], [0, m, p, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.max(np.abs(v - expect)) < 1e-15


def test_swap_pow_group_property():
    rng = np.random.default_rng(2)
    for _ in range(25):
        a, b = rng.uniform(-3, 3, size=2)
        lhs = swap_pow(a) @ swap_pow(b)
        assert phase_distance(lhs, swap_pow(a + b)) < 1e-13
    assert_unitary(swap_pow(0.37))


def test_swap_pow_symmetry():
    # commutes with SWAP and with any u (x) u
    u = haar_random_unitary(2, seed=8)
    uu = np.kron(u, u)
    v = swap_pow(0.31)
    assert np.max(np.abs(v @ SWAP - SWAP @ v)) < 1e-14
    assert np.max(np.abs(v @ uu - uu @ v)) < 1e-13


def test_swap_pow_bell_action():
    v = swap_pow(0.77)
    for state in (PHI_PLUS, PHI_MINUS, PSI_PLUS):
        assert np.max(np.abs(v @ state - state)) < 1e-14
    got = v @ PSI_MINUS
    assert np.max(np.abs(got - np.exp(1j * np.pi * 0.77) * PSI_MINUS)) < 1e-14


def test_rz():
    assert np.allclose(rz(0.0), ID2)
    z = rz(0.4) @ rz(-0.15)
    assert np.max(np.abs(z - rz(0.25))) < 1e-15
    assert np.allclose(rz(np.pi / 2), np.diag([-1j, 1j]))
    assert rz(0.3).shape == (2, 2)
    # A stack of angles gives the stack of their rotations, bit for bit.
    for k in (1, 4):
        angles = np.random.default_rng(k).uniform(-np.pi, np.pi, k)
        stack = rz(angles)
        assert stack.shape == (k, 2, 2)
        assert all(np.array_equal(stack[i], rz(angles[i])) for i in range(k))


def test_rz_diagonal_is_exp_bit_for_bit():
    # rz calls exp once and takes e^{i zeta} as the conjugate of e^{-i zeta}:
    # both entries must keep the bits of their own exp, signs of zero included.
    special = np.array([0.0, -0.0, np.pi, -np.pi, 1e3, -1e3])
    draws = np.random.default_rng(31).standard_normal(10**5)
    for zeta in (special, draws, *special):
        m = rz(zeta)
        assert m[..., 1, 1].tobytes() == np.exp(1j * zeta).tobytes(), zeta
        assert m[..., 0, 0].tobytes() == np.exp(-1j * zeta).tobytes(), zeta
        assert not m[..., 0, 1].any() and not m[..., 1, 0].any()


def test_named_gate_lookup():
    assert np.allclose(named_gate("cnot"), CNOT)
    assert np.allclose(named_gate("SWAP"), SWAP)
    assert named_gate("x").shape == (2, 2)
    assert named_gate("identity4").shape == (4, 4)
    assert np.allclose(named_gate("sqrt_swap"), swap_pow(0.5))
    with pytest.raises(ContractViolation):
        named_gate("toffoli")


def test_pulse_spec_validation():
    # The integral is admitted by linalg._real under its own name.
    for bad in (True, np.True_, "1e-34", "abc", None, float("nan"), float("inf"), -float("inf"), 10**400):
        with pytest.raises(ContractViolation, match="^integrated_coupling "):
            heisenberg_evolution(bad)
    # Every real type gives what its float gives.
    for value in (np.float64(1e-34), np.int64(0), 0):
        got, want = heisenberg_evolution(value), heisenberg_evolution(float(value))
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
        assert type(got[1]) is float and type(got[2]) is float


def test_heisenberg_zero_pulse():
    u, alpha, theta = heisenberg_evolution(0.0)
    assert np.allclose(u, ID4)
    assert alpha == pytest.approx(0.0)
    assert theta == pytest.approx(0.0)


def _alpha_from_bell_phases(u):
    """Independent exponent read-out: the singlet phase relative to the
    triplet states gives the SWAP power directly."""
    triplet = PHI_PLUS
    phase_t = (triplet.conj() @ (u @ triplet))
    phase_s = (PSI_MINUS.conj() @ (u @ PSI_MINUS))
    rel = np.angle(phase_s / phase_t)
    return (rel / np.pi) % 2.0


def test_heisenberg_matches_swap_power():
    rng = np.random.default_rng(5)
    for _ in range(20):
        integral = rng.uniform(0, 2) * PLANCK_H
        u, alpha, theta = heisenberg_evolution(integral)
        assert phase_distance(u, swap_pow(alpha)) < 1e-12
        assert alpha == pytest.approx(_alpha_from_bell_phases(u), abs=1e-10)
        # declared phase reattaches exactly
        assert np.max(np.abs(u - np.exp(1j * theta) * swap_pow(alpha))) < 1e-12


def test_heisenberg_matches_exchange_exponential():
    """u is exp(-i phi S1.S2) with S = sigma/2 and phi = integral / hbar,
    computed here from an eigendecomposition of S1.S2, and theta is the
    phase that u gives the triplet states, on the principal branch."""
    s1s2 = sum(np.kron(s, s) for s in (PAULI_X, PAULI_Y, PAULI_Z)) / 4.0
    w, q = np.linalg.eigh(s1s2)
    hbar = PLANCK_H / (2.0 * np.pi)
    for k in (-3.7, -1.0, -0.5, -0.13, 0.0, 0.21, 0.5, 1.0, 2.6, 7.3):
        integral = k * PLANCK_H
        u, alpha, theta = heisenberg_evolution(integral)
        reference = (q * np.exp(-1j * (integral / hbar) * w)) @ q.conj().T
        assert np.max(np.abs(u - reference)) < 1e-12
        assert 0.0 <= alpha < 2.0
        assert -np.pi < theta <= np.pi
        triplet_phase = PHI_PLUS.conj() @ reference @ PHI_PLUS
        assert abs(np.exp(1j * theta) - triplet_phase) < 1e-12
        assert np.max(np.abs(reference - np.exp(1j * theta) * swap_pow(alpha))) < 1e-12


def test_heisenberg_half_quantum():
    # integral h/2 is a full SWAP
    u, alpha, _ = heisenberg_evolution(PLANCK_H / 2)
    assert alpha == pytest.approx(1.0)
    assert phase_distance(u, SWAP) < 1e-12


def test_heisenberg_bell_diagonal():
    u, _, _ = heisenberg_evolution(0.3 * PLANCK_H)
    for state in (PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS):
        overlap = abs(state.conj() @ (u @ state))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_heisenberg_accepts_bare_float():
    # A fifth of h is SWAP**0.4, with the declared phase reattached.
    u, alpha, theta = heisenberg_evolution(0.2 * PLANCK_H)
    assert alpha == pytest.approx(0.4, abs=1e-12)
    assert np.array_equal(u, np.exp(1j * theta) * swap_pow(alpha))
