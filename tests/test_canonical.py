"""Canonical decomposition tests.

The key examples are pinned by an oracle independent of the factorization
code: two local-equivalence invariants computed directly from the magic
basis representation.  Matching invariants plus chamber uniqueness pins
the coordinates without trusting the decomposition internals.
"""

import itertools

import numpy as np
import pytest

from swapsynth import canonical
from swapsynth.canonical import (
    MAGIC,
    CanonicalParams,
    exp_minus_iH,
    in_weyl_chamber,
    kak_decompose,
    lambdas,
    reconstruct,
    split_local_product,
)
from swapsynth.gates import CNOT, CZ, SWAP, swap_pow
from swapsynth.linalg import (
    ContractViolation,
    ID2,
    ID4,
    NumericalError,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    haar_random_unitary,
    phase_distance,
    project_su,
)

PI4 = np.pi / 4.0


def _invariants(u):
    """Local-equivalence invariants of a two-qubit gate.

    Computed straight from the definition: with v the SU(4) projection
    and m = (M^dag v M)^T (M^dag v M), the pair (tr(m)^2 / 16,
    (tr(m)^2 - tr(m^2)) / 4) is constant on local equivalence classes.
    """
    v, _ = project_su(u)
    mm = MAGIC.conj().T @ v @ MAGIC
    m = mm.T @ mm
    t = np.trace(m)
    return t * t / 16.0, (t * t - np.trace(m @ m)) / 4.0


def _invariants_match(u, params):
    got = _invariants(u)
    want = _invariants(exp_minus_iH(params))
    return max(abs(got[0] - want[0]), abs(got[1] - want[1])) < 1e-9


def test_magic_basis_realifies_locals():
    for seed in range(10):
        a, _ = project_su(haar_random_unitary(2, seed=seed))
        b, _ = project_su(haar_random_unitary(2, seed=seed + 100))
        m = MAGIC.conj().T @ np.kron(a, b) @ MAGIC
        assert np.max(np.abs(m.imag)) < 1e-10
        assert np.max(np.abs(m @ m.T - ID4)) < 1e-10


def test_lambdas_examples():
    ph = lambdas(CanonicalParams(PI4, 0.0, 0.0))
    assert tuple(ph) == pytest.approx((PI4, PI4, -PI4, -PI4))
    assert sum(lambdas(CanonicalParams(0.3, 0.2, -0.1))) == pytest.approx(0.0, abs=1e-15)


def test_exp_minus_iH_examples():
    assert np.max(np.abs(exp_minus_iH(CanonicalParams(0, 0, 0)) - ID4)) < 1e-15
    swapish = exp_minus_iH(CanonicalParams(PI4, PI4, PI4))
    assert np.max(np.abs(swapish - np.exp(-1j * PI4) * SWAP)) < 1e-15


def test_exp_minus_iH_bell_action():
    p = CanonicalParams(0.4, 0.25, -0.35)
    ph = lambdas(p)
    u = exp_minus_iH(p)
    for angle, state in (
        (ph.l00, PHI_PLUS),
        (ph.l01, PSI_PLUS),
        (ph.l10, PHI_MINUS),
        (ph.l11, PSI_MINUS),
    ):
        assert np.max(np.abs(u @ state - np.exp(-1j * angle) * state)) < 1e-14


def test_in_weyl_chamber():
    assert in_weyl_chamber(CanonicalParams(0.5, 0.3, 0.1))
    assert in_weyl_chamber(CanonicalParams(0.5, 0.3, -0.1))
    assert in_weyl_chamber(CanonicalParams(PI4, PI4, PI4))
    assert not in_weyl_chamber(CanonicalParams(0.9, 0.3, 0.1))
    assert not in_weyl_chamber(CanonicalParams(0.5, 0.6, 0.1))
    assert not in_weyl_chamber(CanonicalParams(0.5, 0.3, 0.4))
    # hz < 0 is allowed inside but not on the hx = pi/4 wall
    assert not in_weyl_chamber(CanonicalParams(PI4, 0.3, -0.1))
    # a non-finite coordinate is outside
    nan, inf = float("nan"), float("inf")
    for params in (
        (nan, nan, nan),
        (0.3, nan, 0.1),
        (nan, 0.0, 0.0),
        (0.5, 0.3, nan),
        (PI4, 0.3, nan),
        (-inf, -inf, 0.0),
        (inf, 0.3, 0.1),
    ):
        assert not in_weyl_chamber(CanonicalParams(*params)), params


def test_kak_identity():
    dec = kak_decompose(ID4)
    assert tuple(dec.params) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
    assert np.max(np.abs(reconstruct(dec) - ID4)) < 1e-12


def test_kak_cnot():
    dec = kak_decompose(CNOT)
    assert tuple(dec.params) == pytest.approx((PI4, 0.0, 0.0), abs=1e-12)
    assert _invariants_match(CNOT, dec.params)
    assert np.max(np.abs(reconstruct(dec) - CNOT)) < 1e-12


def test_kak_swap():
    dec = kak_decompose(SWAP)
    assert tuple(dec.params) == pytest.approx((PI4, PI4, PI4), abs=1e-12)
    assert _invariants_match(SWAP, dec.params)
    assert np.max(np.abs(reconstruct(dec) - SWAP)) < 1e-12


def test_kak_cz_matches_cnot_class():
    dec = kak_decompose(CZ)
    assert tuple(dec.params) == pytest.approx((PI4, 0.0, 0.0), abs=1e-12)


def test_kak_swap_powers():
    dec = kak_decompose(swap_pow(0.5))
    assert tuple(dec.params) == pytest.approx((np.pi / 8,) * 3, abs=1e-12)
    dec = kak_decompose(swap_pow(0.25))
    assert tuple(dec.params) == pytest.approx((np.pi / 16,) * 3, abs=1e-12)


def test_kak_random_round_trips():
    for seed in range(120):
        u = haar_random_unitary(4, seed=seed)
        dec = kak_decompose(u)
        assert in_weyl_chamber(dec.params)
        assert np.max(np.abs(reconstruct(dec) - u)) < 1e-9
        for f in (*dec.front, *dec.back):
            assert abs(np.linalg.det(f) - 1.0) < 1e-10
        assert _invariants_match(u, dec.params)


def test_kak_branch_stability():
    u = haar_random_unitary(4, seed=401)
    base = kak_decompose(u).params
    for theta in (0.1, np.pi / 2, np.pi, 4.0):
        shifted = kak_decompose(np.exp(1j * theta) * u).params
        assert np.max(np.abs(np.array(shifted) - np.array(base))) < 1e-9


def test_kak_local_invariance():
    rng_seeds = range(30)
    u = haar_random_unitary(4, seed=77)
    base = kak_decompose(u).params
    for s in rng_seeds:
        a = haar_random_unitary(2, seed=s)
        b = haar_random_unitary(2, seed=s + 1000)
        c = haar_random_unitary(2, seed=s + 2000)
        d = haar_random_unitary(2, seed=s + 3000)
        v = np.kron(a, b) @ u @ np.kron(c, d)
        got = kak_decompose(v).params
        assert np.max(np.abs(np.array(got) - np.array(base))) < 1e-9


def test_kak_degenerate_cores():
    # coordinates with repeated entries, on and off the chamber walls
    rng = np.random.default_rng(31)
    cases = [
        CanonicalParams(0.3, 0.3, 0.3),
        CanonicalParams(0.3, 0.3, -0.3),
        CanonicalParams(PI4, 0.2, 0.2),
        CanonicalParams(PI4, PI4, 0.0),
        CanonicalParams(0.2, 0.2, 0.0),
        CanonicalParams(PI4, 0.0, 0.0),
    ]
    for p in cases:
        for _ in range(5):
            a = haar_random_unitary(2, seed=int(rng.integers(1 << 30)))
            b = haar_random_unitary(2, seed=int(rng.integers(1 << 30)))
            c = haar_random_unitary(2, seed=int(rng.integers(1 << 30)))
            d = haar_random_unitary(2, seed=int(rng.integers(1 << 30)))
            u = np.kron(a, b) @ exp_minus_iH(p) @ np.kron(c, d)
            dec = kak_decompose(u)
            assert in_weyl_chamber(dec.params)
            assert np.max(np.abs(np.array(dec.params) - np.array(p))) < 1e-9
            assert np.max(np.abs(reconstruct(dec) - u)) < 1e-9


def test_kak_locals_only():
    a = haar_random_unitary(2, seed=5)
    b = haar_random_unitary(2, seed=6)
    dec = kak_decompose(np.kron(a, b))
    assert tuple(dec.params) == pytest.approx((0.0, 0.0, 0.0), abs=1e-10)
    assert phase_distance(reconstruct(dec), np.kron(a, b)) < 1e-12


def test_kak_rejects_bad_input():
    with pytest.raises(ContractViolation):
        kak_decompose(np.eye(3))
    with pytest.raises(ContractViolation):
        kak_decompose(2.0 * ID4)


def test_split_local_product_round_trip():
    for seed in range(20):
        a = haar_random_unitary(2, seed=seed)
        b = haar_random_unitary(2, seed=seed + 500)
        l = np.kron(a, b)
        fa, fb, psi = split_local_product(l)
        assert abs(np.linalg.det(fa) - 1) < 1e-12
        assert abs(np.linalg.det(fb) - 1) < 1e-12
        assert np.max(np.abs(np.exp(1j * psi) * np.kron(fa, fb) - l)) < 1e-10


def test_split_local_product_rejects_entangler():
    with pytest.raises(NumericalError):
        split_local_product(CNOT)


def test_chamber_move_conjugators_match_their_factors():
    for k, sigma in enumerate((PAULI_X, PAULI_Y, PAULI_Z)):
        c = (ID2 - 1j * sigma) / np.sqrt(2.0)
        assert np.array_equal(canonical._SHIFT_CONJ[k], np.kron(sigma, sigma))
        assert np.array_equal(canonical._SWAP_CONJ[k], np.kron(c, c))
        assert np.array_equal(canonical._FLIP_CONJ[k], np.kron(sigma, ID2))
        assert np.array_equal(canonical._SWAP_CONJ_H[k], canonical._SWAP_CONJ[k].conj().T)
    # A shift by n leaves the scalar (-i)^n; its phase is read from the table.
    for n in range(-5, 6):
        phase = canonical._SHIFT_PHASES[n % 4]
        assert abs(np.exp(1j * phase) - (-1j) ** n) < 1e-15


def _move_sequences():
    """Every move sequence _ReductionState.reduce can record, slot by slot:
    odd shifts per axis, the two sorting swaps, the sign flip, the wall fix."""
    shifts = [tuple(("shift", k) for k in range(3) if odd[k]) for odd in itertools.product((0, 1), repeat=3)]
    first_swaps = [(), (("swap", 2),), (("swap", 1),)]
    second_swaps = [(), (("swap", 0),)]
    flips = [(), (("flip", 2),), (("flip", 1),), (("flip", 0),)]
    walls = [(), (("shift", 0), ("flip", 1))]
    return {
        sum(parts, ())
        for parts in itertools.product(shifts, first_swaps, second_swaps, flips, walls)
    }


def test_reduce_records_only_enumerated_sequences():
    sequences = _move_sequences()
    assert len(sequences) <= 384
    rng = np.random.default_rng(5)
    points = list(rng.uniform(-2 * np.pi, 2 * np.pi, size=(3000, 3)))
    # The hx = pi/4 wall with hz < 0, and ties of magnitude.
    points += [(PI4, 0.3, -0.1), (-PI4, 0.2, 0.1), (0.3, -0.3, 0.3), (0.0, 0.0, 0.0), (PI4, PI4, -PI4)]
    for h in points:
        state = canonical._ReductionState(0.0, np.array(h, dtype=float))
        state.reduce()
        assert tuple(state.moves) in sequences, h
    for seed in range(300):
        kak_decompose(haar_random_unitary(4, seed=seed))
    assert canonical._move_conjugators.cache_info().currsize <= len(sequences)


def test_folded_conjugators_match_sequential_products():
    lefts = {"shift": canonical._SHIFT_CONJ, "swap": canonical._SWAP_CONJ, "flip": canonical._FLIP_CONJ}
    rights = {"swap": canonical._SWAP_CONJ_H, "flip": canonical._FLIP_CONJ}
    magic_h = MAGIC.conj().T
    for moves in _move_sequences():
        # l1 = MAGIC q^T MAGIC^dag and l2 = MAGIC o2 MAGIC^dag, one move at a time.
        left, right = MAGIC, magic_h
        for kind, axis in moves:
            left = lefts[kind][axis] @ left
            if kind in rights:
                right = right @ rights[kind][axis]
        lhs, rhs = canonical._move_conjugators(moves)
        assert not lhs.flags.writeable and not rhs.flags.writeable
        assert np.abs(lhs[0] - MAGIC).max() <= 1e-15
        assert np.abs(rhs[1] - magic_h).max() <= 1e-15
        assert np.abs(lhs[1] - left).max() <= 1e-15, moves
        assert np.abs(rhs[0] - right).max() <= 1e-15, moves


def test_kak_factors_do_not_turn_on_rounding():
    """An ulp-level phase nudge of a generic target moves no factor's sign."""
    for seed in range(300):
        u = haar_random_unitary(4, seed=seed)
        dec = kak_decompose(u)
        for eps in (3e-16, -3e-16, 1e-15):
            nudged = kak_decompose(u * np.exp(1j * eps))
            for got, want in zip(nudged.front + nudged.back, dec.front + dec.back):
                assert np.abs(got - want).max() <= 1e-12, (seed, eps)
            turn = np.angle(np.exp(1j * (nudged.global_phase - dec.global_phase)))
            assert abs(turn) <= 1e-12, (seed, eps)
