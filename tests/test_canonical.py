"""Canonical decomposition tests.

The key examples are pinned by an oracle independent of the factorization
code: two local-equivalence invariants computed directly from the magic
basis representation.  Matching invariants plus chamber uniqueness pins
the coordinates without trusting the decomposition internals.
"""

import itertools
import math

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
from swapsynth.gates import CNOT, CZ, SWAP, named_gate, swap_pow
from swapsynth.linalg import (
    ContractViolation,
    ID4,
    NumericalError,
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
        # Each quarter turn of the phase leaves the magic-basis form real or
        # imaginary; both must split.
        for k in range(4):
            l = 1j**k * np.kron(a, b)
            fa, fb, psi = split_local_product(l)
            assert abs(np.linalg.det(fa) - 1) < 1e-12
            assert abs(np.linalg.det(fb) - 1) < 1e-12
            assert np.max(np.abs(np.exp(1j * psi) * np.kron(fa, fb) - l)) < 1e-10


def test_split_local_product_rejects_entangler():
    # SWAP is real orthogonal with determinant -1 in the magic basis.
    for u in (CNOT, SWAP, named_gate("iswap"), named_gate("sqrt_swap")):
        with pytest.raises(NumericalError):
            split_local_product(u)


def _signed_permutation(slots, signs):
    """The matrix P with P[i, slots[i]] = signs[i]: P^T gathers column
    slots[i] of a matrix into slot i and scales it by signs[i]."""
    out = np.zeros((4, 4))
    out[range(4), slots] = signs
    return out


def test_det4_matches_numpy():
    """The determinant behind kak_decompose's determinant fix: exact on every
    signed permutation, and within rounding of np.linalg.det elsewhere."""
    for order in itertools.permutations(range(4)):
        for signs in itertools.product((1.0, -1.0), repeat=4):
            p = _signed_permutation(order, signs)
            assert canonical._det4(p.tolist()) == round(np.linalg.det(p))
    rng = np.random.default_rng(11)
    for a in rng.normal(size=(200, 4, 4)):
        assert canonical._det4(a.tolist()) == pytest.approx(np.linalg.det(a), rel=1e-12, abs=1e-12)


def test_quaternion_pair_map_reads_the_coefficients():
    """The quaternion-pair map reads the coefficients of o in the basis T_ij."""
    magic_h = MAGIC.conj().T
    s = canonical._QUATERNIONS
    for i, j in itertools.product(range(4), repeat=2):
        t = magic_h @ np.kron(s[i], s[j]) @ MAGIC
        m = (t.real.reshape(16) @ canonical._TO_QUATERNION_PAIR).reshape(4, 4)
        assert np.abs(t.imag).max() <= 1e-15
        assert np.abs(m - np.outer(np.eye(4)[i], np.eye(4)[j])).max() <= 1e-15


def _reference_reduce(h):
    """The chamber reduction, one move at a time: the reduced h and the moves
    as (kind, axis) pairs."""
    h = [float(v) for v in h]
    moves = []

    def shift(k, n):
        h[k] -= n * np.pi / 2.0
        if n % 2:
            moves.append(("shift", k))

    def swap(j, k):
        if j != k:
            h[j], h[k] = h[k], h[j]
            moves.append(("swap", 3 - j - k))

    def flip_pair(j, k):
        h[j], h[k] = -h[j], -h[k]
        moves.append(("flip", 3 - j - k))

    for k in range(3):
        shift(k, math.floor(h[k] / (np.pi / 2.0) + 0.5))
    for i in range(2):
        swap(i, max(range(i, 3), key=lambda m: abs(h[m])))
    if h[0] < 0 and h[1] < 0:
        flip_pair(0, 1)
    elif h[0] < 0:
        flip_pair(0, 2)
    elif h[1] < 0:
        flip_pair(1, 2)
    if h[0] >= PI4 - 1e-10 and h[2] < -1e-13:
        shift(0, 1)
        flip_pair(0, 2)
    return h, tuple(moves)


def _reduction_points():
    rng = np.random.default_rng(5)
    points = [tuple(p) for p in rng.uniform(-2 * np.pi, 2 * np.pi, size=(3000, 3))]
    # The hx = pi/4 wall with hz < 0, and ties of magnitude.
    points += [(PI4, 0.3, -0.1), (-PI4, 0.2, 0.1), (0.3, -0.3, 0.3), (0.0, 0.0, 0.0), (PI4, PI4, -PI4)]
    points += [(-PI4, 0.2, -0.1), (3 * PI4, -0.3, 0.2), (0.2, PI4, -0.1), (-0.1, 0.3, PI4)]
    return points


def test_chamber_gauge_matches_the_reference_reduction():
    """The chamber gauge gives the coordinates of the one-move-at-a-time
    reduction, and its slots, signs and quarter turns rebuild the
    diagonal core it was given.  h_k + pi gives -E(h), so each coordinate is
    first taken mod pi, as the reference's shifts take it, and each Bell
    phase then mod pi, into the eigensolver's range; the columns are I's."""
    walls = 0
    for h in _reduction_points():
        want, moves = _reference_reduce(h)
        walls += moves[-2:] == (("shift", 0), ("flip", 1))
        ph = lambdas([x - np.pi * round(x / np.pi) for x in h])
        half = [x - np.pi * round(x / np.pi) for x in (ph.l00, ph.l10, ph.l01, ph.l11)]
        got, slots, (o2_signs, q_signs), turns = canonical._chamber_gauge(half, np.eye(4).tolist())
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-15, h
        assert sorted(slots) == [0, 1, 2, 3] and {*o2_signs, *q_signs} <= {1.0, -1.0}, h
        # Gathering the columns of I is the matrix G = _signed_permutation(.)^T.
        lam = lambdas(got)
        core = np.exp(-1j * np.array([lam.l00, lam.l10, lam.l01, lam.l11]))
        o2, q = _signed_permutation(slots, o2_signs).T, _signed_permutation(slots, q_signs).T
        rebuilt = 1j**turns * (o2 * core) @ q.T
        assert np.abs(rebuilt - np.diag(np.exp(-1j * np.array(half)))).max() <= 1e-14, h
    assert walls >= 3


def test_chamber_gauge_stays_inside_at_the_wall_band_edge():
    """The wall rule reads the hx and hz of the h it returns, so h passes
    in_weyl_chamber on both sides of hx = pi/4 -+ _WALL_TOL, ulp by ulp.
    The eigenphases of a near-SWAP target, 2e-10 off the wall to rounding,
    once left the chamber when the rule was read off a + b instead."""
    half = [0.7853981649835622, 0.7853981645284812, 0.7853981624664153, 0.7853981616113348]
    h, *_ = canonical._chamber_gauge(half, np.eye(4).tolist())
    assert in_weyl_chamber(h) and h[2] > 0, h
    for e, f in ((0.2, 0.1), (0.2, -0.1), (0.05, 0.3), (0.05, -0.3), (0.0, 0.0)):
        for edge in (2e-10, -2e-10, 0.0):
            for k in range(-40, 41):
                t = edge + k * 2.0**-51
                lam = [PI4 + e + t / 2, PI4 - e + t / 2, -PI4 + f - t / 2, -PI4 - f - t / 2]
                h, *_ = canonical._chamber_gauge([lam[2], lam[0], lam[3], lam[1]], np.eye(4).tolist())
                assert in_weyl_chamber(h), (e, f, t, h)


def _generator_q_signs(rows):
    """The q signs of the gauged rows as _chamber_gauge once found them, by
    next() over a generator: the sign of each row's first entry beyond 1e-8
    in size, then slot 3's negated when the signed rows' det is negative."""
    signs = [1.0 if next(x for x in row if x > 1e-8 or x < -1e-8) > 0 else -1.0 for row in rows]
    if canonical._det4(rows) * signs[0] * signs[1] * signs[2] * signs[3] < 0:
        signs[3] = -signs[3]
    return signs


# First entries at the sign threshold: on it, one ulp beyond it, and zeros.
THRESHOLD_ENTRIES = (
    1e-8, -1e-8, math.nextafter(1e-8, 1.0), math.nextafter(-1e-8, -1.0), 0.0, -0.0
)


def test_chamber_gauge_signs_columns_from_their_first_entry_beyond_1e_8():
    """An entry of exactly +-1e-8 or +-0.0 is passed over and the next one
    signs the column, while one an ulp beyond 1e-8 signs it itself, as the
    generator form did.  Each tail's first entry signs against some
    threshold entries, and the two phase sets give an unturned and a
    turned gauge."""
    tails = ([0.6, -0.8, 0.0], [-0.5, 0.0, 0.3], [0.0, -0.7, -0.2], [-0.1, 0.2, 0.9])
    for half, turns in (([0.3, -0.1, 0.5, -0.7], 0), ([1.0, 0.9, -0.95, -0.95], -1)):
        assert canonical._chamber_gauge(half, np.eye(4).tolist())[3] == turns
        for firsts in itertools.product(THRESHOLD_ENTRIES, repeat=4):
            columns = [[first, *tail] for first, tail in zip(firsts, tails)]
            _, slots, (_, q_signs), _ = canonical._chamber_gauge(half, columns)
            assert q_signs == _generator_q_signs([columns[j] for j in slots]), (half, firsts)


def test_chamber_gauge_ignores_the_eigensolver_order_and_signs(monkeypatch):
    """With distinct eigenphases, permuting or negating the eigensolver's
    columns leaves the coordinates and the gathered factors unchanged."""
    rng = np.random.default_rng(17)
    diagonalize = canonical.diagonalize_complex_symmetric_unitary
    for seed in range(60):
        u = haar_random_unitary(4, seed=seed)
        want = kak_decompose(u)
        perm, signs = rng.permutation(4), rng.choice((-1.0, 1.0), size=4)

        def shuffled(m):
            d, q = diagonalize(m)
            gaps = np.abs(np.angle(d[:, np.newaxis] / d[np.newaxis, :])) + np.eye(4)
            assert gaps.min() > 1e-6
            return d[perm], q[:, perm] * signs

        monkeypatch.setattr(canonical, "diagonalize_complex_symmetric_unitary", shuffled)
        got = kak_decompose(u)
        monkeypatch.undo()
        assert got.params == want.params, seed
        assert got.global_phase == want.global_phase, seed
        for g, w in zip(got.front + got.back, want.front + want.back):
            assert np.abs(g - w).max() <= 1e-14, seed


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
