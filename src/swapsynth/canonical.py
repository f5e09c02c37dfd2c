"""Canonical (Cartan) form of a two-qubit unitary.

Any 4x4 unitary u factors as

    u = e^{i phi} (b1 (x) b2) E(hx, hy, hz) (f1 (x) f2)

with single-qubit factors b*, f* in SU(2) and the entangling core

    E(h) = exp(-i (hx XX + hy YY + hz ZZ)).

The coordinates are reduced to a unique chamber

    0 <= |hz| <= hy <= hx <= pi/4,   and hz >= 0 when hx = pi/4,

in which equivalent unitaries (equal up to single-qubit factors and global
phase) share the same coordinates.  hz genuinely takes both signs: the two
signs are mirror images that no pair of single-qubit rotations can map onto
each other, except on the hx = pi/4 wall where they merge.

The four Bell states diagonalize E(h); their phase angles

    l00 = hx - hy + hz   (phi+)        l01 = hx + hy - hz   (psi+)
    l10 = -hx + hy + hz  (phi-)        l11 = -hx - hy - hz  (psi-)

sum to zero and determine h linearly.  All the synthesis backends work
through these four angles.  In them the chamber is an order (Zhang, Vala,
Sastry & Whaley, PRA 67, 042313 (2003)): h lies in it exactly when

    l01 >= l00 >= l10 >= l11   and   l01 + l00 <= pi/2,

with l00 + l10 >= 0 when l01 + l00 = pi/2 (hy >= hz, hx >= hy, hy >= -hz
are the three orders).  So kak_decompose reaches the chamber by moving
eigenphases by pi, one sort and at most one quarter turn.

In the magic basis every single-qubit pair a (x) b is a real SO(4) matrix
and every E(h) is diagonal.  So kak_decompose keeps its local factors real:
the chamber reduction only reorders and negates their columns, and each
factor splits into its two SU(2) parts in closed form, through unit
quaternions.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
from typing import NamedTuple

import numpy as np

from .linalg import (
    BELL_BASIS,
    ContractViolation,
    ID2,
    NumericalError,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _admit_matrix,
    _check_bound,
    _check_unitary,
    _frozen,
    _kron,
    _newton_schulz,
    _reals,
    assert_unitary,
    diagonalize_complex_symmetric_unitary,
    project_su,
)


# Basis in which every single-qubit pair a (x) b becomes real orthogonal and
# every E(h) becomes diagonal.  Columns: phi+, i phi-, i psi+, psi-.
MAGIC = _frozen(BELL_BASIS * np.array([1, 1j, 1j, 1]))
_MAGIC_H = _frozen(MAGIC.conj().T)

# The quaternion units s = (I, iX, iY, iZ): a = sum p_i s_i is in SU(2) for
# every real unit 4-vector p.
_QUATERNIONS = _frozen(np.array([ID2, 1j * PAULI_X, 1j * PAULI_Y, 1j * PAULI_Z]))
# T_ij = MAGIC^dag (s_i (x) s_j) MAGIC is real with entries 0 and +-1, and
# <T_ij, T_kl> = 4 d_ik d_jl.  So every real 4x4 o is sum m_ij T_ij with
# m_ij = <T_ij, o> / 4, and m = p r^T exactly when o is the magic-basis form
# of a (x) b.  This map takes o, flattened, to m, flattened.
_TO_QUATERNION_PAIR = _frozen(
    np.rint(
        (_MAGIC_H @ np.array([_kron(a, b) for a in _QUATERNIONS for b in _QUATERNIONS]) @ MAGIC).real
    ).reshape(16, 16).T.copy()
    / 4.0
)

# Slot i of the magic basis (phi+, phi-, psi+, psi-: l00, l10, l01, l11)
# holds the _PLACES[i]-th largest Bell phase of a chamber point.
_PLACES = (1, 2, 0, 3)

_WALL_TOL = 1e-10
_CHAMBER_TOL = 1e-9


class CanonicalParams(NamedTuple):
    """Interaction coordinates (hx, hy, hz) of the entangling core."""

    hx: float
    hy: float
    hz: float


class BellPhases(NamedTuple):
    """Phase angles picked up by the four Bell states under E(h)."""

    l00: float
    l01: float
    l10: float
    l11: float


@dataclasses.dataclass(eq=False, frozen=True)
class CanonicalDecomposition:
    """Result of :func:`kak_decompose`.

    ``front`` = (f1, f2) acts first, ``back`` = (b1, b2) last; each entry is
    a 2x2 SU(2) matrix for the corresponding qubit.  The original unitary is
    ``e^{i global_phase} (b1 (x) b2) E(params) (f1 (x) f2)``.  Frozen, and
    its matrices read-only, because kak_decompose hands one result to every
    caller of the same target; ``dataclasses.replace`` makes a changed copy.
    """

    global_phase: float
    front: tuple[np.ndarray, np.ndarray]
    params: CanonicalParams
    back: tuple[np.ndarray, np.ndarray]


def lambdas(params):
    """Bell-state phase angles of E(params), for params three reals by
    ``linalg._reals``.  Their sum is exactly zero.  The arithmetic is
    :func:`_lambdas`'s."""
    return BellPhases(*_lambdas(*_reals(params, 3, "coordinates")))


def _lambdas(hx, hy, hz):
    """The arithmetic of :func:`lambdas` on three floats, with no admission:
    the Bell phases (l00, l01, l10, l11) as a plain tuple.  The CNOT
    synthesis path calls it on the coordinates the KAK computed."""
    return hx - hy + hz, hx + hy - hz, -hx + hy + hz, -hx - hy - hz


def exp_minus_iH(params):
    """The core unitary E(h) = exp(-i (hx XX + hy YY + hz ZZ)).

    Built as B diag(e^{-i l}) B^dag from the Bell basis B and the phases l
    of :func:`lambdas`, so it is exactly unitary for any real coordinates.
    """
    ph = lambdas(params)
    # In the column order of BELL_BASIS: phi+, phi-, psi+, psi-.
    phases = np.exp(-1j * np.array([ph.l00, ph.l10, ph.l01, ph.l11]))
    return (BELL_BASIS * phases) @ BELL_BASIS.conj().T


def in_weyl_chamber(params):
    """True when (hx, hy, hz) lies in the canonical chamber.

    0 <= |hz| <= hy <= hx <= pi/4, with hz >= 0 required on the hx = pi/4
    wall (where the two hz signs describe the same equivalence class).
    params is read as three reals by ``linalg._reals``; a NaN coordinate is
    outside.  The test is :func:`_in_chamber`'s.
    """
    return _in_chamber(*_reals(params, 3, "coordinates"))


def _in_chamber(hx, hy, hz):
    """The test of :func:`in_weyl_chamber` on three floats, with no
    admission: the one chamber rule, which the KAK and the swap synthesis
    path apply to the coordinates the KAK computed."""
    # Each bound is tested as holding, so that a NaN fails it.  |hz| <= bound
    # is chained, as -bound is exact, and costs no call to abs.
    bound = hy + _CHAMBER_TOL
    inside = (
        hx <= np.pi / 4.0 + _CHAMBER_TOL
        and hy <= hx + _CHAMBER_TOL
        and -bound <= hz <= bound
        and hy >= -_CHAMBER_TOL
    )
    return inside and not (hx >= np.pi / 4.0 - _WALL_TOL and hz < -_CHAMBER_TOL)


def split_local_product(l):
    """Factor a 4x4 tensor product into SU(2) parts and a phase.

    Returns (a, b, psi) with l = e^{i psi} a (x) b, det a = det b = 1 and psi
    in (-pi/2, pi/2], for l that passes :func:`assert_unitary`: the
    :func:`kak_decompose` of l gives a = b1 f1, b = b2 f2.  Raises NumericalError
    unless hx + hy + |hz| <= 1e-8, which bounds the spectral norm of E(h) - I
    and so puts l within 1e-8 of e^{i psi} a (x) b.
    """
    dec = kak_decompose(assert_unitary(l, name="local product", dim=4))
    hx, hy, hz = dec.params
    _check_bound(hx + hy + abs(hz), 1e-8, "not a single-qubit tensor product: coordinate sum")
    (b1, b2), (f1, f2), psi = dec.back, dec.front, dec.global_phase
    if -np.pi / 2.0 < psi <= np.pi / 2.0:
        return b1 @ f1, b2 @ f2, psi
    # e^{i psi} a (x) b = e^{i (psi -+ pi)} a (x) -b.
    return b1 @ f1, -(b2 @ f2), psi - np.pi if psi > 0.0 else psi + np.pi


def _split_rotations(os):
    """Factor each member o of a (k, 4, 4) stack of real SO(4) matrices.

    Returns (k, 2, 2) stacks a, b in SU(2) with MAGIC o MAGIC^dag = a (x) b,
    each member bit for bit what a stack of it alone gives, both read-only
    because kak_decompose shares its factors between callers, the one
    caller being :func:`_decompose`.  The checks imply those on
    l = MAGIC o MAGIC^dag, as the README derives: o o^T within
    2.5e-11 of I puts l l^dag within 1e-10 of I (else the ContractViolation
    of assert_unitary for "local product"), and m within 1.25e-9 of p r^T
    puts l within 1e-8 of a (x) b (else NumericalError).
    """
    k = os.shape[0]
    _check_unitary(os, "local product", atol=2.5e-11)
    m = os.reshape(k, 16).dot(_TO_QUATERNION_PAIR).reshape(k, 4, 4)
    # m = p r^T with unit p and r: its largest column, normalised, is +-p,
    # and then r = m^T p.  The first of equal columns wins.
    norms = np.sqrt(np.add.reduce(m * m, axis=1))
    members = np.arange(k)
    j = norms.argmax(axis=1)
    p = m[members, :, j] / norms[members, j, np.newaxis]
    # A product per member, which dot does not form.
    r = (p[:, np.newaxis, :] @ m)[:, 0]
    # 8 max|m - p r^T| bounds max|l - a (x) b|.
    deviation = np.abs(m - p[:, :, np.newaxis] * r[:, np.newaxis, :])
    residual = 8.0 * np.maximum.reduce(deviation, axis=None)
    _check_bound(residual, 1e-8, "not a single-qubit tensor product: residual")
    ab = _frozen(np.array([p, r]).dot(_QUATERNIONS.reshape(4, 4)))
    a, b = ab.reshape(2, k, 2, 2)
    return a, b


def _chamber_gauge(half, columns):
    """The chamber point of :func:`kak_decompose` and its gauge, on Python floats.

    half is minus half of ``np.angle(d)`` and columns are q's columns as
    lists, for the eigenpairs d, q of diagonalize_complex_symmetric_unitary
    in its order: vm = o2 diag(e^{-i half}) q^T.  Returns h, the slots (slot
    i holds column slots[i] of o2 and of q), their signs as two rows of +-1.0,
    o2's then q's, and the quarter turns that the global phase gains.

    Adding pi to a phase negates its column of o2.  For a phase sum of n pi,
    the n largest phases move down by pi, or the -n smallest up, so that
    the sum is zero; then one sort, largest first, fills slot i from place
    _PLACES[i].  Equal phases keep the chamber order of their eigenpairs'
    own slots, across a move too: the last of equal largest phases moves
    down, the first of equal smallest up.  When the two largest add up to
    more than pi/2, taking pi/2 from every phase (a turn of -pi/2) and
    adding pi to the two smallest turns the order round: a >= b >= c >= d
    become c + pi/2, d + pi/2, a - pi/2, b - pi/2.  On the hx = pi/4 wall
    the one of the two with hz >= -1e-13 is taken.  A column of q is
    negated when its first entry above 1e-8 (every orthogonal column has
    one) is negative, and slot 3 of both factors when det q would be -1;
    det o2 is then 1 too, as the phases sum to zero.
    """
    n = round(sum(half) / np.pi)
    rising = [j for *_, j in sorted(zip(half, _PLACES, range(4)))]
    lam, sign = list(half), [1.0, 1.0, 1.0, 1.0]
    for j in rising[4 - n:] if n > 0 else rising[:-n]:
        lam[j] += -np.pi if n > 0 else np.pi
        sign[j] = -1.0
    order = [j for *_, j in sorted(zip([-x for x in lam], _PLACES, range(4)))]
    a, b, c, d = [lam[j] for j in order]
    turned = c + np.pi / 2.0, d + np.pi / 2.0, a - np.pi / 2.0, b - np.pi / 2.0
    turns = -1 if a + b > np.pi / 2.0 else 0
    # The wall rule reads h's own hx and hz, as _in_chamber will.
    first, second, third, _ = turned if turns else (a, b, c, d)
    if (first + second) / 2.0 >= np.pi / 4.0 - _WALL_TOL and (second + third) / 2.0 < -1e-13:
        turns = -1 - turns
    if turns:
        order = order[2:] + order[:2]
        a, b, c, d = turned
        sign[order[0]], sign[order[1]] = -sign[order[0]], -sign[order[1]]
    slots = [order[p] for p in _PLACES]
    rows = [columns[j] for j in slots]
    # A plain loop: a next() over a generator would cost three calls a row.
    q_signs = [1.0, 1.0, 1.0, 1.0]
    for i, row in enumerate(rows):
        for x in row:
            if x > 1e-8:
                break
            if x < -1e-8:
                q_signs[i] = -1.0
                break
    # Negating a row negates _det4 exactly, so this is the det of the signed rows.
    if _det4(rows) * q_signs[0] * q_signs[1] * q_signs[2] * q_signs[3] < 0:
        q_signs[3] = -q_signs[3]
    o2_signs = [s * sign[j] for s, j in zip(q_signs, slots)]
    return [(a + b) / 2.0, (a + c) / 2.0, (b + c) / 2.0], slots, [o2_signs, q_signs], turns


def _det4(rows):
    """Determinant of a 4x4 matrix given as four lists of floats, expanded
    along its first two rows.  On Python floats it costs a fraction of
    ``np.linalg.det``, whose wrapper dominates on a 4x4."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (e0, e1, e2, e3) = rows
    return (
        (a0 * b1 - a1 * b0) * (c2 * e3 - c3 * e2)
        - (a0 * b2 - a2 * b0) * (c1 * e3 - c3 * e1)
        + (a0 * b3 - a3 * b0) * (c1 * e2 - c2 * e1)
        + (a1 * b2 - a2 * b1) * (c0 * e3 - c3 * e0)
        - (a1 * b3 - a3 * b1) * (c0 * e2 - c2 * e0)
        + (a2 * b3 - a3 * b2) * (c0 * e1 - c1 * e0)
    )


def kak_decompose(u):
    """Canonical decomposition of a two-qubit unitary.

    u must pass :func:`assert_unitary` as a 4x4 matrix.  It is decomposed
    as its nearest unitary, one Newton-Schulz step u (3I - u^dag u) / 2 away,
    so the :func:`reconstruct` of the returned :class:`CanonicalDecomposition`
    reproduces u to about its admitted deviation, and a unitary u to around
    1e-12.  The coordinates lie in the canonical chamber.  Works for every
    unitary including purely local ones, maximally entangling ones, and
    cores with degenerate coordinates.

    The result is read-only and shared: the last 8 targets are remembered
    by the C-order bytes of their complex entries, and a target with the
    same bytes gets the same object back, however it was laid out.  Every
    call admits u's numbers and shape; only a miss checks its unitarity, as
    a hit's bytes passed when remembered.  A failure is never remembered.
    """
    return _decompose(_admit_matrix(u, "u", 4).tobytes())


# Each backend decomposes the target it is handed, so compare_backends and the
# CLI's synth command meet one target twice in a row, the second time as a
# hit.  Eight entries cover that with room to spare, and a pass over more than
# eight targets never hits an older one.  The size is fixed, not a knob: a hit
# is only ever the same computation again, so no caller has a reason to tune it.
@functools.lru_cache(maxsize=8)
def _decompose(key):
    """:func:`kak_decompose` of the 4x4 complex matrix whose C-order bytes
    are key, once it passes the unitarity half of assert_unitary."""
    u = _check_unitary(np.ndarray((4, 4), complex, key), "u")
    # Without the projection, m = vm^T vm below doubles u's deviation, past
    # the bound at which diagonalize_complex_symmetric_unitary admits m.
    u = _newton_schulz(u)

    # Both stages admit their argument as a caller's; here it is a value the
    # KAK computed, so a broken contract is a numerical fault.
    try:
        v, phi = project_su(u)
    except ContractViolation as exc:
        raise NumericalError(f"kak_decompose, projecting u onto SU(4): {exc}") from exc
    vm = _MAGIC_H.dot(v).dot(MAGIC)
    m = vm.T.dot(vm)
    try:
        d, q = diagonalize_complex_symmetric_unitary(m)
    except ContractViolation as exc:
        raise NumericalError(f"kak_decompose, diagonalizing m: {exc}") from exc
    # np.angle(d) is this arctan2, behind four Python-level calls.
    half = np.arctan2(d.imag, d.real) * -0.5
    # vm = o2 diag(e^{-i half}) q^T, with q and o2 real orthogonal, in the
    # eigensolver's column order: the gauge only names columns.
    # dot casts the real q itself, to the bits of a complex q's product.
    o2 = vm.dot(q) * np.exp(1j * half)
    residue = np.maximum.reduce(np.abs(o2.imag), axis=None)
    _check_bound(residue, 1e-8, "second orthogonal factor has imaginary residue")
    h, slots, signs, turns = _chamber_gauge(half.tolist(), q.T.tolist())
    params = CanonicalParams(*h)
    if not _in_chamber(*h):
        raise NumericalError(f"reduction left the chamber: {params}")

    # l2 = MAGIC o2 MAGIC^dag and l1 = MAGIC q^T MAGIC^dag with their columns
    # gathered into slot order and signed: both are real, so they split with
    # no phase left over.
    rotations = np.array([o2.real, q])[:, :, slots] * np.array(signs)[:, np.newaxis, :]
    rotations[1] = rotations[1].T
    try:
        (b1, f1), (b2, f2) = _split_rotations(rotations)
    except ContractViolation as exc:
        raise NumericalError(f"kak_decompose, splitting the local factors: {exc}") from exc
    total = cmath.phase(cmath.exp(1j * (phi + turns * np.pi / 2.0)))
    return CanonicalDecomposition(
        global_phase=total, front=(f1, f2), params=params, back=(b1, b2)
    )


def reconstruct(dec):
    """Multiply a decomposition back into its 4x4 unitary."""
    f1, f2 = dec.front
    b1, b2 = dec.back
    core = exp_minus_iH(dec.params)
    return np.exp(1j * dec.global_phase) * (_kron(b1, b2) @ core @ _kron(f1, f2))
