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
through these four angles.

In the magic basis every single-qubit pair a (x) b is a real SO(4) matrix
and every E(h) is diagonal.  So kak_decompose keeps its local factors real:
the chamber reduction only reorders and negates their columns, and each
factor splits into its two SU(2) parts in closed form, through unit
quaternions.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .linalg import (
    BELL_BASIS,
    ContractViolation,
    ID2,
    ID4,
    NumericalError,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _check_bound,
    _check_unitary,
    _frozen,
    _kron,
    assert_unitary,
    diagonalize_complex_symmetric_unitary,
    project_su,
)


# Basis in which every single-qubit pair a (x) b becomes real orthogonal and
# every E(h) becomes diagonal.  Columns: phi+, i phi-, i psi+, psi-.
MAGIC = _frozen(BELL_BASIS * np.array([1, 1j, 1j, 1]))
_MAGIC_H = _frozen(MAGIC.conj().T)
_THREE_ID4 = _frozen(3.0 * ID4)

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

# The chamber moves in the magic basis, where each conjugator is a signed
# permutation of the four columns phi+, i phi-, i psi+, psi- (see _reduce).
# A shift of h[k] by pi/2 multiplies the columns of q by the eigenvalues of
# sigma_k (x) sigma_k on them, _BELL_SIGNS[k].  Swapping the two coordinates
# other than k, or negating them, moves the columns of q and of o2 alike:
# with t = _SWAP_SLOTS[k][i] (or _FLIP_SLOTS[k][i]), slot i takes what slot
# t - 1 held when t > 0, and what slot -t - 1 held, negated, when t < 0.
_BELL_SIGNS = ((1, -1, 1, -1), (-1, 1, 1, -1), (1, 1, -1, -1))
_SWAP_SLOTS = ((3, 2, -1, 4), (1, -3, 2, 4), (2, -1, 3, 4))
_FLIP_SLOTS = ((3, 4, -1, -2), (4, -3, 2, -1), (2, -1, -4, 3))

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


@dataclasses.dataclass(eq=False)
class CanonicalDecomposition:
    """Result of :func:`kak_decompose`.

    ``front`` = (f1, f2) acts first, ``back`` = (b1, b2) last; each entry is
    a 2x2 SU(2) matrix for the corresponding qubit.  The original unitary is
    ``e^{i global_phase} (b1 (x) b2) E(params) (f1 (x) f2)``.
    """

    global_phase: float
    front: tuple[np.ndarray, np.ndarray]
    params: CanonicalParams
    back: tuple[np.ndarray, np.ndarray]


def lambdas(params):
    """Bell-state phase angles of E(params).  Their sum is exactly zero."""
    hx, hy, hz = map(float, params)
    return BellPhases(
        l00=hx - hy + hz,
        l01=hx + hy - hz,
        l10=-hx + hy + hz,
        l11=-hx - hy - hz,
    )


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
    wall (where the two hz signs describe the same equivalence class).  A NaN
    coordinate is outside.
    """
    hx, hy, hz = map(float, params)
    # Each bound is tested as holding, so that a NaN fails it.
    inside = (
        hx <= np.pi / 4.0 + _CHAMBER_TOL
        and hy <= hx + _CHAMBER_TOL
        and abs(hz) <= hy + _CHAMBER_TOL
        and hy >= -_CHAMBER_TOL
    )
    return inside and not (hx >= np.pi / 4.0 - _WALL_TOL and hz < -_CHAMBER_TOL)


def split_local_product(l):
    """Factor a 4x4 tensor product into SU(2) parts and a phase.

    Returns (a, b, psi) with l = e^{i psi} a (x) b, det a = det b = 1.
    l must pass :func:`assert_unitary` and is split as its nearest unitary,
    one Newton-Schulz step away, as in :func:`kak_decompose`.  Raises
    NumericalError unless l is within 1e-8 of e^{i psi} a (x) b; the checks
    run on l's real magic-basis form, with bounds that imply that one.
    """
    l = assert_unitary(l, name="local product", dim=4)
    l = l @ (_THREE_ID4 - l.conj().T @ l) / 2.0
    # With det(a (x) b) = 1, l's magic-basis form over a fourth root of its
    # determinant is i^n times a real SO(4) matrix.
    root = complex(np.linalg.det(l)) ** 0.25
    x = _MAGIC_H @ l @ MAGIC / root
    turned = np.abs(x.imag).max() > np.abs(x.real).max()
    o, residue = (x.imag, x.real) if turned else (x.real, x.imag)
    _check_bound(np.abs(residue).max(), 1e-8, "not a single-qubit tensor product: residue")
    a, b = _split_rotations(o[np.newaxis])
    return a[0], b[0], cmath.phase(root * (1j if turned else 1.0))


def _split_rotations(os):
    """Factor each member o of a (k, 4, 4) stack of real SO(4) matrices.

    Returns (k, 2, 2) stacks a, b in SU(2) with MAGIC o MAGIC^dag = a (x) b,
    each member bit for bit what a stack of it alone gives.  The checks imply
    those on l = MAGIC o MAGIC^dag, as the README derives: o o^T within
    2.5e-11 of I puts l l^dag within 1e-10 of I (else the ContractViolation
    of assert_unitary for "local product"), and m within 1.25e-9 of p r^T
    puts l within 1e-8 of a (x) b (else NumericalError).
    """
    k = os.shape[0]
    _check_unitary(os, "local product", atol=2.5e-11)
    m = (os.reshape(k, 1, 16) @ _TO_QUATERNION_PAIR).reshape(k, 4, 4)
    # m = p r^T with unit p and r: its largest column, normalised, is +-p,
    # and then r = m^T p.  The first of equal columns wins.
    norms = np.sqrt(np.add.reduce(m * m, axis=1))
    members = np.arange(k)
    j = norms.argmax(axis=1)
    p = m[members, :, j] / norms[members, j, np.newaxis]
    r = (p[:, np.newaxis, :] @ m)[:, 0]
    # 8 max|m - p r^T| bounds max|l - a (x) b|.
    deviation = np.abs(m - p[:, :, np.newaxis] * r[:, np.newaxis, :])
    residual = 8.0 * np.maximum.reduce(deviation, axis=None)
    _check_bound(residual, 1e-8, "not a single-qubit tensor product: residual")
    a, b = (np.array([p, r])[..., np.newaxis, :] @ _QUATERNIONS.reshape(4, 4)).reshape(2, k, 2, 2)
    return a, b


def _eigen_gauge(half, columns):
    """Every gauge decision of :func:`kak_decompose`, on Python floats.

    half is minus half of ``np.angle(d)`` and columns are q's columns as
    lists, for the eigenpairs d, q of
    :func:`diagonalize_complex_symmetric_unitary` in its own order, so that
    vm = o2 diag(e^{-i half}) q^T.  Returns h and the signed column
    references (see _reduce) of o2 and q.  Slot i takes the eigenpair of the
    i-th smallest phase, the first of equal phases first, negated when its
    column's first entry above 1e-8 (every orthogonal column has one) is
    negative.  Both factors need determinant 1: when the gauged q's is -1,
    slot 3 of both is negated.  Then det(vm) = 1 gives det(o2) =
    e^{i sum(lam)} = (-1)^n for the n turns that the eigenphases of m, whose
    product is 1, add up to; an odd n is fixed by negating o2's slot 0 and
    adding pi to lam[0].
    """
    cols = [
        -j - 1 if next(x for x in columns[j] if abs(x) > 1e-8) < 0 else j + 1
        for j in sorted(range(4), key=half.__getitem__, reverse=True)
    ]
    if _det4([columns[c - 1] if c > 0 else [-x for x in columns[-c - 1]] for c in cols]) < 0:
        cols[3] = -cols[3]
    # Diagonal slots follow the magic column order phi+, phi-, psi+, psi-.
    # Inverts lambdas with l00 = lam[0], l01 = lam[2], l10 = lam[1].
    lam = [half[abs(c) - 1] for c in cols]
    l00, l10, l01, _ = lam
    o2_cols = cols[:]
    if round(-sum(lam) / np.pi) % 2:
        l00 += np.pi
        o2_cols[0] = -o2_cols[0]
    return [(l00 + l01) / 2.0, (l01 + l10) / 2.0, (l00 + l10) / 2.0], o2_cols, cols


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


def _moved(cols, slots):
    """Signed column references after a swap or a flip (see _SWAP_SLOTS)."""
    return [cols[t - 1] if t > 0 else -cols[-t - 1] for t in slots]


def _reduce(h, o2_cols, q_cols):
    """Drive the coordinates h into the canonical chamber, on Python floats.

    o2_cols and q_cols are signed column references of the two orthogonal
    factors of u = e^{i phi} l2 E(h) l1, with l2 = MAGIC o2 MAGIC^dag and
    l1 = MAGIC q^T MAGIC^dag: slot i of a factor holds its column |c| - 1,
    negated when c < 0.  Each move rewrites u exactly; in the magic basis it
    only reorders and negates those columns and turns the phase by a
    multiple of pi/2.  Returns the reduced h, the two reference lists and
    the number of quarter turns that phi gains.
    """
    h = list(h)
    turns = 0
    # h[k] -= n pi/2 leaves the factor (-i sigma_k (x) sigma_k)^n on l1.
    for k in range(3):
        n = math.floor(h[k] / (np.pi / 2.0) + 0.5)
        if n:
            h[k] -= n * np.pi / 2.0
            turns -= n
            if n % 2:
                q_cols = [c * s for c, s in zip(q_cols, _BELL_SIGNS[k])]
    # Sort by magnitude, exchanging two coordinates by same-axis quarter
    # turns on both qubits.  The first of equal magnitudes wins, as with
    # np.argmax.
    for i in range(2):
        j = max(range(i, 3), key=lambda m: abs(h[m]))
        if j != i:
            h[i], h[j] = h[j], h[i]
            slots = _SWAP_SLOTS[3 - i - j]
            o2_cols, q_cols = _moved(o2_cols, slots), _moved(q_cols, slots)
    # Make hx, hy >= 0 by a Pauli sigma_k on qubit 1, which negates the two
    # coordinates other than k.
    if h[0] < 0 or h[1] < 0:
        k = (2 if h[1] < 0 else 1) if h[0] < 0 else 0
        h = [x if m == k else -x for m, x in enumerate(h)]
        o2_cols, q_cols = _moved(o2_cols, _FLIP_SLOTS[k]), _moved(q_cols, _FLIP_SLOTS[k])
    # On the hx = pi/4 wall, shift hx by pi/2 and negate hx and hz: hz >= 0.
    if h[0] >= np.pi / 4.0 - _WALL_TOL and h[2] < -1e-13:
        h = [np.pi / 2.0 - h[0], h[1], -h[2]]
        turns -= 1
        q_cols = [c * s for c, s in zip(q_cols, _BELL_SIGNS[0])]
        o2_cols, q_cols = _moved(o2_cols, _FLIP_SLOTS[1]), _moved(q_cols, _FLIP_SLOTS[1])
    return h, o2_cols, q_cols, turns


def kak_decompose(u):
    """Canonical decomposition of a two-qubit unitary.

    u must pass :func:`assert_unitary` as a 4x4 matrix.  It is decomposed
    as its nearest unitary, one Newton-Schulz step u (3I - u^dag u) / 2 away,
    so the :func:`reconstruct` of the returned :class:`CanonicalDecomposition`
    reproduces u to about its admitted deviation, and a unitary u to around
    1e-12.  The coordinates lie in the canonical chamber.  Works for every
    unitary including purely local ones, maximally entangling ones, and
    cores with degenerate coordinates.
    """
    u = assert_unitary(u, name="u", dim=4)
    # Without the projection, m = vm^T vm below doubles u's deviation, past
    # the bound at which diagonalize_complex_symmetric_unitary admits m.
    u = u @ (_THREE_ID4 - u.conj().T @ u) / 2.0

    v, phi = project_su(u)
    vm = _MAGIC_H @ v @ MAGIC
    m = vm.T @ vm

    d, q = diagonalize_complex_symmetric_unitary(m)
    half = np.angle(d) * -0.5
    # vm = o2 diag(e^{-i half}) q^T, with q and o2 real orthogonal, in the
    # eigensolver's column order: the gauge only names columns.
    o2 = (vm @ q) * np.exp(1j * half)
    residue = np.maximum.reduce(np.abs(o2.imag), axis=None)
    _check_bound(residue, 1e-8, "second orthogonal factor has imaginary residue")
    h, o2_cols, q_cols = _eigen_gauge(half.tolist(), q.T.tolist())
    h, o2_cols, q_cols, turns = _reduce(h, o2_cols, q_cols)
    params = CanonicalParams(*h)
    if not in_weyl_chamber(params):
        raise NumericalError(f"reduction left the chamber: {params}")

    # l2 = MAGIC o2 MAGIC^dag and l1 = MAGIC q^T MAGIC^dag with their columns
    # gathered: both are real, so they split with no phase left over.
    order = [abs(c) - 1 for c in o2_cols]
    signs = [1.0 if c > 0 else -1.0 for c in o2_cols + q_cols]
    rotations = np.array([o2.real, q])[:, :, order] * np.array(signs).reshape(2, 1, 4)
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
