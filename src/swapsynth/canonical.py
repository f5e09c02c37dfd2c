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
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
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

_SIGMA = (PAULI_X, PAULI_Y, PAULI_Z)

# Conjugators of the chamber moves, indexed by Pauli axis k (see
# _ReductionState): sigma_k (x) sigma_k for shift, c_k (x) c_k with
# c_k = (I - i sigma_k) / sqrt 2 for swap, and sigma_k (x) I for flip_pair.
_SHIFT_CONJ = tuple(_frozen(_kron(s, s)) for s in _SIGMA)
_SWAP_CONJ = tuple(
    _frozen(_kron(c, c)) for c in ((ID2 - 1j * s) / np.sqrt(2.0) for s in _SIGMA)
)
_FLIP_CONJ = tuple(_frozen(_kron(s, ID2)) for s in _SIGMA)
# Their adjoints for swap, and the phase of the scalar (-i)^n a shift by n leaves.
_SWAP_CONJ_H = tuple(_frozen(g.conj().T) for g in _SWAP_CONJ)
_SHIFT_PHASES = tuple(float(a) for a in np.angle((1, -1j, -1, 1j)))

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
    hx, hy, hz = (float(v) for v in params)
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
    hx, hy, hz = (float(v) for v in params)
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
    Raises NumericalError if l is further than 1e-8 from any tensor
    product of single-qubit factors.
    """
    l = assert_unitary(l, name="local product", dim=4)
    a, b, psi = _split_local_products(l[np.newaxis])
    return a[0], b[0], float(psi[0])


def _split_local_products(ls):
    """:func:`split_local_product` of each member of a (k, 4, 4) stack at once.

    Returns stacks a, b of shape (k, 2, 2) and the k phases psi, each member
    bit for bit equal to a split on its own.  The stack is admitted under
    the rule of assert_unitary, by name "local product".  Private, like
    ``_kron``: kak_decompose splits both of its local products in one call.
    """
    ls = _check_unitary(ls, "local product")
    k = ls.shape[0]
    members = np.arange(k)
    blocks = ls.reshape(k, 2, 2, 2, 2)
    # Block (p, q) is a[p, q] b.  For a unitary a, |a00| = |a11| and
    # |a01| = |a10|, so the first block row holds a largest block, and
    # taking the first of its two on a tie leaves rounding no choice.
    norms = np.sqrt((np.abs(blocks[:, 0]) ** 2).sum(axis=(1, 3)))
    q = norms.argmax(axis=1)
    b_raw = blocks[members, 0, :, q, :] * (np.sqrt(2.0) / norms[members, q])[:, None, None]
    a_raw = np.einsum("kab,kiajb->kij", b_raw.conj(), blocks) / 2.0
    residual = np.abs(_kron(a_raw, b_raw) - ls).max()
    _check_bound(residual, 1e-8, "not a single-qubit tensor product: residual")
    factors = np.array([a_raw, b_raw])
    dets = factors[..., 0, 0] * factors[..., 1, 1] - factors[..., 0, 1] * factors[..., 1, 0]
    # a_raw (x) b_raw is the member, so it is e^{i psi} a (x) b with
    # e^{i psi} the product of the two normalising roots.
    roots = np.sqrt(dets)
    a, b = factors / roots[..., None, None]
    psi = np.angle(roots[0] * roots[1])
    return a, b, psi


# Each chamber move by kind: its conjugator tables for the left of l1 and
# for the right of l2 (None where the move leaves l2 alone).
_MOVE_TABLES = {
    "shift": (_SHIFT_CONJ, None),
    "swap": (_SWAP_CONJ, _SWAP_CONJ_H),
    "flip": (_FLIP_CONJ, _FLIP_CONJ),
}


@functools.cache
def _move_conjugators(moves):
    """The (2, 4, 4) stacks lhs, rhs that carry a chamber reduction.

    moves is the tuple of the (kind, axis) pairs that
    :meth:`_ReductionState.reduce` records.  With the magic-basis transforms
    folded in, the reduced local products are lhs @ [o2, q^T] @ rhs: one
    stacked product, however many moves fired.  Cached, and filled on first
    use: a reduction records one of at most 384 sequences.
    """
    left = right = ID4
    for kind, axis in moves:
        left_table, right_table = _MOVE_TABLES[kind]
        left = left_table[axis] @ left
        if right_table is not None:
            right = right @ right_table[axis]
    lhs = np.array([MAGIC, left @ MAGIC])
    rhs = np.array([_MAGIC_H @ right, _MAGIC_H])
    return _frozen(lhs), _frozen(rhs)


class _ReductionState:
    """Bookkeeping for chamber moves on u = e^{i phi} l2 E(h) l1.

    Each move rewrites the factorization exactly: its conjugators migrate
    into the flanking local products l1, l2 and scalars into phi.  The moves
    are only recorded here, as (kind, axis) pairs in ``moves``; the products
    are applied at once through :func:`_move_conjugators`.
    """

    def __init__(self, phi, h):
        self.phi = phi
        self.h = h
        self.moves = []

    def shift(self, k, n):
        """h[k] -= n pi/2, compensated by a sigma_k (x) sigma_k factor."""
        if n == 0:
            return
        self.h[k] -= n * np.pi / 2.0
        if n % 2:
            self.moves.append(("shift", k))
        self.phi += _SHIFT_PHASES[n % 4]

    def swap(self, j, k):
        """Exchange h[j] and h[k] via same-axis rotations on both qubits."""
        if j == k:
            return
        self.h[j], self.h[k] = self.h[k], self.h[j]
        self.moves.append(("swap", 3 - j - k))

    def flip_pair(self, j, k):
        """Negate h[j] and h[k] via a single-qubit Pauli on qubit 1."""
        self.h[j] = -self.h[j]
        self.h[k] = -self.h[k]
        self.moves.append(("flip", 3 - j - k))

    def reduce(self):
        """Drive h into the canonical chamber.

        The moves decide on h as a list of Python floats: the same IEEE
        arithmetic as numpy scalars, at a fraction of the call cost.
        """
        h = self.h = [float(v) for v in self.h]
        for k in range(3):
            self.shift(k, math.floor(h[k] / (np.pi / 2.0) + 0.5))
        for i in range(2):
            # The first of equal magnitudes wins, as with np.argmax.
            self.swap(i, max(range(i, 3), key=lambda m: abs(h[m])))
        if h[0] < 0 and h[1] < 0:
            self.flip_pair(0, 1)
        elif h[0] < 0:
            self.flip_pair(0, 2)
        elif h[1] < 0:
            self.flip_pair(1, 2)
        if h[0] >= np.pi / 4.0 - _WALL_TOL and h[2] < -1e-13:
            self.shift(0, 1)
            self.flip_pair(0, 2)


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
    if np.linalg.det(q) < 0:
        q[:, 3] = -q[:, 3]

    angles = np.angle(d)
    o2 = (vm @ q) * np.exp(-0.5j * angles)
    _check_bound(np.abs(o2.imag).max(), 1e-8, "second orthogonal factor has imaginary residue")
    # Diagonal slots follow the magic column order phi+, phi-, psi+, psi-.
    # Inverts lambdas with l00 = lam[0], l01 = lam[2], l10 = lam[1].
    l00, l10, l01, _ = (-angles / 2.0).tolist()
    # det(vm) = det(q) = 1, so det(o2) = e^{i sum(lam)} = (-1)^n for the n
    # turns that the eigenphases of m, whose product is 1, add up to.  An odd
    # n is fixed by negating o2's first column and adding pi to lam[0].
    if round(float(angles.sum()) / (2.0 * np.pi)) % 2:
        l00 += np.pi
        o2[:, 0] = -o2[:, 0]
    h = np.array([(l00 + l01) / 2.0, (l01 + l10) / 2.0, (l00 + l10) / 2.0])

    state = _ReductionState(phi, h)
    state.reduce()

    params = CanonicalParams(*(float(v) for v in state.h))
    if not in_weyl_chamber(params):
        raise NumericalError(f"reduction left the chamber: {params}")

    # l2 = MAGIC o2 MAGIC^dag and l1 = MAGIC q^T MAGIC^dag, with the moves'
    # conjugators applied.
    lhs, rhs = _move_conjugators(tuple(state.moves))
    try:
        (b1, f1), (b2, f2), (psi2, psi1) = _split_local_products(lhs @ np.array([o2, q.T]) @ rhs)
    except ContractViolation as exc:
        raise NumericalError(f"kak_decompose, splitting the local factors: {exc}") from exc
    total = cmath.phase(cmath.exp(1j * (state.phi + psi1 + psi2)))
    return CanonicalDecomposition(
        global_phase=total, front=(f1, f2), params=params, back=(b1, b2)
    )


def reconstruct(dec):
    """Multiply a decomposition back into its 4x4 unitary."""
    f1, f2 = dec.front
    b1, b2 = dec.back
    core = exp_minus_iH(dec.params)
    return np.exp(1j * dec.global_phase) * (_kron(b1, b2) @ core @ _kron(f1, f2))
