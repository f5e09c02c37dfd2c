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

import dataclasses
from typing import NamedTuple

import numpy as np

from .linalg import (
    ContractViolation,
    ID2,
    NumericalError,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    _frozen,
    _kron,
    assert_unitary,
    diagonalize_complex_symmetric_unitary,
    project_su,
)


# Basis in which every single-qubit pair a (x) b becomes real orthogonal and
# every E(h) becomes diagonal.  Columns: phi+, i phi-, i psi+, psi-.
MAGIC = _frozen(np.column_stack(
    [PHI_PLUS, 1j * PHI_MINUS, 1j * PSI_PLUS, PSI_MINUS]
))

_SIGMA = (PAULI_X, PAULI_Y, PAULI_Z)

# Conjugators of the chamber moves, indexed by Pauli axis k (see
# _ReductionState): sigma_k (x) sigma_k for shift, c_k (x) c_k with
# c_k = (I - i sigma_k) / sqrt 2 for swap, and sigma_k (x) I for flip_pair.
_SHIFT_CONJ = tuple(_frozen(_kron(s, s)) for s in _SIGMA)
_SWAP_CONJ = tuple(
    _frozen(_kron(c, c)) for c in ((ID2 - 1j * s) / np.sqrt(2.0) for s in _SIGMA)
)
_FLIP_CONJ = tuple(_frozen(_kron(s, ID2)) for s in _SIGMA)

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


def lambdas_to_params(phases):
    """Invert :func:`lambdas`; only l00, l01, l10 are needed."""
    l00, l01, l10 = (float(phases[i]) for i in range(3))
    return CanonicalParams(
        hx=(l00 + l01) / 2.0,
        hy=(l01 + l10) / 2.0,
        hz=(l00 + l10) / 2.0,
    )


def exp_minus_iH(params):
    """The core unitary E(h) = exp(-i (hx XX + hy YY + hz ZZ)).

    Built from its Bell eigenbasis, so it is exactly unitary for any real
    coordinates, not only chamber ones.
    """
    ph = lambdas(params)
    u = np.zeros((4, 4), dtype=complex)
    for angle, state in (
        (ph.l00, PHI_PLUS),
        (ph.l01, PSI_PLUS),
        (ph.l10, PHI_MINUS),
        (ph.l11, PSI_MINUS),
    ):
        u += np.exp(-1j * angle) * np.outer(state, state.conj())
    return u


def in_weyl_chamber(params, tol=_CHAMBER_TOL):
    """True when (hx, hy, hz) lies in the canonical chamber.

    0 <= |hz| <= hy <= hx <= pi/4, with hz >= 0 required on the hx = pi/4
    wall (where the two hz signs describe the same equivalence class).
    """
    hx, hy, hz = (float(v) for v in params)
    if hx > np.pi / 4.0 + tol or hy > hx + tol or abs(hz) > hy + tol:
        return False
    if hy < -tol:
        return False
    if hx >= np.pi / 4.0 - _WALL_TOL and hz < -max(tol, 1e-13):
        return False
    return True


def split_local_product(l):
    """Factor a 4x4 tensor product into SU(2) parts and a phase.

    Returns (a, b, psi) with l = e^{i psi} a (x) b, det a = det b = 1.
    Raises NumericalError if l is further than 1e-8 from any tensor
    product of single-qubit factors.
    """
    l = assert_unitary(l, name="local product")
    if l.shape[0] != 4:
        raise ContractViolation(f"expected a 4x4 matrix, got {l.shape}")
    blocks = l.reshape(2, 2, 2, 2)
    norms = np.sqrt(np.sum(np.abs(blocks) ** 2, axis=(1, 3)))
    p, q = np.unravel_index(np.argmax(norms), (2, 2))
    b_raw = blocks[p, :, q, :] * (np.sqrt(2.0) / norms[p, q])
    a_raw = np.einsum("ab,iajb->ij", b_raw.conj(), blocks) / 2.0
    residual = np.abs(_kron(a_raw, b_raw) - l).max()
    if residual > 1e-8:
        raise NumericalError(
            f"not a single-qubit tensor product: residual {residual:.3e} exceeds 1e-8"
        )
    a = a_raw / np.sqrt(np.linalg.det(a_raw))
    b = b_raw / np.sqrt(np.linalg.det(b_raw))
    psi = float(np.angle(np.trace(_kron(a, b).conj().T @ l)))
    return a, b, psi


class _ReductionState:
    """Bookkeeping for chamber moves on u = e^{i phi} l2 E(h) l1.

    Each move rewrites the factorization exactly: conjugators migrate into
    the flanking local products l1, l2 and scalars into phi, so the product
    is preserved to machine precision throughout.
    """

    def __init__(self, phi, l2, h, l1):
        self.phi = phi
        self.l2 = l2
        self.h = h
        self.l1 = l1

    def shift(self, k, n):
        """h[k] -= n pi/2, compensated by a sigma_k (x) sigma_k factor."""
        if n == 0:
            return
        self.h[k] -= n * np.pi / 2.0
        z = (1.0, -1j, -1.0, 1j)[n % 4]
        if n % 2:
            self.l1 = _SHIFT_CONJ[k] @ self.l1
        self.phi += np.angle(z)

    def swap(self, j, k):
        """Exchange h[j] and h[k] via same-axis rotations on both qubits."""
        if j == k:
            return
        g = _SWAP_CONJ[3 - j - k]
        self.h[[j, k]] = self.h[[k, j]]
        self.l2 = self.l2 @ g.conj().T
        self.l1 = g @ self.l1

    def flip_pair(self, j, k):
        """Negate h[j] and h[k] via a single-qubit Pauli on qubit 1."""
        g = _FLIP_CONJ[3 - j - k]
        self.h[j] = -self.h[j]
        self.h[k] = -self.h[k]
        self.l2 = self.l2 @ g
        self.l1 = g @ self.l1

    def reduce(self):
        """Drive h into the canonical chamber."""
        for k in range(3):
            self.shift(k, int(np.floor(self.h[k] / (np.pi / 2.0) + 0.5)))
        for i in range(2):
            j = i + int(np.argmax(np.abs(self.h[i:])))
            self.swap(i, j)
        if self.h[0] < 0 and self.h[1] < 0:
            self.flip_pair(0, 1)
        elif self.h[0] < 0:
            self.flip_pair(0, 2)
        elif self.h[1] < 0:
            self.flip_pair(1, 2)
        if self.h[0] >= np.pi / 4.0 - _WALL_TOL and self.h[2] < -1e-13:
            self.shift(0, 1)
            self.flip_pair(0, 2)


def kak_decompose(u):
    """Canonical decomposition of a two-qubit unitary.

    Returns a :class:`CanonicalDecomposition` whose coordinates lie in the
    canonical chamber and whose :func:`reconstruct` reproduces u to around
    1e-12.  Works for every unitary including purely local ones, maximally
    entangling ones, and cores with degenerate coordinates.
    """
    u = assert_unitary(u, name="u")
    if u.shape[0] != 4:
        raise ContractViolation(f"expected a 4x4 unitary, got {u.shape}")

    v, phi = project_su(u)
    vm = MAGIC.conj().T @ v @ MAGIC
    m = vm.T @ vm

    d, q = diagonalize_complex_symmetric_unitary(m)
    if np.linalg.det(q) < 0:
        q[:, 3] = -q[:, 3]

    lam = -np.angle(d) / 2.0
    o2 = (vm @ q) * np.exp(1j * lam)[np.newaxis, :]
    imag_dev = np.abs(o2.imag).max()
    if imag_dev > 1e-8:
        raise NumericalError(
            f"second orthogonal factor has imaginary residue {imag_dev:.3e}"
        )
    if np.linalg.det(o2).real < 0:
        lam[0] += np.pi
        o2[:, 0] = -o2[:, 0]

    l2 = MAGIC @ o2 @ MAGIC.conj().T
    l1 = MAGIC @ q.T.astype(complex) @ MAGIC.conj().T
    # Diagonal slots follow the magic column order phi+, phi-, psi+, psi-.
    h = np.array(
        [
            (lam[0] + lam[2]) / 2.0,
            (lam[2] + lam[1]) / 2.0,
            (lam[0] + lam[1]) / 2.0,
        ]
    )

    state = _ReductionState(phi, l2, h, l1)
    state.reduce()

    params = CanonicalParams(*(float(v) for v in state.h))
    if not in_weyl_chamber(params):
        raise NumericalError(f"reduction left the chamber: {params}")

    try:
        b1, b2, psi2 = split_local_product(state.l2)
        f1, f2, psi1 = split_local_product(state.l1)
    except ContractViolation as exc:
        raise NumericalError(f"kak_decompose, splitting the local factors: {exc}") from exc
    total = float(np.angle(np.exp(1j * (state.phi + psi1 + psi2))))
    return CanonicalDecomposition(
        global_phase=total, front=(f1, f2), params=params, back=(b1, b2)
    )


def reconstruct(dec):
    """Multiply a decomposition back into its 4x4 unitary."""
    f1, f2 = dec.front
    b1, b2 = dec.back
    core = exp_minus_iH(dec.params)
    return np.exp(1j * dec.global_phase) * (_kron(b1, b2) @ core @ _kron(f1, f2))
