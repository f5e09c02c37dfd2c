"""The benchmark's own numerics: target generation and reference checks.

Nothing here imports ``swapsynth``.  Targets are drawn from the seed with
plain numpy, and every circuit the program emits is rebuilt from its
serialized ``circuit_to_dict`` form by an independent matrix product, so a
wrong circuit cannot be vouched for by the code that produced it.
"""

from __future__ import annotations

import numpy as np

# A circuit whose rebuilt unitary is this far from its target, or further,
# counts as a failed operation.
RESIDUAL_LIMIT = 1e-9

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
_SYM = (np.eye(4) + _SWAP) / 2.0
_ANTI = (np.eye(4) - _SWAP) / 2.0
# CNOT with control on qubit 1 (left factor) or on qubit 2.
_CNOT = {1: np.eye(4, dtype=complex)[[0, 1, 3, 2]], 2: np.eye(4, dtype=complex)[[0, 3, 2, 1]]}
# Magic basis: columns phi+, i phi-, i psi+, psi-.
_MAGIC = np.array(
    [[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]], dtype=complex
) / np.sqrt(2.0)


def haar(rng, count, dim):
    """``count`` Haar-random unitaries of size ``dim``, as one (count, dim, dim) array."""
    z = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, np.newaxis, :]


def chamber_margin(us):
    """How far each target's canonical class lies from the degenerate faces of the Weyl chamber.

    With theta the eigenphases of m = u_B^T u_B (magic basis, scaled to
    determinant one), a coincidence theta_i = theta_j puts the class on a
    face c_i = +-c_j, and theta_i = -theta_j on the face c3 = 0.  Returns,
    per target, the least |sin| of the half-differences and half-sums of
    the eigenphases: about twice the distance to the nearest such face.
    """
    ub = _MAGIC.conj().T @ us @ _MAGIC
    m = np.swapaxes(ub, 1, 2) @ ub / np.sqrt(np.linalg.det(ub))[:, None, None]
    theta = np.angle(np.linalg.eigvals(m))
    i, j = np.triu_indices(4, 1)
    half = np.concatenate([theta[:, i] - theta[:, j], theta[:, i] + theta[:, j]], axis=1) / 2.0
    return np.min(np.abs(np.sin(half)), axis=1)


def generic_haar(rng, count, margin):
    """``count`` Haar-random 4x4 unitaries whose classes lie ``margin`` or more from every degenerate face.

    Draws in batches and keeps targets in draw order, so the same ``rng``
    state gives the same targets.  Returns (targets, number drawn).
    """
    kept, drawn = [], 0
    while sum(map(len, kept)) < count:
        us = haar(rng, count, 4)
        drawn += count
        kept.append(us[chamber_margin(us) >= margin])
    return np.concatenate(kept)[:count], drawn


def kron(a, b):
    """Kronecker products of two stacks of 2x2 matrices, (n, 2, 2) each, as (n, 4, 4)."""
    return np.einsum("nij,nkl->nikjl", a, b).reshape(-1, 4, 4)


def core(h):
    """exp(-i (hx XX + hy YY + hz ZZ)) for a stack of coordinates h, (n, 3) -> (n, 4, 4).

    XX, YY and ZZ commute, so the exponential is the product of the three
    factors cos(h_k) I - i sin(h_k) P_k P_k.
    """
    h = np.atleast_2d(h)
    u = np.broadcast_to(np.eye(4, dtype=complex), (len(h), 4, 4))
    for k, p in enumerate((_X, _Y, _Z)):
        c, s = np.cos(h[:, k])[:, None, None], np.sin(h[:, k])[:, None, None]
        u = u @ (c * np.eye(4) - 1j * s * np.kron(p, p))
    return u


def residual(u, v):
    """Phase-invariant distance 1 - |tr(u^dag v)| / 4."""
    return max(0.0, 1.0 - abs(np.trace(u.conj().T @ v)) / 4.0)


def unitary_from_doc(doc):
    """Multiply a serialized circuit out to its 4x4 unitary, ops[0] acting first."""
    u = np.eye(4, dtype=complex) * np.exp(1j * float(doc["global_phase"]))
    for op in doc["ops"]:
        kind = op["kind"]
        if kind == "local":
            m = np.array([[complex(re, im) for re, im in row] for row in op["matrix"]])
            g = np.kron(m, _I2) if op["qubit"] == 1 else np.kron(_I2, m)
        elif kind == "swap_pow":
            g = _SYM + np.exp(1j * np.pi * float(op["alpha"])) * _ANTI
        elif kind == "cnot":
            g = _CNOT[op["control"]]
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        u = g @ u
    return u


def matrix_from_doc(doc):
    """The 4x4 matrix of a ``{"dim": 4, "rows": [[[re, im], ...], ...]}`` file."""
    m = np.array([[complex(re, im) for re, im in row] for row in doc["rows"]])
    if doc.get("dim") != 4 or m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix document, got shape {m.shape}")
    return m


def matrix_to_doc(u):
    return {"dim": 4, "rows": [[[float(z.real), float(z.imag)] for z in row] for row in u]}


def is_unitary(u, atol=1e-10):
    return u.shape == (4, 4) and float(np.max(np.abs(u @ u.conj().T - np.eye(4)))) <= atol


def entangling_power(u):
    """E_p(u) = (2/9)(1 - |G1|), G1 = tr^2(m) / (16 det u), m = u_B^T u_B in the magic basis.

    The local-invariant form of Balakrishnan and Sankaranarayanan, which
    shares no code path with the program's two-copy trace formula.
    """
    ub = _MAGIC.conj().T @ u @ _MAGIC
    m = ub.T @ ub
    g1 = np.trace(m) ** 2 / (16.0 * np.linalg.det(u))
    return float(2.0 / 9.0 * (1.0 - abs(g1)))
