"""Dense complex linear algebra on the fixed dimensions 2, 4 and 16.

Everything here works on plain ``numpy`` arrays of complex128.  Instead of
wrapping matrices in classes, functions validate their contracts on entry
(unitarity, symmetry) and raise :class:`ContractViolation` when
an argument breaks its contract, or :class:`NumericalError` when an internal
procedure misses its tolerance.
"""

from __future__ import annotations

import numpy as np


# Admission tolerance for unitarity and symmetry checks on inputs.
ATOL_UNITARY = 1e-10


class ContractViolation(ValueError):
    """An argument failed one of its documented preconditions."""


class NumericalError(RuntimeError):
    """An internal numerical procedure failed to reach its tolerance."""


def _frozen(a):
    """Make a module-level array read-only, so that no op or caller that
    shares it can write into it."""
    a.setflags(write=False)
    return a


ID2 = _frozen(np.eye(2, dtype=complex))
ID4 = _frozen(np.eye(4, dtype=complex))

PAULI_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))

# Unitary Hadamard, 1/sqrt(2) normalization.
HADAMARD = _frozen(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0))

# Bell states as column vectors in the computational basis |00>,|01>,|10>,|11>.
PHI_PLUS = _frozen(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0))
PHI_MINUS = _frozen(np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2.0))
PSI_PLUS = _frozen(np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2.0))
PSI_MINUS = _frozen(np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0))

# Columns ordered (phi+, phi-, psi+, psi-).
BELL_BASIS = _frozen(np.column_stack([PHI_PLUS, PHI_MINUS, PSI_PLUS, PSI_MINUS]))


def _kron(a, b):
    """Kronecker product of two matrices, bit for bit equal to numpy's ``kron``.

    It forms the same products by one broadcast multiply, without the shape
    bookkeeping that makes numpy's ``kron`` cost several times more on 2x2
    and 4x4 factors.  It stays private: the benchmark tracer
    (``perfbench/tracer.py``) wraps every public function of the package, and
    the per-layer rows that ``BENCHMARK.json`` declares are a fixed set.
    """
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    )


def _rng(seed):
    """``np.random.default_rng(seed)``, raising ContractViolation on a seed it
    rejects, such as a negative integer."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ContractViolation(f"bad seed {seed!r}: {exc}") from None


def _as_square(a, name="matrix"):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolation(f"{name} must be square, got shape {a.shape}")
    return a


def assert_unitary(u, atol=ATOL_UNITARY, name="matrix"):
    """Raise ContractViolation unless u @ u.conj().T == I within atol."""
    u = _as_square(u, name)
    n = u.shape[0]
    eye = ID4 if n == 4 else ID2 if n == 2 else np.eye(n)
    dev = np.abs(u @ u.conj().T - eye).max()
    # Written so that a NaN deviation fails the check too.
    if not dev <= atol:
        raise ContractViolation(
            f"{name} is not unitary: max deviation {dev:.3e} exceeds {atol:.1e}"
        )
    return u


def phase_distance(u, v):
    """Global-phase-invariant gate distance 1 - |tr(u^dag v)| / n.

    Zero exactly when u and v agree up to a global phase; 1/2 for the
    identity against SWAP.  Symmetric, and obeys the triangle inequality
    up to numerical slack.
    """
    u = assert_unitary(u, name="u")
    v = assert_unitary(v, name="v")
    if u.shape != v.shape:
        raise ContractViolation(f"shape mismatch {u.shape} vs {v.shape}")
    d = 1.0 - abs(np.trace(u.conj().T @ v)) / u.shape[0]
    return max(d, 0.0)


def haar_random_unitary(dim, seed):
    """Haar-distributed unitary of dimension 2 or 4, reproducible by seed.

    Orthonormalizes a complex standard-Gaussian matrix by QR and fixes the
    phase of each diagonal factor of R, which makes the distribution exactly
    Haar rather than QR-convention biased.
    """
    if dim not in (2, 4):
        raise ContractViolation(f"unsupported dimension {dim}, expected 2 or 4")
    rng = _rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases[np.newaxis, :]


def project_su(u):
    """Split u into (v, phi) with v = exp(-i phi) u of determinant one.

    phi = arg(det u) / n on the principal branch, so phi lies in
    (-pi/n, pi/n].
    """
    u = assert_unitary(u, name="u")
    n = u.shape[0]
    phi = np.angle(np.linalg.det(u)) / n
    return u * np.exp(-1j * phi), float(phi)


# Real weights r for the combination Re(m) + r Im(m), tried in order.  Two
# distinct eigenphases t1, t2 of m collide in it only when t1 + t2 equals
# 2 atan(r) modulo 2 pi, so each r is generic: atan(r) / pi is far from the
# small rationals that landmark gates produce.
_MIX_WEIGHTS = (1.1842932116394713, -0.5501638305515631)


def diagonalize_complex_symmetric_unitary(m):
    """Factor a complex symmetric unitary as m = Q diag(d) Q^T, Q real orthogonal.

    Such an m has commuting real and imaginary parts with Re^2 + Im^2 = I,
    so one real orthogonal Q diagonalizes both, and with them every real
    combination Re(m) + r Im(m).  One ``eigh`` of that combination gives Q,
    and d is the diagonal of Q^T m Q.  An eigenvalue e^{it} of m maps to
    cos t + r sin t, so for a generic r the combination separates every pair
    of distinct eigenvalues of m, while equal eigenvalues of m may share any
    basis of their eigenspace.  The weights in ``_MIX_WEIGHTS`` are tried in
    order until the reconstruction residual is below 1e-9.  Eigenpairs are
    sorted by the phase of d in (-pi, pi], and each eigenvector's first
    component above 1e-8 is made positive.
    """
    m = _as_square(m, "m")
    if m.shape[0] != 4:
        raise ContractViolation(f"expected a 4x4 matrix, got {m.shape}")
    sym_dev = np.abs(m - m.T).max()
    if sym_dev > ATOL_UNITARY:
        raise ContractViolation(
            f"matrix is not symmetric: max deviation {sym_dev:.3e}"
        )
    assert_unitary(m, name="m")

    for r in _MIX_WEIGHTS:
        _, q = np.linalg.eigh(m.real + r * m.imag)
        d = np.diagonal(q.T @ m @ q)
        unimodular_dev = np.abs(np.abs(d) - 1.0).max()
        d = d / np.abs(d)
        recon_dev = np.abs((q * d) @ q.T - m).max()
        if recon_dev <= 1e-9:
            break
    else:
        raise NumericalError(f"diagonalization residual {recon_dev:.3e} exceeds 1e-9")
    if unimodular_dev > 1e-8:
        raise NumericalError("joint diagonalization produced non-unimodular values")
    ortho_dev = np.abs(q.T @ q - ID4).max()
    if ortho_dev > 1e-10:
        raise NumericalError(f"eigenvector matrix lost orthogonality: {ortho_dev:.3e}")

    order = np.argsort(np.angle(d), kind="stable")
    d = d[order]
    q = q[:, order]
    for j in range(4):
        col = q[:, j]
        lead = col[np.abs(col) > 1e-8]
        if lead.size and lead[0] < 0:
            q[:, j] = -col
    return d, q
