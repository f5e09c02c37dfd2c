"""Dense complex linear algebra on 2x2 and 4x4 matrices and stacks of them.

Everything here works on plain ``numpy`` arrays of complex128.  Instead of
wrapping matrices in classes, functions validate their contracts on entry
(unitarity, symmetry) and raise :class:`ContractViolation` when
an argument breaks its contract, or :class:`NumericalError` when an internal
procedure misses its tolerance.

One rule for matrix products on the per-target path: ``a.dot(b)`` wherever
``dot`` computes what ``a @ b`` computes, and ``@`` for the pairwise
products of two stacks, which ``dot`` does not form.  Both reach the same
BLAS routine, so the bits are the same, but on 4x4 and smaller operands the
matmul gufunc's dispatch costs more than ``dot``'s.  ``@`` also stays where
an operand may be a caller's hand-built value rather than an array, since
``np.dot`` reads a scalar or a list where the matmul raises.
"""

from __future__ import annotations

import math
import operator

import numpy as np
from numpy.linalg import _umath_linalg


# Admission tolerance for unitarity and symmetry checks on inputs.
ATOL_UNITARY = 1e-10


class ContractViolation(ValueError):
    """An argument failed one of its documented preconditions."""


class NumericalError(RuntimeError):
    """An internal numerical procedure failed to reach its tolerance."""


def _frozen(a):
    """Make an array read-only, so that no op or caller that shares it can
    write into it: a module-level constant, or a result handed to several
    callers."""
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
    and 4x4 factors.  Given two (k, ., .) stacks, it takes the product of
    each pair a[i], b[i].  It stays private: the benchmark tracer
    (``perfbench/tracer.py``) wraps every public function of the package, and
    the per-layer rows that ``BENCHMARK.json`` declares are a fixed set.
    """
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(
        *a.shape[:-2], m * p, n * q
    )


def _integer(value, name):
    """value as an int by ``operator.index``, bool refused, or ContractViolation
    naming it: neither 2.5 nor "7" nor True passes."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ContractViolation(f"{name} must be an integer, got {value!r}")


def _real(value, name):
    """value as a finite float, or ContractViolation naming it: a value whose
    type is in ``_REAL_TYPES``, the rule of :func:`_reals`, passes; a bool or
    np.bool_, a string, None or a subclass such as an ``IntEnum`` member does
    not, nor an int too large for a float, nor NaN or an infinity."""
    if value.__class__ not in _REAL_TYPES:
        raise ContractViolation(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ContractViolation(f"{name} is too large for a float") from None
    if not math.isfinite(value):
        raise ContractViolation(f"{name} must be finite, got {value}")
    return value


def _text(value, name):
    """value if it is a str, or ContractViolation naming it: None, a number, a
    bool or a list is refused, not turned into text as ``str()`` would."""
    # An exact str, as every label a reader reads is, skips the isinstance call.
    if value.__class__ is str or isinstance(value, str):
        return value
    raise ContractViolation(f"{name} must be a string, got {value!r}")


def _rng(seed):
    """``np.random.default_rng(seed)``, raising ContractViolation on a seed it
    rejects, such as a negative integer."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ContractViolation(f"bad seed {seed!r}: {exc}") from None


# Each type a matrix entry may have, with its numpy kind: never a bool.
_NUMBER_KINDS = {
    t: np.dtype(t).kind for t in (int, float, complex, *np.sctypeDict.values())
    if np.dtype(t).kind in "iufc"
}
# The types of a real entry: every kind but complex.
_REAL_TYPES = frozenset(t for t, kind in _NUMBER_KINDS.items() if kind != "c")


def _reals(values, n, name):
    """values as a tuple of n floats, or ContractViolation naming it: the one
    rule for a tuple of reals, such as canonical coordinates or Bell phases.
    Any iterable of n entries whose types are in ``_REAL_TYPES`` passes, so
    neither a bool, a string, None nor a nested sequence does, nor an int too
    large for a float.  NaN and the infinities pass: each caller keeps its own
    rule for them."""
    try:
        entries = tuple(values)
    except TypeError:
        entries = ()
    # __len__ rather than len(): the count costs no Python-level call.
    if entries.__len__() != n or not set(map(type, entries)) <= _REAL_TYPES:
        raise ContractViolation(f"{name} must be {n} real numbers, got {values!r}")
    try:
        return tuple(map(float, entries))
    except OverflowError:
        raise ContractViolation(f"{name} has an entry too large for a float") from None


def _real_array(values, name):
    """values as a float ndarray, or ContractViolation naming it: the one rule
    for an array of reals, such as rotation angles.  A float ndarray, as the
    package passes, is returned as it is, at no further call.  Any other
    ndarray passes when its dtype is of kind integer, unsigned or real; any
    other value, a scalar or nested lists, when every entry, nested as numpy
    nests it, has a type in ``_REAL_TYPES``.  So a string, a bool, even
    among reals, None, a complex number, a ragged row or an int too large
    for a float is refused.  NaN and the infinities pass, as with
    :func:`_reals`."""
    if values.__class__ is np.ndarray and values.dtype == float:
        return values
    if isinstance(values, np.ndarray):
        reals = values.dtype.kind in "iuf"
    else:
        entries = _entries(values)
        reals = entries is not None and set(map(type, entries)) <= _REAL_TYPES
    if not reals:
        raise ContractViolation(f"{name} must be a real number or an array of them, got {values!r}")
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise ContractViolation(f"{name} has an entry too large for a float") from None


def _entries(m):
    """m's entries, nested as numpy nests them, or None when numpy cannot
    nest them: arrays whose shapes differ past the first axis."""
    try:
        return np.array(m, dtype=object).flat
    except ValueError:
        return None


def _number_array(m):
    """m as an ndarray when it is a matrix of numbers, else None: the one rule.
    An ndarray passes by its dtype, of kind integer, unsigned, real or complex;
    anything else when every entry, nested as numpy nests it, has a type in
    ``_NUMBER_KINDS`` and numpy holds them as numbers.  So a bool, even among
    numbers, a string, None, a ragged row or arrays that numpy cannot nest
    is refused."""
    if not isinstance(m, np.ndarray):
        entries = _entries(m)
        if entries is None or not set(map(type, entries)) <= _NUMBER_KINDS.keys():
            return None
    m = np.asarray(m)
    return m if m.dtype.kind in "iufc" else None


def _refused_dtype(m):
    """The dtype named when :func:`_number_array` refuses m: numpy's, or when numpy
    reads m as numbers that of the entries that are not, or object for ragged rows."""
    entries = _entries(m)
    bad = None if entries is None else [x for x in entries if type(x) not in _NUMBER_KINDS]
    if bad is None or any(isinstance(x, (list, tuple, np.ndarray)) for x in bad):
        return np.dtype(object)
    dtype = np.asarray(m).dtype
    return np.array(bad).dtype if dtype.kind in "iufc" else dtype


def assert_unitary(u, name="matrix", dim=None):
    """Admit u as a unitary argument, or raise ContractViolation naming it:
    u passes :func:`_admit_matrix` and every entry of u @ u.conj().T is within
    ATOL_UNITARY of the identity.  Returns u as a complex array.  This is the
    one admission rule for every function that takes a unitary argument."""
    return _check_unitary(_admit_matrix(u, name, dim), name)


def _admit_matrix(u, name, dim):
    """The first half of :func:`assert_unitary`: u as a complex array when it
    is a matrix of numbers by :func:`_number_array`, non-empty, square and
    ``dim x dim`` when dim is given, else ContractViolation naming it."""
    # A complex ndarray, as the package passes, costs no call to admit.
    if not (u.__class__ is np.ndarray and u.dtype == complex):
        m = _number_array(u)
        if m is None:
            raise ContractViolation(f"{name} must be a matrix of numbers, got dtype {_refused_dtype(u)}")
        u = m.astype(complex, copy=False)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or dim not in (None, u.shape[0]) or not u.size:
        size = "non-empty square" if dim is None else f"{dim}x{dim}"
        raise ContractViolation(f"{name} must be a {size} matrix, got shape {u.shape}")
    return u


def _check_unitary(u, name, atol=ATOL_UNITARY):
    """The unitarity half of :func:`assert_unitary`, for one square matrix or a
    ``(k, n, n)`` stack of them checked at once.

    Raises the ContractViolation of assert_unitary when any member is further
    than atol from unitary.  For a stack it names the first such member's own
    deviation, so the message is the one a check of that member alone gives,
    and the error's ``member`` is that member's index (0 for one matrix).
    Private, like ``_kron``: it checks matrices the library computed, several
    per target, in one call.
    """
    n = u.shape[-1]
    eye = ID4 if n == 4 else ID2 if n == 2 else np.eye(n)
    # The ufunc np.conjugate costs no Python-level call, unlike ndarray.conj;
    # a real stack, such as the KAK's rotations, is its own conjugate.
    uc = np.conjugate(u) if u.dtype.kind == "c" else u
    # dot does not pair the members of a stack, so a stack keeps the matmul.
    dev = np.abs((u.dot(uc.T) if u.ndim == 2 else u @ uc.swapaxes(-1, -2)) - eye)
    # Written so that a NaN deviation fails the check too.  The ufunc's own
    # reduce skips the Python wrapper behind ndarray.max.
    if not np.maximum.reduce(dev, axis=None) <= atol:
        worst = dev.reshape(-1, n * n).max(axis=1)
        member = int(np.flatnonzero(~(worst <= atol))[0])
        message = f"{name} is not unitary: max deviation {worst[member]:.3e} exceeds {atol:g}"
        exc = ContractViolation(message)
        exc.member = member
        raise exc
    return u


_THREE_ID4 = _frozen(3.0 * ID4)


def _newton_schulz(u):
    """One Newton-Schulz step u (3I - u^dag u) / 2 from a 4x4 u toward its
    nearest unitary: a u within e of unitary comes within about e^2."""
    return u.dot(_THREE_ID4 - np.conjugate(u).T.dot(u)) / 2.0


def _eigh(a):
    """Eigenvalues, ascending, and orthonormal eigenvectors of a real
    symmetric float64 matrix, read from its lower triangle.

    This is the LAPACK gufunc that ``np.linalg.eigh`` calls for such a
    matrix, with the same signature, so its results are the wrapper's to
    the bit.  The wrapper's shape checks, dtype bookkeeping, ``errstate``
    and NamedTuple cost about as much as the 4x4 solve itself.  Unlike the
    wrapper it raises no ``LinAlgError`` when the solver does not converge:
    it returns NaN eigenpairs, which the reconstruction check of
    :func:`diagonalize_complex_symmetric_unitary` refuses as NumericalError.
    Private, like ``_kron``.
    """
    return _umath_linalg.eigh_lo(a, signature="d->dd")


def _det(u):
    """Determinant of a complex128 square matrix: the LAPACK gufunc that
    ``np.linalg.det`` calls for it, with the same signature, so bit for bit
    its result, without the wrapper, which costs about as much again on a
    4x4.  Private, like ``_kron``."""
    return _umath_linalg.det(u, signature="D->D")


def _check_bound(dev, bound, what):
    """Raise NumericalError unless an internal result's deviation dev is
    within bound.  Written so that a NaN deviation fails too."""
    if not dev <= bound:
        raise NumericalError(f"{what} {dev:.3e} exceeds {bound:g}")


def phase_distance(u, v):
    """Global-phase-invariant gate distance 1 - |tr(u^dag v)| / n.

    Zero exactly when u and v agree up to a global phase; 1/2 for the
    identity against SWAP.  Symmetric, and obeys the triangle inequality
    up to numerical slack.  u and v are admitted by :func:`assert_unitary`'s
    rule, v at u's size, and raise its error for u first; their unitarity is
    checked as one stack.
    """
    u = _admit_matrix(u, "u", None)
    try:
        v = _admit_matrix(v, "v", u.shape[0])
        _check_unitary(np.array([u, v]), "u and v")
    except ContractViolation:
        # Admitted again one at a time, so the error is assert_unitary's for u, then for v.
        _check_unitary(u, "u")
        v = assert_unitary(v, "v", u.shape[0])
    d = 1.0 - abs(np.vdot(u, v)) / u.shape[0]
    return max(d, 0.0)


def haar_random_unitary(dim, seed):
    """Haar-distributed unitary of dimension 2 or 4, reproducible by seed.

    Orthonormalizes a complex standard-Gaussian matrix by QR and fixes the
    phase of each diagonal factor of R, which makes the distribution exactly
    Haar rather than QR-convention biased.
    """
    dim = _integer(dim, "dimension")
    if dim not in (2, 4):
        raise ContractViolation(f"unsupported dimension {dim}, expected 2 or 4")
    rng = _rng(_integer(seed, "seed"))
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
    det = _det(u)
    # np.angle(det) is this arctan2, behind four Python-level calls; the
    # libm atan2 of cmath.phase differs from it in the last bit.
    phi = np.arctan2(det.imag, det.real) / n
    return u * np.exp(-1j * phi), float(phi)


# Real weight r for the combination Re(m) + r Im(m).  Two distinct eigenphases
# t1, t2 of m collide in it only when t1 + t2 = 2 atan(r) modulo 2 pi: for a
# KAK target, when some |h_k| = atan(r) / 2 (0.434785) modulo pi / 2.  r is
# generic: atan(r) / pi is far from the small rationals of landmark gates.
_MIX_WEIGHT = 1.1842932116394713


def _reconstruct(m, q):
    """d = diag(q^T m q) / |d|, max||d| - 1| and max|q diag(d) q^T - m|."""
    # numpy would cast the real q before each complex product it enters;
    # one cast gives them the same bits.
    q = q.astype(complex)
    d = np.add.reduce(q * m.dot(q), axis=0)
    size = np.abs(d)
    unimodular_dev = np.maximum.reduce(np.abs(size - 1.0), axis=None)
    # numpy divides a complex by a real through this same reciprocal, so the
    # bits are the division's, but the division raises an invalid-value
    # warning on the NaN eigenpairs of a failed solve.
    d = d * (1.0 / size)
    return d, unimodular_dev, np.maximum.reduce(np.abs((q * d).dot(q.T) - m), axis=None)


def diagonalize_complex_symmetric_unitary(m):
    """Factor a complex symmetric unitary as m = Q diag(d) Q^T, Q real orthogonal.

    Such an m has commuting real and imaginary parts with Re^2 + Im^2 = I,
    so one real orthogonal Q diagonalizes both, and with them every real
    combination Re(m) + r Im(m).  One ``eigh`` of that combination, r =
    ``_MIX_WEIGHT``, gives Q, and d is the diagonal of Q^T m Q.  An eigenvalue
    e^{it} of m maps to cos t + r sin t, which separates every pair of distinct
    eigenvalues of m but those that collide under r; equal eigenvalues of m may
    share any basis of their eigenspace.  When a collision makes the
    reconstruction miss 1e-9, each cluster of eigenvalues of the combination
    closer than 1e-6 has its columns rotated by the ``eigh`` of Im(m) on their
    span, which separates them: collided eigenvalues differ in sin t.  The
    eigenpairs come in ``eigh``'s own order and signs: the gauge, a sort by the
    phase of d that also reduces to the Weyl chamber and a sign per column, is
    chosen where they are used, in ``canonical._chamber_gauge``.
    """
    m = assert_unitary(m, name="m", dim=4)
    sym_dev = np.maximum.reduce(np.abs(m - m.T), axis=None)
    if sym_dev > ATOL_UNITARY:
        raise ContractViolation(
            f"matrix is not symmetric: max deviation {sym_dev:.3e}"
        )

    w, q = _eigh(m.real + _MIX_WEIGHT * m.imag)
    d, unimodular_dev, recon_dev = _reconstruct(m, q)
    if not recon_dev <= 1e-9:
        # A cluster of one column is left as it is by its 1x1 eigh.
        for c in np.split(np.arange(4), np.flatnonzero(np.diff(w) >= 1e-6) + 1):
            q[:, c] = q[:, c] @ _eigh(q[:, c].T @ m.imag @ q[:, c])[1]
        d, unimodular_dev, recon_dev = _reconstruct(m, q)
    if not recon_dev <= 1e-9:
        raise NumericalError(f"diagonalization residual {recon_dev:.3e} exceeds 1e-9")
    _check_bound(unimodular_dev, 1e-8, "non-unimodular eigenvalues: deviation")
    orthogonality_dev = np.maximum.reduce(np.abs(q.T.dot(q) - ID4), axis=None)
    _check_bound(orthogonality_dev, 1e-10, "eigenvector matrix lost orthogonality:")
    return d, q
