"""Circuit synthesis for two-qubit unitaries over two gate sets.

The primary backend compiles any 4x4 unitary into exactly three fractional
SWAP gates plus six single-qubit gates.  The alternate backend produces
exactly three CNOTs plus at most eight single-qubit gates.  Both start from
the canonical decomposition; both reproduce their target to machine
precision including the global phase.

Circuits are plain data: an ordered op list (leftmost applied first) and a
declared global phase, serializable to a stable JSON schema.  An op is a
:class:`LocalOp`, :class:`SwapPowOp` or :class:`CnotOp`, built by the
validating :func:`local_op`, :func:`swap_op` or :func:`cnot_op`; each kind
knows its own matrix action, JSON entry, prune rule and schedule cost, and
its unitary is that action on the identity.
"""

from __future__ import annotations

import cmath
import collections
import dataclasses
from typing import ClassVar, NamedTuple

import numpy as np

from .canonical import (
    BellPhases,
    _in_chamber,
    _lambdas,
    exp_minus_iH,
    kak_decompose,
    split_local_product,
)
from .gates import _swap_pow_block, rz
from .linalg import (
    BELL_BASIS,
    ContractViolation,
    HADAMARD,
    ID2,
    ID4,
    NumericalError,
    PAULI_X,
    PAULI_Z,
    _REAL_TYPES,
    _check_unitary,
    _frozen,
    _integer,
    _number_array,
    _real,
    _reals,
    _text,
    assert_unitary,
)


class GateOp:
    """Common base of the three op kinds.

    Every op has a readable ``kind`` string and these methods:
    ``apply(u)`` is its one matrix action, the op's 4x4 matrix times a 4x4
    u, which each kind computes from its structure without forming the 4x4;
    ``unitary()`` is that action on the identity, a new array on each call;
    ``to_dict()`` is its JSON entry; ``identity_phase(tol)`` is theta when
    the op acts as e^{i theta} I within tol, or None (the default) when it
    must be kept; ``duration_s(profile)`` is its time under a hardware
    profile.
    """

    kind: ClassVar[str]

    def unitary(self):
        return self.apply(ID4)

    def identity_phase(self, tol):
        return None


@dataclasses.dataclass(eq=False)
class LocalOp(GateOp):
    """Single-qubit gate ``matrix`` on qubit 1 (left factor) or 2.

    A hand-built qubit that equals neither 1 nor 2 is refused, where it is
    read, with the error of :func:`local_op`; one equal to 1 or 2, such as
    True or 1.0, reads as that qubit, and only the writer refuses it.  A
    hand-built matrix is admitted by local_op's rule where its entries are
    priced or compared with the identity: by ``identity_phase``, and by
    ``duration_s`` under the "proportional" policy.
    """

    qubit: int
    matrix: np.ndarray
    label: str = ""
    kind: ClassVar[str] = "local"

    def apply(self, u):
        # The 2x2 acts on the row index's qubit-1 (or qubit-2) digit only.
        m = self.matrix
        # dot costs less than the matmul, but np.dot(3, u) is 3u where the
        # matmul raises, and a list or a string array fails otherwise: so dot
        # serves only a complex 2-D array, which every op the package builds
        # or reads holds.
        by_dot = m.__class__ is np.ndarray and m.ndim == 2 and m.dtype == complex
        if self.qubit == 1:
            return (m.dot(u.reshape(2, 8)) if by_dot else m @ u.reshape(2, 8)).reshape(4, 4)
        if self.qubit != 2:
            _qubit_index(self.qubit, "qubit")
        if by_dot:
            return m.dot(u.reshape(2, 2, 4)).swapaxes(0, 1).reshape(4, 4)
        return (m @ u.reshape(2, 2, 4)).reshape(4, 4)

    def to_dict(self):
        # Entries that are not numbers are not cast: no rows are written,
        # and reading none raises the reader's error for unreadable rows.
        numbers = _number_array(self.matrix)
        matrix = None if numbers is None else _matrix_to_json(numbers)
        if matrix is None or np.shape(self.matrix) != (2, 2):
            _matrix_from_json(matrix, 2, "local matrix")  # raises the reader's error
        return {
            "kind": self.kind,
            "qubit": _qubit_index(self.qubit, "qubit"),
            "label": _text(self.label, "label"),
            "matrix": matrix,
        }

    @staticmethod
    def from_dict(entry):
        # Unitarity is left to circuit_from_dict, which checks every local of a document at once.
        matrix = _matrix_from_json(entry.get("matrix"), 2, name="local matrix")
        qubit = _qubit_index(entry.get("qubit"), "qubit")
        return LocalOp(qubit, matrix, _text(entry.get("label", ""), "label"))

    def identity_phase(self, tol):
        m = assert_unitary(self.matrix, name="local matrix", dim=2)
        theta = np.angle(np.trace(m) / 2.0)
        if np.abs(m - np.exp(1j * theta) * ID2).max() <= tol:
            return theta
        return None

    def duration_s(self, profile):
        # The fixed price reads no matrix, so it admits none.
        if profile.local_rotation_policy == "fixed_pi":
            return profile.pi_rotation_time_s
        # Rotation angle ignoring global phase: |tr| = 2|cos(angle/2)|.
        m = assert_unitary(self.matrix, name="local matrix", dim=2)
        cos_half = min(abs(np.trace(m)) / 2.0, 1.0)
        return profile.pi_rotation_time_s * 2.0 * np.arccos(cos_half) / np.pi


@dataclasses.dataclass(eq=False)
class SwapPowOp(GateOp):
    """SWAP raised to the real power ``alpha`` (period 2)."""

    alpha: float
    kind: ClassVar[str] = "swap_pow"

    def _even_distance(self):
        reduced = _real(self.alpha, "swap exponent") % 2.0
        return min(reduced, 2.0 - reduced)

    def apply(self, u):
        # SWAP**alpha mixes only the rows of |01> and |10>, written in place
        # into a complex copy, which a real u needs too.
        out = u.astype(complex)
        _swap_pow_block(self.alpha).dot(u[1:3], out=out[1:3])
        return out

    def to_dict(self):
        return {"kind": self.kind, "alpha": _real(self.alpha, "swap exponent")}

    @staticmethod
    def from_dict(entry):
        return swap_op(entry.get("alpha"))

    def identity_phase(self, tol):
        return 0.0 if self._even_distance() <= tol else None

    def duration_s(self, profile):
        return profile.swap_full_time_s * self._even_distance()


@dataclasses.dataclass(eq=False)
class CnotOp(GateOp):
    """CNOT with control qubit ``control`` (1 or 2), read as LocalOp reads
    its qubit, with the error of :func:`cnot_op`."""

    control: int
    kind: ClassVar[str] = "cnot"

    def apply(self, u):
        if self.control not in (1, 2):
            _qubit_index(self.control, "control")
        # A CNOT permutes the rows: it flips the target where the control is 1.
        return u.take(_CNOT_ROWS[self.control], 0)

    def to_dict(self):
        return {"kind": self.kind, "control": _qubit_index(self.control, "control")}

    @staticmethod
    def from_dict(entry):
        return cnot_op(entry.get("control", 1))

    def duration_s(self, profile):
        # Not a native exchange pulse: costed at the full-SWAP time.
        return profile.swap_full_time_s


# Row order of CNOT @ u, by control qubit.
_CNOT_ROWS = {1: _frozen(np.array([0, 1, 3, 2])), 2: _frozen(np.array([0, 3, 2, 1]))}


def _qubit_index(value, name):
    """value as the int 1 or 2 by ``linalg._integer``, or ContractViolation
    naming it.  The op readers call it only for a value equal to neither 1
    nor 2, which it always refuses."""
    value = _integer(value, name)
    if value not in (1, 2):
        raise ContractViolation(f"{name} must be 1 or 2, got {value}")
    return value


def local_op(qubit, matrix, label=""):
    """A LocalOp: qubit 1 or 2 by ``linalg._integer``, stored as an int, so
    neither True nor 1.0 passes; a 2x2 matrix by ``assert_unitary``; a label
    by ``linalg._text``, so None does not pass."""
    qubit = _qubit_index(qubit, "qubit")
    matrix = assert_unitary(matrix, name="local matrix", dim=2)
    return LocalOp(qubit=qubit, matrix=matrix, label=_text(label, "label"))


def swap_op(alpha):
    """A SwapPowOp, its exponent a float by ``linalg._real``."""
    return SwapPowOp(alpha=_real(alpha, "swap exponent"))


def cnot_op(control=1):
    """A CnotOp: control 1 or 2 by ``linalg._integer``, stored as an int."""
    return CnotOp(control=_qubit_index(control, "control"))


# The one place a kind string is read from outside input.
_OP_KINDS = {cls.kind: cls for cls in (LocalOp, SwapPowOp, CnotOp)}


@dataclasses.dataclass(eq=False)
class Circuit:
    """Ordered gate list; ops[0] acts first on the input state."""

    ops: list
    declared_global_phase: float = 0.0


# Reflection about the |+:-> product state: exchanges the phi- and psi- Bell
# states while fixing phi+ and psi+.  Equal to the three-CNOT interleaving
# CNOT (W (x) I) CNOT (W (x) I) CNOT with W the Hadamard, and the fixed
# entangling skeleton around which the CNOT backend applies Bell phases.
BELL_EXCHANGE = _frozen(BELL_BASIS[:, [0, 3, 2, 1]] @ BELL_BASIS.conj().T)


class SwapAngles(NamedTuple):
    """Exponents of the three fractional SWAP gates, each in [0, 1]."""

    alpha: float
    beta: float
    gamma: float


class CnotPhaseParams(NamedTuple):
    """z-rotation angles of the two phase layers in the CNOT backend."""

    zeta1: float
    xi1: float
    zeta2: float
    xi2: float


def swap_angles(p):
    """Pulse exponents (alpha, beta, gamma) for chamber coordinates p.

    alpha = 2(hx+hy)/pi, beta = 2(hx-hz)/pi, gamma = 2(hy-hz)/pi.  All three
    lie in [0, 1]; beta and gamma exceed 1/2 exactly when hz < 0.  p is read
    as three reals by ``linalg._reals``.  The chamber check and the
    arithmetic are :func:`_pulse_exponents`'s.
    """
    return SwapAngles(*_pulse_exponents(*_reals(p, 3, "coordinates")))


def _pulse_exponents(hx, hy, hz):
    """The chamber check and the arithmetic of :func:`swap_angles` on three
    floats, with no admission: (alpha, beta, gamma) as a plain tuple.  The
    swap synthesis path calls it on the coordinates the KAK computed, so
    its check raises the same ContractViolation there."""
    if not _in_chamber(hx, hy, hz):
        raise ContractViolation(
            f"parameters {(hx, hy, hz)} lie outside the canonical chamber by "
            f"more than its tolerance 1e-9"
        )
    return 2.0 * (hx + hy) / np.pi, 2.0 * (hx - hz) / np.pi, 2.0 * (hy - hz) / np.pi


def _core_swap(p):
    """Op list and declared phase of the three-SWAP core E(p).

    ``Circuit(*_core_swap(p))`` evaluates to exp_minus_iH(p) exactly,
    including the declared phase hz - hx - hy.  The list ends with the
    Pauli pair Z on qubit 1, X on qubit 2.  The Paulis are exact constants,
    so they skip :func:`local_op`'s check.  p is a decomposition's
    CanonicalParams, three floats, so it is not read again: the exponents
    are :func:`_pulse_exponents`'s of its floats, checked in the chamber,
    so they are finite and skip :func:`swap_op`'s check, which could not
    fail on them.
    """
    hx, hy, hz = p
    alpha, beta, gamma = _pulse_exponents(hx, hy, hz)
    ops = [
        SwapPowOp(alpha),
        LocalOp(2, PAULI_X, "X"),
        SwapPowOp(beta),
        LocalOp(1, PAULI_Z, "Z"),
        SwapPowOp(gamma),
        LocalOp(1, PAULI_Z, "Z"),
        LocalOp(2, PAULI_X, "X"),
    ]
    return ops, hz - hx - hy


def _local_ops(matrices, slots):
    """LocalOps for a (k, 2, 2) stack of computed single-qubit matrices.

    slots gives each member's (qubit, label).  The stack is admitted in one
    check under :func:`local_op`'s rule, so a failure raises the same
    ContractViolation that local_op would.
    """
    qubits, labels = zip(*slots)
    # map rather than a comprehension, whose own frame is one more call.
    return list(map(LocalOp, qubits, _check_unitary(matrices, "local matrix"), labels))


def synthesize_swap(u):
    """Compile u into 3 fractional SWAPs and exactly 6 single-qubit gates.

    The two trailing Pauli gates of the core construction are merged into
    the back local pair, which brings the single-qubit count to six; labels
    record the merge.  The evaluated circuit reproduces u to machine
    precision including global phase.
    """
    dec = kak_decompose(u)
    b1, b2 = dec.back
    m = np.empty((4, 2, 2), dtype=complex)
    m[0], m[1] = dec.front
    try:
        (*core, z, x), phase = _core_swap(dec.params)
        b1.dot(z.matrix, out=m[2])
        b2.dot(x.matrix, out=m[3])
        u1, v1, u4, v4 = _local_ops(
            m, ((1, "u1"), (2, "v1"), (1, f"u4'·{z.label}"), (2, f"v4'·{x.label}"))
        )
    except ContractViolation as exc:
        raise NumericalError(f"swap synthesis: {exc}") from exc
    ops = [u1, v1, *core, u4, v4]
    return Circuit(ops=ops, declared_global_phase=float(dec.global_phase + phase))


def cnot_phase_params(phases):
    """Rotation angles that imprint the four Bell phases in the CNOT core.

    Input is a BellPhases-like quadruple of reals, by ``linalg._reals``,
    summing to zero (within 1e-9).
    The four angles are underdetermined by one gauge degree of freedom,
    fixed here by zeta1 = zeta2 and the symmetric split of the xi pair:

        zeta1 = zeta2 = (l00 + l01)/4
        xi1 + xi2 = (l00 - l01)/2,  xi2 - xi1 = (l10 - l11)/2.

    The arithmetic and the sum check are :func:`_phase_layer_angles`'s.
    """
    return CnotPhaseParams(*_phase_layer_angles(*_reals(phases, 4, "Bell phases")))


def _phase_layer_angles(l00, l01, l10, l11):
    """The arithmetic of :func:`cnot_phase_params` on four floats, with no
    admission: (zeta1, xi1, zeta2, xi2) as a plain tuple.  The sum check is
    here, so it runs on the synthesis path too, with the same
    ContractViolation."""
    total = l00 + l01 + l10 + l11
    # A chained bound, which NaN fails, costs no call to abs.
    if not -1e-9 <= total <= 1e-9:
        raise ContractViolation(f"Bell phases must sum to 0 within 1e-9, got {total:.3e}")
    zeta = (l00 + l01) / 4.0
    half_sum = (l00 - l01) / 4.0
    half_diff = (l10 - l11) / 4.0
    return zeta, half_sum - half_diff, zeta, half_sum + half_diff


# Qubit and label of the four phase-layer locals of the CNOT core.
_CORE_CNOT_SLOTS = ((1, "rz1·W"), (2, "rz1"), (1, "W·rz2"), (2, "rz2"))


def _core_cnot_locals(angles):
    """The (4, 2, 2) stack rz(zeta1) W, rz(xi1), W rz(zeta2), rz(xi2) of the
    CNOT core's two phase layers, W the Hadamard, from one stacked :func:`rz`
    and one stacked product.  angles are four floats; rz gets them as a
    float array, which its admission returns at once."""
    m = rz(np.array(angles, dtype=float))
    front, back = m[0::2].dot(HADAMARD)
    m[0] = front
    # W rz(zeta2) = (rz(zeta2) W)^T, bit for bit: W is symmetric, rz diagonal.
    m[2] = back.T
    return m


def build_core_cnot_circuit(params):
    """Three CNOTs with two merged phase layers: the parametric core.

    Applies phase e^{-i l_b} to each Bell state while exchanging the phi-
    and psi- slots, for the Bell phases l that produced ``params`` via
    :func:`cnot_phase_params`.  Equals exp_minus_iH(h) @ BELL_EXCHANGE for
    the matching coordinates h.

    params is read as four reals in CnotPhaseParams order by
    ``linalg._reals``.  Its locals rz(zeta1) W, rz(xi1), W rz(zeta2),
    rz(xi2), with W the Hadamard, are admitted in one check.  Its CNOTs are
    exact, so they skip :func:`cnot_op`'s check.
    """
    angles = _reals(params, 4, "phase-layer angles")
    w1, r1, w2, r2 = _local_ops(_core_cnot_locals(angles), _CORE_CNOT_SLOTS)
    ops = [CnotOp(1), w1, r1, CnotOp(1), w2, r2, CnotOp(1)]
    return Circuit(ops=ops, declared_global_phase=0.0)


def shifted_bell_phases(lam):
    """Bell phases whose core matches the class of phases ``lam``.

    The CNOT core imprints its phases while exchanging the phi-/psi-
    slots; a quarter-pi redistribution between the two slot pairs undoes
    the exchange's effect on the canonical class.  Sum stays zero.  lam is
    read as four reals in BellPhases order by ``linalg._reals``.  The
    arithmetic is :func:`_shifted_bell_phases`'s.
    """
    return BellPhases(*_shifted_bell_phases(*_reals(lam, 4, "Bell phases")))


def _shifted_bell_phases(l00, l01, l10, l11):
    """The arithmetic of :func:`shifted_bell_phases` on four floats, with no
    admission: the shifted (l00, l01, l10, l11) as a plain tuple."""
    quarter = np.pi / 4.0
    return l00 - quarter, l01 - quarter, l10 + quarter, l11 + quarter


# The core for coordinates h evaluates to E(h) E(-pi/4, 0, 0) BELL_EXCHANGE,
# because shifted_bell_phases lowers hx by pi/4, and the last two factors
# form a fixed local product e^{i psi} (p (x) q) (Vatan & Williams, PRA 69,
# 032315 (2004)).  So core(h) = e^{i psi} E(h) (p (x) q) for every h, and the
# core's local factors are known without decomposing it.  split_local_product
# raises NumericalError on import if the identity ever stops holding.
_CORE_P, _CORE_Q, _CORE_PSI = split_local_product(
    exp_minus_iH((-np.pi / 4.0, 0.0, 0.0)) @ BELL_EXCHANGE
)
_frozen(_CORE_P)
_frozen(_CORE_Q)
# The front locals of every CNOT circuit absorb p^dag and q^dag, as one stack.
_CORE_PQ_DAG = _frozen(np.array([_CORE_P.conj().T, _CORE_Q.conj().T]))

# Qubit and label of the eight locals of a CNOT circuit, in stack order.
_CNOT_SLOTS = ((1, "front-q1"), (2, "front-q2"), *_CORE_CNOT_SLOTS, (1, "back-q1"), (2, "back-q2"))


def _cnot_core_params(params):
    """Phase-layer angles (zeta1, xi1, zeta2, xi2) of the CNOT core, as a
    plain tuple, for a decomposition's CanonicalParams: the bits of
    ``cnot_phase_params(shifted_bell_phases(lambdas(params)))``.  The KAK
    computed params as floats, so the three steps' private arithmetic runs
    on them with no admission in between, the sum check included."""
    return _phase_layer_angles(*_shifted_bell_phases(*_lambdas(*params)))


def synthesize_cnot(u):
    """Compile u into exactly 3 CNOTs and at most 8 single-qubit gates.

    Fed the shifted Bell phases of u's canonical coordinates h, the
    parametric core evaluates to e^{i psi} E(h) (p (x) q), with one local
    pair p, q and phase psi that are the same for every h.  So u is
    decomposed once: its back locals stay as they are, its front locals
    absorb p^dag and q^dag, and psi comes off the global phase, leaving
    four dressed single-qubit gates around the three-CNOT block.
    """
    dec = kak_decompose(u)
    m = np.empty((8, 2, 2), dtype=complex)
    # Each pair is written slot by slot: converting a tuple of arrays costs more.
    front1, front2 = dec.front
    _CORE_PQ_DAG[0].dot(front1, out=m[0])
    _CORE_PQ_DAG[1].dot(front2, out=m[1])
    m[6], m[7] = dec.back
    try:
        m[2:6] = _core_cnot_locals(_cnot_core_params(dec.params))
        f1, f2, w1, r1, w2, r2, b1, b2 = _local_ops(m, _CNOT_SLOTS)
    except ContractViolation as exc:
        raise NumericalError(f"cnot synthesis: {exc}") from exc
    ops = [f1, f2, CnotOp(1), w1, r1, CnotOp(1), w2, r2, CnotOp(1), b1, b2]
    return Circuit(ops=ops, declared_global_phase=float(dec.global_phase - _CORE_PSI))


# Exact CNOT out of two half-SWAPs: the inner z-Pauli splits the pulse pair,
# and the outer single-qubit gates rotate the result onto CNOT proper.
_SGATE = _frozen(np.diag([1.0, 1j]).astype(complex))
_H_SDG = _frozen(HADAMARD @ np.diag([1.0, -1j]))


def _cnot_gadget(control):
    """The six ops of one CNOT; its locals are exact constants, so they skip
    :func:`local_op`'s check.  control is read as CnotOp reads it."""
    if control not in (1, 2):
        _qubit_index(control, "control")
    target = 2 if control == 1 else 1
    return [
        LocalOp(target, HADAMARD, "H"),
        SwapPowOp(0.5),
        LocalOp(control, PAULI_Z, "Z"),
        SwapPowOp(0.5),
        LocalOp(control, _SGATE, "S"),
        LocalOp(target, _H_SDG, "H·Sdg"),
    ]


def expand_cnots_to_swaps(circuit):
    """Replace each CNOT by its exact two-half-SWAP realization.

    The substitution is matrix-exact (no phase residue), so the expanded
    circuit evaluates to the same unitary.  Each CNOT becomes 2 swap_pow
    plus 4 local ops.
    """
    ops = []
    for op in circuit.ops:
        if isinstance(op, CnotOp):
            ops.extend(_cnot_gadget(op.control))
        else:
            ops.append(op)
    return Circuit(ops=ops, declared_global_phase=circuit.declared_global_phase)


def evaluate_circuit(circuit):
    """Multiply a circuit out to its 4x4 unitary, global phase included."""
    u = ID4 * cmath.exp(1j * _real(circuit.declared_global_phase, "global_phase"))
    for op in circuit.ops:
        u = op.apply(u)
    return u


def gate_counts(circuit):
    """(swap_pow count, cnot count, local count)."""
    tally = collections.Counter(op.kind for op in circuit.ops)
    return tally[SwapPowOp.kind], tally[CnotOp.kind], tally[LocalOp.kind]


def prune_circuit(circuit, tol=1e-12):
    """Drop ops that act as the identity up to the given tolerance.

    Identity-like locals contribute only a phase, which is folded into the
    declared global phase; swap_pow ops with exponent within tol of an even
    integer are dropped outright.  CNOTs are never pruned.  tol is a real
    number of at least 0, by ``linalg._real``.  A hand-built op's field
    that its writer would refuse, such as a local matrix that
    :func:`local_op` refuses, raises that error with ``ops[i]: `` naming
    the op.
    """
    tol = _real(tol, "tol")
    if tol < 0:
        raise ContractViolation(f"tol must be >= 0, got {tol}")
    phase = _real(circuit.declared_global_phase, "global_phase")
    ops = []
    for i, op in enumerate(circuit.ops):
        try:
            theta = op.identity_phase(tol)
        except ContractViolation as exc:
            raise ContractViolation(f"ops[{i}]: {exc}") from None
        if theta is None:
            ops.append(op)
        else:
            phase += theta
    return Circuit(ops=ops, declared_global_phase=phase)


def _matrix_to_json(m):
    """Rows of [re, im] pairs: the one matrix layout of every JSON file."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(*m.shape, 2).tolist()


def _matrix_from_json(rows, dim, name):
    """Inverse of :func:`_matrix_to_json` for a dim x dim matrix: rows of
    exact [re, im] pairs of real numbers.  The rule of ``linalg._number_array``
    is tested on the one object array read, by ``linalg._REAL_TYPES``, the
    real types of ``linalg._NUMBER_KINDS``, so a bool or a ragged row is refused."""
    m = np.array(rows, dtype=object)
    types = set(map(type, m.flat))
    numbers = types <= _REAL_TYPES
    # numpy holds an int outside int64 and uint64 only as an object.
    if numbers and int in types and any(type(x) is int and not -(2**63) <= x < 2**64 for x in m.flat):
        raise ContractViolation(
            f"{name}: an integer entry lies outside [-2**63, 2**64), "
            "the range numpy stores as a number"
        )
    if not numbers or m.shape[2:] != (2,):
        raise ContractViolation(f"{name}: rows must be {dim}x{dim} nested [re, im] pairs")
    if m.shape != (dim, dim, 2):
        raise ContractViolation(f"{name}: rows have shape {m.shape[:2]}, expected ({dim}, {dim})")
    return m.astype(float).view(complex)[..., 0]


def circuit_to_dict(circuit):
    """JSON-ready dict: {"global_phase": float, "ops": [...]}

    Each op's fields, and the locals' matrices in one check, are admitted
    by the rules its reader applies, in the reader's order, so a hand-built
    circuit that :func:`circuit_from_dict` would refuse is refused here,
    with the reader's message and its ``ops[i]: `` prefix.
    """
    ops = []
    try:
        for op in circuit.ops:
            ops.append(op.to_dict())
    except ContractViolation as exc:
        _admit_locals(circuit.ops[:len(ops)])
        raise ContractViolation(f"ops[{len(ops)}]: {exc}") from None
    _admit_locals(circuit.ops)
    return {"global_phase": _real(circuit.declared_global_phase, "global_phase"), "ops": ops}


def _admit_locals(ops):
    """Admit the matrices of the LocalOps among ops as one stack, under
    :func:`local_op`'s rule: the error is the one local_op raises for the
    first failing matrix, prefixed with that op's ``ops[i]: ``."""
    matrices = [op.matrix for op in ops if isinstance(op, LocalOp)]
    if matrices:
        try:
            _check_unitary(np.array(matrices, dtype=complex), "local matrix")
        except ContractViolation as exc:
            slots = [i for i, op in enumerate(ops) if isinstance(op, LocalOp)]
            raise ContractViolation(f"ops[{slots[exc.member]}]: {exc}") from None


def circuit_from_dict(doc):
    """Inverse of :func:`circuit_to_dict`, validating every op.

    Each entry is read by the ``from_dict`` of its kind, and the matrices
    of all its local ops are then admitted in one check.  It raises the
    error of the first faulty op, as if each op were admitted on its own,
    with ``ops[i]: `` naming that op.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("ops"), list):
        raise ContractViolation("circuit document must be a dict with an 'ops' list")
    ops = []
    try:
        for entry in doc["ops"]:
            kind = entry.get("kind") if isinstance(entry, dict) else None
            op_class = _OP_KINDS.get(kind) if isinstance(kind, str) else None
            if op_class is None:
                raise ContractViolation(f"unknown op kind {kind!r}")
            ops.append(op_class.from_dict(entry))
    except ContractViolation as exc:
        # A non-unitary local ahead of the faulty entry is the first fault.
        _admit_locals(ops)
        raise ContractViolation(f"ops[{len(ops)}]: {exc}") from None
    _admit_locals(ops)
    phase = _real(doc.get("global_phase", 0.0), "global_phase")
    return Circuit(ops=ops, declared_global_phase=phase)
