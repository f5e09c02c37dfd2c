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
knows its own unitary, JSON entry, prune rule and schedule cost.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import ClassVar, NamedTuple

import numpy as np

from .canonical import (
    BellPhases,
    exp_minus_iH,
    in_weyl_chamber,
    kak_decompose,
    lambdas,
    split_local_product,
)
from .gates import CNOT, CNOT_21, rz, swap_pow
from .linalg import (
    ContractViolation,
    HADAMARD,
    ID2,
    ID4,
    NumericalError,
    PAULI_X,
    PAULI_Z,
    _frozen,
    _kron,
    assert_unitary,
)


class GateOp:
    """Common base of the three op kinds.

    Every op has a readable ``kind`` string and these methods:
    ``unitary()`` is its 4x4 matrix, computed from its fields on each call;
    ``to_dict()`` is its JSON entry; ``identity_phase(tol)`` is theta when
    the op acts as e^{i theta} I within tol, or None (the default) when it
    must be kept; ``duration_s(profile)`` is its time under a hardware
    profile.
    """

    kind: ClassVar[str]

    def identity_phase(self, tol):
        return None


@dataclasses.dataclass(eq=False)
class LocalOp(GateOp):
    """Single-qubit gate ``matrix`` on qubit 1 (left factor) or 2."""

    qubit: int
    matrix: np.ndarray
    label: str = ""
    kind: ClassVar[str] = "local"

    def unitary(self):
        if self.qubit == 1:
            return _kron(self.matrix, ID2)
        return _kron(ID2, self.matrix)

    def to_dict(self):
        return {
            "kind": self.kind,
            "qubit": self.qubit,
            "label": self.label,
            "matrix": _matrix_to_json(self.matrix),
        }

    @staticmethod
    def from_dict(entry):
        matrix = _matrix_from_json(entry.get("matrix"), 2, name="local matrix")
        return local_op(_int_field(entry, "qubit"), matrix, str(entry.get("label", "")))

    def identity_phase(self, tol):
        theta = np.angle(np.trace(self.matrix) / 2.0)
        if np.abs(self.matrix - np.exp(1j * theta) * ID2).max() <= tol:
            return theta
        return None

    def duration_s(self, profile):
        if profile.local_rotation_policy == "fixed_pi":
            return profile.pi_rotation_time_s
        # Rotation angle ignoring global phase: |tr| = 2|cos(angle/2)|.
        cos_half = min(abs(np.trace(self.matrix)) / 2.0, 1.0)
        return profile.pi_rotation_time_s * 2.0 * np.arccos(cos_half) / np.pi


@dataclasses.dataclass(eq=False)
class SwapPowOp(GateOp):
    """SWAP raised to the real power ``alpha`` (period 2)."""

    alpha: float
    kind: ClassVar[str] = "swap_pow"

    def _even_distance(self):
        reduced = float(self.alpha) % 2.0
        return min(reduced, 2.0 - reduced)

    def unitary(self):
        return swap_pow(self.alpha)

    def to_dict(self):
        return {"kind": self.kind, "alpha": float(self.alpha)}

    @staticmethod
    def from_dict(entry):
        return swap_op(entry.get("alpha"))

    def identity_phase(self, tol):
        return 0.0 if self._even_distance() <= tol else None

    def duration_s(self, profile):
        return profile.swap_full_time_s * self._even_distance()


@dataclasses.dataclass(eq=False)
class CnotOp(GateOp):
    """CNOT with control qubit ``control`` (1 or 2)."""

    control: int
    kind: ClassVar[str] = "cnot"

    def unitary(self):
        # A copy: CNOT is read-only, and like every op's unitary the result is the caller's.
        return (CNOT if self.control == 1 else CNOT_21).copy()

    def to_dict(self):
        return {"kind": self.kind, "control": self.control}

    @staticmethod
    def from_dict(entry):
        return cnot_op(_int_field(entry, "control", 1))

    def duration_s(self, profile):
        # Not a native exchange pulse: costed at the full-SWAP time.
        return profile.swap_full_time_s


def local_op(qubit, matrix, label=""):
    if qubit not in (1, 2):
        raise ContractViolation(f"qubit must be 1 or 2, got {qubit}")
    matrix = assert_unitary(matrix, name="local matrix")
    if matrix.shape[0] != 2:
        raise ContractViolation(f"local matrix must be 2x2, got {matrix.shape}")
    return LocalOp(qubit=qubit, matrix=matrix, label=label)


def swap_op(alpha):
    try:
        alpha = float(alpha)
    except (TypeError, ValueError):
        raise ContractViolation(f"swap exponent must be a number, got {alpha!r}") from None
    if not np.isfinite(alpha):
        raise ContractViolation(f"swap exponent must be finite, got {alpha}")
    return SwapPowOp(alpha=alpha)


def cnot_op(control=1):
    if control not in (1, 2):
        raise ContractViolation(f"control must be 1 or 2, got {control}")
    return CnotOp(control=control)


def _int_field(entry, key, default=None):
    """A qubit index read from JSON: an int, so neither true nor 2.0 passes."""
    value = entry.get(key, default)
    if type(value) is not int:
        raise ContractViolation(f"{key} must be an integer, got {value!r}")
    return value


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
_PLUS = _frozen(np.array([1, 1], dtype=complex) / np.sqrt(2.0))
_MINUS = _frozen(np.array([1, -1], dtype=complex) / np.sqrt(2.0))
_PM = _frozen(np.outer(_PLUS, _MINUS).ravel())
BELL_EXCHANGE = _frozen(ID4 - 2.0 * np.outer(_PM, _PM.conj()))


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
    lie in [0, 1]; beta and gamma exceed 1/2 exactly when hz < 0.
    """
    if not in_weyl_chamber(p):
        raise ContractViolation(
            f"parameters {tuple(p)} lie outside the canonical chamber by more "
            f"than its tolerance 1e-9"
        )
    hx, hy, hz = (float(v) for v in p)
    return SwapAngles(
        alpha=2.0 * (hx + hy) / np.pi,
        beta=2.0 * (hx - hz) / np.pi,
        gamma=2.0 * (hy - hz) / np.pi,
    )


def _core_swap(p):
    """Op list and declared phase of the three-SWAP core E(p).

    The list ends with the Pauli pair Z on qubit 1, X on qubit 2.  The
    Paulis are exact constants, so they skip :func:`local_op`'s check.
    """
    ang = swap_angles(p)
    hx, hy, hz = (float(v) for v in p)
    ops = [
        swap_op(ang.alpha),
        LocalOp(2, PAULI_X, "X"),
        swap_op(ang.beta),
        LocalOp(1, PAULI_Z, "Z"),
        swap_op(ang.gamma),
        LocalOp(1, PAULI_Z, "Z"),
        LocalOp(2, PAULI_X, "X"),
    ]
    return ops, hz - hx - hy


def build_core_swap_circuit(p):
    """Three-SWAP realization of the entangling core E(p).

    Evaluates to exp_minus_iH(p) exactly, including the declared phase
    hz - hx - hy.  The interleaved Pauli gates are not yet merged with any
    surrounding locals; the op list has fixed shape 3 swap_pow + 4 local.
    """
    ops, phase = _core_swap(p)
    return Circuit(ops=ops, declared_global_phase=phase)


def _swap_circuit(dec):
    """The :func:`synthesize_swap` circuit for an already decomposed target."""
    f1, f2 = dec.front
    b1, b2 = dec.back
    try:
        (*core, z, x), phase = _core_swap(dec.params)
        ops = [
            local_op(1, f1, "u1"),
            local_op(2, f2, "v1"),
            *core,
            local_op(1, b1 @ z.matrix, f"u4'·{z.label}"),
            local_op(2, b2 @ x.matrix, f"v4'·{x.label}"),
        ]
    except ContractViolation as exc:
        raise NumericalError(f"swap synthesis: {exc}") from exc
    return Circuit(ops=ops, declared_global_phase=float(dec.global_phase + phase))


def synthesize_swap(u):
    """Compile u into 3 fractional SWAPs and exactly 6 single-qubit gates.

    The two trailing Pauli gates of the core construction are merged into
    the back local pair, which brings the single-qubit count to six; labels
    record the merge.  The evaluated circuit reproduces u to machine
    precision including global phase.
    """
    return _swap_circuit(kak_decompose(u))


def cnot_phase_params(phases):
    """Rotation angles that imprint the four Bell phases in the CNOT core.

    Input is a BellPhases-like quadruple summing to zero (within 1e-9).
    The four angles are underdetermined by one gauge degree of freedom,
    fixed here by zeta1 = zeta2 and the symmetric split of the xi pair:

        zeta1 = zeta2 = (l00 + l01)/4
        xi1 + xi2 = (l00 - l01)/2,  xi2 - xi1 = (l10 - l11)/2.
    """
    l00, l01, l10, l11 = (float(phases[i]) for i in range(4))
    total = l00 + l01 + l10 + l11
    if abs(total) > 1e-9:
        raise ContractViolation(f"Bell phases must sum to 0 within 1e-9, got {total:.3e}")
    zeta = (l00 + l01) / 4.0
    half_sum = (l00 - l01) / 4.0
    half_diff = (l10 - l11) / 4.0
    return CnotPhaseParams(
        zeta1=zeta,
        xi1=half_sum - half_diff,
        zeta2=zeta,
        xi2=half_sum + half_diff,
    )


def build_core_cnot_circuit(params):
    """Three CNOTs with two merged phase layers: the parametric core.

    Applies phase e^{-i l_b} to each Bell state while exchanging the phi-
    and psi- slots, for the Bell phases l that produced ``params`` via
    :func:`cnot_phase_params`.  Equals exp_minus_iH(h) @ BELL_EXCHANGE for
    the matching coordinates h.
    """
    z1, x1, z2, x2 = (float(v) for v in params)
    ops = [
        cnot_op(1),
        local_op(1, rz(z1) @ HADAMARD, "rz1·W"),
        local_op(2, rz(x1), "rz1"),
        cnot_op(1),
        local_op(1, HADAMARD @ rz(z2), "W·rz2"),
        local_op(2, rz(x2), "rz2"),
        cnot_op(1),
    ]
    return Circuit(ops=ops, declared_global_phase=0.0)


def shifted_bell_phases(lam):
    """Bell phases whose core matches the class of phases ``lam``.

    The CNOT core imprints its phases while exchanging the phi-/psi-
    slots; a quarter-pi redistribution between the two slot pairs undoes
    the exchange's effect on the canonical class.  Sum stays zero.
    """
    quarter = np.pi / 4.0
    return BellPhases(
        l00=lam.l00 - quarter,
        l01=lam.l01 - quarter,
        l10=lam.l10 + quarter,
        l11=lam.l11 + quarter,
    )


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


def _cnot_core_params(dec):
    """Phase-layer angles of the CNOT core for a decomposed target."""
    return cnot_phase_params(shifted_bell_phases(lambdas(dec.params)))


def _cnot_circuit(dec):
    """The :func:`synthesize_cnot` circuit for an already decomposed target."""
    a1, b1 = dec.front
    a2, b2 = dec.back
    try:
        params = _cnot_core_params(dec)
        ops = [
            local_op(1, _CORE_P.conj().T @ a1, "front-q1"),
            local_op(2, _CORE_Q.conj().T @ b1, "front-q2"),
            *build_core_cnot_circuit(params).ops,
            local_op(1, a2, "back-q1"),
            local_op(2, b2, "back-q2"),
        ]
    except ContractViolation as exc:
        raise NumericalError(f"cnot synthesis: {exc}") from exc
    return Circuit(ops=ops, declared_global_phase=float(dec.global_phase - _CORE_PSI))


def synthesize_cnot(u):
    """Compile u into exactly 3 CNOTs and at most 8 single-qubit gates.

    Fed the shifted Bell phases of u's canonical coordinates h, the
    parametric core evaluates to e^{i psi} E(h) (p (x) q), with one local
    pair p, q and phase psi that are the same for every h.  So u is
    decomposed once: its back locals stay as they are, its front locals
    absorb p^dag and q^dag, and psi comes off the global phase, leaving
    four dressed single-qubit gates around the three-CNOT block.
    """
    return _cnot_circuit(kak_decompose(u))


# Exact CNOT out of two half-SWAPs: the inner z-Pauli splits the pulse pair,
# and the outer single-qubit gates rotate the result onto CNOT proper.
_SGATE = _frozen(np.diag([1.0, 1j]).astype(complex))
_SDG = _frozen(np.diag([1.0, -1j]).astype(complex))


def _cnot_gadget(control):
    target = 2 if control == 1 else 1
    return [
        local_op(target, HADAMARD, "H"),
        swap_op(0.5),
        local_op(control, PAULI_Z, "Z"),
        swap_op(0.5),
        local_op(control, _SGATE, "S"),
        local_op(target, HADAMARD @ _SDG, "H·Sdg"),
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
    u = ID4 * np.exp(1j * float(circuit.declared_global_phase))
    for op in circuit.ops:
        u = op.unitary() @ u
    return u


def gate_counts(circuit):
    """(swap_pow count, cnot count, local count)."""
    tally = collections.Counter(op.kind for op in circuit.ops)
    return tally[SwapPowOp.kind], tally[CnotOp.kind], tally[LocalOp.kind]


def prune_circuit(circuit, tol=1e-12):
    """Drop ops that act as the identity up to the given tolerance.

    Identity-like locals contribute only a phase, which is folded into the
    declared global phase; swap_pow ops with exponent within tol of an even
    integer are dropped outright.  CNOTs are never pruned.
    """
    phase = float(circuit.declared_global_phase)
    ops = []
    for op in circuit.ops:
        theta = op.identity_phase(tol)
        if theta is None:
            ops.append(op)
        else:
            phase += theta
    return Circuit(ops=ops, declared_global_phase=phase)


def _matrix_to_json(m):
    """Rows of [re, im] pairs: the one matrix layout of every JSON file."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _matrix_from_json(rows, dim, name):
    """Inverse of :func:`_matrix_to_json` for a dim x dim matrix."""
    try:
        m = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in rows],
            dtype=complex,
        )
    except (TypeError, IndexError, ValueError, KeyError):
        raise ContractViolation(
            f"{name}: rows must be {dim}x{dim} nested [re, im] pairs"
        ) from None
    if m.shape != (dim, dim):
        raise ContractViolation(
            f"{name}: rows have shape {m.shape}, expected ({dim}, {dim})"
        )
    return m


def circuit_to_dict(circuit):
    """JSON-ready dict: {"global_phase": float, "ops": [...]}"""
    return {
        "global_phase": float(circuit.declared_global_phase),
        "ops": [op.to_dict() for op in circuit.ops],
    }


def circuit_from_dict(doc):
    """Inverse of :func:`circuit_to_dict`, validating every op."""
    if not isinstance(doc, dict) or not isinstance(doc.get("ops"), list):
        raise ContractViolation("circuit document must be a dict with an 'ops' list")
    ops = []
    for entry in doc["ops"]:
        kind = entry.get("kind") if isinstance(entry, dict) else None
        op_class = _OP_KINDS.get(kind) if isinstance(kind, str) else None
        if op_class is None:
            raise ContractViolation(f"unknown op kind {kind!r}")
        ops.append(op_class.from_dict(entry))
    try:
        phase = float(doc.get("global_phase", 0.0))
    except (TypeError, ValueError):
        raise ContractViolation("global_phase must be a number") from None
    if not np.isfinite(phase):
        raise ContractViolation(f"global_phase must be finite, got {phase}")
    return Circuit(ops=ops, declared_global_phase=phase)
