"""Every circuit the library builds or reads admits its locals as one stack.

``synthesize_cnot`` stacks its eight single-qubit matrices, the dressed
front and back pairs and the core's two phase layers, and admits them in one
check.  ``circuit_from_dict`` admits the matrices of all local ops of a
document in one check after reading every entry.  Both must behave exactly
as the per-part admissions they replace: the builder returns the same
circuit bit for bit, and the reader raises the same error for every
document, whatever its faults and their order.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from swapsynth import gates, synthesis
from swapsynth.canonical import kak_decompose
from swapsynth.gates import NAMED_GATES
from swapsynth.linalg import (
    HADAMARD,
    ContractViolation,
    NumericalError,
    _real,
    haar_random_unitary,
)
from swapsynth.synthesis import (
    Circuit,
    CnotOp,
    LocalOp,
    _cnot_core_params,
    _local_ops,
    _matrix_from_json,
    _matrix_to_json,
    circuit_from_dict,
    circuit_to_dict,
    local_op,
    synthesize_cnot,
    synthesize_swap,
)

P, Q, PSI = synthesis._CORE_P, synthesis._CORE_Q, synthesis._CORE_PSI


def _two_admission_cnot_circuit(dec):
    """The CNOT builder as it was: the core's locals admitted inside its own
    circuit, the four dressed locals in a second stack."""
    a1, b1 = dec.front
    a2, b2 = dec.back
    try:
        m = synthesis.rz(_cnot_core_params(dec.params))
        m[0] = m[0] @ HADAMARD
        m[2] = HADAMARD @ m[2]
        w1, r1, w2, r2 = _local_ops(m, ((1, "rz1·W"), (2, "rz1"), (1, "W·rz2"), (2, "rz2")))
        core = [CnotOp(1), w1, r1, CnotOp(1), w2, r2, CnotOp(1)]
        front_q1, front_q2, back_q1, back_q2 = _local_ops(
            np.array([P.conj().T @ a1, Q.conj().T @ b1, a2, b2]),
            ((1, "front-q1"), (2, "front-q2"), (1, "back-q1"), (2, "back-q2")),
        )
        ops = [front_q1, front_q2, *core, back_q1, back_q2]
    except ContractViolation as exc:
        raise NumericalError(f"cnot synthesis: {exc}") from exc
    return Circuit(ops=ops, declared_global_phase=float(dec.global_phase - PSI))


def _per_op_reader(doc):
    """circuit_from_dict as it was, each local op admitted on its own by
    local_op, with an op's error prefixed by its index."""
    if not isinstance(doc, dict) or not isinstance(doc.get("ops"), list):
        raise ContractViolation("circuit document must be a dict with an 'ops' list")
    ops = []
    for i, entry in enumerate(doc["ops"]):
        try:
            kind = entry.get("kind") if isinstance(entry, dict) else None
            op_class = synthesis._OP_KINDS.get(kind) if isinstance(kind, str) else None
            if op_class is None:
                raise ContractViolation(f"unknown op kind {kind!r}")
            if op_class is LocalOp:
                matrix = _matrix_from_json(entry.get("matrix"), 2, name="local matrix")
                ops.append(local_op(entry.get("qubit"), matrix, str(entry.get("label", ""))))
            else:
                ops.append(op_class.from_dict(entry))
        except ContractViolation as exc:
            raise ContractViolation(f"ops[{i}]: {exc}") from None
    phase = _real(doc.get("global_phase", 0.0), "global_phase")
    return Circuit(ops=ops, declared_global_phase=phase)


def _fingerprint(circuit):
    """Every field of every op, matrices as raw bytes, and the phase's repr."""
    out = [repr(circuit.declared_global_phase)]
    for op in circuit.ops:
        fields = dataclasses.asdict(op)
        if isinstance(op, LocalOp):
            fields["matrix"] = (op.matrix.dtype.str, op.matrix.shape, op.matrix.tobytes())
        out.append((type(op).__name__, sorted(fields.items())))
    return out


def _outcome(read, doc):
    try:
        return ("ok", _fingerprint(read(doc)))
    except Exception as exc:  # the class and message are what is compared
        return (type(exc).__name__, str(exc))


FOUR_BY_FOUR = sorted(name for name, g in NAMED_GATES.items() if g.shape == (4, 4))


def test_cnot_builder_matches_the_two_admission_builder():
    targets = [NAMED_GATES[name] for name in FOUR_BY_FOUR]
    targets += [haar_random_unitary(4, seed=seed) for seed in range(300)]
    for u in targets:
        expected = _fingerprint(_two_admission_cnot_circuit(kak_decompose(u)))
        assert _fingerprint(synthesize_cnot(u)) == expected


def test_cnot_builder_admits_every_local_once(monkeypatch):
    calls = []
    original = synthesis._check_unitary

    def counting(u, name):
        calls.append(u.shape)
        return original(u, name)

    monkeypatch.setattr(synthesis, "_check_unitary", counting)
    circuit = synthesize_cnot(haar_random_unitary(4, seed=5))
    assert calls == [(8, 2, 2)]
    assert [op.label for op in circuit.ops if isinstance(op, LocalOp)] == [
        "front-q1", "front-q2", "rz1·W", "rz1", "W·rz2", "rz2", "back-q1", "back-q2"
    ]


@pytest.mark.parametrize("half", ["front", "core", "back"])
def test_cnot_builder_refuses_a_non_unitary_member(half, monkeypatch):
    u = haar_random_unitary(4, seed=6)
    dec = kak_decompose(u)
    if half == "core":
        monkeypatch.setattr(synthesis, "rz", lambda angles: 1.001 * gates.rz(angles))
    else:
        f1, f2 = getattr(dec, half)
        dec = dataclasses.replace(dec, **{half: (f1, 1.001 * f2)})
        # synthesize_cnot builds on the crafted decomposition.
        monkeypatch.setattr(synthesis, "kak_decompose", lambda target: dec)
    pattern = r"^cnot synthesis: local matrix is not unitary: "
    with pytest.raises(NumericalError, match=pattern):
        synthesize_cnot(u)
    with pytest.raises(NumericalError, match=pattern):
        _two_admission_cnot_circuit(dec)
    assert _outcome(synthesize_cnot, u) == _outcome(_two_admission_cnot_circuit, dec)


def test_conjugated_core_factors_are_frozen_constants():
    constant = synthesis._CORE_PQ_DAG
    assert not constant.flags.writeable
    for name, member, factor in (("p^dag", constant[0], P), ("q^dag", constant[1], Q)):
        assert member.tobytes() == factor.conj().T.tobytes(), name


def test_core_phase_layers_match_their_two_products_bit_for_bit():
    # One stacked product rz W, with slot 2 transposed, in place of rz1 W and W rz2.
    rng = np.random.default_rng(31)
    for angles in [*3.0 * rng.standard_normal((2000, 4)), np.array([0.0, -0.0, np.pi, -np.pi])]:
        m = synthesis._core_cnot_locals(angles)
        r = gates.rz(angles)
        assert m[0].tobytes() == (r[0] @ HADAMARD).tobytes(), angles
        assert m[2].tobytes() == (HADAMARD @ r[2]).tobytes(), angles
        assert m[1::2].tobytes() == r[1::2].tobytes(), angles


def _local_entry(matrix, qubit=1):
    return {"kind": "local", "qubit": qubit, "label": "", "matrix": _matrix_to_json(matrix)}


NAN_ROWS = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
IDENTITY_ROWS = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]

# One entry per kind of fault; the two unitarity faults differ in their deviation.
FAULTS = {
    "non-unitary local": _local_entry(2.0 * np.eye(2), qubit=2),
    "nan entry": {"kind": "local", "qubit": 1, "matrix": NAN_ROWS},
    "bad qubit": {"kind": "local", "qubit": 3, "matrix": IDENTITY_ROWS},
    "unknown kind": {"kind": "warp", "factor": 9},
    "bad alpha": {"kind": "swap_pow", "alpha": "0.5"},
    "malformed rows": {"kind": "local", "qubit": 2, "matrix": [[1.0]]},
}

GOOD = [
    _local_entry(haar_random_unitary(2, seed=1), qubit=1),
    {"kind": "swap_pow", "alpha": 0.3},
    {"kind": "cnot", "control": 2},
    _local_entry(haar_random_unitary(2, seed=2), qubit=2),
]


def _document(faults, phase):
    """The good ops with the given faults threaded between them."""
    ops = [GOOD[0]]
    for i, fault in enumerate(faults):
        ops += [FAULTS[fault], GOOD[(i + 1) % len(GOOD)]]
    # Through JSON text, as a file would give it.
    return json.loads(json.dumps({"ops": ops, "global_phase": phase}))


@pytest.mark.parametrize("phase", [0.25, "x"])
def test_reader_raises_the_per_op_error_for_every_fault_order(phase):
    documents = 0
    for k in range(0, len(FAULTS) + 1):
        for faults in itertools.permutations(FAULTS, k):
            doc = _document(faults, phase)
            expected = _outcome(_per_op_reader, doc)
            assert _outcome(circuit_from_dict, doc) == expected, faults
            if faults:
                assert expected[0] == "ContractViolation", faults
            documents += 1
    assert documents == 1957


def test_reader_reads_synthesized_circuits_as_the_per_op_reader():
    for seed in range(20):
        u = haar_random_unitary(4, seed=seed)
        for circuit in (synthesize_swap(u), synthesize_cnot(u)):
            doc = json.loads(json.dumps(circuit_to_dict(circuit)))
            assert _outcome(circuit_from_dict, doc) == _outcome(_per_op_reader, doc)
            # A small non-unitary nudge to any one local is refused as before.
            for i, entry in enumerate(doc["ops"]):
                if entry["kind"] == "local":
                    bad = json.loads(json.dumps(doc))
                    bad["ops"][i]["matrix"][0][0][0] += 1e-6 * (i + 1)
                    expected = _outcome(_per_op_reader, bad)
                    assert expected[0] == "ContractViolation"
                    assert _outcome(circuit_from_dict, bad) == expected


def test_reader_admits_the_locals_once(monkeypatch):
    calls = []
    original = synthesis._check_unitary

    def counting(u, name):
        calls.append(u.shape)
        return original(u, name)

    monkeypatch.setattr(synthesis, "_check_unitary", counting)
    doc = circuit_to_dict(synthesize_cnot(haar_random_unitary(4, seed=7)))
    calls.clear()
    circuit_from_dict(doc)
    assert calls == [(8, 2, 2)]
    calls.clear()
    circuit_from_dict({"ops": [{"kind": "cnot"}]})
    assert calls == []


PAIRS = "rows must be 2x2 nested [re, im] pairs"


def test_reader_errors_name_the_op_at_fault():
    # The 9-op swap circuit of CNOT, its op 5 (a diagonal local) nudged off
    # unitarity in a zero entry, which moves u^dag u by exactly the nudge.
    doc = json.loads(json.dumps(circuit_to_dict(synthesize_swap(NAMED_GATES["cnot"]))))
    assert len(doc["ops"]) == 9 and doc["ops"][5]["kind"] == "local"
    assert doc["ops"][5]["matrix"][0][1] == [0.0, 0.0] and abs(complex(*doc["ops"][5]["matrix"][0][0])) == 1.0
    doc["ops"][5]["matrix"][0][1][0] += 1e-6
    with pytest.raises(ContractViolation) as exc:
        circuit_from_dict(doc)
    assert str(exc.value) == "ops[5]: local matrix is not unitary: max deviation 1.000e-06 exceeds 1e-10"
    # An earlier non-unitary local still wins over a later one.
    doc["ops"][3]["matrix"][0][0][0] += 2e-6
    with pytest.raises(ContractViolation) as exc:
        circuit_from_dict(doc)
    assert str(exc.value).startswith("ops[3]: local matrix is not unitary: max deviation 2.000e-06 ")
    # An entry that fails while it is read is named by its place, one case per field.
    for entry, message in (
        ({"kind": "warp"}, "unknown op kind 'warp'"),
        ({"kind": "local", "qubit": 3, "matrix": IDENTITY_ROWS}, "qubit must be 1 or 2, got 3"),
        ({"kind": "local", "qubit": 1, "label": 5, "matrix": IDENTITY_ROWS}, "label must be a string, got 5"),
        ({"kind": "local", "qubit": 1, "matrix": [[1.0]]}, f"local matrix: {PAIRS}"),
        ({"kind": "swap_pow", "alpha": "0.5"}, "swap exponent must be a number, got '0.5'"),
        ({"kind": "cnot", "control": 3}, "control must be 1 or 2, got 3"),
    ):
        with pytest.raises(ContractViolation) as exc:
            circuit_from_dict({"ops": [*GOOD[:3], entry, GOOD[3]]})
        assert str(exc.value) == f"ops[3]: {message}", entry
        # A non-unitary local ahead of it is the first fault.
        with pytest.raises(ContractViolation) as exc:
            circuit_from_dict({"ops": [GOOD[0], FAULTS["non-unitary local"], GOOD[1], entry]})
        assert str(exc.value).startswith("ops[1]: local matrix is not unitary: "), entry
