import json

import numpy as np
import pytest

from swapsynth import canonical, entanglement, gates, linalg, synthesis
from swapsynth.canonical import (
    BellPhases,
    CanonicalParams,
    exp_minus_iH,
    lambdas,
)
from swapsynth.gates import CNOT, SWAP, named_gate
from swapsynth.linalg import (
    ContractViolation,
    ID2,
    ID4,
    PAULI_X,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    haar_random_unitary,
    phase_distance,
)
from swapsynth.synthesis import (
    BELL_EXCHANGE,
    Circuit,
    CnotOp,
    CnotPhaseParams,
    LocalOp,
    SwapPowOp,
    _core_swap,
    _matrix_to_json,
    build_core_cnot_circuit,
    circuit_from_dict,
    circuit_to_dict,
    cnot_op,
    cnot_phase_params,
    evaluate_circuit,
    expand_cnots_to_swaps,
    gate_counts,
    local_op,
    prune_circuit,
    shifted_bell_phases,
    swap_angles,
    swap_op,
    synthesize_cnot,
    synthesize_swap,
)

PI4 = np.pi / 4.0


def _random_chamber_point(rng):
    hx = rng.uniform(0, PI4)
    hy = rng.uniform(0, hx)
    hz = rng.uniform(-hy, hy)
    if hx >= PI4 - 1e-10:
        hz = abs(hz)
    return CanonicalParams(hx, hy, hz)


def test_op_factories_validate():
    with pytest.raises(ContractViolation):
        local_op(3, ID2)
    with pytest.raises(ContractViolation):
        local_op(1, np.ones((2, 2)))
    for alpha in ("wide", "0.5", None, True, np.bool_(True), float("nan"), float("inf")):
        with pytest.raises(ContractViolation):
            swap_op(alpha)
    assert swap_op(np.float64(0.25)).alpha == 0.25 and type(swap_op(np.int64(1)).alpha) is float
    with pytest.raises(ContractViolation):
        cnot_op(0)
    # Integers only: each of these was admitted, and wrote a file the reader refused.
    for build in (lambda: cnot_op(2.0), lambda: cnot_op(True), lambda: local_op(1.0, ID2)):
        with pytest.raises(ContractViolation, match=r"^(control|qubit) must be an integer"):
            build()
    assert type(local_op(np.int64(2), ID2).qubit) is int and type(cnot_op(np.int8(2)).control) is int


def test_swap_angles_examples():
    ang = swap_angles(CanonicalParams(PI4, 0.0, 0.0))
    assert tuple(ang) == pytest.approx((0.5, 0.5, 0.0))
    ang = swap_angles(CanonicalParams(PI4, PI4, PI4))
    assert tuple(ang) == pytest.approx((1.0, 0.0, 0.0))
    # negative hz pushes beta and gamma above 1/2
    ang = swap_angles(CanonicalParams(0.6, 0.5, -0.4))
    assert ang.beta == pytest.approx(2.0 * (0.6 + 0.4) / np.pi)
    assert ang.beta > 0.5 and ang.gamma > 0.5
    for params in ((1.0, 0.0, 0.0), (np.nan, np.nan, np.nan), (0.3, np.nan, 0.1), (PI4, PI4, np.nan)):
        with pytest.raises(ContractViolation, match="outside the canonical chamber"):
            swap_angles(CanonicalParams(*params))


def test_swap_angles_range():
    rng = np.random.default_rng(3)
    for _ in range(200):
        ang = swap_angles(_random_chamber_point(rng))
        for a in ang:
            assert -1e-12 <= a <= 1.0 + 1e-12


def test_core_swap_shape():
    c = Circuit(*_core_swap(CanonicalParams(0.3, 0.2, 0.1)))
    assert gate_counts(c) == (3, 0, 4)


def test_core_swap_matches_exponential():
    rng = np.random.default_rng(17)
    cases = [
        CanonicalParams(0.0, 0.0, 0.0),
        CanonicalParams(PI4, 0.0, 0.0),
        CanonicalParams(PI4, PI4, PI4),
        CanonicalParams(PI4, PI4, 0.0),
        CanonicalParams(0.7, 0.5, -0.45),
    ]
    cases += [_random_chamber_point(rng) for _ in range(200)]
    for p in cases:
        got = evaluate_circuit(Circuit(*_core_swap(p)))
        want = exp_minus_iH(p)
        assert np.max(np.abs(got - want)) < 1e-12


def test_synthesize_swap_counts_and_exponents():
    c = synthesize_swap(CNOT)
    assert gate_counts(c) == (3, 0, 6)
    exps = [op.alpha for op in c.ops if op.kind == "swap_pow"]
    assert exps == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)
    c = synthesize_swap(SWAP)
    exps = [op.alpha for op in c.ops if op.kind == "swap_pow"]
    assert exps == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)


def test_synthesize_swap_round_trips():
    for seed in range(60):
        u = haar_random_unitary(4, seed=seed)
        c = synthesize_swap(u)
        assert gate_counts(c) == (3, 0, 6)
        assert phase_distance(evaluate_circuit(c), u) < 1e-10
        assert np.max(np.abs(evaluate_circuit(c) - u)) < 1e-9


def test_cnot_phase_params_examples():
    p = cnot_phase_params(BellPhases(0.0, 0.0, 0.0, 0.0))
    assert tuple(p) == pytest.approx((0.0, 0.0, 0.0, 0.0))
    p = cnot_phase_params(lambdas(CanonicalParams(PI4, 0.0, 0.0)))
    assert tuple(p) == pytest.approx((np.pi / 8, 0.0, np.pi / 8, 0.0))
    nan, inf = float("nan"), float("inf")
    for phases in ((0.3, 0.0, 0.0, 0.0), (nan, 0.0, 0.0, 0.0), (inf, -inf, 0.0, 0.0)):
        with pytest.raises(ContractViolation, match="sum to 0"):
            cnot_phase_params(BellPhases(*phases))


def test_cnot_core_bell_phase_map():
    # The core must apply e^{-i l_b} to each Bell state while exchanging
    # the phi-/psi- pair.  Checked on the Bell vectors directly.
    rng = np.random.default_rng(23)
    for _ in range(40):
        raw = rng.uniform(-1.5, 1.5, size=3)
        l = BellPhases(raw[0], raw[1], raw[2], -float(np.sum(raw)))
        core = evaluate_circuit(build_core_cnot_circuit(cnot_phase_params(l)))
        assert np.max(np.abs(core @ PHI_PLUS - np.exp(-1j * l.l00) * PHI_PLUS)) < 1e-12
        assert np.max(np.abs(core @ PSI_PLUS - np.exp(-1j * l.l01) * PSI_PLUS)) < 1e-12
        assert np.max(np.abs(core @ PHI_MINUS - np.exp(-1j * l.l11) * PSI_MINUS)) < 1e-12
        assert np.max(np.abs(core @ PSI_MINUS - np.exp(-1j * l.l10) * PHI_MINUS)) < 1e-12


def test_zero_param_core_is_bell_exchange():
    core = evaluate_circuit(build_core_cnot_circuit(CnotPhaseParams(0, 0, 0, 0)))
    assert np.max(np.abs(core - BELL_EXCHANGE)) < 1e-14
    assert np.max(np.abs(BELL_EXCHANGE @ BELL_EXCHANGE - ID4)) < 1e-14


def test_shifted_bell_phases_keeps_zero_sum():
    lam = lambdas(CanonicalParams(0.5, 0.3, -0.2))
    shifted = shifted_bell_phases(lam)
    assert sum(shifted) == pytest.approx(0.0, abs=1e-12)


def test_synthesize_cnot_counts():
    for seed in (0, 5, 9):
        c = synthesize_cnot(haar_random_unitary(4, seed=seed))
        swaps, cnots, locals_ = gate_counts(c)
        assert swaps == 0
        assert cnots == 3
        assert locals_ <= 8


def test_synthesize_cnot_round_trips():
    for seed in range(60):
        u = haar_random_unitary(4, seed=seed)
        c = synthesize_cnot(u)
        assert phase_distance(evaluate_circuit(c), u) < 1e-10
        assert np.max(np.abs(evaluate_circuit(c) - u)) < 1e-9


def test_synthesize_cnot_of_cnot_needs_no_rotations():
    c = synthesize_cnot(CNOT)
    core_locals = [op for op in c.ops if op.kind == "local" and "rz" in op.label]
    for op in core_locals:
        # with all-zero phase parameters the dressed layers reduce to W
        assert np.max(np.abs(op.matrix @ op.matrix - ID2)) < 1e-12


def test_backends_agree():
    for seed in (11, 21, 31):
        u = haar_random_unitary(4, seed=seed)
        a = evaluate_circuit(synthesize_swap(u))
        b = evaluate_circuit(synthesize_cnot(u))
        assert phase_distance(a, b) < 1e-12


def test_named_targets_both_backends():
    for name in ("cnot", "cz", "swap", "identity4", "iswap", "sqrt_swap"):
        u = named_gate(name)
        for synth in (synthesize_swap, synthesize_cnot):
            c = synth(u)
            assert phase_distance(evaluate_circuit(c), u) < 1e-10


def test_pruned_counts_of_named_gates():
    """Pruned (swap_pow, cnot, local) counts of every 4x4 named gate.  They
    depend on the KAK's gauge at these degenerate classes, so they are
    pinned on both backends."""
    pinned = {
        "cnot": ((2, 0, 5), (0, 3, 6)),
        "cz": ((2, 0, 6), (0, 3, 6)),
        "swap": ((1, 0, 4), (0, 3, 6)),
        "sqrt_swap": ((1, 0, 4), (0, 3, 6)),
        "identity4": ((0, 0, 4), (0, 3, 4)),
        "iswap": ((3, 0, 3), (0, 3, 7)),
    }
    four = {name for name, gate in gates.NAMED_GATES.items() if gate.shape == (4, 4)}
    assert four == set(pinned)
    for name, counts in pinned.items():
        u = named_gate(name)
        got = tuple(gate_counts(prune_circuit(synth(u), 1e-9)) for synth in (synthesize_swap, synthesize_cnot))
        assert got == counts, name


def test_expand_cnots_exact():
    u = haar_random_unitary(4, seed=42)
    c = synthesize_cnot(u)
    n = expand_cnots_to_swaps(c)
    assert gate_counts(n) == (6, 0, 20)
    assert np.max(np.abs(evaluate_circuit(n) - evaluate_circuit(c))) < 1e-12


def test_cnot_gadget_both_orientations():
    for control in (1, 2):
        c = Circuit(ops=[cnot_op(control)])
        n = expand_cnots_to_swaps(c)
        want = evaluate_circuit(c)
        assert np.max(np.abs(evaluate_circuit(n) - want)) < 1e-14


def test_evaluate_order():
    c = Circuit(ops=[local_op(1, PAULI_X), cnot_op(1)])
    assert np.allclose(evaluate_circuit(c), CNOT @ np.kron(PAULI_X, ID2))
    empty = Circuit(ops=[], declared_global_phase=0.25)
    assert np.allclose(evaluate_circuit(empty), np.exp(0.25j) * ID4)


def test_prune_drops_identity_like_ops():
    phase = 0.4
    c = Circuit(
        ops=[
            local_op(1, np.exp(1j * phase) * ID2),
            swap_op(2.0),
            swap_op(1e-14),
            cnot_op(1),
        ]
    )
    before = evaluate_circuit(c)
    pruned = prune_circuit(c)
    assert gate_counts(pruned) == (0, 1, 0)
    assert np.max(np.abs(evaluate_circuit(pruned) - before)) < 1e-12


def test_prune_keeps_real_work():
    u = haar_random_unitary(4, seed=77)
    c = synthesize_swap(u)
    pruned = prune_circuit(c)
    assert phase_distance(evaluate_circuit(pruned), u) < 1e-10


def _fields(op):
    return {k: v for k, v in vars(op).items() if k != "matrix"}


def test_circuit_json_round_trip():
    u = haar_random_unitary(4, seed=101)
    # Every way the library builds an op, numpy scalars for every field included.
    by_hand = Circuit(
        ops=[
            local_op(np.int64(2), PAULI_X, "x"),
            local_op(np.uint8(1), ID2),
            cnot_op(np.int64(2)),
            cnot_op(),
            swap_op(np.float64(0.3)),
            swap_op(np.float32(0.7)),
            swap_op(np.int64(3)),
            swap_op(-1),
        ],
        declared_global_phase=0.25,
    )
    circuits = [by_hand, expand_cnots_to_swaps(by_hand)]
    for synth in (synthesize_swap, synthesize_cnot):
        c = synth(u)
        doc = circuit_to_dict(c)
        back = circuit_from_dict(doc)
        assert gate_counts(back) == gate_counts(c)
        assert np.max(np.abs(evaluate_circuit(back) - evaluate_circuit(c))) < 1e-12
        circuits += [c, prune_circuit(c, 1e-9), expand_cnots_to_swaps(c)]
    # Each rebuilds exactly from its JSON text: fields, their types and the phase.
    for c in circuits:
        back = circuit_from_dict(json.loads(json.dumps(circuit_to_dict(c))))
        assert back.declared_global_phase == c.declared_global_phase
        assert [type(op) for op in back.ops] == [type(op) for op in c.ops]
        for op, op_back in zip(c.ops, back.ops):
            assert _fields(op_back) == _fields(op)
            assert [type(v) for v in _fields(op).values()] == [type(v) for v in _fields(op_back).values()]
            if isinstance(op, LocalOp):
                assert np.array_equal(op_back.matrix, op.matrix)


def test_circuit_from_dict_rejects_garbage():
    with pytest.raises(ContractViolation):
        circuit_from_dict({"ops": [{"kind": "warp", "factor": 9}]})
    with pytest.raises(ContractViolation):
        circuit_from_dict({"ops": [{"kind": "swap_pow", "alpha": None}]})
    with pytest.raises(ContractViolation):
        circuit_from_dict([1, 2, 3])
    with pytest.raises(ContractViolation):
        circuit_from_dict({"ops": [{"kind": "local", "qubit": 1, "matrix": [[1]]}]})
    with pytest.raises(ContractViolation):
        circuit_from_dict({"ops": [{"kind": ["local"]}]})
    for ops in (5, None, "swap_pow"):
        with pytest.raises(ContractViolation):
            circuit_from_dict({"ops": ops})
    for phase in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ContractViolation):
            circuit_from_dict({"ops": [], "global_phase": phase})
    identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    for qubit in (True, 1.0, 2.0, "1", None):
        with pytest.raises(ContractViolation):
            circuit_from_dict({"ops": [{"kind": "local", "qubit": qubit, "matrix": identity}]})
    for control in (True, 2.0, "2", None):
        with pytest.raises(ContractViolation):
            circuit_from_dict({"ops": [{"kind": "cnot", "control": control}]})
    for alpha in ("0.5", True, 10**400):
        with pytest.raises(ContractViolation):
            circuit_from_dict({"ops": [{"kind": "swap_pow", "alpha": alpha}]})
    for phase in ("0.5", True, 10**400):
        with pytest.raises(ContractViolation):
            circuit_from_dict({"ops": [], "global_phase": phase})
    # The op constructors and the reader refuse each bad scalar alike, with one
    # message that the reader prefixes with the op's index, and the writer
    # refuses it as a circuit's phase, and in a hand-built op with the
    # reader's message.
    for bad in (True, np.True_, 1.0, "1", "x", None, float("nan"), float("inf"), -float("inf"), 10**400):
        # 1.0 is the one real among them: a swap exponent or phase, but no qubit.
        real = type(bad) is float and bad == 1.0
        pairs = [
            (
                lambda: local_op(bad, ID2),
                LocalOp(bad, ID2),
                {"kind": "local", "qubit": bad, "matrix": identity},
                False,
            ),
            (lambda: cnot_op(bad), CnotOp(bad), {"kind": "cnot", "control": bad}, False),
            (lambda: swap_op(bad), SwapPowOp(bad), {"kind": "swap_pow", "alpha": bad}, real),
        ]
        for build, hand_built, entry, admitted in pairs:
            built = _outcome(build)
            read = built.replace("refused: ", "refused: ops[0]: ", 1)
            assert read == _outcome(lambda: circuit_from_dict({"ops": [entry]}).ops[0])
            assert read == _written(hand_built)
            assert built.startswith("refused: ") != admitted
        if not real:
            with pytest.raises(ContractViolation, match="^global_phase "):
                circuit_from_dict({"ops": [], "global_phase": bad})
            with pytest.raises(ContractViolation, match="^global_phase "):
                circuit_to_dict(Circuit([], bad))
    # A label is a string, kept as it is: null, a number or a list is refused,
    # not turned into "None", "5" or "[1]", by the constructor and the reader alike.
    for bad in (None, 5, 1.5, True, [1], {"a": 1}):
        built = _outcome(lambda: local_op(1, ID2, bad))
        entry = {"kind": "local", "qubit": 1, "label": bad, "matrix": identity}
        assert _outcome(lambda: circuit_from_dict({"ops": [entry]}).ops[0]) == (
            f"refused: ops[0]: label must be a string, got {bad!r}"
        )
        assert built == f"refused: label must be a string, got {bad!r}"
        assert _written(LocalOp(1, ID2, bad)) == f"refused: ops[0]: label must be a string, got {bad!r}"
    # A numpy integer qubit or control is written as the int the reader reads.
    doc = circuit_to_dict(Circuit([LocalOp(np.int64(2), ID2), CnotOp(np.int64(1))]))
    assert json.loads(json.dumps(doc)) == circuit_to_dict(circuit_from_dict(doc))
    assert [type(op.get("qubit", op.get("control"))) for op in doc["ops"]] == [int, int]
    for label in ("", "u1", "v4'·X", "é"):
        entry = {"kind": "local", "qubit": 2, "label": label, "matrix": identity}
        assert circuit_from_dict({"ops": [entry]}).ops[0].label == label


def test_circuit_writer_refuses_the_local_matrices_its_reader_refuses():
    # A hand-built local whose matrix the reader refuses is refused by the
    # writer too, with the reader's message: the shape by the op, the
    # unitarity by one check of the circuit's locals, a non-unitary local
    # ahead of a misshapen one first, as the reader orders them.
    def entry(op):
        if isinstance(op, LocalOp):
            matrix = _matrix_to_json(op.matrix)
            return {"kind": "local", "qubit": op.qubit, "label": op.label, "matrix": matrix}
        return op.to_dict()

    # A complex64 rotation is refused as the complex128 matrix the reader reads.
    single = haar_random_unitary(2, seed=3).astype(np.complex64)
    bad_matrices = (
        2 * ID2, np.eye(3), np.full((2, 2), np.nan), ID4, np.ones(2), np.ones((2, 2, 2)), 0.5, single
    )
    for bad in bad_matrices:
        for ops in (
            [LocalOp(1, bad)],
            [local_op(1, PAULI_X), swap_op(0.5), LocalOp(2, bad, "v")],
            [LocalOp(1, 2 * ID2), swap_op(0.5), LocalOp(2, bad)],
            [LocalOp(1.5, bad)],
        ):
            with pytest.raises(ContractViolation, match=r"^ops\[") as read:
                circuit_from_dict({"global_phase": 0.0, "ops": [entry(op) for op in ops]})
            with pytest.raises(ContractViolation) as written:
                circuit_to_dict(Circuit(ops))
            assert str(written.value) == str(read.value)
    with pytest.raises(ContractViolation) as written:
        circuit_to_dict(Circuit([LocalOp(1, np.eye(3))]))
    assert str(written.value) == "ops[0]: local matrix: rows have shape (3, 3), expected (2, 2)"
    with pytest.raises(ContractViolation) as written:
        circuit_to_dict(Circuit([LocalOp(1, 2 * ID2)]))
    assert str(written.value) == "ops[0]: local matrix is not unitary: max deviation 3.000e+00 exceeds 1e-10"
    # A matrix whose entries are not all numbers is refused, not cast, with
    # the message the reader gives for the same entries: a string, a bool, a
    # dict, a None or a ragged row, and an object ndarray, refused by its
    # dtype as local_op refuses it.  Numbers of any numpy or Python kind pass.
    pairs = "ops[0]: local matrix: rows must be 2x2 nested [re, im] pairs"
    as_json = (
        [["a", "b"], ["c", "d"]], {"a": 1}, [[1, 0], [0, "1"]], [[True, 0], [0, 1]], [[1.0, 0], [0, None]], [[1, 0], [0]], "ab",
        [[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
    )
    for bad in as_json:
        with pytest.raises(ContractViolation) as read:
            circuit_from_dict({"ops": [{"kind": "local", "qubit": 1, "matrix": bad}]})
        assert str(read.value) == pairs, bad
    for bad in as_json + (
        np.eye(2, dtype=bool), [[np.True_, 0], [0, 1]], np.array([[1, 0], [0, "1"]]), np.eye(2, dtype=object)
    ):
        with pytest.raises(ContractViolation) as written:
            circuit_to_dict(Circuit([LocalOp(1, bad)]))
        assert str(written.value) == pairs, bad
    for good in ([[1, 0], [0, 1]], [[1 + 0j, 0], [0, 1.0]], np.eye(2, dtype=np.float32)):
        assert circuit_to_dict(Circuit([LocalOp(1, good)]))["ops"][0]["matrix"] == _matrix_to_json(ID2)


def test_local_op_and_the_circuit_writer_refuse_the_same_matrices():
    # Both apply linalg's one rule for a matrix of numbers.
    table = {
        "object ndarray of numbers": np.eye(2, dtype=complex).astype(object),
        "np.True_ among numbers": [[np.True_, 0], [0, 1]],
        "numeric strings": [["1", "0"], ["0", "1"]],
        "bool ndarray": np.eye(2, dtype=bool),
        "ragged list": [[1.0, 0.0], [1.0]],
        "float32 ndarray": np.eye(2, dtype=np.float32),
        "ints": [[1, 0], [0, 1]],
        "numpy scalars": [[np.float64(1.0), np.int8(0)], [np.uint16(0), np.complex64(1)]],
    }

    def refused_by(call):
        kinds = []
        for kind, m in table.items():
            try:
                call(m)
            except ContractViolation:
                kinds.append(kind)
        return kinds

    refused = refused_by(lambda m: local_op(1, m))
    assert refused_by(lambda m: circuit_to_dict(Circuit([LocalOp(1, m)]))) == refused
    assert refused == list(table)[:5]


def test_matrix_codec_is_byte_exact():
    # The reader returns the writer's matrices bit for bit, signed zeros included.
    signed = np.array([[-0.0 - 0.0j, 1.0 - 0.0j], [complex(-0.0, 1.0), -1e-300 + 5e-324j]])
    targets = [named_gate(name) for name in sorted(gates.NAMED_GATES)] + [signed]
    targets += [haar_random_unitary(4, seed=seed) for seed in range(50)]
    for m in targets:
        dim = m.shape[0]
        back = synthesis._matrix_from_json(json.loads(json.dumps(synthesis._matrix_to_json(m))), dim, "m")
        assert back.dtype == complex and back.shape == m.shape
        assert back.tobytes() == np.asarray(m, dtype=complex).tobytes()
    # JSON integers read as the floats they name.
    ints = synthesis._matrix_from_json([[[1, 0], [0, 0]], [[0, 0], [-1, 2**63]]], 2, "m")
    assert ints.tobytes() == np.array([[1, 0], [0, complex(-1, 2**63)]]).tobytes()


def test_matrix_codec_refuses_all_but_real_pairs():
    pairs = "m: rows must be 2x2 nested [re, im] pairs"
    one = [[1.0, 0.0], [0.0, 0.0]]
    for rows in (
        [[[1.0, 0.0, 7.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]],  # triples
        [[[True, False], [False, False]], [[False, False], [True, False]]],  # bools
        [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]],  # strings
        [[[None, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        [[1.0, 0.0], [0.0, 1.0]],  # no pairs
        [[[1.0], [0.0]], [[0.0], [1.0]]],
        [one, [[0.0, 0.0], [1.0]]],  # ragged
        [[one], [one]],  # one level too deep
        [[{"re": 1.0, "im": 0.0}] * 2] * 2,
        [],
        [[]],
        None,
        "rows",
        {"0": one},
        np.eye(2, dtype=complex),
    ):
        with pytest.raises(ContractViolation) as exc:
            synthesis._matrix_from_json(rows, 2, "m")
        assert str(exc.value) == pairs, rows
    # An integer numpy cannot hold as a number is named as the cause, not the layout.
    for big in (10**400, 2**70, 2**64, -(2**63) - 1):
        with pytest.raises(ContractViolation) as exc:
            synthesis._matrix_from_json([[[big, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], 2, "m")
        assert str(exc.value) == (
            "m: an integer entry lies outside [-2**63, 2**64), the range numpy stores as a number"
        ), big
    for rows, shape in (([one], (1, 2)), ([one] * 3, (3, 2)), ([[[1.0, 0.0]] * 3] * 3, (3, 3))):
        with pytest.raises(ContractViolation) as exc:
            synthesis._matrix_from_json(rows, 2, "m")
        assert str(exc.value) == f"m: rows have shape {shape}, expected (2, 2)"


def _outcome(call):
    """The JSON entry of the op call() builds, or the message of the
    ContractViolation it raises."""
    try:
        return str(call().to_dict())
    except ContractViolation as exc:
        return f"refused: {exc}"


def _written(op):
    """The JSON entry that circuit_to_dict writes for a circuit of op alone,
    or the message of the ContractViolation it raises."""
    try:
        return str(circuit_to_dict(Circuit([op]))["ops"][0])
    except ContractViolation as exc:
        return f"refused: {exc}"


def test_prune_admits_tol():
    c = Circuit(ops=[swap_op(1e-14), local_op(1, ID2)])
    assert gate_counts(prune_circuit(c, 0)) == (1, 0, 0)
    assert gate_counts(prune_circuit(c, np.float64(1e-12))) == (0, 0, 0)
    for tol in (float("nan"), float("inf"), "x", None, True, 10**400):
        with pytest.raises(ContractViolation, match="^tol "):
            prune_circuit(c, tol)
    for tol in (-1, -1e-12):
        with pytest.raises(ContractViolation, match="^tol must be >= 0"):
            prune_circuit(c, tol)


def test_shared_constants_are_read_only():
    # The swap core's Pauli ops share linalg's constant, not a copy of it.
    op = Circuit(*_core_swap((0.3, 0.2, 0.1))).ops[1]
    assert op.matrix is PAULI_X
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0
    np.testing.assert_array_equal(PAULI_X, [[0, 1], [1, 0]])
    # Lookups that hand out a matrix still hand out a writable copy.
    assert named_gate("x").flags.writeable
    assert cnot_op(1).unitary().flags.writeable


@pytest.mark.parametrize("module", [linalg, gates, canonical, synthesis, entanglement])
def test_module_level_arrays_are_read_only(module):
    arrays = {}
    for name, v in vars(module).items():
        if isinstance(v, np.ndarray):
            arrays[name] = v
        elif isinstance(v, tuple):
            arrays.update({f"{name}[{i}]": a for i, a in enumerate(v) if isinstance(a, np.ndarray)})
    if module is gates:
        arrays.update({f"NAMED_GATES[{k!r}]": v for k, v in gates.NAMED_GATES.items()})
    assert arrays
    assert [name for name, a in arrays.items() if a.flags.writeable] == []
