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
    CnotPhaseParams,
    build_core_cnot_circuit,
    build_core_swap_circuit,
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
    with pytest.raises(ContractViolation):
        swap_op("wide")
    with pytest.raises(ContractViolation):
        cnot_op(0)


def test_swap_angles_examples():
    ang = swap_angles(CanonicalParams(PI4, 0.0, 0.0))
    assert tuple(ang) == pytest.approx((0.5, 0.5, 0.0))
    ang = swap_angles(CanonicalParams(PI4, PI4, PI4))
    assert tuple(ang) == pytest.approx((1.0, 0.0, 0.0))
    # negative hz pushes beta and gamma above 1/2
    ang = swap_angles(CanonicalParams(0.6, 0.5, -0.4))
    assert ang.beta == pytest.approx(2.0 * (0.6 + 0.4) / np.pi)
    assert ang.beta > 0.5 and ang.gamma > 0.5
    with pytest.raises(ContractViolation):
        swap_angles(CanonicalParams(1.0, 0.0, 0.0))


def test_swap_angles_range():
    rng = np.random.default_rng(3)
    for _ in range(200):
        ang = swap_angles(_random_chamber_point(rng))
        for a in ang:
            assert -1e-12 <= a <= 1.0 + 1e-12


def test_core_swap_shape():
    c = build_core_swap_circuit(CanonicalParams(0.3, 0.2, 0.1))
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
        got = evaluate_circuit(build_core_swap_circuit(p))
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
    with pytest.raises(ContractViolation):
        cnot_phase_params(BellPhases(0.3, 0.0, 0.0, 0.0))


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


def test_circuit_json_round_trip():
    u = haar_random_unitary(4, seed=101)
    for synth in (synthesize_swap, synthesize_cnot):
        c = synth(u)
        doc = circuit_to_dict(c)
        back = circuit_from_dict(doc)
        assert gate_counts(back) == gate_counts(c)
        assert np.max(np.abs(evaluate_circuit(back) - evaluate_circuit(c))) < 1e-12


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


def test_shared_constants_are_read_only():
    # The swap core's Pauli ops share linalg's constant, not a copy of it.
    op = build_core_swap_circuit((0.3, 0.2, 0.1)).ops[1]
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
