"""Property test over the op table: every op kind in arbitrary mixes.

Synthesized circuits only ever hold a few fixed op patterns (no control-2
CNOT, no negative or even SWAP exponents), so this drives random op lists
through each place that reads the op table: the JSON codec, pruning, the
scheduler and the gate tally.
"""

import collections
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swapsynth.costmodel import HardwareProfile, builtin_profile, schedule_circuit
from swapsynth.linalg import ID2, haar_random_unitary
from swapsynth.synthesis import (
    Circuit,
    CnotOp,
    GateOp,
    LocalOp,
    SwapPowOp,
    circuit_from_dict,
    circuit_to_dict,
    cnot_op,
    evaluate_circuit,
    gate_counts,
    local_op,
    prune_circuit,
    swap_op,
)

PROFILES = (
    builtin_profile("gaas"),
    HardwareProfile("prop", 28e6, 18e-9, 50e-12, local_rotation_policy="proportional"),
)

qubits = st.sampled_from((1, 2))
phases = st.floats(-np.pi, np.pi)
haar_locals = st.builds(
    lambda q, seed: local_op(q, haar_random_unitary(2, seed=seed), "haar"),
    qubits,
    st.integers(0, 2**32 - 1),
)
# e^{i t} I: prune folds these into the global phase.
phase_locals = st.builds(lambda q, t: local_op(q, np.exp(1j * t) * ID2, "phase"), qubits, phases)
exponents = st.one_of(st.floats(-4.0, 4.0), st.integers(-3, 3).map(lambda k: 2.0 * k))
ops_lists = st.lists(
    st.one_of(haar_locals, phase_locals, st.builds(swap_op, exponents), st.builds(cnot_op, qubits)),
    max_size=12,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(ops=ops_lists, phase=phases)
def test_op_table_properties(ops, phase):
    circuit = Circuit(ops=ops, declared_global_phase=phase)
    u = evaluate_circuit(circuit)

    back = circuit_from_dict(json.loads(json.dumps(circuit_to_dict(circuit))))
    assert [op.kind for op in back.ops] == [op.kind for op in ops]
    assert np.max(np.abs(evaluate_circuit(back) - u)) < 1e-12

    assert np.max(np.abs(evaluate_circuit(prune_circuit(circuit)) - u)) < 1e-12

    for profile in PROFILES:
        sched = schedule_circuit(circuit, profile)
        assert [i for layer in sched.layers for i in layer.op_indices] == list(range(len(ops)))
        for layer in sched.layers:
            members = [ops[i] for i in layer.op_indices]
            assert all(op.kind == layer.kind for op in members)
            if layer.kind == LocalOp.kind:
                assert len({op.qubit for op in members}) == len(members)
            else:
                assert len(members) == 1
        assert sched.total_time_s == pytest.approx(sum(layer.duration_s for layer in sched.layers))

    tally = collections.Counter(type(op) for op in ops)
    assert all(isinstance(op, GateOp) for op in ops)
    assert gate_counts(circuit) == (tally[SwapPowOp], tally[CnotOp], tally[LocalOp])
