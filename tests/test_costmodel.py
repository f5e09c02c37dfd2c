import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swapsynth import canonical, costmodel
from swapsynth.costmodel import (
    HardwareProfile,
    Layer,
    builtin_profile,
    compare_backends,
    profile_from_dict,
    schedule_circuit,
)
from swapsynth.gates import CNOT, SWAP, rz
from swapsynth.linalg import ContractViolation, ID2, PAULI_X, haar_random_unitary
from swapsynth.synthesis import (
    Circuit,
    LocalOp,
    cnot_op,
    local_op,
    swap_op,
    synthesize_swap,
)


def test_builtin_profiles():
    gaas = builtin_profile("gaas")
    assert gaas.rabi_frequency_hz == pytest.approx(6.2e6)
    assert gaas.pi_rotation_time_s == pytest.approx(80e-9)
    assert gaas.swap_full_time_s == pytest.approx(50e-12)
    si = builtin_profile("si")
    assert si.rabi_frequency_hz == pytest.approx(28e6)
    assert si.pi_rotation_time_s == pytest.approx(18e-9)
    assert si.swap_full_time_s == pytest.approx(50e-12)
    # local rotations are three orders of magnitude slower than exchange
    assert gaas.pi_rotation_time_s / gaas.swap_full_time_s == pytest.approx(1600.0)
    with pytest.raises(ContractViolation):
        builtin_profile("germanium")


def test_profile_consistency_gate():
    with pytest.raises(ContractViolation):
        HardwareProfile(
            name="broken",
            rabi_frequency_hz=1e6,
            pi_rotation_time_s=80e-9,  # 1/(2f) would be 500 ns
            swap_full_time_s=50e-12,
        )
    with pytest.raises(ContractViolation):
        HardwareProfile(
            name="negative",
            rabi_frequency_hz=1e6,
            pi_rotation_time_s=-5e-7,
            swap_full_time_s=50e-12,
        )
    with pytest.raises(ContractViolation):
        HardwareProfile(
            name="policy",
            rabi_frequency_hz=1e6,
            pi_rotation_time_s=5e-7,
            swap_full_time_s=50e-12,
            local_rotation_policy="adiabatic",
        )


def test_profile_from_dict():
    doc = {
        "name": "lab",
        "rabi_frequency_hz": 1.0e7,
        "pi_rotation_time_s": 5.0e-8,
        "swap_full_time_s": 1.0e-10,
        "local_rotation_policy": "proportional",
    }
    p = profile_from_dict(doc)
    assert p.name == "lab"
    assert p.local_rotation_policy == "proportional"
    assert _outcome(lambda: profile_from_dict("gaas")) == "refused: profile document must be a JSON object"
    # Missing keys are named in field order, the first one missing first.
    assert _outcome(lambda: profile_from_dict({"name": "incomplete"})) == (
        "refused: profile document missing key 'rabi_frequency_hz'"
    )
    with pytest.raises(ContractViolation, match="missing key 'swap_full_time_s'"):
        profile_from_dict({k: v for k, v in doc.items() if k != "swap_full_time_s"})
    # The policy is optional.
    policy_free = {k: v for k, v in doc.items() if k != "local_rotation_policy"}
    assert profile_from_dict(policy_free).local_rotation_policy == "fixed_pi"
    assert _outcome(lambda: profile_from_dict({**doc, "x": 1})) == (
        "refused: unknown profile key 'x'; expected name, rabi_frequency_hz, "
        "pi_rotation_time_s, swap_full_time_s, local_rotation_policy"
    )
    # A key outside the five is refused by name, not dropped: a misspelled
    # policy would otherwise price every local at the pi time.
    misspelled = {k: v for k, v in doc.items() if k != "local_rotation_policy"}
    for extra in ({"local_rotaton_policy": "proportional"}, {"notes": "bench"}, {"Name": "lab"}):
        (key,) = extra
        with pytest.raises(ContractViolation, match=f"^unknown profile key {key!r}; expected name, "):
            profile_from_dict({**misspelled, **extra})
    # Each timing field is a JSON number: a string or a boolean is refused.
    for key in ("rabi_frequency_hz", "pi_rotation_time_s", "swap_full_time_s"):
        for bad in (str(doc[key]), True, None):
            with pytest.raises(ContractViolation, match=f"{key} must be a number"):
                profile_from_dict({**doc, key: bad})
        # A JSON integer too large for a float is refused, not an OverflowError.
        with pytest.raises(ContractViolation, match=f"{key} is too large for a float"):
            profile_from_dict({**doc, key: 10**400})
        # A profile built in Python refuses the same values, with the same message.
        for bad in (True, np.True_, 1.0, "1", None, float("nan"), float("inf"), -float("inf"), 10**400):
            built = _outcome(lambda: HardwareProfile(**{**doc, key: bad}))
            assert built == _outcome(lambda: profile_from_dict({**doc, key: bad}))
            # 1.0 is a number, so only the 10% consistency check may refuse it.
            assert type(bad) is float and bad == 1.0 or built.startswith(f"refused: {key} ")
    assert profile_from_dict({**doc, "rabi_frequency_hz": 10_000_000}).rabi_frequency_hz == 1.0e7
    # Timing fields are stored as floats, whichever real type they came as.
    p = HardwareProfile(**{**doc, "rabi_frequency_hz": np.int64(10_000_000)})
    assert type(p.rabi_frequency_hz) is float and p == profile_from_dict(doc)
    # The name and the policy are strings, kept as they are: null or a number
    # is refused, not turned into "None" or "5".
    for key in ("name", "local_rotation_policy"):
        for bad in (None, 5, True, ["lab"]):
            built = _outcome(lambda: HardwareProfile(**{**doc, key: bad}))
            assert built == _outcome(lambda: profile_from_dict({**doc, key: bad}))
            assert built == f"refused: {key} must be a string, got {bad!r}"


def test_profile_keys_are_the_dataclass_fields(monkeypatch):
    """A field added to HardwareProfile is a profile key, with no second list to extend."""

    @dataclasses.dataclass(frozen=True)
    class WithVirtualZ(HardwareProfile):
        virtual_z: bool = False

    monkeypatch.setattr(costmodel, "HardwareProfile", WithVirtualZ)
    doc = {"name": "lab", "rabi_frequency_hz": 1.0e7, "pi_rotation_time_s": 5.0e-8, "swap_full_time_s": 1.0e-10}
    p = profile_from_dict({**doc, "virtual_z": True})
    assert type(p) is WithVirtualZ and p.virtual_z is True
    assert profile_from_dict(doc).virtual_z is False
    assert _outcome(lambda: profile_from_dict({**doc, "x": 1})).endswith(
        "; expected name, rabi_frequency_hz, pi_rotation_time_s, swap_full_time_s, "
        "local_rotation_policy, virtual_z"
    )


def _outcome(call):
    """The profile call() builds, or the message of the ContractViolation it raises."""
    try:
        return call()
    except ContractViolation as exc:
        return f"refused: {exc}"


def test_schedule_empty():
    sched = schedule_circuit(Circuit(ops=[]), builtin_profile("gaas"))
    assert sched.layers == ()
    assert sched.total_time_s == 0.0


def test_schedule_single_swap():
    sched = schedule_circuit(Circuit(ops=[swap_op(1.0)]), builtin_profile("gaas"))
    assert sched.total_time_s == pytest.approx(50e-12)
    sched = schedule_circuit(Circuit(ops=[swap_op(0.5)]), builtin_profile("gaas"))
    assert sched.total_time_s == pytest.approx(25e-12)
    # exponents fold modulo 2, symmetric about odd integers
    sched = schedule_circuit(Circuit(ops=[swap_op(1.5)]), builtin_profile("gaas"))
    assert sched.total_time_s == pytest.approx(25e-12)
    sched = schedule_circuit(Circuit(ops=[swap_op(-0.5)]), builtin_profile("gaas"))
    assert sched.total_time_s == pytest.approx(25e-12)
    sched = schedule_circuit(Circuit(ops=[swap_op(2.25)]), builtin_profile("gaas"))
    assert sched.total_time_s == pytest.approx(12.5e-12)
    sched = schedule_circuit(Circuit(ops=[swap_op(4.0)]), builtin_profile("gaas"))
    assert sched.total_time_s == 0.0


def test_schedule_local_packing():
    prof = builtin_profile("gaas")
    ops = [local_op(1, PAULI_X), local_op(2, PAULI_X), local_op(1, PAULI_X)]
    sched = schedule_circuit(Circuit(ops=ops), prof)
    # first two share a layer, the third cannot
    assert len(sched.layers) == 2
    assert sched.layers[0].op_indices == (0, 1)
    assert sched.total_time_s == pytest.approx(2 * 80e-9)


def test_schedule_two_qubit_gates_break_layers():
    prof = builtin_profile("gaas")
    ops = [local_op(1, PAULI_X), swap_op(0.5), local_op(2, PAULI_X)]
    sched = schedule_circuit(Circuit(ops=ops), prof)
    assert [layer.kind for layer in sched.layers] == ["local", "swap_pow", "local"]


def test_schedule_synthesized_cnot_target():
    # three-SWAP circuit for CNOT under the GaAs profile: four sequential
    # local layers plus 50 ps of exchange
    sched = schedule_circuit(synthesize_swap(CNOT), builtin_profile("gaas"))
    local_layers = [l for l in sched.layers if l.kind == "local"]
    assert len(local_layers) == 4
    assert sched.total_time_s == pytest.approx(320.05e-9, rel=1e-9)


def test_proportional_policy():
    prof = HardwareProfile(
        name="prop",
        rabi_frequency_hz=6.2e6,
        pi_rotation_time_s=80e-9,
        swap_full_time_s=50e-12,
        local_rotation_policy="proportional",
    )
    half_turn = schedule_circuit(Circuit(ops=[local_op(1, PAULI_X)]), prof)
    assert half_turn.total_time_s == pytest.approx(80e-9)
    idle = schedule_circuit(Circuit(ops=[local_op(1, ID2)]), prof)
    assert idle.total_time_s == pytest.approx(0.0, abs=1e-20)
    fixed = builtin_profile("gaas")
    assert schedule_circuit(
        Circuit(ops=[local_op(1, ID2)]), fixed
    ).total_time_s == pytest.approx(80e-9)


def _layers_by_rescan(circuit, profile):
    """schedule_circuit's layering as it was: for every op, the ops of the
    last layer are looked up and tested again."""
    layers = []
    for idx, op in enumerate(circuit.ops):
        duration = op.duration_s(profile)
        prev = [circuit.ops[i] for i in layers[-1].op_indices] if layers else []
        if isinstance(op, LocalOp) and prev and all(
            isinstance(p, LocalOp) and p.qubit != op.qubit for p in prev
        ):
            last = layers.pop()
            duration = max(last.duration_s, duration)
            layers.append(Layer(duration, last.op_indices + (idx,), op.kind))
        else:
            layers.append(Layer(duration, (idx,), op.kind))
    return tuple(layers)


PROPORTIONAL = HardwareProfile("prop", 6.2e6, 80e-9, 50e-12, local_rotation_policy="proportional")
# Locals of varied rotation angle, so that a merged layer's maximum matters.
schedule_ops = st.lists(
    st.one_of(
        st.builds(lambda q, t: local_op(q, rz(t)), st.sampled_from((1, 2)), st.floats(-4.0, 4.0)),
        st.builds(swap_op, st.floats(-3.0, 3.0)),
        st.builds(cnot_op, st.sampled_from((1, 2))),
    ),
    max_size=20,
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(ops=schedule_ops, profile=st.sampled_from((builtin_profile("si"), PROPORTIONAL)))
def test_one_pass_schedule_matches_the_rescan(ops, profile):
    circuit = Circuit(ops=ops)
    sched = schedule_circuit(circuit, profile)
    expected = _layers_by_rescan(circuit, profile)
    assert sched.layers == expected
    assert [type(layer) for layer in sched.layers] == [Layer] * len(expected)
    assert sched.total_time_s == float(sum(layer.duration_s for layer in expected))


def test_schedule_layers_cover_all_ops():
    u = haar_random_unitary(4, seed=19)
    c = synthesize_swap(u)
    sched = schedule_circuit(c, builtin_profile("si"))
    seen = sorted(i for layer in sched.layers for i in layer.op_indices)
    assert seen == list(range(len(c.ops)))
    assert sched.total_time_s == pytest.approx(
        sum(layer.duration_s for layer in sched.layers)
    )


def test_compare_backends_report():
    rep = compare_backends(haar_random_unitary(4, seed=2), builtin_profile("gaas"))
    assert set(rep["backends"]) == {"swap", "cnot", "naive"}
    assert rep["backends"]["swap"]["gate_counts"] == {"swap_pow": 3, "cnot": 0, "local": 6}
    assert rep["backends"]["naive"]["gate_counts"]["swap_pow"] == 6
    assert rep["naive_verification_phase_distance"] < 1e-9
    assert "local layers" in rep["note"] or "local" in rep["note"]


def test_naive_never_beats_optimal():
    prof = builtin_profile("gaas")
    for seed in range(25):
        rep = compare_backends(haar_random_unitary(4, seed=seed), prof)
        naive = rep["backends"]["naive"]["total_time_s"]
        optimal = rep["backends"]["swap"]["total_time_s"]
        assert naive >= optimal - 1e-15


def test_compare_backends_swap_target():
    rep = compare_backends(SWAP, builtin_profile("si"))
    assert rep["backends"]["swap"]["total_time_s"] > 0


@pytest.mark.parametrize("profile", ["gaas", None, {"name": "gaas"}])
def test_profile_argument_must_be_a_hardware_profile(profile, monkeypatch):
    def no_decomposition(m):
        raise AssertionError("the profile is refused before any synthesis")

    monkeypatch.setattr(canonical, "diagonalize_complex_symmetric_unitary", no_decomposition)
    message = rf"^profile must be a HardwareProfile, got {re.escape(repr(profile))}$"
    with pytest.raises(ContractViolation, match=message):
        schedule_circuit(Circuit(ops=[swap_op(0.5)]), profile)
    with pytest.raises(ContractViolation, match=message):
        compare_backends(haar_random_unitary(4, seed=8), profile)
