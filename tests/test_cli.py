"""End-to-end command line tests, run in-process through main(argv)."""

import json

import pytest

from swapsynth.cli import main
from swapsynth.gates import CNOT
from swapsynth.linalg import phase_distance
from swapsynth.synthesis import circuit_from_dict, evaluate_circuit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_named_gate(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, text, _ = run(capsys, "synth", "--gate", "cnot", "--out", str(out))
    assert code == 0
    assert "0.500000000, 0.500000000, 0.000000000" in text
    assert "3 swap_pow, 0 cnot, 6 local" in text
    doc = json.loads(out.read_text())
    circuit = circuit_from_dict(doc)
    assert phase_distance(evaluate_circuit(circuit), CNOT) < 1e-10


def test_synth_json_report(capsys):
    code, text, _ = run(capsys, "synth", "--gate", "identity4", "--json")
    assert code == 0
    rep = json.loads(text)
    assert rep["backend"] == "swap"
    assert rep["phase_distance"] < 1e-12
    assert rep["canonical_params"] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_synth_cnot_backend(capsys):
    code, text, _ = run(capsys, "synth", "--gate", "cnot", "--backend", "cnot", "--json")
    assert code == 0
    rep = json.loads(text)
    assert rep["gate_counts"]["cnot"] == 3
    assert rep["cnot_phase_params"] == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-9)


def test_synth_requires_target(capsys):
    code, _, err = run(capsys, "synth")
    assert code == 2
    assert "target" in err


def test_synth_rejects_single_qubit_gate(capsys):
    code, _, err = run(capsys, "synth", "--gate", "hadamard")
    assert code == 2


def test_verify_pass_and_fail(tmp_path, capsys):
    out = tmp_path / "c.json"
    run(capsys, "synth", "--gate", "cnot", "--out", str(out))
    code, text, _ = run(capsys, "verify", str(out), "--gate", "cnot")
    assert code == 0
    assert "PASS" in text
    code, text, _ = run(capsys, "verify", str(out), "--gate", "swap")
    assert code == 1
    assert "FAIL" in text
    # a CNOT circuit is exactly distance 3/4 from SWAP
    assert "7.500e-01" in text


def test_verify_bad_circuit_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", str(bad), "--gate", "cnot")
    assert code == 2
    nan_local = {"kind": "local", "qubit": 1, "matrix": [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    bool_qubit = {"kind": "local", "qubit": True, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    for doc in (
        {"ops": 5},
        {"ops": None},
        {"ops": [nan_local]},
        {"ops": [], "global_phase": float("nan")},
        {"ops": [], "global_phase": float("inf")},
        {"ops": [bool_qubit]},
        {"ops": [{"kind": "cnot", "control": 2.0}]},
    ):
        bad.write_text(json.dumps(doc))
        for argv in (("verify", str(bad), "--gate", "cnot"), ("cost", str(bad))):
            code, _, err = run(capsys, *argv)
            assert code == 2, (doc, argv)


def test_random_deterministic(tmp_path, capsys):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    code, _, _ = run(capsys, "random", "--seed", "7", "--count", "3", "--out", str(d1))
    assert code == 0
    run(capsys, "random", "--seed", "7", "--count", "3", "--out", str(d2))
    for name in ("random_000007.json", "random_000008.json", "random_000009.json"):
        assert (d1 / name).read_text() == (d2 / name).read_text()


def test_random_zero_count(tmp_path, capsys):
    code, text, _ = run(capsys, "random", "--seed", "0", "--count", "0", "--out", str(tmp_path))
    assert code == 0


def test_random_matrix_round_trip(tmp_path, capsys):
    run(capsys, "random", "--seed", "3", "--count", "1", "--out", str(tmp_path))
    mat = str(tmp_path / "random_000003.json")
    code, text, _ = run(capsys, "synth", "--matrix", mat, "--json")
    assert code == 0
    rep = json.loads(text)
    assert rep["phase_distance"] < 1e-9


def test_random_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "random"
    for count in ("0", "1"):
        code, text, err = run(capsys, "random", "--seed", "-1", "--count", count, "--out", str(out))
        assert code == 2
        assert text == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_analyze_ep_matrix_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "ep.json"
    code, text, err = run(
        capsys,
        "analyze", "ep-matrix", "--gate", "cnot", "--samples", "10", "--seed", "-3",
        "--out", str(out),
    )
    assert code == 2
    assert text == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_analyze_ep_matrix(capsys):
    code, text, _ = run(capsys, "analyze", "ep-matrix", "--gate", "cnot", "--json")
    assert code == 0
    rep = json.loads(text)
    assert rep["entangling_power"] == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_analyze_ep_matrix_monte_carlo(capsys):
    code, text, _ = run(
        capsys,
        "analyze", "ep-matrix", "--gate", "sqrt_swap",
        "--samples", "5000", "--seed", "2", "--json",
    )
    assert code == 0
    rep = json.loads(text)
    mc = rep["monte_carlo"]
    assert abs(mc["mean"] - 1.0 / 6.0) < 5 * mc["std_error"] + 1e-3


def test_analyze_ep_curve_peak(capsys):
    code, text, _ = run(capsys, "analyze", "ep-curve", "--points", "100", "--json")
    assert code == 0
    rep = json.loads(text)
    assert rep["peak"]["alpha"] == pytest.approx(0.5)
    assert rep["peak"]["entangling_power"] == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert rep["max_residual_vs_exact"] < 1e-12


def test_analyze_ep_curve_inverse(capsys):
    code, text, _ = run(
        capsys, "analyze", "ep-curve", "--target-ep", "0.1666666666666", "--json"
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["inverse"]["alpha"] == pytest.approx(0.5, abs=1e-4)
    code, _, _ = run(capsys, "analyze", "ep-curve", "--target-ep", "0.9")
    assert code == 2


def test_analyze_appendix_terms(capsys):
    code, text, _ = run(capsys, "analyze", "appendix-a", "--alpha", "0", "--json")
    assert code == 0
    rep = json.loads(text)
    assert rep["term2"] == pytest.approx(16.0, abs=1e-12)
    assert rep["term3"] == pytest.approx(4.0, abs=1e-12)
    assert rep["residual_term2"] < 1e-12
    assert rep["residual_term3"] < 1e-12


def test_cost_schedule(tmp_path, capsys):
    out = tmp_path / "c.json"
    run(capsys, "synth", "--gate", "cnot", "--out", str(out))
    code, text, _ = run(capsys, "cost", str(out), "--profile", "gaas")
    assert code == 0
    assert "320.05 ns" in text


def test_cost_compare(capsys):
    code, text, _ = run(capsys, "cost", "--compare", "--gate", "swap", "--profile", "si", "--json")
    assert code == 0
    rep = json.loads(text)
    assert rep["backends"]["naive"]["total_time_s"] >= rep["backends"]["swap"]["total_time_s"]
    assert rep["target"] == "swap"


def test_cost_custom_profile(tmp_path, capsys):
    prof = tmp_path / "prof.json"
    prof.write_text(
        json.dumps(
            {
                "name": "bench",
                "rabi_frequency_hz": 1.0e7,
                "pi_rotation_time_s": 5.0e-8,
                "swap_full_time_s": 1.0e-10,
                "local_rotation_policy": "fixed_pi",
            }
        )
    )
    out = tmp_path / "c.json"
    run(capsys, "synth", "--gate", "cnot", "--out", str(out))
    code, text, _ = run(capsys, "cost", str(out), "--profile", str(prof), "--json")
    assert code == 0
    rep = json.loads(text)
    assert rep["profile"] == "bench"
    # four local layers plus two half-SWAP pulses
    assert rep["total_time_s"] == pytest.approx(4 * 5.0e-8 + 1.0e-10, rel=1e-6)


def test_cost_needs_circuit_or_compare(tmp_path, capsys):
    code, _, err = run(capsys, "cost", "--profile", "gaas")
    assert code == 2
    circuit = tmp_path / "c.json"
    run(capsys, "synth", "--gate", "cnot", "--out", str(circuit))
    # A target without --compare, or a circuit file with it, would be silently ignored.
    for argv in (
        ("cost", str(circuit), "--gate", "swap"),
        ("cost", str(circuit), "--compare", "--gate", "swap"),
    ):
        code, text, err = run(capsys, *argv)
        assert code == 2
        assert text == "" and err.startswith("error: ") and err.count("\n") == 1


def test_corrupt_matrix_file(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"dim": 4, "rows": [[1, 2], [3, 4]]}))
    code, _, err = run(capsys, "synth", "--matrix", str(bad))
    assert code == 2
    nonunitary = tmp_path / "n.json"
    rows = [[[1.0, 0.0]] * 4] * 4
    nonunitary.write_text(json.dumps({"dim": 4, "rows": rows}))
    code, _, err = run(capsys, "synth", "--matrix", str(nonunitary))
    assert code == 2
    keyed = tmp_path / "k.json"
    keyed.write_text(json.dumps({"dim": 4, "rows": [[{"re": 1.0, "im": 0.0}] * 4] * 4}))
    code, _, err = run(capsys, "synth", "--matrix", str(keyed))
    assert code == 2
    nan = tmp_path / "nan.json"
    rows = [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    rows[0][0] = [float("nan"), 0.0]
    nan.write_text(json.dumps({"dim": 4, "rows": rows}))
    for command in (("synth",), ("analyze", "ep-matrix")):
        code, _, err = run(capsys, *command, "--matrix", str(nan))
        assert code == 2, command


def test_prune_flag(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, text, _ = run(
        capsys, "synth", "--gate", "cnot", "--prune", "--out", str(out), "--json"
    )
    assert code == 0
    rep = json.loads(text)
    # the gamma pulse vanishes for this target
    assert rep["gate_counts"]["swap_pow"] == 2
    doc = json.loads(out.read_text())
    circuit = circuit_from_dict(doc)
    assert phase_distance(evaluate_circuit(circuit), CNOT) < 1e-10


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "c.json"
    run(capsys, "synth", "--gate", "cnot", "--out", str(out))
    missing = str(tmp_path / "no_such_dir" / "x.json")
    for argv in (
        ("synth", "--gate", "cnot", "--out", missing),
        ("verify", str(out), "--gate", "cnot", "--out", missing),
        ("analyze", "appendix-a", "--out", missing),
        ("cost", str(out), "--out", missing),
        ("synth", "--gate", "cnot", "--out", str(tmp_path)),
    ):
        code, text, err = run(capsys, *argv)
        assert code == 2, argv
        assert text == "" and err.startswith("error: "), argv


def test_random_out_names_a_file(tmp_path, capsys):
    existing = tmp_path / "file.json"
    existing.write_text("{}")
    for count in ("0", "1"):
        code, text, err = run(capsys, "random", "--count", count, "--out", str(existing))
        assert code == 2
        assert text == "" and err.startswith("error: ")
    assert existing.read_text() == "{}"


def test_bad_tolerance_exits_2(tmp_path, capsys):
    out = tmp_path / "c.json"
    run(capsys, "synth", "--gate", "cnot", "--out", str(out))
    for value in ("nan", "inf", "-inf", "-1e-8"):
        for argv in (("synth", "--gate", "cnot"), ("verify", str(out), "--gate", "cnot")):
            code, text, err = run(capsys, *argv, f"--tolerance={value}")
            assert code == 2, (argv, value)
            assert "--tolerance" in err and text == "", (argv, value)


def test_synth_and_verify_share_the_tolerance_gate(tmp_path, capsys):
    # A residual exactly at the tolerance passes in both commands.
    out = tmp_path / "c.json"
    for gate in ("identity4", "cnot", "iswap"):
        code, text, _ = run(capsys, "synth", "--gate", gate, "--out", str(out), "--json")
        residual = repr(json.loads(text)["phase_distance"])
        code, _, _ = run(capsys, "synth", "--gate", gate, "--tolerance", residual)
        assert code == 0, gate
        code, text, _ = run(capsys, "verify", str(out), "--gate", gate, "--tolerance", residual)
        assert code == 0 and "PASS" in text, gate


def test_report_out_matches_json_report(tmp_path, capsys):
    out = tmp_path / "c.json"
    run(capsys, "synth", "--gate", "cnot", "--out", str(out))
    for argv in (
        ("verify", str(out), "--gate", "cnot"),
        ("analyze", "ep-curve", "--points", "5"),
        ("analyze", "ep-matrix", "--gate", "cnot"),
        ("analyze", "appendix-a"),
        ("cost", str(out)),
        ("cost", "--compare", "--gate", "cnot"),
    ):
        rep = tmp_path / "rep.json"
        code, text, _ = run(capsys, *argv, "--out", str(rep), "--json")
        assert code == 0, argv
        assert json.loads(rep.read_text()) == json.loads(text), argv
        code, text, _ = run(capsys, *argv)
        assert code == 0 and text and not text.startswith("{"), argv
