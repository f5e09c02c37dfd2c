"""End-to-end command line tests, run in-process through main(argv)."""

import argparse
import dataclasses
import json
import os
import pathlib
import stat
import subprocess
import sys
import threading

import pytest

from swapsynth import cli
from swapsynth.cli import cmd_analyze_ep_curve, cmd_random, cmd_synth, main
from swapsynth.linalg import ContractViolation
from swapsynth.gates import CNOT
from swapsynth.linalg import phase_distance
from swapsynth.synthesis import (
    Circuit,
    LocalOp,
    circuit_from_dict,
    circuit_to_dict,
    evaluate_circuit,
    swap_op,
    synthesize_cnot,
)


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


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
    assert err.startswith("error: gate 'hadamard' must be a 4x4 matrix")


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


def test_verify_measures_a_read_circuit_as_the_unitary_it_stands_for(tmp_path, capsys):
    """Each local within 9e-11 of unitary passes the reader, and their product
    drifts to 7.2e-10: verify measures it, it does not refuse it."""
    circuit = synthesize_cnot(CNOT)
    ops = [
        dataclasses.replace(op, matrix=op.matrix * (1.0 + 4.5e-11)) if isinstance(op, LocalOp) else op
        for op in circuit.ops
    ]
    out = tmp_path / "c.json"
    out.write_text(json.dumps(circuit_to_dict(dataclasses.replace(circuit, ops=ops))))
    code, text, _ = run(capsys, "verify", str(out), "--gate", "cnot")
    assert code == 0
    assert "phase distance:  0.000e+00" in text
    assert "result:          PASS" in text
    code, text, _ = run(capsys, "verify", str(out), "--gate", "swap")
    assert code == 1
    assert "phase distance:  7.500e-01" in text


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
        {"ops": [{"kind": "swap_pow", "alpha": 10**400}]},
        {"ops": [], "global_phase": 10**400},
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


def test_cost_profile_with_string_field_exits_2(tmp_path, capsys):
    prof = tmp_path / "prof.json"
    prof.write_text(
        json.dumps(
            {
                "name": "lab",
                "rabi_frequency_hz": "5e6",
                "pi_rotation_time_s": 1e-7,
                "swap_full_time_s": 1e-9,
            }
        )
    )
    code, text, err = run(capsys, "cost", "--compare", "--gate", "cnot", "--profile", str(prof))
    assert code == 2
    assert text == "" and "rabi_frequency_hz must be a number" in err
    # A JSON integer too large for a float exits 2 too, without a traceback.
    doc = json.loads(prof.read_text())
    prof.write_text(json.dumps({**doc, "rabi_frequency_hz": 10**400}))
    code, text, err = run(capsys, "cost", "--compare", "--gate", "cnot", "--profile", str(prof))
    assert code == 2
    assert text == "" and "rabi_frequency_hz is too large for a float" in err
    # A misspelled key exits 2 too, naming the key, instead of being dropped.
    doc = {**doc, "rabi_frequency_hz": 5e6, "local_rotaton_policy": "proportional"}
    prof.write_text(json.dumps(doc))
    code, text, err = run(capsys, "cost", "--compare", "--gate", "cnot", "--profile", str(prof))
    assert code == 2
    assert text == "" and "unknown profile key 'local_rotaton_policy'" in err


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
    identity = [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    for dim in (4.5, "4", 4.0, True, None):
        odd = tmp_path / "dim.json"
        odd.write_text(json.dumps({"dim": dim, "rows": identity}))
        code, _, err = run(capsys, "synth", "--matrix", str(odd))
        assert code == 2, dim
        assert err.startswith("error: ") and err.count("\n") == 1, err


IDENTITY4_ROWS = [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
IDENTITY2_ROWS = [[[1.0 if i == j else 0.0, 0.0] for j in range(2)] for i in range(2)]


def _huge_entry(value):
    def spoil(rows):
        rows = json.loads(json.dumps(rows))
        rows[0][0][0] = value
        return rows

    return spoil


def _pair_at_origin(pair):
    def spoil(rows):
        rows = json.loads(json.dumps(rows))
        rows[0][0] = pair
        return rows

    return spoil


def _triples(rows):
    return [[[re, im, 0.0] for re, im in row] for row in rows]


def _bools(rows):
    return [[[re == 1.0, False] for re, _ in row] for row in rows]


PAIRS = "rows must be {0}x{0} nested [re, im] pairs"
OUT_OF_RANGE = "an integer entry lies outside [-2**63, 2**64), the range numpy stores as a number"


@pytest.mark.parametrize(
    "spoil, cause",
    [
        (_huge_entry(10**400), OUT_OF_RANGE),
        (_huge_entry(2**70), OUT_OF_RANGE),
        (_huge_entry(-(2**63) - 1), OUT_OF_RANGE),
        (_triples, PAIRS),
        (_bools, PAIRS),
        (_pair_at_origin([True, 0.0]), PAIRS),
        (_pair_at_origin([1.0, False]), PAIRS),
    ],
    ids=["401-digit", "2**70", "below-int64", "triple", "bool", "true-among-numbers", "false-among-numbers"],
)
def test_matrix_entries_must_be_real_pairs(tmp_path, capsys, spoil, cause):
    # Each of these was read before: a 401-digit integer raised OverflowError
    # out of main, a triple lost its third number, and true read as 1.  An
    # integer numpy cannot hold as a number is named as the cause.
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"dim": 4, "rows": spoil(IDENTITY4_ROWS)}))
    code, text, err = run(capsys, "synth", "--matrix", str(matrix))
    assert (code, text, err) == (2, "", f"error: {matrix}: {cause.format(4)}\n")
    circuit = tmp_path / "c.json"
    local = {"kind": "local", "qubit": 1, "label": "", "matrix": spoil(IDENTITY2_ROWS)}
    circuit.write_text(json.dumps({"global_phase": 0.0, "ops": [local]}))
    code, text, err = run(capsys, "verify", str(circuit), "--gate", "identity4")
    assert (code, text, err) == (2, "", f"error: ops[0]: local matrix: {cause.format(2)}\n")


@pytest.mark.parametrize("pair", [[True, 0.0], [1.0, False]], ids=["true", "false"])
def test_a_bool_among_numbers_exits_2_in_the_other_commands(tmp_path, capsys, pair):
    # numpy reads [true, 0.0] as [1.0, 0.0], so the reader tests each entry.
    # test_matrix_entries_must_be_real_pairs runs synth and verify on these.
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"dim": 4, "rows": _pair_at_origin(pair)(IDENTITY4_ROWS)}))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"global_phase": 0.0, "ops": []}))
    for command in (("verify", str(empty)), ("cost", "--compare"), ("analyze", "ep-matrix")):
        code, text, err = run(capsys, *command, "--matrix", str(matrix))
        assert (code, text, err) == (2, "", f"error: {matrix}: {PAIRS.format(4)}\n"), command
    circuit = tmp_path / "c.json"
    local = {"kind": "local", "qubit": 1, "label": "", "matrix": _pair_at_origin(pair)(IDENTITY2_ROWS)}
    circuit.write_text(json.dumps({"global_phase": 0.0, "ops": [local]}))
    code, text, err = run(capsys, "cost", str(circuit))
    assert (code, text, err) == (2, "", f"error: ops[0]: local matrix: {PAIRS.format(2)}\n")


def test_bad_target_ep_exits_before_the_curve(capsys, monkeypatch):
    def refuse(u):
        raise AssertionError("ep_exact ran before --target-ep was checked")

    monkeypatch.setattr(cli, "ep_exact", refuse)
    for value, message in (("0.9", "--target-ep must lie in [0, 1/6]"), ("nan", "--target-ep must be finite, got nan")):
        code, text, err = run(capsys, "analyze", "ep-curve", "--points", "20000", "--target-ep", value)
        assert (code, text, err) == (2, "", f"error: {message}\n"), value


def test_profile_name_is_normalised_as_builtin_profile_does(capsys):
    code, expected, _ = run(capsys, "cost", "--compare", "--gate", "cnot", "--profile", "gaas")
    assert code == 0
    for name in (" gaas", "GaAs ", "\tgaas\n"):
        assert run(capsys, "cost", "--compare", "--gate", "cnot", "--profile", name) == (0, expected, ""), name


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


def _fresh_bytes(capsys, argv, path):
    """What argv writes to path when path does not exist yet."""
    assert not path.exists()
    assert run(capsys, *argv)[0] == 0
    data = path.read_bytes()
    assert data == (json.dumps(json.loads(data), indent=2) + "\n").encode(), argv
    return data


def test_out_replaces_longer_and_shorter_files(tmp_path, capsys):
    circuit, matrix, report = tmp_path / "c.json", tmp_path / "random_000004.json", tmp_path / "r.json"
    for argv, path in (
        (("synth", "--gate", "cnot", "--out", str(circuit)), circuit),
        (("synth", "--gate", "iswap", "--backend", "cnot", "--out", str(circuit)), circuit),
        (("random", "--seed", "4", "--out", str(tmp_path)), matrix),
        (("analyze", "ep-curve", "--points", "5", "--out", str(report)), report),
    ):
        fresh = _fresh_bytes(capsys, argv, path)
        for stale in (b"x" * (2 * len(fresh)), b"{}"):
            path.write_bytes(stale)
            assert run(capsys, *argv)[0] == 0, argv
            assert path.read_bytes() == fresh, (argv, len(stale))
        path.unlink()


def test_out_writes_through_links_and_keeps_the_file(tmp_path, capsys):
    argv = ("analyze", "appendix-a", "--alpha", "0.3", "--out")
    expected = _fresh_bytes(capsys, (*argv, str(tmp_path / "fresh.json")), tmp_path / "fresh.json")
    real, hard, link = tmp_path / "real.json", tmp_path / "hard.json", tmp_path / "link.json"
    real.write_bytes(b" " * 5000)
    real.chmod(0o600)
    os.link(real, hard)
    link.symlink_to(real)
    inode = real.stat().st_ino
    assert run(capsys, *argv, str(link))[0] == 0
    assert link.is_symlink()
    info = real.stat()
    assert (info.st_ino, info.st_nlink, stat.S_IMODE(info.st_mode)) == (inode, 2, 0o600)
    assert real.read_bytes() == hard.read_bytes() == expected


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_new_out_file_gets_the_mode_open_gives(tmp_path, capsys, umask):
    old = os.umask(umask)
    try:
        code = run(capsys, "synth", "--gate", "cnot", "--out", str(tmp_path / "c.json"))[0]
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE((tmp_path / "c.json").stat().st_mode) == 0o666 & ~umask


def test_out_to_a_device_or_a_fifo(tmp_path, capsys):
    argv = ("analyze", "appendix-a", "--out")
    expected = _fresh_bytes(capsys, (*argv, str(tmp_path / "fresh.json")), tmp_path / "fresh.json")
    assert run(capsys, *argv, os.devnull) == (0, run(capsys, "analyze", "appendix-a")[1], "")
    assert run(capsys, "synth", "--gate", "cnot", "--out", os.devnull)[0] == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code = run(capsys, *argv, str(fifo))[0]
    reader.join(timeout=30)
    assert (code, received) == (0, [expected])


def test_unencodable_document_leaves_the_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("old")
    with pytest.raises(TypeError):
        cli._write_json(str(path), {"x": object()})
    assert path.read_text() == "old"


def test_out_is_never_opened_with_truncation(tmp_path, capsys, monkeypatch):
    # ext4 flushes a file replaced through O_TRUNC when it is closed, which
    # costs more than the write: each target is overwritten in place instead.
    flags = {}
    os_open = os.open

    def recording(path, mode, *args, **kwargs):
        flags.setdefault(os.fspath(path), []).append(mode)
        return os_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    circuit, report = str(tmp_path / "c.json"), str(tmp_path / "r.json")
    for _ in range(2):  # a new file, then an existing one
        assert run(capsys, "synth", "--gate", "cnot", "--out", circuit)[0] == 0
        assert run(capsys, "cost", circuit, "--out", report)[0] == 0
        assert run(capsys, "random", "--seed", "3", "--out", str(tmp_path))[0] == 0
    matrix = str(tmp_path / "random_000003.json")
    assert {path: len(modes) for path, modes in flags.items() if path in (circuit, report, matrix)} == {
        circuit: 2,
        report: 2,
        matrix: 2,
    }
    assert not any(mode & os.O_TRUNC for modes in flags.values() for mode in modes)


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


def test_scalar_options_exit_2_naming_the_option(tmp_path, capsys):
    out = tmp_path / "c.json"
    run(capsys, "synth", "--gate", "cnot", "--out", str(out))
    for argv, message in (
        (("synth", "--gate", "cnot", "--tolerance", "nan"), "--tolerance must be finite, got nan"),
        (("synth", "--gate", "cnot", "--tolerance", "inf"), "--tolerance must be finite, got inf"),
        (("verify", str(out), "--gate", "cnot", "--tolerance", "nan"), "--tolerance must be finite, got nan"),
        (("verify", str(out), "--gate", "cnot", "--tolerance", "inf"), "--tolerance must be finite, got inf"),
        (("synth", "--gate", "cnot", "--tolerance", "-1"), "--tolerance must be finite and nonnegative, got -1.0"),
        (("analyze", "ep-curve", "--target-ep", "nan"), "--target-ep must be finite, got nan"),
        (("analyze", "ep-curve", "--target-ep", "0.2"), "--target-ep must lie in [0, 1/6]"),
        (("analyze", "ep-curve", "--points", "0"), "--points must be at least 1"),
        (("random", "--count", "-1", "--out", str(tmp_path)), "--count must be nonnegative"),
    ):
        code, text, err = run(capsys, *argv)
        assert (code, text, err) == (2, "", f"error: {message}\n"), argv


def test_scalar_options_are_admitted_by_the_scalar_rules():
    # argparse hands these commands an int or a float; called directly, they
    # refuse any other value by linalg's rules, under the option's name.
    for command, fields, message in (
        (cmd_synth, {"tolerance": True}, "--tolerance must be a number, got True"),
        (cmd_analyze_ep_curve, {"points": 2.5, "target_ep": None}, "--points must be an integer, got 2.5"),
        (cmd_analyze_ep_curve, {"points": 3, "target_ep": "0.1"}, "--target-ep must be a number, got '0.1'"),
        (cmd_random, {"count": 1.0, "seed": 0, "out_dir": None}, "--count must be an integer, got 1.0"),
        (cmd_random, {"count": 0, "seed": True, "out_dir": None}, "--seed must be an integer, got True"),
    ):
        with pytest.raises(ContractViolation) as exc:
            command(argparse.Namespace(**fields))
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 200_000], ids=["not-utf8", "nested-200000-deep"]
)
def test_unreadable_input_files_exit_2(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    circuit = tmp_path / "c.json"
    run(capsys, "synth", "--gate", "cnot", "--out", str(circuit))
    for argv in (
        ("synth", "--matrix", str(bad)),
        ("verify", str(bad), "--gate", "cnot"),
        ("cost", str(circuit), "--profile", str(bad)),
    ):
        code, text, err = run(capsys, *argv)
        assert code == 2, argv
        assert text == "" and err.startswith(f"error: {bad} ") and err.count("\n") == 1, (argv, err)


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


def test_closed_stdout_pipe_exits_141_without_a_traceback(tmp_path):
    # Exit 1 means a verification failure; a reader that stops early is not one.
    proc = subprocess.Popen(
        [sys.executable, "-m", "swapsynth", "analyze", "ep-curve", "--points", "20000"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141, err
    assert head.startswith(b"alpha") and b"Traceback" not in err, err


def test_gate_and_matrix_together_exit_2_before_any_file_is_read(tmp_path, capsys, monkeypatch):
    # --gate used to win silently, so a --matrix that named no file went unread.
    def read(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(cli, "_load_json", read)
    missing = str(tmp_path / "missing.json")
    both = ("--gate", "cnot", "--matrix", missing)
    for argv in (
        ("synth", *both),
        ("verify", missing, *both),
        ("cost", "--compare", "--profile", missing, *both),
        ("analyze", "ep-matrix", *both),
    ):
        code, text, err = run(capsys, *argv)
        assert (code, text) == (2, ""), argv
        assert err == "error: --gate and --matrix each name a target; pass one of them\n", argv


@pytest.mark.parametrize(
    "doc, cause",
    [
        ([IDENTITY4_ROWS], "expected a JSON object with keys 'dim' and 'rows'"),
        ({"dim": 4}, "expected a JSON object with keys 'dim' and 'rows'"),
        ({"dim": 2, "rows": IDENTITY2_ROWS}, "only dim 4 is supported, got 2"),
    ],
    ids=["list", "no-rows", "dim-2"],
)
def test_a_matrix_file_that_is_not_a_dim_4_object_exits_2(tmp_path, capsys, doc, cause):
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(doc))
    code, text, err = run(capsys, "synth", "--matrix", str(matrix))
    assert (code, text, err) == (2, "", f"error: {matrix}: {cause}\n")


def test_cost_prints_a_femtosecond_layer(tmp_path, capsys):
    circuit = tmp_path / "c.json"
    circuit.write_text(json.dumps(circuit_to_dict(Circuit([swap_op(1e-3)]))))
    code, text, _ = run(capsys, "cost", str(circuit), "--profile", "gaas")
    assert code == 0
    layer, total = text.splitlines()[-2:]
    assert layer.split()[:5] == ["layer", "0", "swap_pow", "50", "fs"]
    assert total.split()[1:] == ["50", "fs"]
