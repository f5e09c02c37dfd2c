"""One parser per process: reusing it across main(argv) calls keeps no state."""

import pytest

from swapsynth import cli

# Flags switched on and off, an option given and then left to its default,
# argv that argparse refuses or answers itself, then ordinary commands again.
SESSION = [
    ["synth", "--gate", "cnot", "--prune", "--json"],
    ["synth", "--gate", "cnot", "--json"],
    ["analyze", "ep-matrix", "--gate", "cnot", "--samples", "40", "--seed", "3", "--json"],
    ["analyze", "ep-matrix", "--gate", "cnot", "--samples", "40"],
    ["synth", "--gate", "cnot", "--no-such-option"],
    ["synth", "--help"],
    ["analyze", "--help"],
    ["cost", "--compare", "--gate", "iswap", "--profile", "si"],
    ["synth", "--gate", "swap", "--backend", "cnot"],
    ["analyze", "appendix-a", "--json"],
]


def run_session(capsys):
    """(exit code, stdout, stderr) per command of SESSION, in one process."""
    results = []
    for argv in SESSION:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_reused_parser_parses_like_a_fresh_one():
    for argv in SESSION:
        try:
            fresh = vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            with pytest.raises(SystemExit):
                cli._parser().parse_args(argv)
            continue
        assert vars(cli._parser().parse_args(argv)) == fresh, argv


def test_reused_parser_output_matches_fresh_parsers(capsys, monkeypatch):
    reused = run_session(capsys)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = run_session(capsys)
    assert reused == fresh
    assert [r[0] for r in reused] == [0, 0, 0, 0, ("SystemExit", 2), ("SystemExit", 0), ("SystemExit", 0), 0, 0, 0]


def test_parser_is_built_once(capsys, monkeypatch):
    cli.main(["analyze", "appendix-a"])

    def rebuild():
        raise AssertionError("main rebuilt its parser")

    monkeypatch.setattr(cli, "build_parser", rebuild)
    assert cli.main(["analyze", "appendix-a", "--alpha", "0.25"]) == 0
    assert "alpha:           0.250000\n" in capsys.readouterr().out


def test_handler_is_looked_up_at_call_time(tmp_path, capsys, monkeypatch):
    # The parser bound cmd_random when it was built; a handler rebound on the
    # module afterwards (by a test or by the benchmark tracer) must still run.
    assert cli.main(["random", "--count", "0", "--out", str(tmp_path)]) == 0
    calls = []

    def fake(ns):
        calls.append(ns.count)
        return 0, {"fake": True}, ["faked"]

    monkeypatch.setattr(cli, "cmd_random", fake)
    assert cli.main(["random", "--count", "0", "--out", str(tmp_path)]) == 0
    assert calls == [0]
    assert capsys.readouterr().out.splitlines()[-1] == "faked"
