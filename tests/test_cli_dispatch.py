"""main parses a command once, with its subcommand's parser, and as the top-level parser would.

``cli._parse`` walks argv down the subcommand names and hands the rest to
the deepest parser named.  Every argv below must give what
``build_parser().parse_args`` gives: the same namespace, or the same
``SystemExit`` code with the same bytes on stdout and stderr.
"""

import argparse
import cProfile
import sys

import pytest

from swapsynth import cli

CORPUS = [
    # no subcommand, help and unknown names at the top level
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["bogus"],
    ["synt"],
    ["SYNTH"],
    ["-h", "synth"],
    ["--gate", "cnot", "synth"],
    ["--", "synth", "--gate", "cnot"],
    # synth: plain, --opt=value, abbreviations, help, errors, leftovers
    ["synth", "--gate", "cnot"],
    ["synth", "--gate=cnot", "--backend=cnot", "--tolerance=1e-6", "--prune", "--json"],
    ["synth", "--mat", "m.json", "--back", "cnot", "--tol", "1e-3"],
    ["synth", "--gate", "cnot", "--out", "c.json"],
    ["synth", "--gate", "cnot", "--"],
    ["synth", "--", "--gate", "cnot"],
    ["synth", "--gate", "--", "cnot"],
    ["synth", "-h"],
    ["synth", "--help"],
    ["synth", "--gate", "cnot", "-h"],
    ["synth", "stray", "--help"],
    ["synth", "--backend", "bogus"],
    ["synth", "--gate"],
    ["synth", "--tolerance", "x"],
    ["synth", "--gate", "cnot", "stray"],
    ["synth", "stray", "--gate", "cnot"],
    ["synth", "--gate", "cnot", "--no-such-option"],
    ["synth", "--no-such=1"],
    ["synth", "--gate", "cnot", "-x"],
    ["synth", "-1"],
    ["synth", "--gate", "cnot", "synth"],
    # verify
    ["verify", "c.json", "--gate", "cnot"],
    ["verify", "c.json", "--mat=m.json", "--tol", "1e-3", "--json", "--out", "r.json"],
    ["verify", "--gate", "cnot"],
    ["verify", "c.json", "d.json", "--gate", "cnot"],
    ["verify", "--", "c.json", "--gate", "cnot"],
    ["verify", "--gate", "cnot", "--", "c.json"],
    ["verify", "-h"],
    # analyze, its analyses, and an analysis missing or unknown
    ["analyze"],
    ["analyze", "-h"],
    ["analyze", "--help"],
    ["analyze", "bogus"],
    ["analyze", "--json"],
    ["analyze", "--", "ep-curve"],
    ["analyze", "ep-curve"],
    ["analyze", "ep-curve", "--points=5", "--target-ep", "0.1", "--json"],
    ["analyze", "ep-curve", "--poi", "5", "--target", "0.05"],
    ["analyze", "ep-curve", "-h"],
    ["analyze", "ep-curve", "appendix-a"],
    ["analyze", "ep-curve", "--points", "five"],
    ["analyze", "ep-matrix", "--gate", "cnot", "--samples", "10", "--seed", "1"],
    ["analyze", "ep-matrix", "--mat", "m.json", "--sam=4"],
    ["analyze", "ep-matrix", "--s", "1"],
    ["analyze", "ep-matrix", "--help"],
    ["analyze", "ep-matrix", "--gate", "cnot", "stray"],
    ["analyze", "ep-matrix", "--gate", "cnot", "--bogus"],
    ["analyze", "appendix-a", "--alpha", "0.25"],
    ["analyze", "appendix-a", "--alpha=-0.25"],
    ["analyze", "appendix-a", "--alpha", "-0.25"],
    ["analyze", "appendix-a", "--", "--alpha"],
    ["analyze", "appendix-a", "-h"],
    # cost and random
    ["cost", "c.json", "--profile", "si"],
    ["cost", "--compare", "--gate", "iswap"],
    ["cost", "--comp", "--gate=swap", "--prof", "gaas"],
    ["cost", "c.json", "d.json"],
    ["cost", "--", "c.json"],
    ["cost", "-h"],
    ["random", "--count", "0"],
    ["random", "--seed=3", "--count=0", "--json"],
    ["random", "--count", "zero"],
    ["random", "--out"],
    ["random", "--cou", "0", "extra"],
    ["random", "-h"],
]


def outcome(parse, argv, capsys):
    """vars of the namespace parse(argv) gives, or its SystemExit code with stdout and stderr."""
    try:
        ns = parse(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return ("SystemExit", exc.code, captured.out, captured.err)
    assert capsys.readouterr() == ("", "")
    return vars(ns)


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_parse_matches_the_top_level_parser(argv, capsys):
    full = outcome(lambda a: cli.build_parser().parse_args(a), list(argv), capsys)
    assert outcome(cli._parse, list(argv), capsys) == full


def test_parse_reads_sys_argv_when_argv_is_none(capsys, monkeypatch):
    for argv in (["analyze", "appendix-a", "--alpha", "0.25"], ["synth", "--gate", "cnot", "stray"], []):
        monkeypatch.setattr(sys, "argv", ["swapsynth", *argv])
        assert outcome(cli._parse, None, capsys) == outcome(cli.build_parser().parse_args, argv, capsys)


def test_main_output_matches_a_top_level_parse(tmp_path, capsys, monkeypatch):
    # Whole runs, command output included, with main's parse and with the top-level one.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--gate", "cnot", "--out", "c.json"]) == 0
    capsys.readouterr()

    def session():
        results = []
        for argv in CORPUS:
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            results.append((argv, code, *capsys.readouterr()))
        return results

    once = session()
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._parser().parse_args(argv))
    assert once == session()


def test_a_valid_command_is_parsed_once(capsys):
    # The top-level parser and the subparsers actions made 2 passes for synth
    # and 3 for analyze ep-matrix.
    code = argparse.ArgumentParser._parse_known_args.__code__
    for argv in (
        ["synth", "--gate", "cnot", "--json"],
        ["analyze", "ep-matrix", "--gate", "cnot", "--samples", "10", "--json"],
    ):
        cli.main(argv)
        profile = cProfile.Profile()
        profile.enable()
        assert cli.main(argv) == 0
        profile.disable()
        passes = sum(e.callcount for e in profile.getstats() if e.code is code)
        assert passes == 1, (argv, passes)
    capsys.readouterr()
