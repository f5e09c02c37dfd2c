"""Each subcommand takes only the options it reads.

For every subcommand that ``build_parser()`` makes, an AST scan collects the
``ns.<name>`` and ``getattr(ns, "<name>")`` reads in the command's ``cmd_*``
function, in the ``_resolve_*`` helpers it calls, and in ``main``.  Every
option's ``dest`` must be among them: an option nothing reads does nothing.
"""

import argparse
import ast
import inspect
import textwrap

import pytest

from swapsynth import cli


def subcommands(parser, path=()):
    """(name, parser) of every subparser that runs a command."""
    if parser.get_default("func") is not None:
        yield " ".join(path), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from subcommands(sub, path + (name,))


def namespace_reads(source):
    """Names read from ``ns`` in source, and the ``_resolve_*`` helpers it calls."""
    tree = ast.parse(textwrap.dedent(source))
    reads, helpers = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ns":
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            args = node.args
            if (
                node.func.id == "getattr"
                and len(args) >= 2
                and isinstance(args[0], ast.Name)
                and args[0].id == "ns"
                and isinstance(args[1], ast.Constant)
            ):
                reads.add(args[1].value)
            elif node.func.id.startswith("_resolve_"):
                helpers.add(node.func.id)
    return reads, helpers


def command_path_reads(cmd):
    reads, _ = namespace_reads(inspect.getsource(cli.main))
    todo, seen = [cmd], set()
    while todo:
        func = todo.pop()
        seen.add(func.__name__)
        found, helpers = namespace_reads(inspect.getsource(func))
        reads |= found
        todo += [getattr(cli, name) for name in helpers - seen]
    return reads


COMMANDS = dict(subcommands(cli.build_parser()))


def test_scanner_sees_reads_and_helpers():
    source = """
    def cmd(ns):
        _resolve_x(ns)
        return ns.a, getattr(ns, "b", None), other.c
    """
    reads, helpers = namespace_reads(source)
    assert reads == {"a", "b"}
    assert helpers == {"_resolve_x"}
    assert sorted(COMMANDS) == [
        "analyze appendix-a", "analyze ep-curve", "analyze ep-matrix",
        "cost", "random", "synth", "verify",
    ]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_option_is_read(command):
    parser = COMMANDS[command]
    dests = {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
    unread = dests - command_path_reads(parser.get_default("func"))
    assert sorted(unread) == []


# Options the shared parent parser once gave to subcommands that never read them.
REFUSED = [
    (("verify", "c.json"), "--prune"),
    (("analyze", "ep-curve"), "--prune"),
    (("analyze", "ep-matrix", "--gate", "cnot"), "--prune"),
    (("analyze", "appendix-a"), "--prune"),
    (("cost", "c.json"), "--prune"),
    (("random",), "--prune"),
    (("analyze", "ep-curve"), "--tolerance=1e-3"),
    (("analyze", "ep-matrix", "--gate", "cnot"), "--tolerance=1e-3"),
    (("analyze", "appendix-a"), "--tolerance=1e-3"),
    (("cost", "c.json"), "--tolerance=1e-3"),
    (("random",), "--tolerance=1e-3"),
]


@pytest.mark.parametrize("argv,option", REFUSED, ids=[" ".join((*a, o)) for a, o in REFUSED])
def test_option_a_command_does_not_read_is_refused(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, option])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# Options whose value only a mode the invocation did not select would read.
INERT = [
    ("analyze", "ep-matrix", "--gate", "cnot", "--seed", "5"),
    ("analyze", "ep-matrix", "--gate", "cnot", "--seed", "0"),
    ("analyze", "ep-matrix", "--gate", "cnot", "--samples", "0", "--seed", "5"),
    ("cost", "c.json", "--gate", "swap"),
    ("cost", "c.json", "--compare", "--gate", "swap"),
]


@pytest.mark.parametrize("argv", INERT, ids=" ".join)
def test_inert_option_is_refused(argv, capsys):
    assert cli.main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
