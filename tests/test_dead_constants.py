"""Every public module-level constant of the package is read somewhere.

A small AST scan in the style of ``test_unused_imports.py``: each public
name that a module of ``src/swapsynth`` binds by a module-level assignment
must be read by some module of the package (as a name or as an attribute)
or be re-exported by ``swapsynth/__init__.py``.  A constant that only tests
read is dead code.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "swapsynth"


def public_assignments(tree):
    """Each public name bound by a module-level assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not name.id.startswith("_"):
                    yield name.id


def reads(tree):
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def dead_constants(sources):
    """Sorted "module.NAME" of every unread public constant.

    sources maps a module name to its source text; the module named
    "__init__" is the package's re-export list.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*(reads(tree) for tree in trees.values()))
    exported = {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in public_assignments(tree)
        if name not in read and name not in exported
    )


def test_scanner_finds_dead_and_keeps_read():
    sources = {
        "__init__": "from .a import EXPORTED\n__version__ = '1'\n",
        "a": (
            "EXPORTED = 1\n"
            "DEAD = 2\n"
            "LOCAL = 3\n"
            "ATTR: int = 4\n"
            "X, Y = 5, 6\n"
            "_PRIVATE = 7\n"
            "def f():\n"
            "    return LOCAL + X\n"
        ),
        "b": "from . import a\nDEAD_TOO = a.ATTR\n",
    }
    assert dead_constants(sources) == ["a.DEAD", "a.Y", "b.DEAD_TOO"]


def test_no_dead_public_constants():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert dead_constants(sources) == []
