"""Every public module-level constant, function and class of the package is read.

A small AST scan in the style of ``test_unused_imports.py``.  Each public
name that a module of ``src/swapsynth`` binds by a module-level assignment
must be read by some module of the package (as a name or as an attribute)
or be re-exported by ``swapsynth/__init__.py``.  A constant that only tests
read is dead code.

Each public module-level ``def`` or ``class`` must be read outside its own
definition, by a module of the package or by a script in ``demos/``.  A
re-export does not count: a function that only tests call is dead code too.

Each field of a public ``@dataclasses.dataclass`` must be read as an
attribute, ``x.name`` or ``getattr(x, "name")``, by a module of the package
or by a demo: a field that nothing reads only restates what its builder
already had.  A ``ClassVar`` is no field, and a NamedTuple is exempt, since
it is read by position.
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


def dead_definitions(sources, demo_sources=()):
    """Sorted "module.name" of every unread public function and class.

    sources is as for :func:`dead_constants`; demo_sources are the texts of
    the demo scripts.
    """
    demo_reads = set().union(*(reads(ast.parse(source)) for source in demo_sources))
    statements = [
        (module, node, reads(node))
        for module, source in sources.items()
        for node in ast.parse(source).body
    ]
    dead = []
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        read_elsewhere = any(node.name in read for _, other, read in statements if other is not node)
        if not (read_elsewhere or node.name in demo_reads):
            dead.append(f"{module}.{node.name}")
    return sorted(dead)


def dataclass_fields(tree):
    """(class, field) of each field of each public module-level dataclass."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        decorators = {ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}
        if decorators.isdisjoint({"dataclasses.dataclass", "dataclass"}):
            continue
        for statement in node.body:
            if (
                isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and "ClassVar" not in ast.unparse(statement.annotation)
            ):
                yield node.name, statement.target.id


def attribute_reads(tree):
    """Each name read as an attribute: x.name, or getattr(x, "name")."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            read.add(node.args[1].value)
    return read


def dead_fields(sources, demo_sources=()):
    """Sorted "module.Class.field" of every unread dataclass field.

    sources and demo_sources are as for :func:`dead_definitions`.
    """
    texts = (*sources.values(), *demo_sources)
    read = set().union(*(attribute_reads(ast.parse(source)) for source in texts))
    return sorted(
        f"{module}.{cls}.{field}"
        for module, source in sources.items()
        for cls, field in dataclass_fields(ast.parse(source))
        if field not in read
    )


def test_scanner_finds_dead_and_keeps_read():
    sources = {
        "__init__": "from .a import EXPORTED, exported_only\n__version__ = '1'\n",
        "a": (
            "EXPORTED = 1\n"
            "DEAD = 2\n"
            "LOCAL = 3\n"
            "ATTR: int = 4\n"
            "X, Y = 5, 6\n"
            "_PRIVATE = 7\n"
            "def f():\n"
            "    return LOCAL + X + g() + Used.n\n"
            "def g():\n"
            "    return 0\n"
            "def recurse(n):\n"
            "    return recurse(n - 1) if n else 0\n"
            "def exported_only():\n"
            "    pass\n"
            "def in_demo():\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
            "class Used:\n"
            "    n = 1\n"
            "class Dead:\n"
            "    pass\n"
        ),
        "b": "from . import a\nDEAD_TOO = a.ATTR\ndef h():\n    return a.f()\n",
    }
    assert dead_constants(sources) == ["a.DEAD", "a.Y", "b.DEAD_TOO"]
    demos = ["from swapsynth.a import in_demo\nin_demo()\n"]
    assert dead_definitions(sources, demos) == [
        "a.Dead",
        "a.exported_only",
        "a.recurse",
        "b.h",
    ]


def test_field_scanner_finds_unread_fields():
    sources = {
        "a": (
            "import dataclasses\n"
            "from dataclasses import dataclass\n"
            "from typing import ClassVar, NamedTuple\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class Spec:\n"
            "    read: float\n"
            "    by_getattr: float\n"
            "    in_demo: float\n"
            "    written_only: str = ''\n"
            "    unread: str = ''\n"
            "    kind: ClassVar[str] = 'spec'\n"
            "@dataclass\n"
            "class Bare:\n"
            "    never: int\n"
            "@dataclasses.dataclass\n"
            "class _Private:\n"
            "    hidden: int\n"
            "class Row(NamedTuple):\n"
            "    by_position: int\n"
            "def f(s):\n"
            "    s.written_only = 'x'\n"
            "    return s.read + getattr(s, 'by_getattr')\n"
        ),
    }
    demos = ["print(spec.in_demo)\n"]
    assert dead_fields(sources, demos) == ["a.Bare.never", "a.Spec.unread", "a.Spec.written_only"]


def package_sources():
    return {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}


def test_no_dead_public_constants():
    assert dead_constants(package_sources()) == []


def test_no_dead_public_functions_or_classes():
    demos = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "demos").glob("*.py"))]
    assert dead_definitions(package_sources(), demos) == []


def test_no_unread_dataclass_fields():
    demos = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "demos").glob("*.py"))]
    assert dead_fields(package_sources(), demos) == []
