"""Every indented JSON document leaves src/swapsynth/ through ``cli._json_text``.

The stdlib encodes an indented document in pure Python, one small chunk at
a time; ``cli._json_text`` gives the same bytes with one join per
container.  The AST scan flags, in every module of the package, each call
of ``json.dump`` and each call of ``json.dumps`` that passes ``indent=``,
under any name that ``import json`` or ``from json import ...`` binds.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "swapsynth").glob("*.py"))


def indented_json_calls(source):
    """Lines that call json.dump, or json.dumps with indent=."""
    tree = ast.parse(source)
    modules, functions = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "json")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions.update({a.asname or a.name: a.name for a in node.names})
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in modules:
            name = func.attr
        elif isinstance(func, ast.Name):
            name = functions.get(func.id)
        else:
            continue
        if name == "dump" or (name == "dumps" and any(k.arg == "indent" for k in node.keywords)):
            lines.append(node.lineno)
    return sorted(lines)


def test_scanner_finds_indented_json_calls():
    source = (
        "import json\n"
        "import json as j\n"
        "from json import dump as write, dumps\n"
        "json.dump(doc, fh, indent=2)\n"
        "j.dumps(doc, indent=None)\n"
        "write(doc, fh)\n"
        "dumps(doc, indent=2, sort_keys=True)\n"
        "json.dumps(doc)\n"
        "dumps(doc, sort_keys=True)\n"
        "pickle.dump(doc, fh)\n"
        "json.loads(text)\n"
    )
    assert indented_json_calls(source) == [4, 5, 6, 7]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_indented_json_outside_the_emitter(path):
    assert indented_json_calls(path.read_text(encoding="utf-8")) == []
