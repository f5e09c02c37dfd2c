"""The CLI's one JSON emitter writes the bytes ``json.dumps(..., indent=2)`` writes.

``cli._json_text`` builds each container with one join instead of the
stdlib's pure-Python chunk generator; these tests hold it to the stdlib's
output byte for byte, on drawn documents and on every kind of document
the CLI prints or writes.
"""

import json
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsynth.cli import _json_text, main
from swapsynth.linalg import haar_random_unitary
from swapsynth.synthesis import _matrix_to_json

# Quotes, backslashes, control characters and non-ASCII, besides whatever
# characters() draws.
text = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\t\n\x1f\x7fé \U0001d11e'), st.characters()))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, float("nan"), float("inf"), -float("inf")]),
    text,
)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(text, inner, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(documents)
def test_emitter_matches_json_dumps(doc):
    for sort_keys in (False, True):
        assert _json_text(doc, sort_keys=sort_keys) == json.dumps(doc, indent=2, sort_keys=sort_keys)


class Pair(typing.NamedTuple):
    re: float
    im: float


def test_emitter_matches_json_dumps_on_subclasses_and_keys():
    # A NamedTuple is a list, a numpy float its float repr; non-string keys
    # are written as json writes them.
    doc = {"pair": Pair(np.float64(0.1), -0.0), 1: [], 2.5: {}, None: (), False: "f", "s": 10**30}
    assert _json_text(doc) == json.dumps(doc, indent=2)
    for bad in ({"x": object()}, {(1, 2): 0}, {"x": np.float32(1.0)}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            _json_text(bad)


def _per_entry(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def test_matrix_to_json_matches_per_entry_floats():
    u = haar_random_unitary(4, seed=7)
    signed_zeros = np.array([[complex(-0.0, 0.0), complex(1.0, -0.0)], [complex(-0.0, -0.0), 0.5j]])
    for m in (u, u.T, u[:2, :2], u[::2, 1::2].T, signed_zeros, np.eye(2), np.eye(4, dtype=int)):
        rows = _matrix_to_json(m)
        # repr tells -0.0 from 0.0, and a Python float from a numpy one.
        assert repr(rows) == repr(_per_entry(m))
        assert all(type(x) is float for row in rows for entry in row for x in entry)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def test_cli_output_is_indented_json(tmp_path, capsys):
    matrix = str(tmp_path / "random_000005.json")
    circuit, report = str(tmp_path / "circuit.json"), str(tmp_path / "report.json")
    # Each command, and the file it writes.
    commands = [
        (["random", "--seed", "5", "--count", "2", "--out", str(tmp_path), "--json"], matrix),
        (["random", "--seed", "9", "--count", "1", "--out", str(tmp_path)], str(tmp_path / "random_000009.json")),
    ]
    for backend in ("swap", "cnot"):
        for extra in ([], ["--prune"], ["--json"], ["--prune", "--json"]):
            commands.append((["synth", "--matrix", matrix, "--backend", backend, "--out", circuit, *extra], circuit))
    reports = [
        ["verify", circuit, "--matrix", matrix],
        ["cost", circuit, "--profile", "gaas"],
        ["cost", "--compare", "--matrix", matrix, "--profile", "si"],
        ["analyze", "ep-matrix", "--matrix", matrix, "--samples", "200", "--seed", "1"],
        ["analyze", "ep-curve", "--points", "7", "--target-ep", "0.1"],
        ["analyze", "appendix-a", "--alpha", "0.3"],
    ]
    commands += [([*argv, "--json", "--out", report], report) for argv in reports]
    for argv, path in commands:
        out = _run(capsys, argv)
        if "--json" in argv:
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", argv
