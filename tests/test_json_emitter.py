"""The CLI's one JSON emitter writes the bytes ``json.dumps(..., indent=2)`` writes.

``cli._json_text`` builds each container with one join instead of the
stdlib's pure-Python chunk generator, and each matrix of [re, im] pairs
from one cached layout; these tests hold it to the stdlib's output byte for
byte, on drawn documents, on drawn matrices and their near misses, and on
every kind of document the CLI prints or writes.
"""

import json
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsynth.cli import _json_text, _pair_matrix_layout, main
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


class Row(list):
    pass


finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # -0.0, the least subnormal, a subnormal near the normal range and the largest float.
    st.sampled_from([-0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308]),
)


@st.composite
def pair_matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return [[[draw(finite), draw(finite)] for _ in range(cols)] for _ in range(rows)]


def _entry(value):
    """A break that puts value in place of the float at [i][j][k]."""

    def put(m, i, j, k):
        m[i][j][k] = value
        return m

    return put


def _pair(f):
    def put(m, i, j, k):
        m[i][j] = f(m[i][j])
        return m

    return put


def _row(f):
    def put(m, i, j, k):
        m[i] = f(m[i])
        return m

    return put


# Near misses of a matrix of pairs: each returns a matrix that is not one,
# which the emitter writes by its generic path.
BREAKS = {
    "nan": _entry(float("nan")),
    "inf": _entry(float("inf")),
    "-inf": _entry(-float("inf")),
    "int": _entry(1),
    "bool": _entry(True),
    "np.float64": _entry(np.float64(0.25)),
    "tuple pair": _pair(tuple),
    "three-element pair": _pair(lambda p: p + [0.5]),
    "one-element pair": _pair(lambda p: p[:1]),
    "list-subclass pair": _pair(Row),
    "tuple row": _row(tuple),
    "list-subclass row": _row(Row),
    # One pair longer and one pair shorter than the first row: as many floats as a matrix.
    "ragged rows": lambda m, i, j, k: m[:1] + [m[0] + [[0.5, -0.5]]] + m[1:] + [m[0][1:]],
    "empty row": lambda m, i, j, k: m[:i] + [[]] + m[i:],
    "tuple matrix": lambda m, i, j, k: tuple(m),
    "list-subclass matrix": lambda m, i, j, k: Row(m),
}


@st.composite
def near_misses(draw):
    m = draw(pair_matrices())
    i, j, k = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m[0]) - 1)), draw(st.integers(0, 1))
    return BREAKS[draw(st.sampled_from(sorted(BREAKS)))](m, i, j, k)


# Matrices and near misses, nested at varying depths in lists, tuples and dicts.
matrix_documents = st.recursive(
    st.one_of(pair_matrices(), near_misses(), scalars),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(text, inner, max_size=4),
    ),
    max_leaves=12,
)


def is_pair_matrix(o):
    """The rule, entry by entry: a non-empty exact list of equal-length,
    non-empty exact list rows of exact-list pairs of two finite exact floats."""
    if type(o) is not list or not o or type(o[0]) is not list or not o[0]:
        return False
    for row in o:
        if type(row) is not list or len(row) != len(o[0]):
            return False
        for pair in row:
            if type(pair) is not list or len(pair) != 2:
                return False
            if not all(type(x) is float and np.isfinite(x) for x in pair):
                return False
    return True


def count_pair_matrices(o):
    """The matrices of pairs in o that no other one holds."""
    if is_pair_matrix(o):
        return 1
    if isinstance(o, (list, tuple)):
        return sum(count_pair_matrices(v) for v in o)
    if isinstance(o, dict):
        return sum(count_pair_matrices(v) for v in o.values())
    return 0


@settings(max_examples=300, derandomize=True, deadline=None)
@given(matrix_documents)
def test_emitter_matches_json_dumps_on_matrices_and_near_misses(doc):
    before = _pair_matrix_layout.cache_info()
    for sort_keys in (False, True):
        assert _json_text(doc, sort_keys=sort_keys) == json.dumps(doc, indent=2, sort_keys=sort_keys)
    after = _pair_matrix_layout.cache_info()
    # The layout is fetched once per matrix written whole: on each matrix, on
    # no near miss.
    assert (after.hits + after.misses) - (before.hits + before.misses) == 2 * count_pair_matrices(doc)


@pytest.mark.parametrize("kind", BREAKS)
def test_each_near_miss_takes_the_generic_path(kind):
    m = [[[0.5, -0.25], [1.0, 2.0]], [[-0.0, 5e-324], [3.0, 4.0]]]
    assert is_pair_matrix(m)
    m = BREAKS[kind](m, 1, 1, 1)
    assert not is_pair_matrix(m)
    before = _pair_matrix_layout.cache_info()
    for doc in (m, {"rows": m}, [[m]]):
        assert _json_text(doc) == json.dumps(doc, indent=2)
    after = _pair_matrix_layout.cache_info()
    assert after.hits + after.misses == before.hits + before.misses


def test_a_document_that_contains_itself_still_recurses():
    m = [[[0.5, 0.5]]]
    m[0][0].append(m)
    loop = []
    loop.append(loop)
    for doc in (m, loop, [loop]):
        with pytest.raises(RecursionError):
            _json_text(doc)


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
