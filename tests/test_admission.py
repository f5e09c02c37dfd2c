"""What every function that takes a unitary admits, and what it then does.

``linalg.assert_unitary`` is the one admission rule: a square matrix, of the
size the function needs, unitary within ``ATOL_UNITARY``.  A wrong-size
argument is refused with a ContractViolation that names it.  An admitted
target as far from unitary as the bound allows still compiles, on both
backends and through the CLI, to a residual below 1e-9 against the matrix
as given.

``linalg._reals`` is the one admission rule for a tuple of reals: canonical
coordinates, Bell phases and the CNOT core's phase-layer angles.  A string,
a bool, None, a nested entry, a wrong length or an int too large for a float
is refused with a ContractViolation that names the argument; NaN passes to
each caller's own rule, and every spelling of the same reals gives the same
bits.

An op's ``qubit`` or ``control`` is written by ``synthesis._qubit_index``,
the int 1 or 2.  Each reader of a hand-built op refuses a value equal to
neither 1 nor 2 with the writer's error, where it once read it as the
other qubit or raised a bare KeyError; ``schedule_circuit``, a reader of
a whole circuit, names the op by ``ops[i]: `` as ``circuit_to_dict`` does.
A hand-built local's matrix is
admitted by ``local_op``'s rule where its entries are read: by
``prune_circuit``, and by ``schedule_circuit`` under the "proportional"
policy, each naming the op by ``ops[i]: ``, where they once raised a bare
numpy error, priced it at 0 s or pruned a bool identity.

``linalg._real`` is the one rule for a real scalar, such as a swap exponent
or a circuit's global phase.  Each of its readers refuses what the circuit
writer refuses, a hand-built field included.  It takes the types of
``_reals``: a subclass, such as an ``IntEnum`` member, passes neither.

``linalg._real_array`` is the one rule for an array of reals, the angles of
``gates.rz``.  A string, a bool, None, a complex number, a list that mixes a
bool with reals, a ragged row or an int too large for a float is refused
with a ContractViolation naming "rotation angle".  NaN and the infinities
pass, as with ``_reals``, and every float spelling gives the bits that
``np.asarray(zeta, dtype=float)`` gave.  A float ndarray, as the CNOT path
hands rz, comes back as itself.
"""

import enum
import json

import numpy as np
import pytest

from swapsynth.canonical import (
    BellPhases,
    CanonicalParams,
    exp_minus_iH,
    in_weyl_chamber,
    kak_decompose,
    lambdas,
    split_local_product,
)
from swapsynth.cli import main
from swapsynth.costmodel import HardwareProfile, builtin_profile, schedule_circuit
from swapsynth.entanglement import ep_exact, ep_monte_carlo
from swapsynth.gates import rz
from swapsynth.linalg import (
    ATOL_UNITARY,
    ContractViolation,
    HADAMARD,
    ID4,
    PAULI_X,
    _real_array,
    assert_unitary,
    diagonalize_complex_symmetric_unitary,
    haar_random_unitary,
    phase_distance,
    project_su,
)
from swapsynth.synthesis import (
    Circuit,
    CnotOp,
    CnotPhaseParams,
    LocalOp,
    SwapPowOp,
    _matrix_to_json,
    build_core_cnot_circuit,
    circuit_to_dict,
    cnot_phase_params,
    evaluate_circuit,
    expand_cnots_to_swaps,
    local_op,
    prune_circuit,
    shifted_bell_phases,
    swap_angles,
    swap_op,
    synthesize_cnot,
    synthesize_swap,
)

# Unitary where square, so that the size is the only fault.
SHAPES = {
    "2x2": HADAMARD,
    "3x3": np.eye(3, dtype=complex)[[1, 2, 0]],
    "4x4": ID4,
    "8x8": np.eye(8, dtype=complex),
    "2x3": np.eye(3, dtype=complex)[:2],
    "1-D": np.ones(4, dtype=complex) / 2.0,
    "0x0": np.zeros((0, 0), dtype=complex),
}

# (call, name of the argument in the error, its size; None for any square size)
ADMITTING = {
    "kak_decompose": (kak_decompose, "u", 4),
    "synthesize_swap": (synthesize_swap, "u", 4),
    "synthesize_cnot": (synthesize_cnot, "u", 4),
    "split_local_product": (split_local_product, "local product", 4),
    "diagonalize_complex_symmetric_unitary": (diagonalize_complex_symmetric_unitary, "m", 4),
    "ep_exact": (ep_exact, "u", 4),
    "ep_monte_carlo": (lambda x: ep_monte_carlo(x, samples=10, seed=0), "u", 4),
    "local_op": (lambda x: local_op(1, x), "local matrix", 2),
    "phase_distance(u)": (lambda x: phase_distance(x, ID4), "u", None),
    "phase_distance(v)": (lambda x: phase_distance(ID4, x), "v", 4),
    "assert_unitary": (assert_unitary, "matrix", None),
    "project_su": (project_su, "u", None),
}

WRONG_SIZE = [
    (func, shape)
    for func, (_, _, dim) in ADMITTING.items()
    for shape, x in SHAPES.items()
    if not (x.ndim == 2 and x.shape[0] == x.shape[1] and dim in (None, x.shape[0]) and x.size)
]


@pytest.mark.parametrize("func,shape", WRONG_SIZE, ids=[f"{f}-{s}" for f, s in WRONG_SIZE])
def test_wrong_size_argument_is_refused_by_name(func, shape):
    call, name, _ = ADMITTING[func]
    with pytest.raises(ContractViolation) as exc:
        call(SHAPES[shape])
    assert str(exc.value).startswith(f"{name} must be a ")


def near_bound_target(seed, kind, dev):
    """A Haar target pushed off unitary to a deviation of about dev."""
    u = haar_random_unitary(4, seed=seed)
    if kind == "scaled":
        return u * np.sqrt(1.0 + dev)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = z + z.conj().T
    # (I + e h)(I + e h)^dag = I + 2 e h + O(e^2).
    return (ID4 + (dev / (2.0 * np.abs(h).max())) * h) @ u


def test_near_bound_targets_compile_on_both_backends():
    rng = np.random.default_rng(2004)
    for seed in range(500, 512):
        for kind in ("scaled", "hermitian"):
            u = near_bound_target(seed, kind, rng.uniform(0.5, 1.0) * ATOL_UNITARY)
            assert 0.5 * ATOL_UNITARY <= np.abs(u @ u.conj().T - ID4).max() <= ATOL_UNITARY
            assert_unitary(u)
            for synthesize in (synthesize_swap, synthesize_cnot):
                assert phase_distance(evaluate_circuit(synthesize(u)), u) < 1e-9


def test_near_bound_target_file_compiles_through_the_cli(tmp_path, capsys):
    u = near_bound_target(7, "scaled", 0.99 * ATOL_UNITARY)
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"dim": 4, "rows": _matrix_to_json(u)}))
    for argv in (["synth", "--matrix", str(path)], ["cost", "--compare", "--matrix", str(path)]):
        assert main(argv) == 0, capsys.readouterr().err


# Square matrices of the right size whose entries are not numbers.  numpy
# reads the identity with one bool among its numbers as a float array, and
# refuses rows of different lengths with a bare ValueError: the entries are
# tested one by one.
NON_NUMERIC = {
    "strings": lambda n: [[str(int(i == j)) for j in range(n)] for i in range(n)],
    "bools": lambda n: np.eye(n, dtype=bool),
    "objects": lambda n: np.eye(n, dtype=complex).astype(object),
    "a bool among numbers": lambda n: [[True if i == j == 0 else float(i == j) for j in range(n)] for i in range(n)],
    "a numpy bool among numbers": lambda n: [[np.False_ if i != j else 1.0 for j in range(n)] for i in range(n)],
    "ragged rows": lambda n: [[float(i == j) for j in range(n)] for i in range(n - 1)] + [[1.0]],
    "arrays numpy cannot nest": lambda n: [np.zeros((1, n + 1))] + [np.eye(n)[i : i + 1] for i in range(1, n)],
}


@pytest.mark.parametrize("kind", NON_NUMERIC)
@pytest.mark.parametrize("func", ADMITTING)
def test_non_numeric_argument_is_refused_by_name(func, kind):
    call, name, dim = ADMITTING[func]
    with pytest.raises(ContractViolation) as exc:
        call(NON_NUMERIC[kind](dim or 4))
    assert str(exc.value).startswith(f"{name} must be a matrix of numbers, got dtype "), exc.value


def test_numeric_strings_and_bools_are_not_read_as_numbers():
    with pytest.raises(ContractViolation, match=r"^u must be a matrix of numbers, got dtype <U1$"):
        assert_unitary([["1", "0"], ["0", "1"]], "u")
    refusal = r"^local matrix must be a matrix of numbers, got dtype bool$"
    with pytest.raises(ContractViolation, match=refusal):
        local_op(1, np.eye(2, dtype=bool))
    strings = NON_NUMERIC["strings"](4)
    for call in (kak_decompose, synthesize_swap, synthesize_cnot):
        with pytest.raises(ContractViolation, match=r"^u must be a matrix of numbers"):
            call(strings)


def test_integer_and_real_matrices_are_admitted_as_their_complex_twins():
    for dtype in (np.int64, np.uint8, np.float32, np.float64, np.complex64):
        assert assert_unitary(np.eye(4, dtype=dtype)).dtype == complex
        # Equal entries, equal bytes once admitted: one remembered decomposition.
        assert kak_decompose(np.eye(4, dtype=dtype)) is kak_decompose(ID4), dtype
    assert kak_decompose([[int(i == j) for j in range(4)] for i in range(4)]) is kak_decompose(ID4)


# Every function that reads a tuple of reals, with a valid tuple, the name of
# the argument in the error and its length.  linalg._reals is the one rule.
H0 = (0.3, 0.2, 0.1)
BELL0 = tuple(lambdas(H0))
ANGLES0 = (0.1, 0.2, 0.3, 0.4)
TUPLE_READERS = {
    "lambdas": (lambdas, H0, "coordinates"),
    "exp_minus_iH": (exp_minus_iH, H0, "coordinates"),
    "in_weyl_chamber": (in_weyl_chamber, H0, "coordinates"),
    "swap_angles": (swap_angles, H0, "coordinates"),
    "shifted_bell_phases": (shifted_bell_phases, BELL0, "Bell phases"),
    "cnot_phase_params": (cnot_phase_params, BELL0, "Bell phases"),
    "build_core_cnot_circuit": (build_core_cnot_circuit, ANGLES0, "phase-layer angles"),
}

# Each fault, as a change to a valid tuple: its first entry replaced, or its length.
BAD_TUPLES = {
    "str": lambda t: ("0.1", *t[1:]),
    "bool": lambda t: (True, *t[1:]),
    "np.bool_": lambda t: (np.True_, *t[1:]),
    "None": lambda t: (None, *t[1:]),
    "nested tuple": lambda t: ((t[0],), *t[1:]),
    "too few entries": lambda t: t[:-1],
    "too many entries": lambda t: (*t, 0.0),
    "10**400": lambda t: (10**400, *t[1:]),
}


@pytest.mark.parametrize("fault", BAD_TUPLES)
@pytest.mark.parametrize("func", TUPLE_READERS)
def test_bad_tuple_of_reals_is_refused_by_name(func, fault):
    call, valid, name = TUPLE_READERS[func]
    rule = rf"^{name} (must be {len(valid)} real numbers, got |has an entry too large for a float$)"
    with pytest.raises(ContractViolation, match=rule):
        call(BAD_TUPLES[fault](valid))


def test_a_value_that_is_no_tuple_is_refused_by_name():
    for value in (None, 0.3, "0.3, 0.2, 0.1", np.float64(0.3), np.array(H0).reshape(3, 1)):
        with pytest.raises(ContractViolation, match=r"^coordinates must be 3 real numbers, got "):
            lambdas(value)


def test_nan_keeps_each_callers_own_rule():
    nan = float("nan")
    for h in ((nan, 0.0, 0.0), (0.3, nan, 0.1), (0.3, 0.2, nan)):
        assert in_weyl_chamber(h) is False
        assert all(np.isnan(lambdas(h)))
        with pytest.raises(ContractViolation, match=r"^parameters .* lie outside the canonical chamber"):
            swap_angles(h)
    with pytest.raises(ContractViolation, match=r"^Bell phases must sum to 0 within 1e-9, got nan$"):
        cnot_phase_params((nan, 0.0, 0.0, 0.0))


def _bits(result):
    """A result as bytes, so that equal bytes mean bit-identical results."""
    if isinstance(result, Circuit):
        return json.dumps(circuit_to_dict(result)).encode()
    return np.asarray(result).tobytes() + repr(type(result)).encode()


def _spellings(valid, named):
    """valid, a tuple of floats, as every other argument it equals."""
    return [
        list(valid),
        np.array(valid),
        tuple(map(np.float64, valid)),
        named(*valid),
        named(*map(np.float64, valid)),
    ]


@pytest.mark.parametrize("func", TUPLE_READERS)
def test_other_spellings_of_a_tuple_give_identical_results(func):
    call, valid, _ = TUPLE_READERS[func]
    named = {3: CanonicalParams, 4: CnotPhaseParams if func == "build_core_cnot_circuit" else BellPhases}
    expected = _bits(call(valid))
    for spelling in _spellings(valid, named[len(valid)]):
        assert _bits(call(spelling)) == expected, spelling
    # Integers read as the floats they equal.
    zero = (0.0,) * len(valid)
    for spelling in ((0,) * len(valid), (np.int64(0), np.uint8(0), *(0,) * (len(valid) - 2))):
        assert _bits(call(spelling)) == _bits(call(zero)), spelling


# Each read of a hand-built circuit field, with the name the writer's error gives it.
FIELD_READERS = {
    "evaluate_circuit": (lambda x: evaluate_circuit(Circuit([], x)), "global_phase"),
    "prune_circuit": (lambda x: prune_circuit(Circuit([], x)), "global_phase"),
    "SwapPowOp.duration_s": (lambda x: SwapPowOp(x).duration_s(builtin_profile("gaas")), "swap exponent"),
    "SwapPowOp.identity_phase": (lambda x: SwapPowOp(x).identity_phase(1e-12), "swap exponent"),
    "circuit_to_dict": (lambda x: circuit_to_dict(Circuit([], x)), "global_phase"),
}

BAD_FIELDS = {
    "str": ("0.5", "must be a number, got '0.5'"),
    "bool": (True, "must be a number, got True"),
    "None": (None, "must be a number, got None"),
    "NaN": (float("nan"), "must be finite, got nan"),
    "10**400": (10**400, "is too large for a float"),
}


@pytest.mark.parametrize("fault", BAD_FIELDS)
@pytest.mark.parametrize("reader", FIELD_READERS)
def test_a_bad_hand_built_field_is_refused_by_every_reader(reader, fault):
    call, name = FIELD_READERS[reader]
    value, message = BAD_FIELDS[fault]
    with pytest.raises(ContractViolation) as exc:
        call(value)
    assert str(exc.value) == f"{name} {message}"


class Level(enum.IntEnum):
    ONE = 1


class Real(float):
    pass


# Values that equal a real but whose type is a subclass of one.
SUBCLASSED = {"IntEnum member": Level.ONE, "float subclass": Real(0.5)}


@pytest.mark.parametrize("kind", SUBCLASSED)
def test_a_subclass_of_a_real_type_passes_neither_real_rule(kind):
    value = SUBCLASSED[kind]
    with pytest.raises(ContractViolation, match=r"^swap exponent must be a number, got "):
        swap_op(value)
    with pytest.raises(ContractViolation, match=r"^global_phase must be a number, got "):
        evaluate_circuit(Circuit([], value))
    with pytest.raises(ContractViolation, match=r"^coordinates must be 3 real numbers, got "):
        lambdas((value, 0.0, 0.0))


# Each read of a hand-built op's qubit or control: the op built from a
# value, the call that reads it, and the prefix that names the op in its
# error.
QUBIT_READERS = {
    "LocalOp.unitary": (lambda x: LocalOp(x, PAULI_X), lambda op: op.unitary(), ""),
    "LocalOp.apply": (lambda x: LocalOp(x, PAULI_X), lambda op: op.apply(ID4), ""),
    "evaluate_circuit(LocalOp)": (lambda x: LocalOp(x, PAULI_X), lambda op: evaluate_circuit(Circuit([op])), ""),
    "schedule_circuit": (
        lambda x: LocalOp(x, PAULI_X),
        lambda op: schedule_circuit(Circuit([local_op(1, PAULI_X), op, local_op(2, PAULI_X)]), builtin_profile("gaas")),
        "ops[1]: ",
    ),
    "CnotOp.unitary": (CnotOp, lambda op: op.unitary(), ""),
    "CnotOp.apply": (CnotOp, lambda op: op.apply(ID4), ""),
    "evaluate_circuit(CnotOp)": (CnotOp, lambda op: evaluate_circuit(Circuit([op])), ""),
    "expand_cnots_to_swaps": (CnotOp, lambda op: expand_cnots_to_swaps(Circuit([op])), ""),
}

BAD_QUBITS = {"0": 0, "3": 3, "str": "1", "None": None}


@pytest.mark.parametrize("value", BAD_QUBITS)
@pytest.mark.parametrize("reader", QUBIT_READERS)
def test_a_bad_hand_built_qubit_is_refused_by_every_reader(reader, value):
    build, read, prefix = QUBIT_READERS[reader]
    op = build(BAD_QUBITS[value])
    with pytest.raises(ContractViolation) as written:
        circuit_to_dict(Circuit([op]))
    with pytest.raises(ContractViolation) as exc:
        read(op)
    assert str(written.value).startswith("ops[0]: ")
    assert str(exc.value) == prefix + str(written.value).removeprefix("ops[0]: ")


PROPORTIONAL = HardwareProfile(
    name="proportional",
    rabi_frequency_hz=6.2e6,
    pi_rotation_time_s=80e-9,
    swap_full_time_s=50e-12,
    local_rotation_policy="proportional",
)

# Each read of a hand-built local's entries, given a circuit.
MATRIX_READERS = {
    "prune_circuit": prune_circuit,
    "schedule_circuit, proportional": lambda c: schedule_circuit(c, PROPORTIONAL),
}

BAD_MATRICES = {
    "str": "x",
    "3x3": np.eye(3),
    "bool identity": np.eye(2, dtype=bool),
    "2I": 2.0 * np.eye(2),
}


@pytest.mark.parametrize("matrix", BAD_MATRICES)
@pytest.mark.parametrize("reader", MATRIX_READERS)
def test_a_bad_hand_built_local_matrix_is_refused_where_it_is_read(reader, matrix):
    bad = BAD_MATRICES[matrix]
    with pytest.raises(ContractViolation) as written:
        local_op(1, bad)
    with pytest.raises(ContractViolation) as exc:
        MATRIX_READERS[reader](Circuit([swap_op(0.5), LocalOp(1, bad)]))
    assert str(exc.value) == f"ops[1]: {written.value}"


def test_the_fixed_pi_price_reads_no_local_matrix():
    profile = builtin_profile("gaas")
    for bad in BAD_MATRICES.values():
        sched = schedule_circuit(Circuit([LocalOp(1, bad)]), profile)
        assert sched.total_time_s == profile.pi_rotation_time_s


def test_a_qubit_equal_to_1_or_2_reads_as_that_qubit():
    for one, two in ((True, 2.0), (1.0, np.int64(2))):
        assert np.array_equal(LocalOp(one, PAULI_X).unitary(), LocalOp(1, PAULI_X).unitary())
        assert np.array_equal(LocalOp(two, PAULI_X).apply(ID4), LocalOp(2, PAULI_X).apply(ID4))
        assert np.array_equal(CnotOp(one).apply(ID4), CnotOp(1).unitary())
        assert np.array_equal(CnotOp(two).unitary(), CnotOp(2).apply(ID4))


# Each angle argument that is no real number nor an array of them.
BAD_ANGLES = {
    "str": "0.5",
    "bool": True,
    "np.bool_": np.True_,
    "None": None,
    "complex": 1j,
    "complex array": np.array([0.1, 0.2j]),
    "mixed list": [0.1, True],
    "bool array": np.array([True, False]),
    "str array": np.array(["0.5"]),
    "ragged rows": [[0.1], [0.2, 0.3]],
}


@pytest.mark.parametrize("fault", BAD_ANGLES)
def test_rz_refuses_an_angle_that_is_no_real(fault):
    rule = r"^rotation angle must be a real number or an array of them, got "
    with pytest.raises(ContractViolation, match=rule):
        rz(BAD_ANGLES[fault])


def test_rz_refuses_an_int_too_large_for_a_float():
    for value in (10**400, [0.1, 10**400]):
        with pytest.raises(ContractViolation, match=r"^rotation angle has an entry too large for a float$"):
            rz(value)


def _asarray_rz(zeta):
    """rz as it read its angles before its admission: np.asarray(zeta, dtype=float)."""
    zeta = np.asarray(zeta, dtype=float)
    e = np.exp(-1j * zeta)
    m = np.zeros((*zeta.shape, 2, 2), dtype=complex)
    m[..., 0, 0] = e
    m[..., 1, 1] += np.conjugate(e)
    return m


# Every spelling of a real angle or an array of them, NaN and the infinities included.
FLOAT_ANGLES = [
    0.3, -0.0, 0, 7, np.float64(-1.25), np.float32(0.3), np.int64(2), np.uint8(3),
    [0.1, -0.2, 3.0], (0.1, 2), [[0.5, -0.5], [1e-300, 4.0]],
    np.array([0.1, 0.2]), np.array([0.1, 0.2], dtype=np.float32), np.arange(4),
    np.array(0.7), np.array([[1.5], [-2.5]]), [], float("nan"), [float("inf"), -float("inf")],
]


@pytest.mark.parametrize("zeta", FLOAT_ANGLES, ids=repr)
def test_rz_gives_every_float_spelling_its_former_bits(zeta):
    with np.errstate(invalid="ignore"):
        got, want = rz(zeta), _asarray_rz(zeta)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_a_float_array_of_angles_is_admitted_as_itself():
    angles = np.array([0.1, -0.2, 0.3, 0.4])
    assert _real_array(angles, "rotation angle") is angles
