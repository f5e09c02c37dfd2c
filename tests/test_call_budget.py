"""Call-count guards: one kak_decompose, synthesize_swap or synthesize_cnot,
one circuit_from_dict of a CNOT circuit, and one matrix read from JSON,
stays within a budget of Python-level calls.

Every per-target step pays Python call overhead on 4x4 matrices, so the
number of calls that cProfile records for one decomposition is a cheap,
exactly repeatable proxy for that overhead.  It is a count, not a speed
claim, and it is tied to the installed numpy, whose Python wrappers and
methods (``np.array``, ``ndarray.astype`` and others) are part of it: the budget
was measured on numpy 2.4.6, and on any other version the test is skipped.
With complex local factors and complex move conjugators the KAK made 218
calls on this target; with real factors gathered by column it made 206.
Gathering them once from the eigensolver's own columns, with det(q) on
Python floats and ``np.maximum.reduce``/``np.add.reduce`` in place of
``ndarray.max``/``ndarray.sum``, it made 184.  With every gauge decision
in one helper, which builds its lists by comprehension and takes det(q)
from the gauged columns instead of a parity count, it made 174.  With the
chamber reduction as one sort of the eigenphases and at most one quarter
turn, in place of the move-by-move reduction, it made 147.  Remembering
the last 8 targets adds a lookup of about 4 calls; taking the phases of
the eigenvalues and of det(u) by ``np.arctan2`` instead of ``np.angle``
(4 calls each), and admitting a complex ndarray without ``np.asarray``, pay
for it: a decomposition that misses the memo makes 140.  The joint
diagonalization's reconstruction in a helper, which its collision fallback
calls again, adds one: 141.  Admitting its chamber point through
``linalg._reals`` costs one call, and ``np.conjugate`` in place of
``ndarray.conj`` saves one in each of its four unitarity checks: 140 (it
had drifted to 143 under a budget of 147).  The Newton-Schulz step as a
linalg helper costs the call its own ``np.conjugate`` saves.  Handing the
gather a slot permutation and a table of +-1.0 signs, in place of signed
column references that it decoded again, and taking det(q) of the unsigned
columns times the product of their signs, it makes 125.  Finding each
column's first entry beyond 1e-8 by a plain loop, in place of four next()
calls over generators, each of which cost three calls, it makes 112.
Calling the LAPACK gufuncs behind ``np.linalg.eigh`` and ``np.linalg.det``
through one private helper each, in place of numpy's Python wrappers, it
makes 75.
The budgets below count that miss path, so each profiled call starts from
an empty memo; the hit path has budgets of its own.

Every budget is a count per code object: the sum of ``callcount`` over the
entries of ``cProfile.Profile.getstats()``, less the profiler's own
``disable()``.  ``pstats.Stats(...).total_calls`` is not used: it keeps one
row per (file, line, name) label, so calls to functions sharing a label,
such as every dataclass ``__init__``, are dropped by memory layout.
"""

import cProfile
import json

import numpy as np
import pytest

from swapsynth import canonical
from swapsynth.canonical import kak_decompose
from swapsynth.linalg import haar_random_unitary
from swapsynth.synthesis import (
    _matrix_from_json,
    _matrix_to_json,
    circuit_from_dict,
    circuit_to_dict,
    synthesize_cnot,
    synthesize_swap,
)

MEASURED_ON = "2.4.6"
COMPLEX_FACTOR_CALLS = 218
BUDGET = 75


# synthesize_cnot made 267 calls while the CNOT core built its three exact
# CnotOps through cnot_op's admission; building them directly saved three.
# It made 264 while it admitted its eight locals in two stacks, one inside
# build_core_cnot_circuit, whose Circuit it then unpacked; one stack took 244.
# The KAK's 22 saved calls, and two more in the locals' stacked unitarity
# check, bring them from 258 and 244 to 234 and 220.  The KAK's gauge in
# one helper saves 10 more (224 and 210), and the chamber as one sort 27
# more (197 and 183).  The memo's lookup, paid for inside the KAK, leaves
# them at 190 and 176 on a miss.  Each synthesizer builds its circuit itself
# instead of through a builder that takes a decomposition, which saves one
# call and pays for the KAK's reconstruction helper: still 190 and 176.
# Measured at 192 and 178 under those budgets, they make 181 and 175 once
# each tuple of reals is read once by linalg._reals: the swap core drops two
# generator re-reads of h, and the CNOT path's three reads cost a call each,
# paid for by _local_ops's map, the np.conjugate above and a chained bound
# in place of abs in cnot_phase_params.  linalg._real, testing the exact
# type in place of two isinstance calls, takes its three swap exponents from
# 181 to 175; the CNOT path's stacked products make no call and stay at 175.
# The KAK's gauge handed over as slots and signs saves 15 more: 160 and 160.
# The swap core building its three pulses as SwapPowOps, whose exponents
# swap_angles computed and checked, saves swap_op's three calls and their
# three linalg._real reads: synthesize_swap makes 151.
# The KAK's sign loop saves 13 on both (138 and 147), and the CNOT path's
# phase-layer angles computed by the private arithmetic of lambdas,
# shifted_bell_phases and cnot_phase_params on the KAK's own floats, with no
# _reals re-read or NamedTuple in between, 9 more, less one for admitting
# gates.rz's angles by linalg._real_array: 138 and 139.
# The KAK's eigh and det through the LAPACK gufuncs, without numpy's
# wrappers, save 37 on both: 101 and 102.
SYNTHESIS_BUDGETS = {synthesize_swap: 101, synthesize_cnot: 102}

# A target the memo holds: kak_decompose admits it and looks it up, and the
# synthesizers only build their circuits.  Through a builder that took the
# decomposition they made 57 and 43.  kak_decompose made 7 while a hit
# checked the unitarity of bytes the miss had admitted; with that check
# made only on a miss it makes 3, and the synthesizers 52 and 38.  Reading
# each tuple of reals once by linalg._reals takes them to 44 and 38, and
# linalg._real by exact type the swap path to 38.  Its pulses built as
# SwapPowOps, without swap_op's read of each exponent, take it to 29.
# The CNOT path's angles by the three steps' private arithmetic, with the
# three _reals reads and three NamedTuples gone, take it to 29, and
# admitting gates.rz's angles by linalg._real_array to 30.
HIT_BUDGETS = {kak_decompose: 3, synthesize_swap: 29, synthesize_cnot: 30}

# circuit_from_dict made 262 calls on the CNOT circuit of the budget target
# while it admitted each of its eight locals through local_op; one stacked
# check per document took 221.  Reading each matrix as one array instead of
# entry by entry saves one call per local (213), and admitting each label by
# linalg._text spends one (221): a per-entry parse would read 229.  The
# stacked unitarity check's np.maximum.reduce in place of ndarray.max saves
# two (219), and np.conjugate in place of ndarray.conj one more (218).
# linalg._real by exact type, for the document's global phase, saves two (216).
READER_BUDGET = 216

# One 4x4 _matrix_from_json, the lambda that calls it included: one array
# conversion, one cast and one view.  Parsed entry by entry it made 8.
CODEC_BUDGET = 5


def _calls(func, u, hit=False):
    """Calls per code object of a second func(u), after one to warm caches.

    The KAK memo is emptied before the profiled call, so it counts a miss,
    unless hit is true.
    """
    func(u)
    if not hit:
        canonical._decompose.cache_clear()
    profile = cProfile.Profile()
    profile.enable()
    func(u)
    profile.disable()
    return sum(e.callcount for e in profile.getstats() if "disable" not in str(e.code))


def test_kak_decompose_call_budget():
    if np.__version__ != MEASURED_ON:
        pytest.skip(f"the budget was counted on numpy {MEASURED_ON}, not {np.__version__}")
    calls = _calls(kak_decompose, haar_random_unitary(4, seed=2))
    assert calls <= BUDGET < COMPLEX_FACTOR_CALLS, calls


@pytest.mark.parametrize("func", SYNTHESIS_BUDGETS, ids=lambda f: f.__name__)
def test_synthesis_call_budget(func):
    if np.__version__ != MEASURED_ON:
        pytest.skip(f"the budget was counted on numpy {MEASURED_ON}, not {np.__version__}")
    calls = _calls(func, haar_random_unitary(4, seed=2))
    assert calls <= SYNTHESIS_BUDGETS[func], calls


@pytest.mark.parametrize("func", HIT_BUDGETS, ids=lambda f: f.__name__)
def test_memo_hit_call_budget(func):
    if np.__version__ != MEASURED_ON:
        pytest.skip(f"the budget was counted on numpy {MEASURED_ON}, not {np.__version__}")
    u = haar_random_unitary(4, seed=2)
    calls = _calls(func, u, hit=True)
    assert calls <= HIT_BUDGETS[func] < _calls(func, u), calls


def test_circuit_reader_call_budget():
    if np.__version__ != MEASURED_ON:
        pytest.skip(f"the budget was counted on numpy {MEASURED_ON}, not {np.__version__}")
    doc = circuit_to_dict(synthesize_cnot(haar_random_unitary(4, seed=2)))
    calls = _calls(circuit_from_dict, doc)
    assert calls <= READER_BUDGET, calls


def test_matrix_reader_call_budget():
    if np.__version__ != MEASURED_ON:
        pytest.skip(f"the budget was counted on numpy {MEASURED_ON}, not {np.__version__}")
    rows = json.loads(json.dumps(_matrix_to_json(haar_random_unitary(4, seed=2))))
    calls = _calls(lambda r: _matrix_from_json(r, 4, "matrix"), rows)
    assert calls <= CODEC_BUDGET, calls
