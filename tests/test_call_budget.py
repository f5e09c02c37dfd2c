"""Call-count guard: one kak_decompose stays within a budget of Python-level calls.

Every per-target step pays Python call overhead on 4x4 matrices, so the
number of calls that cProfile records for one decomposition is a cheap,
exactly repeatable proxy for that overhead.  It is a count, not a speed
claim, and it is tied to the installed numpy, whose Python wrappers
(``np.linalg.det``, ``ndarray.max`` and others) are part of it: the budget
was measured on numpy 2.4.6, and on any other version the test is skipped.
With complex local factors and complex move conjugators the KAK made 218
calls on this target; with real factors gathered by column it makes 206.
"""

import cProfile
import pstats

import numpy as np
import pytest

from swapsynth.canonical import kak_decompose
from swapsynth.linalg import haar_random_unitary

MEASURED_ON = "2.4.6"
COMPLEX_FACTOR_CALLS = 218
BUDGET = 206


def test_kak_decompose_call_budget():
    if np.__version__ != MEASURED_ON:
        pytest.skip(f"the budget was counted on numpy {MEASURED_ON}, not {np.__version__}")
    u = haar_random_unitary(4, seed=2)
    kak_decompose(u)
    profile = cProfile.Profile()
    profile.enable()
    kak_decompose(u)
    profile.disable()
    calls = pstats.Stats(profile).total_calls
    assert calls <= BUDGET < COMPLEX_FACTOR_CALLS, calls
