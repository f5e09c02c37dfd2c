"""The CNOT path's phase-layer angles are the bits of the three public steps.

``synthesis._cnot_core_params(h)`` composes the private arithmetic of
``canonical.lambdas``, ``synthesis.shifted_bell_phases`` and
``synthesis.cnot_phase_params`` on the floats the KAK computed, with no
``linalg._reals`` read in between.  It must give, bit for bit, the angles
of the public chain ``cnot_phase_params(shifted_bell_phases(lambdas(h)))``,
for h drawn from a wide box, from the chamber's vertices, from the regions
of ``tests/test_whole_chamber.py`` and from the mixing weight's collision
coordinates of ``tests/test_mix_weight_collisions.py``.  The run is
derandomized.  (That the sum check of cnot_phase_params runs on the
synthesis path is tested in ``tests/test_internal_errors.py``.)
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsynth.canonical import CanonicalParams, kak_decompose, lambdas
from swapsynth.linalg import haar_random_unitary
from swapsynth.synthesis import _cnot_core_params, cnot_phase_params, shifted_bell_phases
from test_mix_weight_collisions import PLANES, SEGMENTS
from test_whole_chamber import REGIONS

PI4 = math.pi / 4.0

VERTICES = [(0.0, 0.0, 0.0), (PI4, 0.0, 0.0), (PI4, PI4, 0.0), (PI4, PI4, PI4), (PI4, PI4, -PI4)]

_unit = st.floats(0.0, 1.0)
POINTS = st.one_of(
    st.tuples(*[st.floats(-20.0, 20.0)] * 3),
    st.sampled_from(VERTICES),
    st.builds(lambda region, *f: REGIONS[region](*f), st.sampled_from(sorted(REGIONS)), _unit, _unit, _unit),
    st.builds(lambda plane, s, t: PLANES[plane](s, t), st.sampled_from(sorted(PLANES)), _unit, _unit),
    st.builds(lambda segment, t: SEGMENTS[segment](t), st.sampled_from(sorted(SEGMENTS)), _unit),
)


def _public_chain(h):
    return cnot_phase_params(shifted_bell_phases(lambdas(h)))


def _bits(angles):
    return np.array(angles, dtype=float).tobytes()


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(h=POINTS)
def test_core_params_are_the_public_chain_bit_for_bit(h):
    want = _bits(_public_chain(h))
    assert _bits(_cnot_core_params(CanonicalParams(*h))) == want, h
    assert _bits(_cnot_core_params(h)) == want, h


def test_core_params_of_decomposed_targets_are_the_public_chain():
    for seed in range(50):
        params = kak_decompose(haar_random_unitary(4, seed=seed)).params
        assert _bits(_cnot_core_params(params)) == _bits(_public_chain(params)), seed

