"""Property test: targets near degenerate Weyl-chamber points compile exactly.

Calibrated hardware gates sit close to, not exactly on, the chamber's
landmarks, edges and faces.  Targets are drawn as

    (a (x) b) E(h0 + delta N(0,1)^3) (c (x) d)

with Haar-random single-qubit factors, h0 on a landmark, an edge or the
hz = 0 face, and delta from 0 up to 1e-4.  Both backends must rebuild every
target to a phase distance below 1e-9.  The run is derandomized with a
fixed example count, so it draws the same targets every time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsynth.canonical import CanonicalParams, exp_minus_iH
from swapsynth.linalg import haar_random_unitary, phase_distance
from swapsynth.synthesis import evaluate_circuit, synthesize_cnot, synthesize_swap

PI4 = np.pi / 4.0

LANDMARKS = {
    "cnot": (PI4, 0.0, 0.0),
    "b": (PI4, PI4 / 2.0, 0.0),
    "swap": (PI4, PI4, PI4),
    "iswap": (PI4, PI4, 0.0),
    "sqrt_swap": (PI4 / 2.0, PI4 / 2.0, PI4 / 2.0),
    "identity": (0.0, 0.0, 0.0),
}

# Chamber edges, each as a map from t in [0, pi/4] to a point on it.
EDGES = (
    lambda t: (t, 0.0, 0.0),
    lambda t: (PI4, t, 0.0),
    lambda t: (t, t, 0.0),
    lambda t: (t, t, t),
    lambda t: (t, t, -t),
    lambda t: (PI4, PI4, t),
    lambda t: (PI4, t, t),
)

DELTAS = (0.0, 1e-9, 1e-8, 1e-7, 1e-6, 1e-4)

_unit = st.floats(0.0, 1.0)
centres = st.one_of(
    st.sampled_from(tuple(LANDMARKS.values())),
    st.builds(lambda edge, s: edge(PI4 * s), st.sampled_from(EDGES), _unit),
    st.builds(lambda s, f: (PI4 * s, PI4 * s * f, 0.0), _unit, _unit),
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(h0=centres, delta=st.sampled_from(DELTAS), seed=st.integers(0, 2**32 - 1))
def test_near_degenerate_targets_compile(h0, delta, seed):
    rng = np.random.default_rng(seed)
    a, b, c, d = (haar_random_unitary(2, seed=int(rng.integers(1 << 30))) for _ in range(4))
    h = np.asarray(h0) + delta * rng.standard_normal(3)
    u = np.kron(a, b) @ exp_minus_iH(CanonicalParams(*h)) @ np.kron(c, d)
    for synth in (synthesize_swap, synthesize_cnot):
        assert phase_distance(evaluate_circuit(synth(u)), u) < 1e-9
