"""Property test: every point of the Weyl chamber comes back as itself.

A point h of the canonical chamber is dressed with Haar-random single-qubit
factors, (a (x) b) E(h) (c (x) d), and decomposed.  The coordinates that
kak_decompose returns must be h to within 1e-14, and both backends must
rebuild the target to within 1e-12 entrywise, up to a global phase.  Points
are drawn from the interior, from the hx = pi/4 wall (where hz >= 0) and from
the faces hy = hx, hz = hy, hz = -hy, hz = 0 and hy = 0.  The run is
derandomized, so it draws the same targets every time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsynth.canonical import CanonicalParams, exp_minus_iH, kak_decompose
from swapsynth.linalg import haar_random_unitary
from swapsynth.synthesis import evaluate_circuit, synthesize_cnot, synthesize_swap

PI4 = np.pi / 4.0


def on_wall_hz_up(hx, hy, hz):
    """The point, with hz mirrored to >= 0 within the chamber's 1e-10 wall
    tolerance, where both signs of hz are one class and the canonical
    representative has hz >= 0."""
    return (hx, hy, abs(hz) if hx >= PI4 - 1e-10 else hz)


# Each region maps three fractions in [0, 1] to a chamber point.
REGIONS = {
    "interior": lambda u, v, w: on_wall_hz_up(PI4 * u, PI4 * u * v, PI4 * u * v * (2.0 * w - 1.0)),
    "wall": lambda u, v, w: (PI4, PI4 * v, PI4 * v * w),
    "hy=hx": lambda u, v, w: on_wall_hz_up(PI4 * u, PI4 * u, PI4 * u * (2.0 * w - 1.0)),
    "hz=hy": lambda u, v, w: (PI4 * u, PI4 * u * v, PI4 * u * v),
    "hz=-hy": lambda u, v, w: on_wall_hz_up(PI4 * u, PI4 * u * v, -PI4 * u * v),
    "hz=0": lambda u, v, w: (PI4 * u, PI4 * u * v, 0.0),
    "hy=0": lambda u, v, w: (PI4 * u, 0.0, 0.0),
}

_unit = st.floats(0.0, 1.0)


def residual(circuit, u):
    """Largest entry of e^{i theta} U_circuit - u, theta aligning the two."""
    c = evaluate_circuit(circuit)
    overlap = np.vdot(c, u)
    return np.abs(c * (overlap / abs(overlap)) - u).max()


@pytest.mark.parametrize("region", REGIONS)
@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(fractions=st.tuples(_unit, _unit, _unit), seed=st.integers(0, 2**32 - 1))
def test_chamber_point_is_returned(region, fractions, seed):
    h = REGIONS[region](*fractions)
    rng = np.random.default_rng(seed)
    a, b, c, d = (haar_random_unitary(2, seed=int(rng.integers(1 << 30))) for _ in range(4))
    u = np.kron(a, b) @ exp_minus_iH(CanonicalParams(*h)) @ np.kron(c, d)
    got = kak_decompose(u).params
    assert np.abs(np.subtract(got, h)).max() <= 1e-14, (got, h)
    for synth in (synthesize_swap, synthesize_cnot):
        assert residual(synth(u), u) < 1e-12
