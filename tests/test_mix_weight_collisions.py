"""Targets on which the joint diagonalization's mixing weight collides compile.

``diagonalize_complex_symmetric_unitary`` takes its eigenvectors from one
``eigh`` of Re(m) + r Im(m), r = ``linalg._MIX_WEIGHT``.  Two distinct
eigenphases of m collide in that combination exactly when a canonical
coordinate has |h_k| = atan(|r|) / 2 modulo pi / 2.  On those planes of the
chamber ``eigh`` alone cannot tell the two eigenvectors apart, and the
diagonalization separates them by Im(m) instead.

An earlier version retried with a second weight, -0.5501638305515631.  That
rescued a target on one plane of the first weight, but not one on the five
segments where a plane of each weight meets, which raised NumericalError.
Both sets are built here from the weights themselves, with Haar-random
locals on both sides and offsets from 0 to 1e-7, and both backends must
rebuild every target to a phase distance below 1e-9.

The common path pays nothing for the fallback: a Haar or named-gate target
runs ``eigh`` exactly once.
"""

import math

import numpy as np
import pytest

from swapsynth import canonical, linalg
from swapsynth.canonical import exp_minus_iH, kak_decompose
from swapsynth.gates import NAMED_GATES
from swapsynth.linalg import haar_random_unitary, phase_distance
from swapsynth.synthesis import evaluate_circuit, synthesize_cnot, synthesize_swap

PI4 = math.pi / 4.0

# The collision coordinate of the weight in use, and of the removed one.
A = math.atan(abs(linalg._MIX_WEIGHT)) / 2.0
B = math.atan(abs(-0.5501638305515631)) / 2.0

# Each a map from s, t in [0, 1] to a chamber point on |h_k| = A for some k.
PLANES = {
    "hx=A": lambda s, t: (A, A * s, A * s * (2.0 * t - 1.0)),
    "hy=A": lambda s, t: (A + (PI4 - A) * s, A, A * (2.0 * t - 1.0)),
    "hz=A": lambda s, t: (A + (PI4 - A) * s, A + (PI4 - A) * s * t, A),
    "hz=-A": lambda s, t: (A + (PI4 - A) * s, A + (PI4 - A) * s * t, -A),
}

# Each a map from t in [0, 1] to a chamber point where a plane of A meets one of B.
SEGMENTS = {
    "hx=A,hy=B": lambda t: (A, B, B * (2.0 * t - 1.0)),
    "hx=A,hz=B": lambda t: (A, B + (A - B) * t, B),
    "hx=A,hz=-B": lambda t: (A, B + (A - B) * t, -B),
    "hy=A,hz=B": lambda t: (A + (PI4 - A) * t, A, B),
    "hy=A,hz=-B": lambda t: (A + (PI4 - A) * t, A, -B),
}

OFFSETS = (0.0, 1e-12, 1e-9, 1e-8, 1e-7)
POINTS = 6


def _targets(points, offset, seed):
    """(a (x) b) E(h + offset v) (c (x) d) for each point h, with Haar locals
    and a random unit vector v, all drawn from seed."""
    rng = np.random.default_rng(seed)
    for h in points:
        a, b, c, d = (haar_random_unitary(2, seed=int(rng.integers(1 << 30))) for _ in range(4))
        v = rng.standard_normal(3)
        shifted = np.asarray(h) + offset * v / np.linalg.norm(v)
        yield h, np.kron(a, b) @ exp_minus_iH(shifted) @ np.kron(c, d)


def _assert_compiles(points, offset, seed):
    for h, u in _targets(points, offset, seed):
        for synthesize in (synthesize_swap, synthesize_cnot):
            residual = phase_distance(evaluate_circuit(synthesize(u)), u)
            assert residual < 1e-9, (synthesize.__name__, h, offset, residual)


def test_collision_coordinates_lie_in_the_chamber():
    # The planes and segments below are drawn for this order.
    assert 0.0 < B < A < PI4


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("segment", SEGMENTS)
def test_targets_where_both_weights_collide_compile(segment, offset):
    points = [SEGMENTS[segment](t) for t in np.linspace(0.0, 1.0, POINTS)]
    _assert_compiles(points, offset, seed=list(SEGMENTS).index(segment))


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("plane", PLANES)
def test_targets_on_a_collision_plane_compile(plane, offset):
    seed = 10 + list(PLANES).index(plane)
    rng = np.random.default_rng(seed)
    points = [PLANES[plane](*rng.random(2)) for _ in range(POINTS)]
    _assert_compiles(points, offset, seed)


def test_one_eigh_per_generic_target(monkeypatch):
    calls = []
    original = np.linalg.eigh

    def counting(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    targets = [g for g in NAMED_GATES.values() if g.shape == (4, 4)]
    targets += [haar_random_unitary(4, seed=seed) for seed in range(200)]
    for u in targets:
        canonical._decompose.cache_clear()
        calls.clear()
        kak_decompose(u)
        assert calls == [(4, 4)]
