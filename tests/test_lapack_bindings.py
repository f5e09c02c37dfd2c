"""The package's LAPACK bindings are numpy's own results, to the bit.

``linalg._eigh`` and ``linalg._det`` call the gufuncs that ``np.linalg.eigh``
and ``np.linalg.det`` call, without the wrappers.  These tests feed both the
matrices the KAK feeds them, recorded from kak_decompose itself, and
compare their bytes with numpy's wrappers: the combination Re(m) + r Im(m)
and the projected u of Haar targets, the named gates, targets near the
chamber's landmarks and targets on the mixing weight's collision planes and
segments, whose reconstruction falls back to an eigh per cluster.  The
cluster blocks of each size from 1x1 to 4x4 are compared too.  A numpy
release that changes what its wrappers compute fails here, not in the bits
of a compiled circuit.
"""

import numpy as np
import pytest

from swapsynth import canonical, linalg
from swapsynth.canonical import CanonicalParams, exp_minus_iH, kak_decompose
from swapsynth.gates import NAMED_GATES
from swapsynth.linalg import haar_random_unitary
from test_mix_weight_collisions import OFFSETS, PLANES, POINTS, SEGMENTS, _targets
from test_near_degenerate import LANDMARKS


def _kak_targets():
    yield from (haar_random_unitary(4, seed=seed) for seed in range(100))
    yield from (g for g in NAMED_GATES.values() if g.shape == (4, 4))
    rng = np.random.default_rng(35)
    for h0 in LANDMARKS.values():
        for delta in (0.0, 1e-9, 1e-6):
            a, b, c, d = (haar_random_unitary(2, seed=int(rng.integers(1 << 30))) for _ in range(4))
            h = np.asarray(h0) + delta * rng.standard_normal(3)
            yield np.kron(a, b) @ exp_minus_iH(CanonicalParams(*h)) @ np.kron(c, d)
    for i, segment in enumerate(SEGMENTS):
        points = [SEGMENTS[segment](t) for t in np.linspace(0.0, 1.0, POINTS)]
        for offset in OFFSETS:
            yield from (u for _, u in _targets(points, offset, seed=i))
    for i, plane in enumerate(PLANES):
        rng = np.random.default_rng(10 + i)
        points = [PLANES[plane](*rng.random(2)) for _ in range(POINTS)]
        for offset in OFFSETS:
            yield from (u for _, u in _targets(points, offset, seed=10 + i))


@pytest.fixture(scope="module")
def fed():
    """Every matrix the KAK of each target hands to _eigh, _det and the joint
    diagonalization, recorded on the way in."""
    recorded = {"eigh": [], "det": [], "m": []}
    bindings = {"eigh": linalg._eigh, "det": linalg._det, "m": canonical.diagonalize_complex_symmetric_unitary}

    def recording(kind):
        def record(a):
            recorded[kind].append(np.array(a))
            return bindings[kind](a)

        return record

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_eigh", recording("eigh"))
        mp.setattr(linalg, "_det", recording("det"))
        mp.setattr(canonical, "diagonalize_complex_symmetric_unitary", recording("m"))
        for u in _kak_targets():
            canonical._decompose.cache_clear()
            kak_decompose(u)
    canonical._decompose.cache_clear()
    return recorded


def _assert_eigh_bytes(a):
    w, q = linalg._eigh(a)
    w_np, q_np = np.linalg.eigh(a)
    for got, want in ((w, w_np), (q, q_np)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_eigh_binding_is_numpys_on_every_kak_input(fed):
    shapes = {a.shape for a in fed["eigh"]}
    # The collision targets reach the cluster fallback, with blocks of one
    # and two columns besides the 4x4 combination.
    assert {(4, 4), (2, 2), (1, 1)} <= shapes, shapes
    for a in fed["eigh"]:
        _assert_eigh_bytes(a)


def test_eigh_binding_is_numpys_on_cluster_blocks_of_every_size(fed):
    for m in fed["m"]:
        _, q = np.linalg.eigh(m.real + linalg._MIX_WEIGHT * m.imag)
        for size in range(1, 5):
            for start in range(5 - size):
                c = np.arange(start, start + size)
                _assert_eigh_bytes(q[:, c].T @ m.imag @ q[:, c])


def test_det_binding_is_numpys_on_every_projected_target(fed):
    assert len(fed["det"]) == len(fed["m"]) > 300
    for u in fed["det"]:
        got, want = linalg._det(u), np.linalg.det(u)
        assert type(got) is type(want) is np.complex128
        assert got.tobytes() == want.tobytes()
