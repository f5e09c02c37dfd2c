"""One chamber rule: the KAK, ``in_weyl_chamber``, ``swap_angles`` and the
swap core accept exactly the same points.

The points lie on each decision boundary of the rule and around it, at the
offsets its own tolerances set: on each face, 1 ulp to either side, and
``_WALL_TOL`` and ``_CHAMBER_TOL`` to either side, each of those with its
two neighbouring floats.  They cover the hx = pi/4 wall with hz < 0, the
hx = pi/4 bound with hz >= 0, the |hz| = hy faces of both signs, the
hy = hx and hy = 0 faces, the hz = 0 line of the wall, and NaN coordinates.
Where the functions refuse a point, ``swap_angles`` and the swap core raise
the same message; where they accept it, the same exponents, bit for bit.
"""

import math

import numpy as np
import pytest

from swapsynth import canonical
from swapsynth.canonical import _CHAMBER_TOL, _WALL_TOL, in_weyl_chamber, kak_decompose
from swapsynth.linalg import ContractViolation, NumericalError, haar_random_unitary
from swapsynth.synthesis import _core_swap, swap_angles

PI4 = math.pi / 4.0


def _moved(value):
    """value, and value moved by +-_WALL_TOL and +-_CHAMBER_TOL, each with
    its two neighbouring floats."""
    for d in (0.0, _WALL_TOL, -_WALL_TOL, _CHAMBER_TOL, -_CHAMBER_TOL):
        v = value + d
        yield from (v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf))


# Each face: the point for one moved coordinate, and that coordinate's value on the face.
FACES = {
    "hx=pi/4 wall, hz<0": (lambda x: (x, 0.3, -0.1), PI4),
    "hx=pi/4 bound, hz>0": (lambda x: (x, 0.3, 0.1), PI4),
    "hz=0 on the wall": (lambda z: (PI4, 0.3, z), 0.0),
    "hz=hy": (lambda z: (0.5, 0.3, z), 0.3),
    "hz=-hy": (lambda z: (0.5, 0.3, z), -0.3),
    "hy=hx": (lambda y: (0.5, y, 0.1), 0.5),
    "hy=0": (lambda y: (0.5, y, 0.0), 0.0),
}

NAN = math.nan
NAN_POINTS = [(NAN, 0.3, 0.1), (0.5, NAN, 0.1), (0.5, 0.3, NAN), (NAN, NAN, NAN)]


def _reference(hx, hy, hz):
    """The chamber as the docstring of in_weyl_chamber states it, with its
    tolerances, written apart from the package's predicate."""
    inside = (
        hx <= PI4 + _CHAMBER_TOL
        and hy <= hx + _CHAMBER_TOL
        and abs(hz) <= hy + _CHAMBER_TOL
        and hy >= -_CHAMBER_TOL
    )
    return inside and not (hx >= PI4 - _WALL_TOL and hz < -_CHAMBER_TOL)


def _points():
    for face, (point, value) in FACES.items():
        for v in _moved(value):
            yield face, point(v)
    for h in NAN_POINTS:
        yield "nan", h


POINTS = list(_points())


def _outcome(call):
    """("ok", result) or ("refused", message) of a call that refuses by ContractViolation."""
    try:
        return "ok", call()
    except ContractViolation as exc:
        return "refused", str(exc)


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def test_each_face_has_points_on_both_sides():
    """The points probe each boundary: each face has points in and out."""
    for face in FACES:
        verdicts = {in_weyl_chamber(h) for name, h in POINTS if name == face}
        assert verdicts == {True, False}, face


@pytest.mark.parametrize("face, h", POINTS, ids=[f"{face}:{h!r}" for face, h in POINTS])
def test_swap_path_applies_the_one_rule(face, h):
    inside = in_weyl_chamber(h)
    assert inside == _reference(*h)
    angles = _outcome(lambda: swap_angles(h))
    core = _outcome(lambda: _core_swap(h))
    assert angles[0] == core[0] == ("ok" if inside else "refused")
    if inside:
        exponents = [op.alpha for op in core[1][0] if op.kind == "swap_pow"]
        assert _bits(exponents) == _bits(angles[1])
    else:
        assert core[1] == angles[1]
        assert angles[1].startswith(f"parameters {h!r} lie outside the canonical chamber")


def test_kak_applies_the_one_rule(monkeypatch):
    """The KAK refuses exactly the points in_weyl_chamber refuses, as a
    NumericalError naming them, when its gauge hands them over."""
    original = canonical._chamber_gauge
    u = haar_random_unitary(4, seed=23)
    for _, h in POINTS:
        def gauge(half, columns, h=h):
            _, slots, signs, turns = original(half, columns)
            return list(h), slots, signs, turns

        monkeypatch.setattr(canonical, "_chamber_gauge", gauge)
        canonical._decompose.cache_clear()
        try:
            params = kak_decompose(u).params
        except NumericalError as exc:
            assert not in_weyl_chamber(h), h
            assert str(exc) == f"reduction left the chamber: {canonical.CanonicalParams(*h)}"
        else:
            assert in_weyl_chamber(h), h
            assert _bits(params) == _bits(h)
    canonical._decompose.cache_clear()
