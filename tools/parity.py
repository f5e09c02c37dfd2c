"""Bit-parity hashes of swapsynth's compiled outputs over a fixed target set.

Run from the repository root, against this checkout or another one:

    python3 tools/parity.py                     # the package under ./src
    python3 tools/parity.py --src OTHER/src     # another checkout's package

It prints the number of targets and two sha256 values.  Two versions of
the package whose hashes are equal compiled every target to the same
bits.  The 3,288 targets are:

- Haar-random 4x4 unitaries, seeds 0-2999;
- the six 4x4 named gates;
- 12 near-landmark targets: Haar locals around E(h) for 12 chamber
  landmarks and edge points, h moved 1e-9 in a random direction, all drawn
  from ``default_rng(7)``;
- 270 targets on the mixing weight's collision planes and segments, built
  as ``tests/test_mix_weight_collisions.py`` builds them: every plane and
  segment at every offset, six points each.

Each target is compiled with the KAK memo emptied.  ``outputs`` hashes,
per target, its name, the float64 bytes of ``kak_decompose``'s params and
global phase, the bytes of its four local factors and the sorted-key JSON
of ``circuit_to_dict`` of both backends.  ``outputs_and_evaluate`` adds the
``evaluate_circuit`` bytes of the swap, CNOT and CNOT-expanded circuits.
Each part is framed by its length, so no two records hash alike by
concatenation.  The targets are built with the package under test, so a
change to ``haar_random_unitary`` or ``exp_minus_iH`` shows too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import sys

# One BLAS thread, as perfbench/run.py runs: the eigensolver's bits must
# not depend on how the host splits a 4x4.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent

# linalg._MIX_WEIGHT and the weight it replaced, as
# tests/test_mix_weight_collisions.py reads them.  Fixed here, so that the
# target set stays the same if the package's weight changes.
MIX_WEIGHT = 1.1842932116394713
OLD_WEIGHT = -0.5501638305515631
PI4 = math.pi / 4.0
A = math.atan(abs(MIX_WEIGHT)) / 2.0
B = math.atan(abs(OLD_WEIGHT)) / 2.0

PLANES = {
    "hx=A": lambda s, t: (A, A * s, A * s * (2.0 * t - 1.0)),
    "hy=A": lambda s, t: (A + (PI4 - A) * s, A, A * (2.0 * t - 1.0)),
    "hz=A": lambda s, t: (A + (PI4 - A) * s, A + (PI4 - A) * s * t, A),
    "hz=-A": lambda s, t: (A + (PI4 - A) * s, A + (PI4 - A) * s * t, -A),
}
SEGMENTS = {
    "hx=A,hy=B": lambda t: (A, B, B * (2.0 * t - 1.0)),
    "hx=A,hz=B": lambda t: (A, B + (A - B) * t, B),
    "hx=A,hz=-B": lambda t: (A, B + (A - B) * t, -B),
    "hy=A,hz=B": lambda t: (A + (PI4 - A) * t, A, B),
    "hy=A,hz=-B": lambda t: (A + (PI4 - A) * t, A, -B),
}
OFFSETS = (0.0, 1e-12, 1e-9, 1e-8, 1e-7)
POINTS = 6

# Chamber landmarks (identity, CNOT, DCNOT, SWAP, their square roots, the
# B gate) and points on its edges and the hx = pi/4 wall.
LANDMARKS = (
    (0.0, 0.0, 0.0),
    (PI4, 0.0, 0.0),
    (PI4, PI4, 0.0),
    (PI4, PI4, PI4),
    (PI4 / 2.0, 0.0, 0.0),
    (PI4 / 2.0, PI4 / 2.0, PI4 / 2.0),
    (PI4 / 2.0, PI4 / 2.0, -PI4 / 2.0),
    (PI4, PI4 / 2.0, 0.0),
    (PI4, PI4 / 2.0, PI4 / 2.0),
    (0.3, 0.3, 0.0),
    (0.3, 0.3, -0.3),
    (PI4, 0.5, 0.2),
)


def _moved(package, points, offset, rng):
    """(a (x) b) E(h + offset v) (c (x) d) for each point h, with Haar locals
    and a random unit vector v drawn from rng, in the order
    tests/test_mix_weight_collisions.py draws them."""
    haar, core = package.linalg.haar_random_unitary, package.canonical.exp_minus_iH
    for h in points:
        a, b, c, d = (haar(2, seed=int(rng.integers(1 << 30))) for _ in range(4))
        v = rng.standard_normal(3)
        yield np.kron(a, b) @ core(np.asarray(h) + offset * v / np.linalg.norm(v)) @ np.kron(c, d)


def targets(package):
    """(name, 4x4 unitary) for every target of the set, in a fixed order."""
    for seed in range(3000):
        yield f"haar-{seed}", package.linalg.haar_random_unitary(4, seed=seed)
    for name, gate in sorted(package.gates.NAMED_GATES.items()):
        if gate.shape == (4, 4):
            yield f"named-{name}", gate
    for i, u in enumerate(_moved(package, LANDMARKS, 1e-9, np.random.default_rng(7))):
        yield f"landmark-{i}", u
    for i, segment in enumerate(SEGMENTS):
        points = [SEGMENTS[segment](t) for t in np.linspace(0.0, 1.0, POINTS)]
        for offset in OFFSETS:
            for j, u in enumerate(_moved(package, points, offset, np.random.default_rng(i))):
                yield f"segment-{segment}-{offset}-{j}", u
    for i, plane in enumerate(PLANES):
        for offset in OFFSETS:
            rng = np.random.default_rng(10 + i)
            points = [PLANES[plane](*rng.random(2)) for _ in range(POINTS)]
            for j, u in enumerate(_moved(package, points, offset, rng)):
                yield f"plane-{plane}-{offset}-{j}", u


def _framed(hasher, parts):
    for part in parts:
        hasher.update(len(part).to_bytes(8, "little"))
        hasher.update(part)


def parity(package):
    """(target count, outputs sha256, outputs_and_evaluate sha256)."""
    canonical, synthesis = package.canonical, package.synthesis
    outputs, with_evaluate = hashlib.sha256(), hashlib.sha256()
    count = 0
    for name, u in targets(package):
        canonical._decompose.cache_clear()
        dec = canonical.kak_decompose(u)
        swap, cnot = synthesis.synthesize_swap(u), synthesis.synthesize_cnot(u)
        parts = [
            name.encode(),
            np.array([*dec.params, dec.global_phase], dtype=float).tobytes(),
            *(np.ascontiguousarray(f).tobytes() for f in (*dec.front, *dec.back)),
            *(json.dumps(synthesis.circuit_to_dict(c), sort_keys=True).encode() for c in (swap, cnot)),
        ]
        circuits = (swap, cnot, synthesis.expand_cnots_to_swaps(cnot))
        _framed(outputs, parts)
        _framed(with_evaluate, parts + [synthesis.evaluate_circuit(c).tobytes() for c in circuits])
        count += 1
    return count, outputs.hexdigest(), with_evaluate.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory that holds the swapsynth package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(pathlib.Path(args.src).resolve()))
    import swapsynth.canonical
    import swapsynth.gates
    import swapsynth.linalg
    import swapsynth.synthesis

    count, outputs, with_evaluate = parity(swapsynth)
    print(f"targets {count}")
    print(f"outputs {outputs}")
    print(f"outputs_and_evaluate {with_evaluate}")


if __name__ == "__main__":
    main()
