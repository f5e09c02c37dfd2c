"""Time two swapsynth trees side by side in one process, target by target.

Run from the repository root:

    python3 tools/side_by_side.py --a OTHER/src --b src
    python3 tools/side_by_side.py --a OTHER/src --b src --seed 5 --targets 6000

Each ``--a``/``--b`` is a directory that holds a ``swapsynth`` package.  The
two packages are imported from their own files under distinct module names,
so neither shadows the other and nothing is copied.  For each Haar target
the script runs ``haar-batch``'s operation pair on both trees: per backend,
``synthesize_*``, ``evaluate_circuit`` and ``phase_distance``, the swap op
first, so it misses the KAK memo and the CNOT op hits it.  Even targets run
tree a first and odd targets tree b, so that neither tree always runs
after the other.  It prints, per op and for the target as a whole, each
tree's median time in microseconds and the median over targets of the
per-target ratio b/a.  The targets are drawn from ``--seed`` by the
script's own generator, so both trees get the same matrices.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import pathlib
import statistics
import sys
import time

# One BLAS thread, as perfbench/run.py runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

OPS = ("swap", "cnot")


def load(src, name):
    """The swapsynth package under directory src, imported as module name."""
    package = pathlib.Path(src).resolve() / "swapsynth"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def haar(rng):
    """One Haar-random 4x4 unitary: QR of a complex Gaussian, R's phases fixed."""
    z = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def target_times(ss, u):
    """Seconds of the swap op and the CNOT op of one target, in that order."""
    times = []
    for synthesize in (ss.synthesize_swap, ss.synthesize_cnot):
        start = time.perf_counter()
        ss.phase_distance(ss.evaluate_circuit(synthesize(u)), u)
        times.append(time.perf_counter() - start)
    return times


def run(a, b, seed, targets):
    """{tree: {op: [seconds per target]}} for trees a and b, op "target" the sum."""
    rng = np.random.default_rng(seed)
    times = {tree: {op: [] for op in (*OPS, "target")} for tree in "ab"}
    for k in range(targets):
        u = haar(rng)
        for tree, ss in ((("a", a), ("b", b)) if k % 2 == 0 else (("b", b), ("a", a))):
            swap, cnot = target_times(ss, u)
            for op, t in (("swap", swap), ("cnot", cnot), ("target", swap + cnot)):
                times[tree][op].append(t)
    return times


def report(times):
    """Lines: per op, each tree's median in microseconds and the median b/a ratio."""
    lines = [f"{'op':8s} {'a_us':>10s} {'b_us':>10s} {'b/a':>8s}"]
    for op in (*OPS, "target"):
        a, b = times["a"][op], times["b"][op]
        ratio = statistics.median(y / x for x, y in zip(a, b))
        lines.append(
            f"{op:8s} {statistics.median(a) * 1e6:10.2f} {statistics.median(b) * 1e6:10.2f} {ratio:8.4f}"
        )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="directory that holds the first swapsynth package")
    parser.add_argument("--b", required=True, help="directory that holds the second swapsynth package")
    parser.add_argument("--seed", type=int, default=0, help="seed of the Haar targets")
    parser.add_argument("--targets", type=int, default=2000, help="number of Haar targets")
    args = parser.parse_args(argv)
    if args.targets < 1:
        parser.error("--targets must be at least 1")
    a, b = load(args.a, "swapsynth_a"), load(args.b, "swapsynth_b")
    times = run(a, b, args.seed, args.targets)
    print(f"targets {args.targets} seed {args.seed}")
    print("\n".join(report(times)))


if __name__ == "__main__":
    main()
