"""Time two swapsynth trees side by side in one process, target by target.

Run from the repository root:

    python3 tools/side_by_side.py --a OTHER/src --b src
    python3 tools/side_by_side.py --a OTHER/src --b src --seed 5 --targets 6000
    python3 tools/side_by_side.py --a OTHER/src --b src --workload cli-session --targets 2000

Each ``--a``/``--b`` is a directory that holds a ``swapsynth`` package.  The
two packages are imported from their own files under distinct module names,
so neither shadows the other and nothing is copied.  Per Haar target, the
script runs one workload's operations on both trees.  Even targets run
tree a first and odd targets tree b, so that neither tree always runs
after the other.  It prints, per op and for the target as a whole, each
tree's median time in microseconds and the median over targets of the
per-target ratio b/a.  The targets are drawn from ``--seed`` by the
script's own generator, so both trees get the same matrices.

``--workload haar-batch`` (the default) runs ``haar-batch``'s operation
pair: per backend, ``synthesize_*``, ``evaluate_circuit`` and
``phase_distance``, the swap op first, so it misses the KAK memo and the
CNOT op hits it.  ``--workload cli-session`` writes the target to a matrix
file in the tree's own temporary directory and runs ``cli-session``'s eight
commands through the tree's ``cli.main``, standard output captured:
``random``; ``synth --out`` and ``verify`` on the swap backend, then on the
CNOT backend; ``cost``; ``cost --compare``; ``analyze ep-matrix --samples
2000``.  Its ``verify`` row holds both verify commands, and its
``session`` row the sum of the eight.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import importlib.util
import io
import json
import os
import pathlib
import statistics
import sys
import tempfile
import time

# One BLAS thread, as perfbench/run.py runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402


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


def haar_batch_times(ss, u, k):
    """(op, seconds) of the swap op, the CNOT op and their sum, on target u."""
    times = []
    for synthesize in (ss.synthesize_swap, ss.synthesize_cnot):
        start = time.perf_counter()
        ss.phase_distance(ss.evaluate_circuit(synthesize(u)), u)
        times.append(time.perf_counter() - start)
    swap, cnot = times
    return [("swap", swap), ("cnot", cnot), ("target", swap + cnot)]


def cli_session_times(cli, work, u, k):
    """(command, seconds) of each cli-session command on target u, and of
    the session, run by cli.main on files in directory work."""
    # A new file per target: rewriting one through truncation would make
    # ext4 flush it on close, a wait longer than the session itself.
    f = os.path.join(work, f"target_{k:06d}.json")
    with open(f, "x", encoding="utf-8") as fh:
        json.dump({"dim": 4, "rows": [[[z.real, z.imag] for z in row] for row in u.tolist()]}, fh)
    cs, cc, s = os.path.join(work, "swap.json"), os.path.join(work, "cnot.json"), str(k)
    commands = [
        ("random", ["random", "--seed", s, "--count", "1", "--out", os.path.join(work, "random"), "--json"]),
        ("swap", ["synth", "--matrix", f, "--backend", "swap", "--out", cs, "--json"]),
        ("verify", ["verify", cs, "--matrix", f, "--json"]),
        ("cnot", ["synth", "--matrix", f, "--backend", "cnot", "--out", cc, "--json"]),
        ("verify", ["verify", cc, "--matrix", f, "--json"]),
        ("cost", ["cost", cs, "--profile", "gaas", "--json"]),
        ("compare", ["cost", "--compare", "--matrix", f, "--profile", "si", "--json"]),
        ("analyze", ["analyze", "ep-matrix", "--matrix", f, "--samples", "2000", "--seed", s, "--json"]),
    ]
    times = []
    for kind, argv in commands:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        times.append((kind, time.perf_counter() - start))
        if code != 0:
            raise SystemExit(f"{kind} exited {code} on target {k}: {err.getvalue().strip()}")
    times.append(("session", sum(t for _, t in times)))
    return times


def run(steps, seed, targets):
    """{tree: {op: [seconds per target]}}, steps[tree](u, k) giving each
    target's (op, seconds) on that tree."""
    rng = np.random.default_rng(seed)
    times = {tree: {} for tree in "ab"}
    for k in range(targets):
        u = haar(rng)
        for tree in "ab" if k % 2 == 0 else "ba":
            for op, t in steps[tree](u, k):
                times[tree].setdefault(op, []).append(t)
    return times


def report(times):
    """Lines: per op, each tree's median in microseconds and the median b/a ratio."""
    lines = [f"{'op':8s} {'a_us':>10s} {'b_us':>10s} {'b/a':>8s}"]
    for op, a in times["a"].items():
        b = times["b"][op]
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
    parser.add_argument(
        "--workload", choices=("haar-batch", "cli-session"), default="haar-batch", help="operations timed per target"
    )
    args = parser.parse_args(argv)
    if args.targets < 1:
        parser.error("--targets must be at least 1")
    trees = {"a": load(args.a, "swapsynth_a"), "b": load(args.b, "swapsynth_b")}
    with tempfile.TemporaryDirectory() as work:
        if args.workload == "haar-batch":
            steps = {tree: functools.partial(haar_batch_times, ss) for tree, ss in trees.items()}
        else:
            steps = {}
            for tree, ss in trees.items():
                os.mkdir(os.path.join(work, tree))
                cli = importlib.import_module(ss.__name__ + ".cli")
                steps[tree] = functools.partial(cli_session_times, cli, os.path.join(work, tree))
        times = run(steps, args.seed, args.targets)
    print(f"targets {args.targets} seed {args.seed}")
    print("\n".join(report(times)))


if __name__ == "__main__":
    main()
