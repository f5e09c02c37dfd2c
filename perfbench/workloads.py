"""The three closed-loop workloads: one caller, next operation after the last.

Each workload makes all of its inputs from the seed before timing starts,
times only the calls into ``swapsynth``, and checks every output against
the benchmark's own reference (``reference.py``) outside the timed region.

* ``haar-batch``: Haar-random targets in generic position, each compiled
  by both backends and verified.  The generic batch job; KAK and synthesis
  do the work.
* ``cli-session``: a scripted user session of in-process ``cli.main``
  commands over matrix files.  Drives the CLI, the cost model and the
  entanglement analytics, and reads circuits back as well as writing them.
* ``near-degenerate``: targets a few ulps to 1e-4 away from the chamber
  landmarks, as calibrated hardware gates are.  Drives the clustered
  eigenvalue branch of the joint diagonalization and the error paths that
  Haar targets never reach.  The program fails on a share of these targets,
  so this is a diagnostic workload: BENCHMARK.json does not declare it,
  because a declared workload must be one on which no operation fails.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import sys
import time

import numpy as np

import reference as ref

# Fresh-interpreter first operation of the batch workloads, for setup_s.
FIRST_OP = """\
import json, sys
import numpy as np
import swapsynth as s
u = np.array([[complex(a, b) for a, b in row] for row in json.loads(sys.argv[1])])
for synthesize in (s.synthesize_swap, s.synthesize_cnot):
    try:
        s.phase_distance(s.evaluate_circuit(synthesize(u)), u)
    except (s.NumericalError, s.ContractViolation):
        pass
"""

# The failure kind behind contract_misfire_frac: a valid input rejected as bad input.
MISFIRE = "ContractViolation"
# Reproducers kept per failure kind.
FINGERPRINTS_KEPT = 2
# Least chamber_margin of a declared workload's Haar targets.  A declared
# workload must be one on which no operation fails, and the Jacobi-based KAK
# fails on targets within about 1e-4 of the face c3 = 0 (a local gate comes
# out non-unitary by more than 1e-10).  The worst local-gate deviation falls
# as 1/margin: 3.0e-12 over 8000 targets at this floor.  The floor keeps
# 97.5% of Haar draws; targets near the faces are near-degenerate's job.
GENERIC_MARGIN = 0.01

# A shared host can run the same code 1.5x to 2x slower for seconds to
# minutes at a time: on a 2-vCPU Xeon VM whose cores have busy neighbours,
# CPU time tracks wall time, so it is not descheduling.  A fixed piece of
# benchmark-owned work of the workload's own kind is timed just before every
# operation, and each latency is scaled by the kernel's reference time over
# that measurement: latencies read as milliseconds at the speed where the
# kernel takes its uncontended time on that VM (Workload.KERNEL_REF_S).
_KERNEL_RNG = np.random.default_rng(20041)
_KERNEL_U = ref.haar(_KERNEL_RNG, 1, 4)[0]
_KERNEL_L = ref.haar(_KERNEL_RNG, 2, 2)
_KERNEL_H = np.array([[0.3, 0.2, 0.1]])
_KERNEL_DOC = ref.matrix_to_doc(_KERNEL_U)


def numpy_kernel_seconds():
    """Best of two timings of small numpy products, as the library's own."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        v = ref.kron(_KERNEL_L[:1], _KERNEL_L[1:])[0] @ ref.core(_KERNEL_H)[0] @ _KERNEL_U
        q, _ = np.linalg.qr(v)
        ref.residual(_KERNEL_U, v * np.linalg.det(q))
        best = min(best, time.perf_counter() - t0)
    return best


def cli_kernel_seconds():
    """The numpy kernel plus best of two timings of a CLI's kind of work.

    A small argparse parser with one subcommand, and a JSON round trip of a
    matrix document.
    """
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        parser = argparse.ArgumentParser(prog="kernel")
        sub = parser.add_subparsers(dest="command")
        p = sub.add_parser("run")
        p.add_argument("--x", type=float)
        p.add_argument("--flag", action="store_true")
        parser.parse_args(["run", "--x", "1.5"])
        json.loads(json.dumps(_KERNEL_DOC))
        best = min(best, time.perf_counter() - t0)
    return best + numpy_kernel_seconds()


class Tally:
    """What one measurement saw: latencies, busy time, counts and failures."""

    def __init__(self):
        # Latency samples at reference speed, per operation kind and per target.
        self.ms = collections.defaultdict(list)
        self.raw_ms = collections.defaultdict(list)  # wall clock, for diagnostics
        self.busy_s = 0.0
        self._target_s = 0.0
        self.items = 0
        self.targets = 0
        self.targets_ok = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.kinds = {}
        self.worst_residual = 0.0
        self.fingerprints = []

    def timed(self, kind, call, scale):
        """Run ``call()`` as one operation of ``kind``, its time multiplied by ``scale``.

        Returns (result, exception or None).
        """
        self.attempted += 1
        result, error = None, None
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # every failure is counted, never fatal
            error = exc
        seconds = time.perf_counter() - t0
        self.raw_ms[kind].append(seconds * 1e3)
        self.ms[kind].append(seconds * scale * 1e3)
        self.busy_s += seconds * scale
        self._target_s += seconds * scale
        return result, error

    def end_target(self, ok):
        """Close the target whose operations were timed since the last call."""
        self.ms["target"].append(self._target_s * 1e3)
        self._target_s = 0.0
        self.targets += 1
        self.targets_ok += bool(ok)

    def fail(self, kind, fingerprint, wrong=False):
        """Count a failed operation under ``kind``; ``wrong`` marks a bad output returned as good."""
        self.failed += 1
        self.wrong += int(wrong)
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        if self.kinds[kind] <= FINGERPRINTS_KEPT:
            self.fingerprints.append(dict(fingerprint, failure=kind))

    def merge(self, other):
        for k, v in other.ms.items():
            self.ms[k] += v
        for k, v in other.raw_ms.items():
            self.raw_ms[k] += v
        for k in ("busy_s", "items", "targets", "targets_ok", "attempted", "failed", "wrong"):
            setattr(self, k, getattr(self, k) + getattr(other, k))
        for fp in other.fingerprints:
            if sum(f["failure"] == fp["failure"] for f in self.fingerprints) < FINGERPRINTS_KEPT:
                self.fingerprints.append(fp)
        for k, n in other.kinds.items():
            self.kinds[k] = self.kinds.get(k, 0) + n
        self.worst_residual = max(self.worst_residual, other.worst_residual)


def _raised_in(exc, tracer, op):
    """Public function the exception first escaped (from the trace), else its innermost package frame."""
    if tracer is not None and tracer.escapes.get(op):
        return " <- ".join(tracer.escapes[op])
    where, tb = "", exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("swapsynth."):
            where = f"{module[len('swapsynth.'):]}.{tb.tb_frame.f_code.co_name}"
        tb = tb.tb_next
    return where


class Workload:
    """Base: subclasses make inputs in ``__init__`` and run one item per ``run_item``."""

    name = ""
    per = "target"  # per-layer metrics are divided by targets, or by commands
    KERNEL_REF_S = 0.18e-3  # uncontended kernel_seconds() on the reference VM
    drawn = None  # Haar draws behind a generic-position target pool

    def __init__(self, ss, seed, workdir):
        self.ss = ss
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        # Bound before any tracer wraps the package, so reference checks stay out of the trace.
        self._to_dict = ss.circuit_to_dict
        self.op = 0

    def kernel_seconds(self):
        return numpy_kernel_seconds()

    def scale(self):
        """Factor that brings a time measured now to reference speed."""
        return self.KERNEL_REF_S / self.kernel_seconds()

    def next_op(self, tracer):
        self.op += 1
        if tracer is not None:
            tracer.start_op(self.op)
        return self.op

    def compile(self, tally, backend, u, tracer, fingerprint):
        """One target through one backend plus the program's own verification."""
        op = self.next_op(tracer)
        synthesize = getattr(self.ss, f"synthesize_{backend}")

        def call():
            circuit = synthesize(u)
            self.ss.phase_distance(self.ss.evaluate_circuit(circuit), u)
            return circuit

        circuit, error = tally.timed(backend, call, self.scale())
        fingerprint = dict(fingerprint, seed=self.seed, backend=backend)
        if error is not None:
            kind = type(error).__name__
            if kind not in ("NumericalError", MISFIRE):
                kind = f"exception:{kind}"
            tally.fail(kind, dict(fingerprint, raised_in=_raised_in(error, tracer, op), message=str(error)[:160]))
            return False
        res = ref.residual(u, ref.unitary_from_doc(self._to_dict(circuit)))
        tally.worst_residual = max(tally.worst_residual, res)
        if not res < ref.RESIDUAL_LIMIT:
            tally.fail("residual_miss", dict(fingerprint, residual=res), wrong=True)
            return False
        return True

    def setup_argv(self):
        return [sys.executable, "-c", FIRST_OP, json.dumps(ref.matrix_to_doc(self.first_target())["rows"])]


class HaarBatch(Workload):
    name = "haar-batch"
    POOL = 16384

    def __init__(self, ss, seed, workdir):
        super().__init__(ss, seed, workdir)
        self.targets, self.drawn = ref.generic_haar(self.rng, self.POOL, GENERIC_MARGIN)

    def first_target(self):
        return self.targets[0]

    def run_item(self, i, tally, tracer=None):
        k = i % self.POOL
        u = self.targets[k]
        ok = [self.compile(tally, b, u, tracer, {"target": k}) for b in ("swap", "cnot")]
        tally.end_target(all(ok))
        tally.items += 1


class NearDegenerate(Workload):
    """Rounds of one target per (landmark, delta): (a(x)b) E(h0 + delta N(0,1)^3) (c(x)d).

    Diagnostic only: on the parent commit about 17% of its operations fail.
    """

    name = "near-degenerate"
    LANDMARKS = {
        "cnot": (np.pi / 4, 0.0, 0.0),
        "b": (np.pi / 4, np.pi / 8, 0.0),
        "swap": (np.pi / 4, np.pi / 4, np.pi / 4),
        "iswap": (np.pi / 4, np.pi / 4, 0.0),
        "identity": (0.0, 0.0, 0.0),
    }
    DELTAS = (0.0, 1e-9, 1e-8, 1e-7, 1e-6, 1e-4)
    ROUNDS = 512

    def __init__(self, ss, seed, workdir):
        super().__init__(ss, seed, workdir)
        points = [(lm, d) for lm in self.LANDMARKS for d in self.DELTAS]
        n = self.ROUNDS * len(points)
        a, b, c, e = ref.haar(self.rng, 4 * n, 2).reshape(4, n, 2, 2)
        h0 = np.tile([self.LANDMARKS[lm] for lm, _ in points], (self.ROUNDS, 1))
        delta = np.tile([d for _, d in points], self.ROUNDS)[:, None]
        us = ref.kron(a, b) @ ref.core(h0 + delta * self.rng.standard_normal((n, 3))) @ ref.kron(c, e)
        self.rounds = [
            [(lm, d, us[r * len(points) + j]) for j, (lm, d) in enumerate(points)] for r in range(self.ROUNDS)
        ]

    def first_target(self):
        return self.rounds[0][0][2]

    def run_item(self, i, tally, tracer=None):
        r = i % self.ROUNDS
        for lm, d, u in self.rounds[r]:
            fp = {"round": r, "landmark": lm, "delta": d}
            ok = [self.compile(tally, b, u, tracer, fp) for b in ("swap", "cnot")]
            tally.end_target(all(ok))
        tally.items += 1


class CliSession(Workload):
    """One session per target file: random, synth and verify on both backends, cost, compare, analyze."""

    name = "cli-session"
    per = "command"
    POOL = 512
    # Monte Carlo samples for `analyze ep-matrix`: enough to exercise the
    # batched estimator, few enough that it stays below a synth command.
    EP_SAMPLES = 2000
    EXIT_KINDS = {1: "residual_miss", 2: MISFIRE, 3: "NumericalError"}

    def __init__(self, ss, seed, workdir):
        super().__init__(ss, seed, workdir)
        self.targets, self.drawn = ref.generic_haar(self.rng, self.POOL, GENERIC_MARGIN)
        self.files = []
        for k, u in enumerate(self.targets):
            path = os.path.join(workdir, f"target_{k:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(ref.matrix_to_doc(u), fh)
            self.files.append(path)
        self.seeds = self.rng.integers(0, 2**31, self.POOL)

    def first_target(self):
        return self.targets[0]

    def setup_argv(self):
        return [sys.executable, "-m", "swapsynth", "synth", "--gate", "cnot", "--json"]

    KERNEL_REF_S = 0.6e-3

    def kernel_seconds(self):
        return cli_kernel_seconds()

    def session(self, k):
        """(kind, argv, check) per command; check(report, u) returns a residual or raises ValueError."""
        f, w, s = self.files[k], self.workdir, str(self.seeds[k])
        cs, cc = os.path.join(w, "swap.json"), os.path.join(w, "cnot.json")
        return [
            ("random", ["random", "--seed", s, "--count", "1", "--out", os.path.join(w, "random"), "--json"], self._check_random),
            ("swap", ["synth", "--matrix", f, "--backend", "swap", "--out", cs, "--json"], self._check_circuit),
            ("verify", ["verify", cs, "--matrix", f, "--json"], self._check_verify),
            ("cnot", ["synth", "--matrix", f, "--backend", "cnot", "--out", cc, "--json"], self._check_circuit),
            ("verify", ["verify", cc, "--matrix", f, "--json"], self._check_verify),
            ("cost", ["cost", cs, "--profile", "gaas", "--json"], self._check_cost),
            ("compare", ["cost", "--compare", "--matrix", f, "--profile", "si", "--json"], self._check_compare),
            ("analyze", ["analyze", "ep-matrix", "--matrix", f, "--samples", str(self.EP_SAMPLES), "--seed", s, "--json"], self._check_ep),
        ]

    @staticmethod
    def _check_random(report, u):
        with open(report["files"][0], encoding="utf-8") as fh:
            if not ref.is_unitary(ref.matrix_from_doc(json.load(fh))):
                raise ValueError("random wrote a matrix that is not unitary")
        return 0.0

    @staticmethod
    def _check_circuit(report, u):
        with open(report["circuit_file"], encoding="utf-8") as fh:
            return ref.residual(u, ref.unitary_from_doc(json.load(fh)))

    @staticmethod
    def _check_verify(report, u):
        if report["pass"] is not True:
            raise ValueError("verify did not pass")
        return 0.0

    @staticmethod
    def _check_cost(report, u):
        layers = sum(layer["duration_s"] for layer in report["layers"])
        if not report["total_time_s"] > 0 or abs(layers - report["total_time_s"]) > 1e-12 * layers:
            raise ValueError(f"schedule total {report['total_time_s']} is not the sum of its layers {layers}")
        return 0.0

    @staticmethod
    def _check_compare(report, u):
        if not all(entry["total_time_s"] > 0 for entry in report["backends"].values()):
            raise ValueError("a backend has no positive total time")
        return float(report["naive_verification_phase_distance"])

    @staticmethod
    def _check_ep(report, u):
        mc = report["monte_carlo"]
        value = report["entangling_power"]
        if abs(mc["mean"] - value) > 6.0 * mc["std_error"] + 1e-12:
            raise ValueError(f"Monte Carlo mean {mc['mean']} is 6 standard errors from {value}")
        return abs(value - ref.entangling_power(u))

    def run_item(self, i, tally, tracer=None):
        k = i % self.POOL
        u = self.targets[k]
        main = self.ss.cli.main
        ok = True
        for kind, argv, check in self.session(k):
            op = self.next_op(tracer)
            out, err = io.StringIO(), io.StringIO()

            def call():
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return main(argv)

            code, error = tally.timed(kind, call, self.scale())
            fp = {"seed": self.seed, "target": k, "command": kind}
            if code != 0:
                failure = self.EXIT_KINDS.get(code, f"cli_exit_{code}") if error is None else f"exception:{type(error).__name__}"
                where = " <- ".join(tracer.escapes.get(op, [])) if tracer is not None else ""
                tally.fail(failure, dict(fp, raised_in=where, message=(err.getvalue() or str(error)).strip()[:160]))
                ok = False
                continue
            try:
                res = check(json.loads(out.getvalue()), u)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                tally.fail("check_miss", dict(fp, message=str(exc)[:160]), wrong=True)
                ok = False
                continue
            tally.worst_residual = max(tally.worst_residual, res)
            if not res < ref.RESIDUAL_LIMIT:
                tally.fail("residual_miss", dict(fp, residual=res), wrong=True)
                ok = False
        tally.end_target(ok)
        tally.items += 1


WORKLOADS = {w.name: w for w in (HaarBatch, CliSession, NearDegenerate)}
