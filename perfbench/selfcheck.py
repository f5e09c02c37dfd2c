"""Smoke-size self-check of the benchmark itself.  Run from the repository root:

    python3 perfbench/selfcheck.py

Checks that every workload prints every metric BENCHMARK.json names, with
its unit, in both modes; that no operation fails on a declared workload;
that every function the declared workloads' traced traffic calls is
declared, and every declared function exists in the package; that a declared metric the run does not measure is an
error; that a deliberately corrupted circuit is caught by the reference
check, through the same path the timed loop uses; and that the benchmark
refuses to run, without printing a result, where there is no source tree.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import types

import run  # pins BLAS threads before numpy loads
import numpy as np
import reference as ref
import workloads
from tracer import Tracer

SMOKE_SECONDS = 1.5


def expect(ok, *detail):
    """A check that also runs under ``python -O``, where assert statements are dropped."""
    if not ok:
        raise AssertionError(detail)


def check_metrics():
    functions = set(Tracer(run.import_package()).functions)
    stats = (".calls", ".total_ms", ".self_ms")
    per_layer = {m["name"] for m in run.declared("per_layer")}
    for name in per_layer - {"trace.overhead"}:
        expect(name.rsplit(".", 1)[0] in functions, "BENCHMARK.json names a function the package does not have", name)
    declared_workloads = {w["name"] for w in run.declared("workloads")}
    expect(declared_workloads <= set(workloads.WORKLOADS), declared_workloads)
    for name in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=name, seed=7, seconds=SMOKE_SECONDS, trace=trace)
            record, _ = run.run_workload(name, args)
            got = record["metrics"]
            for m in run.declared(kind):
                value = got[m["name"]]
                expect(value["unit"] == m["unit"], (name, m["name"], value))
                expect(isinstance(value["value"], float) and math.isfinite(value["value"]), (name, m["name"], value))
            expect(record["correct"] and record["attempted"] > 0, (name, trace, record["diagnostics"]))
            if name in declared_workloads:
                # A declared workload is one on which no operation fails.
                expect(record["failed"] == 0, (name, trace, record["diagnostics"]["failures"]))
            if trace and name in declared_workloads:
                # Every function the declared traffic calls is compared.
                layers = record["diagnostics"]["timing"]["layers"]
                called = {k[: -len(".calls")] for k in layers if k.endswith(".calls") and layers[k] > 0}
                needed = {f + s for f in called for s in stats}
                expect(needed <= per_layer, (name, "called but not declared", sorted(needed - per_layer)))
            print(f"ok  {name} trace {trace}: {len(got)} metrics, {record['attempted']} operations")


def check_undeclared_function_refused():
    """A declared function the package no longer has is an error, never a zero."""
    expect(run.declared_value({"linalg.project_su.calls": 1.0}, "linalg.project_su.calls") == 1.0)
    for name in ("linalg.no_such_function.self_ms", "linalg.project_su.raised.Numerical"):
        try:
            run.declared_value({"linalg.project_su.calls": 1.0}, name)
        except KeyError:
            continue
        expect(False, "an unmeasured metric read as a value", name)
    print("ok  a declared metric the run does not measure is refused")


def check_corruption():
    swapsynth = run.import_package()
    workdir = os.path.join(run.OUT_DIR, "selfcheck")
    os.makedirs(workdir, exist_ok=True)

    def corrupted_swap(u):
        circuit = swapsynth.synthesize_swap(u)
        op = next(op for op in circuit.ops if op.kind == "swap_pow")
        op.alpha += 1e-3
        return circuit

    fake = types.SimpleNamespace(**vars(swapsynth))
    fake.synthesize_swap = corrupted_swap
    batch = workloads.HaarBatch(fake, 7, workdir)
    tally = workloads.Tally()
    batch.run_item(0, tally)
    expect(tally.wrong == 1 and tally.kinds == {"residual_miss": 1}, tally.kinds)
    expect(tally.targets == 1 and tally.targets_ok == 0, tally.targets, tally.targets_ok)
    print(f"ok  corrupted swap circuit caught: residual {tally.fingerprints[0]['residual']:.2e}")

    u = batch.targets[0]
    doc = swapsynth.circuit_to_dict(swapsynth.synthesize_cnot(u))
    expect(ref.residual(u, ref.unitary_from_doc(doc)) < ref.RESIDUAL_LIMIT, "clean circuit misses")
    # A unitary but wrong local gate: its second row picks up a phase of 0.01.
    entry = next(e for e in doc["ops"] if e["kind"] == "local")
    entry["matrix"][1] = [[z.real, z.imag] for z in (complex(*c) * np.exp(0.01j) for c in entry["matrix"][1])]
    path = os.path.join(workdir, "corrupt.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    residual = workloads.CliSession._check_circuit({"circuit_file": path}, u)
    expect(residual >= ref.RESIDUAL_LIMIT, residual)
    print(f"ok  corrupted circuit file caught: residual {residual:.2e}")
    shutil.rmtree(workdir)


def check_refuses_without_source():
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "haar-batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    expect(out.returncode != 0 and '"correct"' not in out.stdout, (out.returncode, out.stdout))
    print(f"ok  refuses without src/: exit {out.returncode}, no result printed")


def main():
    check_corruption()
    check_refuses_without_source()
    check_undeclared_function_refused()
    check_metrics()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
