"""swapsynth benchmark: closed-loop workloads timed from outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload haar-batch --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5      # one row per workload

``--trace 0`` times the calls with tracing off and reports the end-to-end
metrics named in BENCHMARK.json.  ``--trace 1`` alternates untraced and
traced items, wraps every public package function in a span recorder for
the traced ones, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record, with
the failure taxonomy, reproducers and run metadata, goes to
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

# One caller on 4x4 matrices: BLAS threads only add contention.  Pinned
# before numpy loads, never above the cores this process may use.
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(max(1, min(int(os.environ.get(_var) or 1), NPROC)))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
# Fresh interpreters timed per run for setup_s, and the calibration kernel
# timings around each one whose median scales it.
SETUP_REPEATS = 15
SETUP_KERNEL_REPEATS = 9
# Untimed items run before timing starts; what they pay shows in setup_s.
WARMUP_ITEMS = 2
# Rows the traced run prints in the form of the ROADMAP baseline table.
PER_CALL_ROWS = (
    "canonical.kak_decompose",
    "synthesis.synthesize_swap",
    "synthesis.synthesize_cnot",
    "costmodel.compare_backends",
    "synthesis.evaluate_circuit",
    "entanglement.ep_exact",
)


def percentile(values, q):
    return float(np.percentile(values, q))


def fresh_interpreter_seconds(workload):
    """Time for a fresh interpreter to import swapsynth and finish the workload's first operation.

    Scaled to reference speed like every other time, by the median of the
    calibration kernel timed just before and just after it.
    Returns (scaled seconds, wall seconds).
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    kernel = [workload.kernel_seconds() for _ in range(SETUP_KERNEL_REPEATS)]
    t0 = time.perf_counter()
    subprocess.run(workload.setup_argv(), env=env, cwd=workload.workdir, stdout=subprocess.DEVNULL, check=True)
    seconds = time.perf_counter() - t0
    kernel += [workload.kernel_seconds() for _ in range(SETUP_KERNEL_REPEATS)]
    return seconds * workload.KERNEL_REF_S / float(np.median(kernel)), seconds


def measure(workload, seconds, tracer=None):
    """Closed loop for ``seconds``; with a tracer, odd items run traced.

    An untraced run also times SETUP_REPEATS fresh interpreters, spread
    evenly over the run so that their median does not hang on one moment
    of the host's load.  Returns (untraced tally, traced tally, setup times).
    """
    for i in range(WARMUP_ITEMS):
        workload.run_item(i, workloads.Tally())
    plain, traced, setups = workloads.Tally(), workloads.Tally(), []
    repeats = 0 if tracer is not None else SETUP_REPEATS
    start = time.perf_counter()
    i = 0
    # A traced run needs at least one untraced and one traced item.
    while time.perf_counter() < start + seconds or i < (2 if tracer is not None else 1):
        if len(setups) < repeats and time.perf_counter() - start >= len(setups) * seconds / repeats:
            setups.append(fresh_interpreter_seconds(workload))
        if tracer is not None and i % 2:
            tracer.install()
            try:
                workload.run_item(WARMUP_ITEMS + i, traced, tracer)
            finally:
                tracer.uninstall()
        else:
            workload.run_item(WARMUP_ITEMS + i, plain)
        i += 1
    setups += [fresh_interpreter_seconds(workload) for _ in range(repeats - len(setups))]
    return plain, traced, setups


def end_to_end(tally, setup_s):
    ms = tally.ms
    return {
        "setup_s": setup_s,
        "targets_per_s": tally.targets_ok / tally.busy_s,
        "target_p50_ms": percentile(ms["target"], 50),
        "swap_p50_ms": percentile(ms["swap"], 50),
        "cnot_p50_ms": percentile(ms["cnot"], 50),
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "accepted_frac": 1.0 - tally.kinds.get(workloads.MISFIRE, 0) / tally.attempted,
    }


def per_layer(tracer, plain, traced, per):
    """Per-function stats per target or per command, plus the traced/untraced slowdown."""
    count = traced.targets if per == "target" else traced.attempted
    flat = {
        f"{fn}.{stat}": value
        for fn, stats in tracer.summary(max(count, 1)).items()
        for stat, value in stats.items()
    }
    flat["trace.overhead"] = (traced.busy_s / traced.attempted) / (plain.busy_s / plain.attempted)
    return flat


def git_sha():
    """HEAD of the checkout; "unknown" outside a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(args, tally, workload):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": NPROC,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": tally.items,
        "targets": tally.targets,
        "operations": tally.attempted,
        "haar_pool": None
        if workload.drawn is None
        else {"kept": len(workload.targets), "drawn": workload.drawn, "margin": workloads.GENERIC_MARGIN},
    }


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


def declared_value(values, name):
    """The measured value of a declared metric.

    A declared name that the run did not measure, such as a function
    renamed or removed from the package, is an error: read as 0 it would
    look like a gain.
    """
    if name not in values:
        raise KeyError(f"BENCHMARK.json names {name!r}, which this run does not measure")
    return values[name]


def import_package():
    """The package under test, imported from the checkout's src/ as the tests do."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import swapsynth
    import swapsynth.cli  # not imported by the package itself

    return swapsynth


def run_workload(name, args):
    """Measure one workload; returns (result record, human-readable lines)."""
    swapsynth = import_package()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[name](swapsynth, args.seed, workdir)
        tracer = Tracer(swapsynth) if args.trace else None
        plain, traced, setups = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    whole = workloads.Tally()
    whole.merge(traced)  # first, so reproducers carry the trace's escape chain when there is one
    whole.merge(plain)
    timing = {
        "wall_clock_p50_ms": {k: percentile(v, 50) for k, v in plain.raw_ms.items()},
        # Tails are reported, not compared: on a shared host they move with
        # the neighbours' bursts more than with the program (see README).
        "tails_ms": {
            k: {"n": len(v), **{f"p{q}": percentile(v, q) for q in (50, 90, 99)}} for k, v in plain.ms.items()
        },
    }
    if args.trace:
        values = per_layer(tracer, plain, traced, workload.per)
        tracer.write(os.path.join(OUT_DIR, f"spans-{name}.csv"))
        timing.update(per_layer_per=workload.per, layers=values)
    else:
        values = end_to_end(plain, float(np.median([scaled for scaled, _ in setups])))
        timing["setup_wall_s"] = float(np.median([wall for _, wall in setups]))

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": declared_value(values, m["name"]), "unit": m["unit"]} for m in declared(kind)}
    if not args.trace and set(metrics) != set(values):
        raise KeyError(f"BENCHMARK.json end_to_end {sorted(metrics)} != measured {sorted(values)}")
    record = {
        "workload": name,
        "correct": whole.wrong == 0,
        "attempted": whole.attempted,
        "failed": whole.failed,
        "metrics": metrics,
        "diagnostics": {
            "failed_frac": whole.failed / whole.attempted,
            "contract_misfire_frac": whole.kinds.get(workloads.MISFIRE, 0) / whole.attempted,
            "failures": whole.kinds,
            "reproducers": whole.fingerprints,
            "worst_residual": whole.worst_residual,
            "samples": {k: len(v) for k, v in whole.ms.items()},
            "timing": timing,
        },
        "meta": metadata(args, whole, workload),
    }
    path = os.path.join(OUT_DIR, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
    return record, report_lines(record)


def report_lines(record):
    d, meta, timing = record["diagnostics"], record["meta"], record["diagnostics"]["timing"]
    lines = [f"== {record['workload']}  seed {meta['seed']}  {meta['seconds']} s  trace {meta['trace']}"]
    layers = timing.get("layers")
    if layers is None:
        n = record["diagnostics"]["samples"]
        lines.append("  times at reference speed (Workload.KERNEL_REF_S)")
        for name, m in record["metrics"].items():
            kind = name.split("_")[0]
            note = f"  (n={n[kind]})" if kind in n else ""
            lines.append(f"  {name:<16} {m['value']:>12.6g} {m['unit']}{note}")
        lines.append(f"  setup wall clock (diagnostic): {timing['setup_wall_s']:.4g} s")
        for kind, t in sorted(timing["tails_ms"].items()):
            lines.append(
                f"  {kind:<8} n={t['n']:<6} p50 {t['p50']:.4g}  p90 {t['p90']:.4g}  p99 {t['p99']:.4g} ms"
                f"  (wall-clock p50 {timing['wall_clock_p50_ms'].get(kind, float('nan')):.4g} ms; diagnostic)"
            )
    lines.append(
        f"  failed_frac {d['failed_frac']:.6g}  contract_misfire_frac {d['contract_misfire_frac']:.6g}"
        f"  ({record['failed']}/{record['attempted']} operations)"
    )
    lines.append(f"  failures: {json.dumps(d['failures'], sort_keys=True)}")
    lines += [f"  reproducer: {json.dumps(fp, default=float)}" for fp in d["reproducers"]]
    lines.append(f"  worst residual (diagnostic): {d['worst_residual']:.3e}")
    lines.append(f"  meta: {json.dumps(meta, sort_keys=True)}")
    if layers is not None:
        per = timing["per_layer_per"]
        lines.append(f"  tracing overhead: {layers['trace.overhead']:.3f}x untraced time per operation")
        lines.append(f"  | Call | Calls per {per} | Time per call (traced) |")
        lines.append("  |---|---|---|")
        for fn in PER_CALL_ROWS:
            calls = layers.get(f"{fn}.calls", 0.0)
            if calls:
                lines.append(f"  | `{fn.split('.')[1]}` | {calls:.3g} | {layers[f'{fn}.total_ms'] / calls:.3f} ms |")
        lines.append(f"  {'function (per ' + per + ')':<52} {'calls':>8} {'total_ms':>9} {'self_ms':>9}  raised")
        by_self = sorted(
            {k.rsplit(".", 1)[0] for k in layers if k.endswith(".calls") and layers[k]},
            key=lambda fn: -layers[f"{fn}.self_ms"],
        )
        for fn in by_self:
            raised = {k.split(".raised.")[1]: v for k, v in layers.items() if k.startswith(fn + ".raised.")}
            lines.append(
                f"  {fn:<52} {layers[fn + '.calls']:>8.3f} {layers[fn + '.total_ms']:>9.4f}"
                f" {layers[fn + '.self_ms']:>9.4f}  {json.dumps(raised) if raised else ''}"
            )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    for needed in ("BENCHMARK.json", os.path.join("src", "swapsynth", "__init__.py")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found; run from the repository root", file=sys.stderr)
            return 2

    if args.workload != "all":
        record, lines = run_workload(args.workload, args)
        print("\n".join(lines))
        print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    records = []
    for name in workloads.WORKLOADS:
        record, lines = run_workload(name, args)
        print("\n".join(lines))
        records.append(record)
    names = list(records[0]["metrics"])
    print("\n" + " ".join(["workload".ljust(16)] + [n.rjust(14) for n in names]))
    print(" ".join(["".ljust(16)] + [f"[{records[0]['metrics'][n]['unit']}]".rjust(14) for n in names]))
    for r in records:
        cells = [f"{r['metrics'][n]['value']:.6g}".rjust(14) for n in names]
        print(" ".join([r["workload"].ljust(16)] + cells) + ("" if r["correct"] else "  OUTPUT MISMATCH"))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
