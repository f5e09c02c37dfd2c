"""Command line front end.

Subcommands: synth, verify, analyze, cost, random.  Exit codes: 0 on
success, 1 when a verification tolerance is exceeded, 2 on bad input,
3 when a numerical routine fails to converge.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .canonical import kak_decompose
from .costmodel import (
    BUILTIN_PROFILES,
    builtin_profile,
    compare_backends,
    profile_from_dict,
    schedule_circuit,
)
from .entanglement import (
    appendix_a_residuals,
    appendix_a_terms,
    ep_closed_form_swap,
    ep_exact,
    ep_monte_carlo,
)
from .gates import named_gate, swap_pow
from .linalg import ContractViolation, NumericalError, assert_unitary, haar_random_unitary, phase_distance
from .synthesis import (
    SwapPowOp,
    _cnot_circuit,
    _cnot_core_params,
    _matrix_from_json,
    _matrix_to_json,
    _swap_circuit,
    circuit_from_dict,
    circuit_to_dict,
    evaluate_circuit,
    gate_counts,
    prune_circuit,
)


def _format_time(seconds):
    """Engineering notation with a sensible SI prefix."""
    if abs(seconds) < 1e-18:
        return "0 s"
    for scale, unit in ((1.0, "s"), (1e-3, "ms"), (1e-6, "us"), (1e-9, "ns"), (1e-12, "ps")):
        if abs(seconds) >= scale:
            return f"{seconds / scale:.6g} {unit}"
    return f"{seconds / 1e-15:.6g} fs"


def _matrix_from_doc(doc, name="matrix"):
    if not isinstance(doc, dict):
        raise ContractViolation(f"{name}: expected a JSON object")
    try:
        dim = int(doc["dim"])
        rows = doc["rows"]
    except (KeyError, TypeError, ValueError):
        raise ContractViolation(f"{name}: expected keys 'dim' and 'rows'") from None
    if dim != 4:
        raise ContractViolation(f"{name}: only dim 4 is supported, got {dim}")
    return _matrix_from_json(rows, 4, name)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ContractViolation(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ContractViolation(f"{path} is not valid JSON: {exc}") from None


def _resolve_target(ns):
    """Target unitary from --gate or --matrix."""
    if ns.gate:
        u = named_gate(ns.gate)
        if u.shape != (4, 4):
            raise ContractViolation(f"gate {ns.gate!r} is not a two-qubit gate")
        return u, ns.gate
    if ns.matrix:
        u = _matrix_from_doc(_load_json(ns.matrix), name=ns.matrix)
        if u.shape != (4, 4):
            raise ContractViolation(f"{ns.matrix}: target must be 4x4")
        return assert_unitary(u, name="target"), ns.matrix
    raise ContractViolation("a target is required: pass --gate NAME or --matrix FILE")


def _resolve_profile(name_or_path):
    if name_or_path.lower() in BUILTIN_PROFILES:
        return builtin_profile(name_or_path)
    return profile_from_dict(_load_json(name_or_path))


def _write_json(path, doc):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise ContractViolation(f"cannot write {path}: {exc}") from None


def _check_tolerance(tolerance):
    if not 0.0 <= tolerance < np.inf:
        raise ContractViolation(f"--tolerance must be finite and nonnegative, got {tolerance}")


def cmd_synth(ns):
    _check_tolerance(ns.tolerance)
    u, label = _resolve_target(ns)
    dec = kak_decompose(u)
    if ns.backend == "swap":
        circuit = _swap_circuit(dec)
    else:
        circuit = _cnot_circuit(dec)
    if ns.prune:
        circuit = prune_circuit(circuit)
    residual = phase_distance(evaluate_circuit(circuit), u)
    swaps, cnots, locals_ = gate_counts(circuit)

    hx, hy, hz = dec.params
    report = {
        "target": label,
        "backend": ns.backend,
        "canonical_params": [float(hx), float(hy), float(hz)],
        "gate_counts": {"swap_pow": swaps, "cnot": cnots, "local": locals_},
        "phase_distance": float(residual),
        "tolerance": ns.tolerance,
    }
    lines = [
        f"target:          {label}",
        f"backend:         {ns.backend}",
        f"canonical h:     ({hx:.9f}, {hy:.9f}, {hz:.9f})",
    ]
    if ns.backend == "swap":
        exponents = [float(op.alpha) for op in circuit.ops if isinstance(op, SwapPowOp)]
        report["swap_exponents"] = exponents
        rendered = ", ".join(f"{a:.9f}" for a in exponents)
        lines.append(f"swap exponents:  ({rendered})")
    else:
        phases = _cnot_core_params(dec)
        report["cnot_phase_params"] = [float(p) for p in phases]
        rendered = ", ".join(f"{p:.9f}" for p in phases)
        lines.append(f"rz phases:       ({rendered})")
    lines += [
        f"gate counts:     {swaps} swap_pow, {cnots} cnot, {locals_} local",
        f"phase distance:  {residual:.3e}",
    ]
    if ns.circuit_file:
        _write_json(ns.circuit_file, circuit_to_dict(circuit))
        report["circuit_file"] = ns.circuit_file
        lines.append(f"circuit written: {ns.circuit_file}")
    return (0 if residual <= ns.tolerance else 1), report, lines


def cmd_verify(ns):
    _check_tolerance(ns.tolerance)
    circuit = circuit_from_dict(_load_json(ns.circuit))
    u, label = _resolve_target(ns)
    residual = phase_distance(evaluate_circuit(circuit), u)
    ok = residual <= ns.tolerance
    report = {
        "circuit": ns.circuit,
        "target": label,
        "phase_distance": float(residual),
        "tolerance": ns.tolerance,
        "pass": bool(ok),
    }
    lines = [
        f"circuit:         {ns.circuit}",
        f"target:          {label}",
        f"phase distance:  {residual:.3e}",
        f"tolerance:       {ns.tolerance:.3e}",
        f"result:          {'PASS' if ok else 'FAIL'}",
    ]
    return (0 if ok else 1), report, lines


def cmd_analyze_ep_curve(ns):
    if ns.points < 1:
        raise ContractViolation("--points must be at least 1")
    alphas = np.arange(ns.points) * (2.0 / ns.points)
    closed = np.array([ep_closed_form_swap(a) for a in alphas])
    exact = np.array([ep_exact(swap_pow(a)) for a in alphas])
    peak_idx = int(np.argmax(closed))
    report = {
        "points": int(ns.points),
        "alpha": [float(a) for a in alphas],
        "entangling_power": [float(v) for v in closed],
        "max_residual_vs_exact": float(np.max(np.abs(closed - exact))),
        "peak": {"alpha": float(alphas[peak_idx]), "entangling_power": float(closed[peak_idx])},
    }
    lines = ["alpha      E_p"]
    lines += [f"{a:.4f}   {v:.9f}" for a, v in zip(alphas, closed)]
    lines += [
        f"peak:            alpha = {alphas[peak_idx]:.6f}, E_p = {closed[peak_idx]:.9f}",
        f"cross-check:     max |closed form - exact| = {report['max_residual_vs_exact']:.3e}",
    ]
    if ns.target_ep is not None:
        if not 0.0 <= ns.target_ep <= 1.0 / 6.0:
            raise ContractViolation("--target-ep must lie in [0, 1/6]")
        alpha = float(np.arccos(1.0 - 12.0 * ns.target_ep) / (2.0 * np.pi))
        report["inverse"] = {"target_ep": float(ns.target_ep), "alpha": alpha}
        lines.append(f"inverse:         E_p = {ns.target_ep:.9f} at alpha = {alpha:.9f}")
    return 0, report, lines


def cmd_analyze_ep_matrix(ns):
    u, label = _resolve_target(ns)
    value = ep_exact(u)
    report = {"target": label, "entangling_power": float(value)}
    lines = [
        f"target:          {label}",
        f"entangling power: {value:.12f}",
    ]
    if ns.samples:
        est = ep_monte_carlo(u, samples=ns.samples, seed=ns.seed)
        report["monte_carlo"] = {
            "mean": float(est.mean),
            "std_error": float(est.std_error),
            "samples": int(est.samples),
            "seed": int(est.seed),
        }
        lines += [
            f"monte carlo:     {est.mean:.9f} +/- {est.std_error:.2e} "
            f"({est.samples} samples, seed {est.seed})",
            f"deviation:       {abs(est.mean - value):.3e}",
        ]
    return 0, report, lines


def cmd_analyze_appendix_a(ns):
    term2, term3 = appendix_a_terms(ns.alpha)
    residual2, residual3 = appendix_a_residuals(ns.alpha)
    report = {
        "alpha": float(ns.alpha),
        "term2": float(term2),
        "term3": float(term3),
        "residual_term2": residual2,
        "residual_term3": residual3,
    }
    lines = [
        f"alpha:           {ns.alpha:.6f}",
        f"term2:           {term2:.12f}   (direct trace deviation {report['residual_term2']:.3e})",
        f"term3:           {term3:.12f}   (direct trace deviation {report['residual_term3']:.3e})",
        f"sum:             {term2 + term3:.12f}",
    ]
    return 0, report, lines


def cmd_cost(ns):
    if ns.compare and ns.circuit:
        raise ContractViolation("--compare synthesizes the target itself; pass no circuit file with it")
    if not ns.compare and (ns.gate or ns.matrix):
        raise ContractViolation("--gate and --matrix name a target for --compare; pass --compare too")
    profile = _resolve_profile(ns.profile)
    if ns.compare:
        u, label = _resolve_target(ns)
        report = compare_backends(u, profile)
        report["target"] = label
        lines = [f"target:          {label}", f"profile:         {profile.name}"]
        for backend in ("swap", "cnot", "naive"):
            entry = report["backends"][backend]
            counts = entry["gate_counts"]
            lines.append(
                f"{backend:<6} {counts['swap_pow']} swap_pow, {counts['cnot']} cnot, "
                f"{counts['local']} local; {entry['layers']} layers; "
                f"total {_format_time(entry['total_time_s'])}"
            )
        lines.append(f"note: {report['note']}")
        return 0, report, lines
    if not ns.circuit:
        raise ContractViolation("pass a circuit file, or --compare with a target")
    circuit = circuit_from_dict(_load_json(ns.circuit))
    sched = schedule_circuit(circuit, profile)
    report = {
        "circuit": ns.circuit,
        "profile": profile.name,
        "layers": [
            {"kind": layer.kind, "duration_s": layer.duration_s, "ops": list(layer.op_indices)}
            for layer in sched.layers
        ],
        "total_time_s": sched.total_time_s,
    }
    lines = [f"circuit:         {ns.circuit}", f"profile:         {profile.name}"]
    for i, layer in enumerate(sched.layers):
        ops = ", ".join(str(j) for j in layer.op_indices)
        lines.append(f"layer {i:<2} {layer.kind:<9} {_format_time(layer.duration_s):>12}   ops [{ops}]")
    lines.append(f"total:           {_format_time(sched.total_time_s)}")
    return 0, report, lines


def cmd_random(ns):
    if ns.count < 0:
        raise ContractViolation("--count must be nonnegative")
    if ns.seed < 0:
        raise ContractViolation("--seed must be nonnegative")
    out_dir = ns.out_dir or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ContractViolation(f"cannot create directory {out_dir}: {exc}") from None
    paths = []
    for i in range(ns.count):
        u = haar_random_unitary(4, seed=ns.seed + i)
        path = os.path.join(out_dir, f"random_{ns.seed + i:06d}.json")
        _write_json(path, {"dim": 4, "rows": _matrix_to_json(u)})
        paths.append(path)
    report = {"seed": int(ns.seed), "count": int(ns.count), "files": paths}
    return 0, report, [f"wrote {p}" for p in paths]


def build_parser():
    json_flag = {"action": "store_true", "help": "print the report as JSON"}
    tolerance = {
        "type": float,
        "default": 1e-8,
        "help": "verification tolerance on the phase distance (default 1e-8)",
    }

    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--out", help="also write the report JSON here")
    report.add_argument("--json", **json_flag)

    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("--gate", help="named two-qubit gate, e.g. cnot, swap, iswap")
    target.add_argument("--matrix", help="JSON matrix file")

    parser = argparse.ArgumentParser(
        prog="swapsynth",
        description="Two-qubit circuit synthesis over fractional-SWAP gates.",
    )
    # Each prog is passed as argparse would derive it, which spares it formatting a usage line.
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)

    p = sub.add_parser(
        "synth",
        parents=[target],
        help="compile a two-qubit unitary into three swap_pow or three cnot gates",
    )
    p.add_argument("--backend", choices=("swap", "cnot"), default="swap")
    p.add_argument("--out", dest="circuit_file", metavar="FILE", help="write the circuit JSON here")
    p.add_argument("--json", **json_flag)
    p.add_argument("--tolerance", **tolerance)
    p.add_argument("--prune", action="store_true", help="drop identity-like gates first")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "verify", parents=[report, target], help="check a circuit file against a target"
    )
    p.add_argument("circuit", help="circuit JSON file")
    p.add_argument("--tolerance", **tolerance)
    p.set_defaults(func=cmd_verify)

    analyze = sub.add_parser("analyze", help="entangling power analytics")
    asub = analyze.add_subparsers(dest="analysis", required=True, prog=analyze.prog)

    p = asub.add_parser(
        "ep-curve", parents=[report], help="entangling power of swap_pow(alpha) over a grid"
    )
    p.add_argument("--points", type=int, default=100, help="grid points on [0, 2) (default 100)")
    p.add_argument(
        "--target-ep",
        type=float,
        default=None,
        help="also invert: smallest alpha whose entangling power matches",
    )
    p.set_defaults(func=cmd_analyze_ep_curve)

    p = asub.add_parser(
        "ep-matrix", parents=[report, target], help="entangling power of an arbitrary gate"
    )
    p.add_argument("--samples", type=int, default=0, help="add a Monte Carlo estimate")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_analyze_ep_matrix)

    p = asub.add_parser(
        "appendix-a",
        parents=[report],
        help="closed-form operator traces behind the entangling power curve",
    )
    p.add_argument("--alpha", type=float, default=0.5)
    p.set_defaults(func=cmd_analyze_appendix_a)

    p = sub.add_parser("cost", parents=[report, target], help="schedule a circuit on hardware")
    p.add_argument("circuit", nargs="?", help="circuit JSON file")
    p.add_argument("--profile", default="gaas", help="gaas, si, or a profile JSON file")
    p.add_argument(
        "--compare", action="store_true", help="synthesize a target both ways and compare times"
    )
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("random", help="write Haar-random unitary matrix files")
    p.add_argument("--out", dest="out_dir", metavar="DIR", help="matrix file directory (default .)")
    p.add_argument("--json", **json_flag)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=cmd_random)

    return parser


def main(argv=None):
    """Run one command; print its report (``--json``) or text lines, and write ``--out``."""
    ns = build_parser().parse_args(argv)
    try:
        code, report, lines = ns.func(ns)
        if getattr(ns, "out", None):
            _write_json(ns.out, report)
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if ns.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def entry():
    sys.exit(main())
