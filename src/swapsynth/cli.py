"""Command line front end.

Subcommands: synth, verify, analyze, cost, random.  Exit codes: 0 on
success, 1 when a verification tolerance is exceeded, 2 on bad input,
3 when a numerical routine fails to converge; the executable exits 141
when its standard output is a pipe that the reader closed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

import numpy as np

from .canonical import kak_decompose
from .costmodel import (
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
from .linalg import (
    ContractViolation,
    NumericalError,
    _integer,
    _newton_schulz,
    _real,
    assert_unitary,
    haar_random_unitary,
    phase_distance,
)
from .synthesis import (
    SwapPowOp,
    _cnot_core_params,
    _matrix_from_json,
    _matrix_to_json,
    circuit_from_dict,
    circuit_to_dict,
    evaluate_circuit,
    gate_counts,
    prune_circuit,
    synthesize_cnot,
    synthesize_swap,
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
    if not isinstance(doc, dict) or "dim" not in doc or "rows" not in doc:
        raise ContractViolation(f"{name}: expected a JSON object with keys 'dim' and 'rows'")
    dim = _integer(doc["dim"], "dim")
    if dim != 4:
        raise ContractViolation(f"{name}: only dim 4 is supported, got {dim}")
    return _matrix_from_json(doc["rows"], 4, name)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ContractViolation(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ContractViolation(f"{path} is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"{path} is not UTF-8 text: {exc}") from None
    except RecursionError:
        raise ContractViolation(f"{path} nests its JSON too deeply to read") from None


def _resolve_target(ns):
    """Target unitary from --gate or --matrix, refusing both before any file is read."""
    if ns.gate and ns.matrix:
        raise ContractViolation("--gate and --matrix each name a target; pass one of them")
    if ns.gate:
        return assert_unitary(named_gate(ns.gate), name=f"gate {ns.gate!r}", dim=4), ns.gate
    if ns.matrix:
        u = _matrix_from_doc(_load_json(ns.matrix), name=ns.matrix)
        return assert_unitary(u, name="target"), ns.matrix
    raise ContractViolation("a target is required: pass --gate NAME or --matrix FILE")


def _resolve_profile(name_or_path):
    """The built-in profile that builtin_profile finds by name, else the profile file at the path."""
    try:
        return builtin_profile(name_or_path)
    except ContractViolation:
        return profile_from_dict(_load_json(name_or_path))


_encode_str = json.encoder.encode_basestring_ascii


@functools.lru_cache(maxsize=8)
def _pair_matrix_layout(indent, rows, cols):
    """The indented text of a rows x cols matrix of [re, im] pairs at indent,
    with a ``%r`` slot per float: ``%r`` of an exact float is its
    ``float.__repr__``, as json writes it.  The CLI writes a few shapes at
    a few depths, so a small fixed cache holds them all."""
    row_indent = indent + "  "
    pair_indent = row_indent + "  "
    entry_indent = pair_indent + "  "
    pair = "[" + entry_indent + "%r," + entry_indent + "%r" + pair_indent + "]"
    row = "[" + pair_indent + ("," + pair_indent).join([pair] * cols) + row_indent + "]"
    return "[" + row_indent + ("," + row_indent).join([row] * rows) + indent + "]"


def _json_text(doc, sort_keys=False):
    """Exactly ``json.dumps(doc, indent=2, sort_keys=sort_keys)``, built with one join per container.

    The stdlib's C encoder serves only ``indent=None``, so an indented dumps
    runs its pure-Python generator, one small chunk at a time.  A matrix of
    [re, im] pairs, as the CLI writes every matrix, is formatted whole from
    one cached layout.  Containers are told apart by ``isinstance`` as
    there (a tuple is a list); a finite float is its ``float.__repr__``, an
    int its ``int.__repr__`` and a string its ASCII-escaped form, as there;
    every other scalar, and every non-string key, goes to the C encoder of
    ``json.dumps``, whose rule it is.
    The one difference: a document that contains itself raises RecursionError
    here, where json.dumps reports a circular reference.  The CLI builds none.
    """

    def text(o, indent):
        if isinstance(o, float) and o - o == 0.0:
            return float.__repr__(o)
        if isinstance(o, str):
            return _encode_str(o)
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            if o.__class__ is list and o[0].__class__ is list and o[0] and o[0][0].__class__ is list:
                # A matrix of [re, im] pairs, when every row is an exact list
                # as long as the first, every pair an exact list of two, and
                # every entry a finite exact float: one layout, no recursion.
                cols = len(o[0])
                floats = [
                    x
                    for row in o
                    if row.__class__ is list and len(row) == cols
                    for pair in row
                    if pair.__class__ is list and len(pair) == 2
                    for x in pair
                    if x.__class__ is float and x - x == 0.0
                ]
                if len(floats) == 2 * cols * len(o):
                    return _pair_matrix_layout(indent, len(o), cols) % tuple(floats)
            inner = indent + "  "
            return "[" + inner + ("," + inner).join([text(v, inner) for v in o]) + indent + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            inner = indent + "  "
            items = sorted(o.items()) if sort_keys else o.items()
            pairs = [key(k) + ": " + text(v, inner) for k, v in items]
            return "{" + inner + ("," + inner).join(pairs) + indent + "}"
        if o.__class__ is int:
            # json's own rule for an int, without the microsecond a dumps call costs.
            return int.__repr__(o)
        return json.dumps(o)

    def key(k):
        # A non-string key as json writes it: '{"1": 0}' less its '{' and ': 0}'.
        return _encode_str(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]

    return text(doc, "\n")


def _open_in_place(path, flags):
    """``os.open`` as ``open(path, "w")`` calls it, less ``O_TRUNC``: a new file
    gets mode 0o666 less the umask, and an existing one keeps its bytes until
    they are overwritten."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_json(path, doc):
    """Write doc, indented, to path, overwriting a file in place.

    The text is encoded before the file is opened, so a document that cannot
    be encoded leaves path as it was.  The file is opened without truncation,
    written, and then cut to the length written when it is a regular file:
    ext4 flushes a file replaced through truncation (or rename) on close,
    which costs more than the write itself.  A symlink is written through,
    and an existing file keeps its inode, owner and mode.  As with a plain
    ``open(path, "w")``, the write is neither atomic nor synced; a reader
    racing it may see the new bytes ahead of the old file's tail.
    """
    data = (_json_text(doc) + "\n").encode("utf-8")
    try:
        with open(path, "wb", opener=_open_in_place) as fh:
            fh.write(data)
            # A device or a FIFO has no length to cut: truncate would fail there.
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise ContractViolation(f"cannot write {path}: {exc}") from None


def _check_tolerance(tolerance):
    if _real(tolerance, "--tolerance") < 0.0:
        raise ContractViolation(f"--tolerance must be finite and nonnegative, got {tolerance}")


def cmd_synth(ns):
    _check_tolerance(ns.tolerance)
    u, label = _resolve_target(ns)
    circuit = (synthesize_swap if ns.backend == "swap" else synthesize_cnot)(u)
    if ns.prune:
        circuit = prune_circuit(circuit)
    residual = phase_distance(evaluate_circuit(circuit), u)
    swaps, cnots, locals_ = gate_counts(circuit)

    params = kak_decompose(u).params
    hx, hy, hz = params
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
        exponents = [op.alpha for op in circuit.ops if isinstance(op, SwapPowOp)]
        report["swap_exponents"] = exponents
        rendered = ", ".join(f"{a:.9f}" for a in exponents)
        lines.append(f"swap exponents:  ({rendered})")
    else:
        phases = _cnot_core_params(params)
        report["cnot_phase_params"] = list(phases)
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
    u, label = _resolve_target(ns)
    circuit = circuit_from_dict(_load_json(ns.circuit))
    # Each local of a file is admitted within 1e-10 of unitary, and their
    # product drifts further.  The circuit is measured as the unitary it
    # stands for, one Newton-Schulz step away by ``linalg._newton_schulz``, as
    # in kak_decompose: no norm drift refuses it or lowers its distance.
    residual = phase_distance(_newton_schulz(evaluate_circuit(circuit)), u)
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
    if _integer(ns.points, "--points") < 1:
        raise ContractViolation("--points must be at least 1")
    if ns.target_ep is not None and not 0.0 <= _real(ns.target_ep, "--target-ep") <= 1.0 / 6.0:
        raise ContractViolation("--target-ep must lie in [0, 1/6]")
    alphas = np.arange(ns.points) * (2.0 / ns.points)
    closed = np.array([ep_closed_form_swap(a) for a in alphas])
    exact = np.array([ep_exact(swap_pow(a)) for a in alphas])
    peak_idx = int(np.argmax(closed))
    report = {
        "points": int(ns.points),
        "alpha": alphas.tolist(),
        "entangling_power": closed.tolist(),
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
        alpha = float(np.arccos(1.0 - 12.0 * ns.target_ep) / (2.0 * np.pi))
        report["inverse"] = {"target_ep": float(ns.target_ep), "alpha": alpha}
        lines.append(f"inverse:         E_p = {ns.target_ep:.9f} at alpha = {alpha:.9f}")
    return 0, report, lines


def cmd_analyze_ep_matrix(ns):
    if ns.seed is not None and not ns.samples:
        raise ContractViolation("--seed seeds the Monte Carlo estimate; pass --samples too")
    u, label = _resolve_target(ns)
    value = ep_exact(u)
    report = {"target": label, "entangling_power": float(value)}
    lines = [
        f"target:          {label}",
        f"entangling power: {value:.12f}",
    ]
    if ns.samples:
        est = ep_monte_carlo(u, samples=ns.samples, seed=ns.seed or 0)
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
        "alpha": _real(ns.alpha, "swap exponent"),
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
    if ns.compare:
        u, label = _resolve_target(ns)
        profile = _resolve_profile(ns.profile)
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
    profile = _resolve_profile(ns.profile)
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
    if _integer(ns.count, "--count") < 0:
        raise ContractViolation("--count must be nonnegative")
    if _integer(ns.seed, "--seed") < 0:
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
    p.add_argument("--seed", type=int, help="seed of the Monte Carlo estimate (default 0)")
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

    # A subcommand's parser fills in the names that the subparsers actions would
    # set above it, so main can parse a command with that parser alone.
    for name, p in sub.choices.items():
        p.set_defaults(command=name)
    for name, p in asub.choices.items():
        p.set_defaults(command="analyze", analysis=name)
    parser._subcommands = sub.choices
    analyze._subcommands = asub.choices
    return parser


@functools.cache
def _parser():
    """The one parser of this process, built on first use; parse_args keeps no state in it."""
    return build_parser()


def _parse(argv):
    """``_parser().parse_args(argv)``, with one argparse pass over a valid command.

    The top-level parser would classify every argument and then hand the tail
    to the subcommand's parser.  This walks argv down the subcommand names and
    parses the rest with the deepest parser named.  An argv that names no
    subcommand, or that leaves arguments its subcommand does not know, goes
    to the top-level parser, so its usage lines, errors and exit codes are
    argparse's own.
    """
    parser = sub = _parser()
    args = sys.argv[1:] if argv is None else list(argv)
    depth = 0
    while depth < len(args) and args[depth] in getattr(sub, "_subcommands", ()):
        sub = sub._subcommands[args[depth]]
        depth += 1
    if sub is not parser:
        ns, extras = sub.parse_known_args(args[depth:])
        if not extras:
            return ns
    return parser.parse_args(args)


def main(argv=None):
    """Run one command; print its report (``--json``) or text lines, and write ``--out``."""
    ns = _parse(argv)
    try:
        # Looked up by name at call time, not the function the cached parser bound,
        # so a handler rebound on this module (patched or traced) is the one that runs.
        code, report, lines = globals()[ns.func.__name__](ns)
        if getattr(ns, "out", None):
            _write_json(ns.out, report)
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if ns.json:
        print(_json_text(report, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def entry():
    """The ``swapsynth`` executable: main() on sys.argv, exiting with its code.

    A reader that closes standard output early (``swapsynth ... | head``)
    ends the run with exit code 141, as SIGPIPE would, rather than a
    traceback and the 1 that means a verification failure.
    """
    try:
        code = main()
        # Flushed here, so a closed pipe fails inside this try, not at exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; let that flush go to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)  # 128 + SIGPIPE, the code a shell reports for a pipe death
    sys.exit(code)
