"""Span recorder that wraps the package's public functions from outside.

Every module-level binding of a public ``swapsynth`` function, in every
package module, is replaced by a wrapper while tracing is on.  Because the
package's modules call each other through those bindings (``from .canonical
import kak_decompose`` binds the function in ``synthesis`` too), the
wrappers see internal calls as well as the benchmark's own, without any
change under ``src/``.  Spans stay in memory and are aggregated and written
out after the run.
"""

from __future__ import annotations

import collections
import csv
import functools
import inspect
import re
import time

MODULES = ("linalg", "gates", "canonical", "synthesis", "entanglement", "costmodel", "cli")


class Tracer:
    """Records (op, span, parent, name, start_ns, end_ns, raised) per call.

    ``raised`` names the exception type on the span where that exception
    first escaped a public function; spans it merely passed through leave
    it empty.  ``escapes[op]`` lists, innermost first, every function each
    exception of that operation escaped.
    """

    def __init__(self, package):
        self._bindings = []
        names = {}
        for modname in MODULES:
            mod = getattr(package, modname)
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    names[obj] = f"{modname}.{attr}"
        for mod in [package] + [getattr(package, m) for m in MODULES]:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in names:
                    self._bindings.append((mod, attr, obj, self._wrap(obj, names[obj])))
        self.functions = sorted(set(names.values()))
        self.spans = []
        self.escapes = collections.defaultdict(list)
        self.op = 0
        self._stack = [0]
        self._next = 1
        self._seen = {}

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            raised = ""
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if id(exc) not in self._seen:
                    self._seen[id(exc)] = exc
                    raised = type(exc).__name__
                self.escapes[self.op].append(name)
                raise
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((self.op, sid, parent, name, t0, t1, raised))

        return wrapper

    def start_op(self, op):
        """Attribute the spans that follow to operation ``op``."""
        self.op = op
        self._seen.clear()

    def install(self):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def summary(self, per):
        """Per-function {calls, total_ms, self_ms, raised.<Type>}, each divided by ``per``.

        Every wrapped function has calls, total_ms and self_ms, zero when it
        was not called; raised.<Type> appears only for exceptions seen.
        <Type> is the exception class name without an Error, Violation or
        Exception suffix.
        """
        child_ns = collections.Counter()
        for _, _, parent, _, t0, t1, _ in self.spans:
            child_ns[parent] += t1 - t0
        stats = {name: collections.Counter(calls=0, total_ms=0.0, self_ms=0.0) for name in self.functions}
        for _, sid, _, name, t0, t1, raised in self.spans:
            s = stats[name]
            s["calls"] += 1
            s["total_ms"] += (t1 - t0) / 1e6
            s["self_ms"] += (t1 - t0 - child_ns[sid]) / 1e6
            if raised:
                # "NumericalError" -> "raised.Numerical": metric names stay within 64 characters.
                s["raised." + re.sub(r"(Error|Violation|Exception)$", "", raised)] += 1
        return {name: {k: v / per for k, v in s.items()} for name, s in stats.items()}

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("op", "span", "parent", "name", "start_ns", "end_ns", "raised"))
            out.writerows(self.spans)
