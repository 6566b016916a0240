"""Span tracing of g3bell from outside the program.

``Tracer.patch`` wraps the package's public functions in place: every
module namespace that holds one of them (``audit`` imports ``expectation``
and the bell entry points, ``ga``/``model``/``measure`` call ``gp``,
``bell`` calls ``observable``) gets the wrapper, ``PRODUCT_FORMS`` gets the
wrapped product forms, and the scalarizers that ``default_scalarizers``
returns carry wrapped ``fn``s.  ``unpatch`` restores the originals, so the
untraced audits of a traced run execute the program unmodified.

Hot leaf calls (millions per run) are aggregated per (name, parent name) as
call count, inclusive time and self time; the coarse calls in ``COARSE``
are also kept as full spans (id, name, start, end, parent id, audit index).
Everything stays in memory until ``write`` at the end of the run.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import time
from pathlib import Path

# (module, attribute, span name) of every wrapped public function.
TARGETS = (
    ("g3bell.ga", "gp", "ga.gp"),
    ("g3bell.model", "observable", "model.observable"),
    ("g3bell.model", "product_identity", "model.product_identity"),
    ("g3bell.model", "product_raw", "model.product_raw"),
    ("g3bell.measure", "expectation", "measure.expectation"),
    ("g3bell.bell", "scalarizer_audit", "bell.scalarizer_audit"),
    ("g3bell.bell", "random_unit_vector", "bell.random_unit_vector"),
    ("g3bell.audit", "run_audit", "audit.run_audit"),
    ("g3bell.audit", "emit", "audit.emit"),
    ("g3bell.cli", "main", "cli.main"),
)
DEFAULT_SCALARIZERS = ("g3bell.bell", "default_scalarizers", "bell.default_scalarizers")
SCALARIZER_FN = "bell.scalarizer_fn"
ROOT = "bench.audit"
COARSE = frozenset({ROOT, "cli.main", "audit.run_audit", "audit.emit",
                    "bell.scalarizer_audit", "bell.default_scalarizers"})


class Tracer:
    def __init__(self):
        # (name, parent name) -> [calls, inclusive s, self s]
        self.calls: dict = {}
        self.spans: list = []
        self.audits = 0
        self._ids = itertools.count()
        self._stack: list = []  # frames: [child s, name, span id]
        self._saved: list = []  # (namespace, key, original) to restore

    def wrap(self, name: str, fn):
        stack, calls, spans, ids = self._stack, self.calls, self.spans, self._ids
        clock = time.perf_counter
        coarse = name in COARSE

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = next(ids) if coarse else None
            frame = [0.0, name, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                key = (name, parent[1])
                rec = calls.get(key)
                if rec is None:
                    rec = calls[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if coarse:
                    spans.append((span_id, name, t0, t1, parent[2], self.audits))

        traced.__wrapped__ = fn
        return traced

    def patch(self) -> list:
        """Install the wrappers; return the namespaces patched, as 'module.attr'."""
        originals = {}
        for module, attr, name in TARGETS:
            fn = getattr(sys.modules[module], attr)
            originals[id(fn)] = (fn, self.wrap(name, fn))
        module, attr, name = DEFAULT_SCALARIZERS
        make = getattr(sys.modules[module], attr)
        wrap = self.wrap

        def default_scalarizers(*args, **kwargs):
            return tuple(
                dataclasses.replace(s, fn=wrap(f"{SCALARIZER_FN}:{s.name}", s.fn))
                for s in make(*args, **kwargs)
            )

        originals[id(make)] = (make, self.wrap(name, default_scalarizers))

        patched = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name != "g3bell" and not mod_name.startswith("g3bell."):
                continue
            for key, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((vars(mod), key, value))
                    setattr(mod, key, hit[1])
                    patched.append(f"{mod_name}.{key}")
        forms = sys.modules["g3bell.model"].PRODUCT_FORMS
        for key, value in list(forms.items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                self._saved.append((forms, key, value))
                forms[key] = hit[1]
                patched.append(f"PRODUCT_FORMS[{key!r}]")
        return patched

    def unpatch(self) -> None:
        for namespace, key, original in reversed(self._saved):
            namespace[key] = original
        self._saved.clear()

    def audit(self, fn, *args):
        """Run one audit under the wrappers, inside a root span; return
        (result, wall seconds)."""
        self.patch()
        try:
            self._stack.append([0.0, None, None])
            root = self.wrap(ROOT, fn)
            t0 = time.perf_counter()
            result = root(*args)
            wall = time.perf_counter() - t0
        finally:
            self._stack.clear()
            self.unpatch()
        self.audits += 1
        return result, wall

    def totals(self, name: str, parents=None) -> tuple:
        """(calls, inclusive s, self s) of a span name, summed over parents
        (or over the given parent names only).  A name ending in ':' sums
        every span name with that prefix."""
        out = [0, 0.0, 0.0]
        for (span, parent), rec in self.calls.items():
            named = span.startswith(name) if name.endswith(":") else span == name
            if named and (parents is None or parent in parents):
                for i in range(3):
                    out[i] += rec[i]
        return tuple(out)

    def counts(self) -> dict:
        """Calls so far per span name, summed over parents."""
        out: dict = {}
        for (name, _), rec in self.calls.items():
            out[name] = out.get(name, 0) + rec[0]
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **header,
            "audits": self.audits,
            "calls": [
                {"name": span, "parent": parent, "calls": rec[0],
                 "inclusive_s": rec[1], "self_s": rec[2]}
                for (span, parent), rec in sorted(self.calls.items(), key=str)
            ],
            "spans": [
                {"id": i, "name": n, "start": t0, "end": t1, "parent": p, "audit": a}
                for i, n, t0, t1, p, a in self.spans
            ],
        }
        path.write_text(json.dumps(doc) + "\n")
