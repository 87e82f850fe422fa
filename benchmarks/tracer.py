"""In-memory span tracing of the indexcode layers, from outside the package.

`Tracer.install()` replaces every binding of a traced function in every
loaded `indexcode` module namespace (including names brought in with
`from .lp import solve_lp`) by a wrapper that records one span per call:
name, start, end, parent span and instance id.  `uninstall()` puts the
original objects back.  Nothing under `src/` is modified.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("instance", "enumeration", "programs", "lp", "coding", "gf256",
          "simulate", "analysis", "cli")

# Helpers called once per field element, payload row or LP column: a span
# there would cost about as much as the work it measures.  Their time counts
# as self time of the caller (simulate, coding, gf256.mds_rows, the builders).
UNTRACED = {
    "gf256": {"gf_add", "gf_mul", "gf_inv", "gf_div", "gf_scale_bytes", "gf_det"},
    "programs": {"cycle_var_name", "cycle_row_name", "clique_name"},
}


@dataclass
class Span:
    sid: int
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int  # sid of the enclosing span, -1 at top level
    instance: int


def traced_functions():
    """{original function object: "<layer>.<name>"} for every public
    function defined in a layer module, minus UNTRACED."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"indexcode.{layer}"]
        skip = UNTRACED.get(layer, set())
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and name not in skip):
                out[obj] = f"{layer}.{name}"
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        # (name, args, kwargs, result, span id) of each finished call
        self.calls: list[tuple[str, tuple, dict, object, int]] = []
        self.instance = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans, calls, stack = self.spans, self.calls, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = Span(sid, name, 0.0, 0.0, stack[-1] if stack else -1, self.instance)
            spans.append(span)
            stack.append(sid)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            calls.append((name, args, kwargs, result, sid))
            return result

        return wrapper

    def install(self):
        originals = traced_functions()
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "indexcode" and not modname.startswith("indexcode."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))
        return self

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def take_calls(self):
        """Calls recorded since the last take, oldest first."""
        out = list(self.calls)
        self.calls.clear()
        return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval covered by its children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
            edge = max(edge, hi)
        out[s.sid] = (s.end - s.start) - covered
    return out


def has_ancestor(spans: list[Span], sid: int, name: str) -> bool:
    p = spans[sid].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
