"""Spans at mpstkit's layer boundaries, recorded from outside the program.

The tracer swaps a public entry point for a wrapper at the place where
another layer (or the benchmark) calls it: `consistency.project` is the
projection layer as seen from consistency, `cli.check_session` is the type
checker as seen from the CLI, and so on.  Only the outermost call of a layer
on a thread becomes a span, so recursion (restrict_to_partner calls itself
through its module global) folds into one span.

A span is [layer, start, end, time covered by child spans, operation kind,
parent span].
Spans stay in memory until the workload ends; a layer's self time is its
span's duration minus its children's.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

# (module, attribute, layer).  The module is the caller's namespace, so the
# span appears exactly where that caller crosses into the layer.
ENTRY_POINTS = [
    ("surface", "parse_protocol_file", "surface.parse"),
    ("cli", "elaborate", "elaborate"),
    ("cli", "well_formed", "core.well_formed"),
    ("runtime", "well_formed", "core.well_formed"),
    ("typecheck", "well_formed", "core.well_formed"),
    ("cli", "project", "projection"),
    ("elaborate", "project", "projection"),
    ("typecheck", "project", "projection"),
    ("consistency", "project", "projection"),
    ("runtime", "project", "projection"),
    ("projection", "project", "projection"),
    ("cli", "check_session", "typecheck"),
    ("cli", "consistent", "consistency"),
    ("consistency", "restrict_to_partner", "consistency.restrict"),
    ("consistency", "dual", "consistency.dual"),
    ("fsm", "interpret", "fsm.interpret"),
    ("fsm", "to_dot", "fsm.dot"),
]
# (runtime class, method, layer)
METHODS = [
    ("Endpoint", "send", "runtime.send"),
    ("Endpoint", "recv", "runtime.recv"),
    ("Endpoint", "enter_loop", "runtime.loop"),
    ("Endpoint", "recur", "runtime.loop"),
    ("GlobalSession", "init", "runtime.init"),
]


class Tracer:
    """Installs wrappers on a toolkit's modules; `census` hooks, when given,
    see (args, result) of every outermost call of their layer."""

    def __init__(self, tk, census: dict = None):
        self.tk = tk
        self.census = census or {}
        self.spans: list = []
        self.op = None  # operation kind the spans belong to
        self._local = threading.local()
        self._saved: list = []

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.active = set()
        return st

    def _wrap(self, layer: str, fn):
        tracer = self
        hook = self.census.get(layer)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st = tracer._state()
            if layer in st.active:
                return fn(*args, **kwargs)
            stack = st.stack
            parent = stack[-1] if stack else None
            rec = [layer, 0.0, 0.0, 0.0, tracer.op, parent]
            stack.append(rec)
            st.active.add(layer)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                rec[2] = end
                stack.pop()
                st.active.discard(layer)
                if parent is not None:
                    parent[3] += end - rec[1]
                tracer.spans.append(rec)
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, layer: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, layer)

    def install(self) -> None:
        for mod_name, attr, layer in ENTRY_POINTS:
            mod = getattr(self.tk, mod_name)
            fn = getattr(mod, attr, None)
            if fn is not None:
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(layer, fn))
        for cls_name, attr, layer in METHODS:
            cls = getattr(self.tk.runtime, cls_name)
            fn = cls.__dict__.get(attr)
            if fn is not None:
                self._saved.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(layer, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def self_times(self, ops: set, first: int = 0, last: int = None) -> tuple:
        """(layer -> total self seconds, layer -> span count) over the spans
        spans[first:last] of the given operation kinds."""
        total: dict = defaultdict(float)
        count: dict = defaultdict(int)
        for layer, start, end, child, op, _ in self.spans[first:last]:
            if op in ops:
                total[layer] += end - start - child
                count[layer] += 1
        return total, count


class _Span:
    def __init__(self, tracer: Tracer, layer: str):
        self.tracer = tracer
        self.layer = layer

    def __enter__(self):
        stack = self.tracer._state().stack
        parent = stack[-1] if stack else None
        self.rec = [self.layer, 0.0, 0.0, 0.0, self.tracer.op, parent]
        stack.append(self.rec)
        self.rec[1] = time.perf_counter()
        return self.rec

    def __exit__(self, *exc):
        rec = self.rec
        rec[2] = time.perf_counter()
        self.tracer._state().stack.pop()
        if rec[5] is not None:
            rec[5][3] += rec[2] - rec[1]
        self.tracer.spans.append(rec)
        return False
