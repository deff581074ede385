"""Per-layer tracing for the nckit benchmark, installed from outside the package.

A layer is one module of the package (``cli``, ``cumulants``, ``ncpart``,
``trees``, ``series``, ``poly``).  ``Tracer.install`` replaces every public
function of a layer wherever a ``nckit`` module binds it (``from .ncpart
import leq`` copies the binding, so each copy is replaced), plus the public
methods and arithmetic operators of the layer's classes, aliases such as
``__radd__ = __add__`` included.  ``uninstall`` puts the originals back.

Every wrapped call adds to aggregate counters: calls per function, and self
and inclusive seconds per layer.  A layer's self time is the time inside its
functions minus the time of wrapped calls they make.  Spans (name, start,
end, parent) are kept only for coarse boundaries, the calls at most
``SPAN_DEPTH`` levels below an op, and at most ``MAX_SPANS`` in all, so the
10^5 to 10^6 hot leaf calls of an op cost counters and no memory.  A
function that calls itself is timed once, at the outermost call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "cumulants", "ncpart", "trees", "series", "poly")
# Dunder methods that are arithmetic entry points, traced like public methods.
OPERATORS = frozenset(
    ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
     "__neg__", "__pow__", "__matmul__")
)
SPAN_DEPTH = 3
MAX_SPANS = 20000


def package_modules():
    """Every imported module of the package, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "nckit" or name.startswith("nckit."))]


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    head, _, layer = module.partition(".")
    return layer if head == "nckit" and layer in LAYERS else None


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Tracer:
    """Counters, self times and coarse spans for the calls made into each layer."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # derived counts: leq results, product terms
        self.self_s: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.spans: list = []
        self._active: Counter = Counter()
        self._stack: list = []
        self._op = None
        self._wrappers: dict = {}
        self._patched: list = []
        self._observers = {
            "ncpart.leq": self._observe_leq,
            "poly.Polynomial.__mul__": self._observe_product,
        }

    # -- per-op window ---------------------------------------------------------

    def begin_op(self, op_id) -> None:
        """Zero the counters and open the root frame of one op."""
        for c in (self.calls, self.counts, self.self_s, self.incl_s, self._active):
            c.clear()
        self._op = op_id
        self._stack[:] = [[0.0, None, None]]

    def end_op(self) -> None:
        self._stack.clear()

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            return
        for module in package_modules():
            for name, value in list(vars(module).items()):
                if isinstance(value, type) and _layer_of(value):
                    self._install_class(value)
                elif _is_function(value) and _layer_of(value):
                    if not value.__name__.startswith("_"):
                        self._patch(module, name, value, self._wrapper(value))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _install_class(self, cls) -> None:
        if any(owner is cls for owner, _, _ in self._patched):
            return
        for name, raw in list(vars(cls).items()):
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not inspect.isfunction(fn):
                continue
            if fn.__name__.startswith("_") and fn.__name__ not in OPERATORS:
                continue
            wrapped = self._wrapper(fn)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            self._patch(cls, name, raw, wrapped)

    def _patch(self, owner, name, original, replacement) -> None:
        self._patched.append((owner, name, original))
        setattr(owner, name, replacement)

    def _wrapper(self, fn):
        """One wrapper per function object, shared by all of its bindings."""
        if id(fn) not in self._wrappers:
            self._wrappers[id(fn)] = self._make_wrapper(fn)
        return self._wrappers[id(fn)]

    def _make_wrapper(self, fn):
        layer = _layer_of(fn)
        key = f"{layer}.{fn.__qualname__}"
        observe = self._observers.get(key)
        clock, stack, spans = self.clock, self._stack, self.spans
        calls, self_s, incl_s, active = self.calls, self.self_s, self.incl_s, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][2] is key:
                # A function calling itself: its time is already the outer call's.
                calls[key] += 1
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result)
                return result
            frame = [0.0, None, key]
            if len(stack) <= SPAN_DEPTH and len(spans) < MAX_SPANS and stack:
                frame[1] = len(spans)
                spans.append([self._op, len(spans), stack[-1][1], key, 0.0, 0.0])
            outer = not active[layer]
            active[layer] += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                total = end - start
                stack.pop()
                active[layer] -= 1
                self_s[layer] += total - frame[0]
                if outer:
                    incl_s[layer] += total
                if stack:
                    stack[-1][0] += total
                calls[key] += 1
                if frame[1] is not None:
                    spans[frame[1]][4:6] = (start, end)
            if observe is not None:
                observe(result)
            return result

        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _observe_leq(self, result) -> None:
        if result:
            self.counts["ncpart.leq.true"] += 1

    def _observe_product(self, result) -> None:
        if result is not NotImplemented:
            self.counts["poly.mul.terms_out"] += len(result)

    # -- reading ---------------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        return sum(n for key, n in self.calls.items() if key.split(".", 1)[0] == layer)
