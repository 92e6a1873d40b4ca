"""Spans around calls into the program's layers, installed from outside.

The benchmark never edits ``src/``: it replaces public functions and
methods with timing wrappers after import, and restores them with
:meth:`Tracer.uninstall`.  A function bound by name into other modules
(``from repro.core.current import minimize_peak_temperature``) is
replaced at every module binding, otherwise calls through the copy would be
missed; ``layers.crosscheck`` compares span counts with
the program's own counters and catch exactly that kind of miss.

Each span records its layer, start, end, the layer of the span that
caused it and the thread.  A layer's self time is its duration minus
the part covered by its child spans.  A call into a layer made while
the innermost open span on the thread already belongs to that layer is
counted as part of the outer call, so recursion inside one layer does
not inflate its call count.
"""

import functools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder with per-layer aggregates."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer, func, args, kwargs, on_result=None):
        """Run ``func`` inside a span of ``layer`` (when enabled)."""
        if not self.enabled:
            return func(*args, **kwargs)
        if callable(layer):
            layer = layer(args, kwargs)
        stack = self._stack()
        if stack and stack[-1][0] == layer:
            result = func(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result
        frame = [layer, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            result = func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[1]
            parent = stack[-1][0] if stack else None
            if stack:
                stack[-1][2] += duration
            with self._lock:
                self.calls[layer] += 1
                self.total_s[layer] += duration
                self.self_s[layer] += duration - frame[2]
                self.spans.append(
                    (layer, frame[1], end, parent, threading.get_ident())
                )
        if on_result is not None:
            on_result(self, args, kwargs, result)
        return result

    async def call_async(self, layer, func, args, kwargs, on_done=None):
        """Span around a coroutine: wall time from call to completion.

        Coroutines of one event loop interleave, so an async span is
        kept off the thread's stack: it has no parent and its self time
        is its duration.  A callable ``layer`` may return None to leave
        a call untraced.
        """
        if self.enabled and callable(layer):
            layer = layer(args, kwargs)
        if not self.enabled or layer is None:
            return await func(*args, **kwargs)
        start = time.perf_counter()
        try:
            return await func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            with self._lock:
                self.calls[layer] += 1
                self.total_s[layer] += end - start
                self.self_s[layer] += end - start
                self.spans.append(
                    (layer, start, end, None, threading.get_ident())
                )
            if on_done is not None:
                on_done(self, args, kwargs, end - start)

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    def sample(self, name, value):
        with self._lock:
            self.samples[name].append(value)

    def aggregates(self):
        """The per-layer aggregates as plain JSON-ready dicts."""
        return {
            "calls": dict(self.calls), "total_s": dict(self.total_s),
            "self_s": dict(self.self_s), "counts": dict(self.counts),
            "samples": dict(self.samples), "spans": list(self.spans),
        }

    @classmethod
    def from_aggregates(cls, data):
        """A disabled tracer holding aggregates recorded elsewhere."""
        tracer = cls()
        for name, values in data.items():
            if name == "spans":
                tracer.spans.extend(tuple(span) for span in values)
            else:
                getattr(tracer, name).update(values)
        return tracer

    def root_seconds(self):
        """Summed duration of spans with no parent (covered wall time)."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent is None)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def wrap_function(self, module, attr, layer, *, on_result=None,
                      everywhere=True):
        """Wrap ``module.attr`` and, with ``everywhere``, every other
        module attribute bound to the same function object."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(layer, original, args, kwargs, on_result)

        self._replace(module, attr, original, wrapper)
        if everywhere:
            for other in list(sys.modules.values()):
                if other is module or not hasattr(other, "__dict__"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._replace(other, key, original, wrapper)
        return wrapper

    def wrap_method(self, cls, attr, layer, *, on_result=None):
        """Wrap a method defined on ``cls`` (inherited by subclasses)."""
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(layer, original, args, kwargs, on_result)

        self._replace(cls, attr, original, wrapper)
        return wrapper

    def wrap_async_method(self, cls, attr, layer, *, on_done=None):
        original = cls.__dict__[attr]

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            return await self.call_async(layer, original, args, kwargs, on_done)

        self._replace(cls, attr, original, wrapper)
        return wrapper

    def uninstall(self):
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
