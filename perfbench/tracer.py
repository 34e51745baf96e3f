"""Spans around calls into qcfc, recorded from outside the package.

`Tracer.patch` replaces a function by name in the module that calls it, so
only the calls that cross that boundary are timed and calls made inside the
callee's own module are not. Spans nest through a stack; each closing span
adds its duration to its parent's child time, so a span's self time is its
duration minus the time its children cover. Spans are aggregated by name in
memory and read out once the traced comparison ends.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.durations_s = defaultdict(list)
        self._stack = []
        self._patched = []

    def patch(self, module, attr: str, span, count=None) -> None:
        """Time every call to `module.attr` made through that module's name.

        `span` is the span name, or a function of the call's positional
        arguments that returns it. `count(args, result)` returns counter
        increments for the call; it runs after the span has closed.
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            name = span(args) if callable(span) else span
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += duration
                self.total_s[name] += duration
                self.self_s[name] += duration - children
                self.calls[name] += 1
                self.durations_s[name].append(duration)
            if count is not None:
                for key, amount in count(args, result).items():
                    self.counts[key] += amount
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        """Put every patched function back, last patch first."""
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def layer_self_s(self, layer: str) -> float:
        """Self time summed over every span whose name starts with `layer.`."""
        return sum((s for name, s in self.self_s.items() if name.startswith(layer + ".")), 0.0)
