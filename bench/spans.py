"""Span tracer that times calls into raygeo's layers from the outside.

Every public function defined in a layer module is replaced by a timing
wrapper, both in the module that defines it and in every ``raygeo``
module that imported the same object (``laws.py`` and
``probability.py`` each hold their own binding of ``meet``, for
example).  Calls made through module globals therefore all pass
through the wrapper.  Functions reached only through classes, default
arguments or containers are not seen; their time counts as self time
of the calling span.

Spans are aggregated by ``(name, parent)`` so memory stays flat over
hundreds of thousands of calls.  A span's self time is its duration
minus the durations of its child spans, so the self times of all spans
plus the root span sum to the traced wall time.

The tracer never fails on API churn: a function that no longer exists
is simply never wrapped and reads as zero calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

#: Layer modules, in the order they are reported.
LAYERS = (
    "sampling",
    "rays",
    "linalg",
    "geometry",
    "superposition",
    "probability",
    "morphisms",
    "tensor",
    "lawcheck",
    "serialize",
    "cli",
)

ROOT = "bench"


class Tracer:
    """Installs span wrappers on raygeo's public functions.

    ``only``, when given, restricts wrapping to those qualified names
    (``"lawcheck.run_law"``); the untraced runs use it to time law runs
    without tracing every layer.
    """

    def __init__(self, only: set[str] | None = None):
        self.only = only
        self.stats: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.pairs_returned = 0
        self.law_runs: list[tuple[str, float, float]] = []  # (law id, start, seconds)
        self._stack: list[list] = [[ROOT, 0.0]]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every selected function in every raygeo module that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        holders = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "raygeo" or n.startswith("raygeo."))
        ]
        for layer in LAYERS:
            module = sys.modules.get(f"raygeo.{layer}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                if self.only is not None and name not in self.only:
                    continue
                wrapper = self._wrap(name, fn)
                for holder in holders:
                    for held, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, held, fn))
                            setattr(holder, held, wrapper)

    def uninstall(self) -> None:
        """Restore every binding the tracer replaced."""
        for holder, held, fn in reversed(self._patches):
            setattr(holder, held, fn)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name: str, fn):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter
        observe = None
        if name == "sampling.nonorthogonal_pair":
            observe = self._count_pair
        elif name == "lawcheck.run_law":
            observe = self._time_law

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                parent[1] += duration
                key = (name, parent[0])
                entry = stats.get(key)
                if entry is None:
                    stats[key] = [1, duration, duration - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[1]
                if observe is not None:
                    observe(args, kwargs, result, start, duration)

        return wrapper

    def _count_pair(self, args, kwargs, result, start, duration):
        if result is not None:
            self.pairs_returned += 1

    def _time_law(self, args, kwargs, result, start, duration):
        law_id = args[0] if args else kwargs.get("law_id")
        self.law_runs.append((law_id, start, duration))

    # -- queries ------------------------------------------------------

    @property
    def root_child_s(self) -> float:
        """Time covered by spans directly under the root."""
        return self._stack[0][1]

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(
            e[0] for (n, p), e in self.stats.items() if n == name and (parent is None or p == parent)
        )

    def self_s(self, name: str) -> float:
        return sum(e[2] for (n, _), e in self.stats.items() if n == name)

    def module_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(e[2] for (n, _), e in self.stats.items() if n.startswith(prefix))
