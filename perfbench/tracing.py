"""In-memory spans recorded from outside the library.

The benchmark wraps public functions at the binding each caller looks up
(for example ``sparse_moe.trainer.solve``, which is the name ``fit`` and the
M-steps call), so no library code changes.  Each wrapped call becomes a span
(name, start, end, parent, job).  Very frequent leaf calls
(``project_l1_ball`` runs once per projected-gradient iteration) are only
counted: their calls and seconds are added to the innermost open span, which
subtracts them from its self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int  # -1 for a root span
    job_id: int
    name: str
    start: float
    end: float
    leaf_s: float = 0.0  # time of counted leaf calls made directly inside
    leaf_n: int = 0  # number of those calls


@dataclass(frozen=True)
class Target:
    module: str  # e.g. "sparse_moe.trainer"
    attr: str  # the binding callers look up, e.g. "solve"
    name: str  # span name, e.g. "solver.solve"
    leaf: bool = False  # count only, no span


def self_times(spans) -> dict:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children, minus its counted leaf time."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = max(s.end - s.start - covered - s.leaf_s, 0.0)
    return out


class Tracer:
    """Records spans and leaf counts.

    A hook given to :meth:`wrap` is called as ``hook(span, args, kwargs,
    result)`` after each wrapped call, to read counts off its arguments and
    result.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.hook_misses: dict[str, int] = {}
        self.job_id = -1
        self._stack: list[list] = []  # [span_id, name, start, leaf_s, leaf_n]
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, name, self.clock(), 0.0, 0]
        self._next_id += 1
        self._stack.append(frame)
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(
                Span(frame[0], parent, self.job_id, name, frame[2], end, frame[3], frame[4])
            )

    def leaf(self, fn, args, kwargs):
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = self.clock() - start
            if self._stack:
                self._stack[-1][3] += dt
                self._stack[-1][4] += 1

    def wrap(self, target: Target, fn, hook=None):
        if target.leaf:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                return self.leaf(fn, args, kwargs)

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(target.name):
                result = fn(*args, **kwargs)
            if hook is not None:
                try:
                    hook(self.spans[-1], args, kwargs, result)
                except (AttributeError, TypeError, IndexError, ValueError, KeyError):
                    # The library changed shape under the hook: keep running
                    # and report how many results could not be read.
                    self.hook_misses[target.name] = self.hook_misses.get(target.name, 0) + 1
            return result

        return spanned

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer, targets, modules, hooks=None):
    """Replace each target binding by a traced wrapper; restore on exit.

    ``modules`` maps module names to module objects.  A target whose module
    or attribute no longer exists is skipped and yielded back in ``absent``.
    """
    hooks = hooks or {}
    saved = []
    absent = []
    try:
        for t in targets:
            mod = modules.get(t.module)
            fn = getattr(mod, t.attr, None) if mod is not None else None
            if fn is None:
                absent.append(t)
                continue
            saved.append((mod, t.attr, fn))
            setattr(mod, t.attr, tracer.wrap(t, fn, hooks.get(t.name)))
        yield absent
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
