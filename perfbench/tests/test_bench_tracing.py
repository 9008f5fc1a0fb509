"""Span self-time arithmetic and wrapper install/restore."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracing import Span, Target, Tracer, installed, self_times  # noqa: E402


def test_self_time_subtracts_union_of_direct_children_and_leaf_time():
    spans = [
        Span(0, -1, 0, "root", 0.0, 10.0, leaf_s=1.0, leaf_n=3),
        Span(1, 0, 0, "a", 1.0, 4.0),
        Span(2, 0, 0, "b", 3.0, 6.0),  # overlaps a: union of a and b is [1, 6]
        Span(3, 1, 0, "grandchild", 2.0, 3.0),  # counts against a, not root
        Span(4, 0, 0, "late", 9.0, 12.0),  # clipped at the root's end
        Span(5, -1, 1, "other-root", 20.0, 21.0),
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 5.0 - 1.0 - 1.0)
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(3.0)
    assert got[3] == pytest.approx(1.0)
    assert got[4] == pytest.approx(3.0)
    assert got[5] == pytest.approx(1.0)


def test_self_time_never_negative():
    spans = [Span(0, -1, 0, "root", 0.0, 1.0, leaf_s=2.0)]
    assert self_times(spans)[0] == 0.0


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def make_module():
    mod = types.ModuleType("fake")

    def inner(x):
        return mod.leaf(x) + 1

    def outer(x):
        return mod.inner(x) * 2

    def leaf(x):
        return x

    mod.inner, mod.outer, mod.leaf = inner, outer, leaf
    return mod


TARGETS = (
    Target("fake", "outer", "outer"),
    Target("fake", "inner", "inner"),
    Target("fake", "leaf", "leaf", leaf=True),
    Target("fake", "removed", "removed"),
    Target("gone", "f", "gone.f"),
)


def test_wrappers_record_spans_and_are_restored():
    mod = make_module()
    originals = (mod.outer, mod.inner, mod.leaf)
    tracer = Tracer(clock=FakeClock())
    seen = []
    hooks = {"inner": lambda span, args, kwargs, result: seen.append((span.name, args, result))}
    with installed(tracer, TARGETS, {"fake": mod}, hooks) as absent:
        assert mod.outer is not originals[0]
        assert mod.outer(3) == 8
    assert (mod.outer, mod.inner, mod.leaf) == originals
    assert [t.name for t in absent] == ["removed", "gone.f"]
    outer, = [s for s in tracer.spans if s.name == "outer"]
    inner, = [s for s in tracer.spans if s.name == "inner"]
    assert inner.parent_id == outer.span_id and outer.parent_id == -1
    assert inner.leaf_n == 1 and outer.leaf_n == 0
    assert seen == [("inner", (3,), 4)]


def test_bindings_restored_when_the_body_raises():
    mod = make_module()
    originals = (mod.outer, mod.inner, mod.leaf)
    with pytest.raises(RuntimeError):
        with installed(Tracer(), TARGETS, {"fake": mod}):
            raise RuntimeError("boom")
    assert (mod.outer, mod.inner, mod.leaf) == originals


def test_span_closed_when_wrapped_call_raises():
    mod = make_module()
    mod.leaf = lambda x: 1 / x
    tracer = Tracer()
    with installed(tracer, TARGETS[:3], {"fake": mod}):
        with pytest.raises(ZeroDivisionError):
            mod.outer(0)
        assert mod.outer(1) == 4
    assert [s.name for s in tracer.spans] == ["inner", "outer", "inner", "outer"]
    assert tracer.spans[1].parent_id == -1 and tracer.spans[3].parent_id == -1


def test_unreadable_result_is_counted_not_raised():
    mod = make_module()
    tracer = Tracer()

    def hook(span, args, kwargs, result):
        return result.iterations  # ints have no such attribute

    with installed(tracer, TARGETS[:2], {"fake": mod}, {"inner": hook}):
        assert mod.outer(1) == 4
    assert tracer.hook_misses == {"inner": 1}
