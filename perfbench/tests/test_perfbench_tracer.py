"""Span nesting and self-time arithmetic of the benchmark's tracer."""

import threading

import pytest

from tracer import Span, Tracer, summarize


class FakeClock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


def test_self_time_subtracts_nested_children():
    # sample_density [0, 10] around two synthesize calls [2, 5] and [6, 7]
    tracer = Tracer(clock=FakeClock([0.0, 2.0, 5.0, 6.0, 7.0, 10.0]))
    with tracer.span("models.sample_density"):
        with tracer.span("wavelet.synthesize"):
            pass
        with tracer.span("wavelet.synthesize"):
            pass
    summary = summarize(tracer.spans)
    assert summary["models.sample_density"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert summary["wavelet.synthesize"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert sum(e["self_s"] for e in summary.values()) == 10.0


def test_grandchildren_count_only_against_their_parent():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("mid", 1.0, 9.0, 0),
        Span("leaf", 2.0, 5.0, 1),
    ]
    summary = summarize(spans)
    assert summary["root"]["self_s"] == 2.0
    assert summary["mid"]["self_s"] == 5.0
    assert summary["leaf"]["self_s"] == 3.0


def test_spans_on_another_thread_have_no_parent_here():
    tracer = Tracer()
    with tracer.span("outer"):
        worker = threading.Thread(target=_open_and_close, args=(tracer,))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    inner = next(s for s in tracer.spans if s.name == "inner")
    assert inner.parent is None


def _open_and_close(tracer):
    with tracer.span("inner"):
        pass


def test_wrap_records_a_span_and_passes_bound_arguments():
    tracer = Tracer()
    seen = []

    def scale(tree, factor=2):
        return tree * factor

    traced = tracer.wrap("demo.scale", scale, lambda args, result: seen.append((dict(args), result)))
    assert traced(3) == 6
    assert seen == [({"tree": 3, "factor": 2}, 6)]
    assert summarize(tracer.spans)["demo.scale"]["calls"] == 1
    assert traced.__wrapped__ is scale


def test_inside_sees_only_open_spans():
    tracer = Tracer()
    with tracer.span("models.sample_density"):
        assert tracer.inside("models.sample_density")
    assert not tracer.inside("models.sample_density")


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("x")
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert not tracer.inside("boom")
