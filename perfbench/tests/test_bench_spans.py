"""Self-time arithmetic of the benchmark's spans."""

import pytest

from common import Result
from layers import check_coverage, engine_summary
from spans import Span, Tracer, self_time


def _span(span_id, parent, start, end, name="k", **attrs):
    return Span(span_id, parent, name, "", start, end, attrs)


def test_self_time_subtracts_the_children():
    parent = _span(1, 0, 0.0, 10.0, "batch")
    children = [_span(2, 1, 1.0, 3.0), _span(3, 1, 3.0, 5.0),
                _span(4, 1, 7.0, 8.0)]
    assert self_time(parent, children) == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_time(_span(1, 0, 0.0, 2.0), []) == pytest.approx(2.0)


def test_nested_spans_record_parents_on_their_thread():
    tracer = Tracer()
    with tracer.span("batch", rid="a/0") as outer:
        tracer.record("conv_fwd", 1.0, 2.0)
        with tracer.span("inner") as inner:
            pass
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["conv_fwd"].parent == outer
    assert by_name["inner"].parent == outer
    assert by_name["batch"].parent == 0
    assert by_name["batch"].rid == "a/0" and inner != outer


def test_kernel_time_plus_self_time_is_batch_time():
    tracer = Tracer()
    tracer.spans = [
        _span(1, 0, 0.0, 0.010, "batch"),
        _span(2, 1, 0.001, 0.004, "conv_fwd", kind="depthwise", flop=4e9,
              bytes=2e6),
        _span(3, 1, 0.005, 0.006, "bn_stats"),
        _span(4, 0, 0.0, 1.0, "unrelated")]
    summary = engine_summary(tracer, tracer.named("batch"))
    assert summary["engine.kernel_ms"] == pytest.approx(4.0)
    assert summary["tensor.self_ms"] == pytest.approx(6.0)
    assert summary["trace.batch_ms"] == pytest.approx(10.0)
    assert summary["engine.conv_fwd.depthwise.ms"] == pytest.approx(3.0)
    assert summary["engine.conv_fwd.gflop"] == pytest.approx(4.0)
    assert summary["engine.conv_fwd.mb"] == pytest.approx(2.0)
    assert summary["engine.conv_dx.calls"] == 0


def _coverage(kernel_ms, self_ms):
    result = Result()
    result.put("engine.kernel_ms", kernel_ms, "ms")
    result.put("tensor.self_ms", self_ms, "ms")
    return result


def test_coverage_holds_when_spans_match_the_sessions_clock():
    result = _coverage(4.0, 6.0)
    check_coverage(result, 10.3)
    assert result.correct and result.failed == 0


def test_coverage_fails_when_spans_miss_part_of_the_batch():
    # the spans account for 10 ms of a batch the session clocked at 12 ms
    result = _coverage(4.0, 6.0)
    check_coverage(result, 12.0)
    assert not result.correct and result.failed == 1
    assert "not within 5%" in result.failures[0]
