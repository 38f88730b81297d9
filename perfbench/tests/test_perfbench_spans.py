"""Span recording, self time and layer folding of ``spans``."""

import pytest

from spans import (
    ATTRS,
    END,
    NAME,
    PARENT,
    REQUEST,
    START,
    Recorder,
    _wrap,
    layer_metrics,
    self_times,
)


def span(sid, parent, name, start, end, request=0, attrs=None):
    return [sid, parent, name, start, end, request, attrs]


def test_self_time_of_nested_children():
    spans = [span(0, None, "root", 0.0, 10.0),
             span(1, 0, "a", 1.0, 4.0),
             span(2, 1, "a.inner", 2.0, 3.0),
             span(3, 0, "b", 5.0, 6.0)]
    # Only direct children count against a span.
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_with_overlapping_children():
    spans = [span(0, None, "root", 0.0, 10.0),
             span(1, 0, "x", 1.0, 5.0),
             span(2, 0, "y", 3.0, 7.0),      # overlaps x: union 1..7
             span(3, 0, "z", 9.0, 12.0)]     # clipped to the parent
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_times_sum_to_root_wall():
    spans = [span(0, None, "root", 0.0, 8.0),
             span(1, 0, "a", 0.5, 6.0),
             span(2, 1, "b", 1.0, 2.0),
             span(3, 1, "c", 2.0, 5.5)]
    assert sum(self_times(spans)) == pytest.approx(8.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_recorder_parents_and_request_ids():
    recorder = Recorder(clock=FakeClock())
    with recorder.span("campaign"):
        with recorder.span("stage", new_request=True):
            with recorder.span("inner"):
                pass
        with recorder.span("stage", new_request=True):
            pass
    by_name = [(r[NAME], r[PARENT], r[REQUEST]) for r in recorder.spans]
    assert by_name == [("campaign", None, 0), ("stage", 0, 1),
                       ("inner", 1, 1), ("stage", 0, 2)]
    assert all(r[END] > r[START] for r in recorder.spans)


def test_wrapper_records_errors_and_skips_when_inactive():
    recorder = Recorder(clock=FakeClock())

    def boom():
        raise KeyError("x")

    wrapped = _wrap(recorder, boom, "boom")
    with pytest.raises(KeyError):
        wrapped()
    assert recorder.spans[0][ATTRS] == {"error": "KeyError"}
    recorder.stop_in_child()
    with pytest.raises(KeyError):
        wrapped()
    assert len(recorder.spans) == 1


def test_layer_metrics_counts_and_unattributed():
    spans = [span(0, None, "campaign", 0.0, 10.0),
             span(1, 0, "stage.tec-only", 0.0, 9.0, 1),
             span(2, 1, "solver.steady", 1.0, 8.0, 1),
             span(3, 2, "assembly.overlays", 1.0, 2.0, 1),
             span(4, 2, "operator.factor", 2.0, 7.0, 1),
             span(5, 4, "operator.splu", 2.5, 6.5, 1),
             span(6, 2, "assembly.overlays", 7.0, 7.5, 1),
             span(7, 0, "sqp", 9.0, 9.5, 0, {"nfev": 3, "njev": 2,
                                              "nit": 2})]
    metrics = layer_metrics(spans, wall=11.0)
    assert metrics["stage.tec-only.ms_p50"] == pytest.approx(9000.0)
    assert metrics["solver.steady.calls"] == 1
    assert metrics["solver.iters_per_steady"] == 2.0
    assert metrics["operator.factor.hit_ratio"] == 0.0
    assert metrics["operator.splu.s"] == pytest.approx(4.0)
    assert metrics["operator.factor.self_s"] == pytest.approx(1.0)
    assert metrics["sqp.nfev"] == 3
    assert metrics["unattributed_s"] == pytest.approx(1.0)
