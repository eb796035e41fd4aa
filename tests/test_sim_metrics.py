"""Unit tests for the metrics recorder."""

import math

import pytest

from repro.sim.metrics import MetricsRecorder, Series, metrics_digest


def test_series_records_in_order():
    s = Series("x")
    s.record(0.0, 1.0)
    s.record(1.0, 2.0)
    assert len(s) == 2
    assert s.values == [1.0, 2.0]


def test_series_rejects_time_reversal():
    s = Series("x")
    s.record(1.0, 1.0)
    with pytest.raises(ValueError):
        s.record(0.5, 2.0)


def test_series_allows_equal_timestamps():
    s = Series("x")
    s.record(1.0, 1.0)
    s.record(1.0, 2.0)
    assert len(s) == 2


def test_series_statistics():
    s = Series("x")
    for t, v in enumerate([1.0, 2.0, 3.0, 4.0]):
        s.record(float(t), v)
    assert s.mean() == pytest.approx(2.5)
    assert s.min() == 1.0
    assert s.max() == 4.0
    assert s.last() == 4.0
    assert s.percentile(50) == pytest.approx(2.5)


def test_empty_series_statistics_are_nan():
    s = Series("x")
    assert math.isnan(s.mean())
    assert math.isnan(s.last())
    assert math.isnan(s.percentile(90))


def test_series_window_slices_half_open():
    s = Series("x")
    for t in range(5):
        s.record(float(t), float(t))
    w = s.window(1.0, 3.0)
    assert w.times == [1.0, 2.0]


def test_series_as_arrays():
    s = Series("x")
    s.record(0.0, 5.0)
    times, values = s.as_arrays()
    assert times.tolist() == [0.0]
    assert values.tolist() == [5.0]


def test_recorder_creates_series_lazily():
    rec = MetricsRecorder()
    assert "a" not in rec
    rec.record("a", 0.0, 1.0)
    assert "a" in rec
    assert rec.series("a").last() == 1.0


def test_recorder_unknown_series_is_empty():
    rec = MetricsRecorder()
    assert len(rec.series("missing")) == 0


def test_recorder_summary():
    rec = MetricsRecorder()
    rec.record("a", 0.0, 2.0)
    rec.record("a", 1.0, 4.0)
    rec.record("b", 0.0, 1.0)
    summary = rec.summary(["a"])
    assert summary == {"a": pytest.approx(3.0)}
    assert set(rec.summary()) == {"a", "b"}


# ----------------------------------------------------------------------
# window boundary semantics


def test_window_is_half_open_on_duplicate_boundary_timestamps():
    """Half-open [start, end): duplicates exactly at ``start`` are all
    included, duplicates exactly at ``end`` are all excluded."""
    s = Series("x")
    for t, v in [(0.0, 0.0), (1.0, 1.0), (1.0, 2.0), (2.0, 3.0),
                 (3.0, 4.0), (3.0, 5.0), (4.0, 6.0)]:
        s.record(t, v)
    w = s.window(1.0, 3.0)
    assert w.times == [1.0, 1.0, 2.0]
    assert w.values == [1.0, 2.0, 3.0]


def test_window_empty_when_range_is_before_after_or_degenerate():
    s = Series("x")
    for t in range(3):
        s.record(float(t), float(t))
    assert len(s.window(-5.0, 0.0)) == 0   # all before first sample
    assert len(s.window(2.5, 9.0)) == 0    # all after last sample
    assert len(s.window(1.0, 1.0)) == 0    # degenerate [t, t)
    assert len(s.window(3.0, 1.0)) == 0    # inverted range


def test_window_on_empty_series_is_empty():
    assert len(Series("x").window(0.0, 10.0)) == 0


# ----------------------------------------------------------------------
# the non-registering read path (query-side digest neutrality)


def test_series_does_not_register_unknown_names():
    rec = MetricsRecorder()
    rec.record("a", 0.0, 1.0)
    ghost = rec.series("app/rps")
    assert len(ghost) == 0
    assert "app/rps" not in rec
    ghost.record(0.0, 1.0)  # detached: must not reach the recorder
    assert "app/rps" not in rec
    assert rec.series("a") is rec.series("a")


def test_read_window_does_not_register_and_detaches_unknowns():
    rec = MetricsRecorder()
    rec.record("a", 0.0, 1.0)
    rec.record("a", 5.0, 2.0)
    assert rec.read_window("a", 0.0, 1.0).values == [1.0]
    ghost = rec.read_window("missing", 0.0, 10.0)
    assert len(ghost) == 0
    assert "missing" not in rec
    ghost.record(0.0, 1.0)  # detached: must not reach the recorder
    assert "missing" not in rec


def test_summary_does_not_register_phantom_series():
    """Regression: ``summary(names=[...])`` used to call ``series()``
    and register an empty series per unknown name, mutating the
    metrics digest from a pure read path."""
    rec = MetricsRecorder()
    rec.record("a", 0.0, 2.0)
    before = metrics_digest(rec)
    summary = rec.summary(["a", "never_recorded"])
    assert summary == {"a": pytest.approx(2.0), "never_recorded": None}
    assert "never_recorded" not in rec
    assert metrics_digest(rec) == before


def test_summary_empty_series_is_none_not_nan():
    """An unrecorded series must summarize as ``None`` (JSON null),
    never as NaN — the socket protocol forbids the bare NaN token."""
    rec = MetricsRecorder()
    summary = rec.summary(["app/rps"])
    assert summary == {"app/rps": None}
    assert not any(
        isinstance(v, float) and math.isnan(v)
        for v in summary.values()
    )


def test_query_twice_equals_query_never():
    """The digest-neutrality contract behind the fleetd query surface:
    any amount of series/read_window/summary traffic leaves the digest
    byte-identical to an unqueried twin recorder."""
    def build():
        rec = MetricsRecorder()
        for t in range(10):
            rec.record("app/psi_mem_some_avg10", float(t), 0.1 * t)
        return rec

    queried, quiet = build(), build()
    for _ in range(2):
        queried.series("app/psi_mem_some_avg10")
        queried.series("never_recorded")
        queried.read_window("app/psi_mem_some_avg10", 2.0, 7.0)
        queried.read_window("senpai/degraded", 0.0, 10.0)
        queried.summary(["app/psi_mem_some_avg10", "missing"])
        queried.summary()
    assert metrics_digest(queried) == metrics_digest(quiet)


# ----------------------------------------------------------------------
# the declared-name registry, enforced by the recorder


@pytest.mark.parametrize("name, table, hint", [
    ("senpai/stal", "METRIC_NAMES", "did you mean 'senpai/stale'?"),
    ("app/promoted", "PER_CGROUP_METRICS",
     "did you mean 'promotion_rate'?"),
    ("chaos/storm", "DYNAMIC_NAMESPACES", "namespace 'chaos'"),
])
def test_record_refuses_undeclared_names(name, table, hint):
    rec = MetricsRecorder()
    with pytest.raises(KeyError) as excinfo:
        rec.record(name, 0.0, 1.0)
    message = str(excinfo.value)
    assert table in message
    assert hint in message
    assert name not in rec


@pytest.mark.parametrize("name", [
    "latency",                  # no namespace: ad-hoc, out of scope
    "host/free_bytes",          # METRIC_NAMES
    "web/refaults",             # PER_CGROUP_METRICS suffix
    "faults/io_error",          # DYNAMIC_NAMESPACES head
])
def test_record_accepts_declared_and_unnamespaced_names(name):
    rec = MetricsRecorder()
    rec.record(name, 0.0, 1.0)
    assert rec.series(name).values == [1.0]


@pytest.mark.parametrize("read", [
    lambda rec: rec.series("senpai/stal"),
    lambda rec: rec.read_window("app/promoted", 0.0, 10.0),
    lambda rec: rec.summary(["app/rps", "chaos/storm"]),
], ids=["series", "read_window", "summary"])
def test_reads_refuse_undeclared_names_without_registering(read):
    rec = MetricsRecorder()
    rec.record("app/rps", 0.0, 1.0)
    names, digest = sorted(rec.names()), metrics_digest(rec)
    with pytest.raises(KeyError, match="is not declared"):
        read(rec)
    assert sorted(rec.names()) == names
    assert metrics_digest(rec) == digest
