"""Unit tests for access-trace recording and replay."""

import pytest

from repro.workloads.access import HeatBands
from repro.workloads.apps import AppProfile
from repro.workloads.trace import (
    AccessTrace,
    RecordingWorkload,
    ReplayWorkload,
    TraceEvent,
)

from tests.helpers import make_mm

MB = 1 << 20
_GB = 1 << 30
PAGE = 256 * 1024


def profile(npages=200, growth=0.0) -> AppProfile:
    return AppProfile(
        name="traced",
        size_gb=npages * PAGE / _GB,
        anon_frac=0.6,
        bands=HeatBands(0.4, 0.1, 0.1),
        compress_ratio=3.0,
        nthreads=2,
        cpu_cores=1.0,
        growth_gb_per_hour=growth,
    )


def record(n_ticks=20, **profile_kwargs) -> AccessTrace:
    mm = make_mm()
    mm.create_cgroup("app")
    recorder = RecordingWorkload(mm, profile(**profile_kwargs), "app",
                                 seed=9)
    recorder.start(0.0, size_scale=1.0)
    for i in range(n_ticks):
        recorder.tick(float(i) * 6.0, 6.0)
    return recorder.trace


def test_trace_captures_every_tick():
    trace = record(n_ticks=20)
    assert len(trace) == 20
    assert trace.total_touches > 0
    assert trace.profile.name == "traced"


def test_trace_records_growth():
    # 10 pages/s of growth at 256 KiB pages.
    growth_gb_h = 3600 * 10 * PAGE / _GB
    trace = record(n_ticks=5, growth=growth_gb_h)
    assert sum(e.grown for e in trace.events) == 5 * 6 * 10


def test_replay_touches_exactly_the_recorded_pages():
    trace = record(n_ticks=15)
    mm = make_mm()
    mm.create_cgroup("app")
    replayer = ReplayWorkload(mm, trace, "app")
    replayer.start(0.0)
    for i, event in enumerate(trace.events):
        tick = replayer.tick(float(i) * 6.0, 6.0)
        assert tick.work_done == len(event.touched)
    assert replayer.exhausted
    assert replayer.dropped_touches == 0


def test_replay_reproduces_fault_counts_on_identical_substrate():
    trace = record(n_ticks=20)

    def faults(mm):
        return mm.cgroup("app").vmstat.pgmajfault

    mm_a = make_mm(seed=1)
    mm_a.create_cgroup("app")
    replay_a = ReplayWorkload(mm_a, trace, "app")
    replay_a.start(0.0)
    mm_b = make_mm(seed=2)  # different device RNG, same substrate shape
    mm_b.create_cgroup("app")
    replay_b = ReplayWorkload(mm_b, trace, "app")
    replay_b.start(0.0)
    for i in range(len(trace)):
        replay_a.tick(float(i) * 6.0, 6.0)
        replay_b.tick(float(i) * 6.0, 6.0)
    # Same accesses, same reclaim decisions: identical fault *counts*
    # (latencies differ with the device RNG).
    assert faults(mm_a) == faults(mm_b)


def test_replay_past_end_raises():
    trace = record(n_ticks=3)
    mm = make_mm()
    mm.create_cgroup("app")
    replayer = ReplayWorkload(mm, trace, "app")
    replayer.start(0.0)
    for i in range(3):
        replayer.tick(float(i), 1.0)
    with pytest.raises(IndexError):
        replayer.tick(4.0, 1.0)


def test_replay_on_different_backend_same_accesses():
    """The point of traces: identical load against another backend."""
    trace = record(n_ticks=20)
    mm = make_mm(backend="ssd")
    mm.create_cgroup("app")
    replayer = ReplayWorkload(mm, trace, "app")
    replayer.start(0.0)
    total = 0
    for i in range(len(trace)):
        total += replayer.tick(float(i) * 6.0, 6.0).work_done
    assert total == trace.total_touches
    assert replayer.dropped_touches == 0


def replayer_of(*events):
    trace = AccessTrace(
        profile=profile(), seed=9, size_scale=1.0,
        events=[TraceEvent(touched=list(e)) for e in events],
    )
    mm = make_mm()
    mm.create_cgroup("app")
    replayer = ReplayWorkload(mm, trace, "app")
    replayer.start(0.0)
    return replayer


def test_replay_drops_negative_indices():
    replayer = replayer_of([-1, 0])
    tick = replayer.tick(5.0, 6.0)
    # -1 names no page: it must not wrap around to the last one.
    assert replayer.dropped_touches == 1
    assert tick.work_done == 1
    last_access = replayer.mm.table.last_access
    assert last_access[replayer.pages[-1]] == 0.0
    assert last_access[replayer.pages[0]] == 5.0


def test_replay_rejects_duplicate_indices():
    replayer = replayer_of([1, 2], [4, 7, 4])
    replayer.tick(0.0, 6.0)
    with pytest.raises(ValueError, match="trace event 1 .* index 4"):
        replayer.tick(6.0, 6.0)
