"""Unit tests for working-set profiling and miss-ratio curves."""

import pytest

from repro.analysis.workingset import (
    WorkingSetProfiler,
    miss_ratio_curve,
    required_cache_for_miss_ratio,
)
from repro.kernel.page import PageState

from tests.helpers import make_mm

PAGE = 256 * 1024


# ----------------------------------------------------------------------
# profiler


def test_estimate_requires_samples():
    with pytest.raises(ValueError):
        WorkingSetProfiler().estimate()


def test_required_is_min_healthy_footprint():
    profiler = WorkingSetProfiler(pressure_target=1.0)
    profiler.record(0.0, 100, pressure=0.1)
    profiler.record(1.0, 80, pressure=0.5)   # healthy and smaller
    profiler.record(2.0, 60, pressure=2.0)   # too much pressure
    estimate = profiler.estimate()
    assert estimate.required_bytes == 80
    assert estimate.peak_bytes == 100
    assert estimate.samples == 3


def test_all_unhealthy_falls_back_to_peak():
    profiler = WorkingSetProfiler(pressure_target=0.5)
    profiler.record(0.0, 100, pressure=3.0)
    estimate = profiler.estimate()
    assert estimate.required_bytes == estimate.peak_bytes == 100


# ----------------------------------------------------------------------
# miss-ratio curve


def test_empty_histogram_empty_curve():
    mm = make_mm()
    mm.create_cgroup("app")
    assert miss_ratio_curve(mm.cgroup("app")) == []


def test_curve_from_synthetic_distances():
    mm = make_mm()
    mm.create_cgroup("app")
    cg = mm.cgroup("app")
    # 10 short reuses (distance 2-3) and 10 long ones (distance 64-127).
    for _ in range(10):
        cg.record_reuse_distance(2)
    for _ in range(10):
        cg.record_reuse_distance(64)
    curve = dict(miss_ratio_curve(cg))
    # With 4 pages of cache, the long half still misses.
    assert curve[4] == pytest.approx(0.5)
    # With 128 pages, everything fits.
    assert curve[128] == pytest.approx(0.0)


def test_curve_is_monotone_nonincreasing():
    mm = make_mm()
    mm.create_cgroup("app")
    cg = mm.cgroup("app")
    for distance in (1, 2, 5, 9, 33, 190, 1000):
        cg.record_reuse_distance(distance)
    ratios = [r for _, r in miss_ratio_curve(cg)]
    assert ratios == sorted(ratios, reverse=True)


def test_required_cache_lookup():
    mm = make_mm()
    mm.create_cgroup("app")
    cg = mm.cgroup("app")
    for _ in range(9):
        cg.record_reuse_distance(2)
    cg.record_reuse_distance(1024)
    # 10% miss tolerance: the small bucket suffices.
    assert required_cache_for_miss_ratio(cg, 0.11) == 4
    with pytest.raises(ValueError):
        required_cache_for_miss_ratio(cg, 1.5)


def test_distances_recorded_by_real_refaults():
    """The fault path populates the histogram organically."""
    mm = make_mm(backend=None)
    mm.create_cgroup("app")
    pages, _ = mm.register_file("app", 20, now=0.0, resident=True)
    mm.memory_reclaim("app", 5 * PAGE, now=1.0)
    evicted = pages[mm.table.state[pages] == PageState.EVICTED]
    for page in evicted:
        mm.touch(page, now=2.0)
    assert sum(mm.cgroup("app").reuse_distance_hist.values()) == len(evicted)


def test_record_rejects_bad_distance():
    mm = make_mm()
    mm.create_cgroup("app")
    with pytest.raises(ValueError):
        mm.cgroup("app").record_reuse_distance(0)
