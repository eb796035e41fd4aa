"""Unit tests for the generic workload driver."""

import pytest

from repro.kernel.page import PageKind, PageState
from repro.workloads.access import HeatBands
from repro.workloads.apps import AppProfile
from repro.workloads.base import TickResult, Workload

from tests.helpers import make_mm

PAGE = 256 * 1024
_GB = 1 << 30


def tiny_profile(**overrides) -> AppProfile:
    defaults = dict(
        name="tiny",
        size_gb=100 * PAGE / _GB,  # 100 pages
        anon_frac=0.6,
        bands=HeatBands(0.5, 0.1, 0.1),
        compress_ratio=3.0,
        nthreads=2,
        cpu_cores=2.0,
    )
    defaults.update(overrides)
    return AppProfile(**defaults)


def make_workload(mm=None, profile=None, **overrides):
    mm = mm or make_mm()
    profile = profile or tiny_profile(**overrides)
    mm.create_cgroup("app", compressibility=profile.compress_ratio)
    return Workload(mm, profile, "app", seed=11)


def test_start_splits_anon_and_file():
    w = make_workload()
    w.start(0.0)
    kind = w.mm.table.kind[w.pages]
    anon = w.pages[kind == PageKind.ANON]
    file = w.pages[kind == PageKind.FILE]
    assert len(anon) == 60
    assert len(file) == 40
    # Non-preload profile: file pages start on disk.
    assert (w.mm.table.state[file] == PageState.ABSENT).all()


def test_start_with_preload_makes_file_resident():
    w = make_workload(file_preload=True)
    w.start(0.0)
    file = w.pages[w.mm.table.kind[w.pages] == PageKind.FILE]
    assert (w.mm.table.state[file] == PageState.RESIDENT).all()


def test_double_start_rejected():
    w = make_workload()
    w.start(0.0)
    with pytest.raises(RuntimeError):
        w.start(1.0)


def test_tick_before_start_rejected():
    w = make_workload()
    with pytest.raises(RuntimeError):
        w.tick(0.0, 1.0)


def test_size_scale_shrinks_population():
    w = make_workload()
    w.start(0.0, size_scale=0.5)
    assert len(w.pages) == 50


def test_tick_touches_and_faults():
    w = make_workload()
    w.start(0.0)
    total_events = 0
    for i in range(20):
        tick = w.tick(float(i) * 6.0, 6.0)
        total_events += sum(tick.events.values())
    assert total_events > 0
    # Lazily-loaded file pages were read in at some point.
    assert w.mm.cgroup("app").vmstat.pgpgin_file > 0


def test_tick_cpu_demand_from_profile():
    w = make_workload()
    w.start(0.0)
    tick = w.tick(0.0, 2.0)
    assert tick.cpu_seconds == pytest.approx(4.0)  # 2 cores * 2 s


def test_stall_buckets_classified():
    mm = make_mm(backend="ssd")
    profile = tiny_profile()
    mm.create_cgroup("app")
    w = Workload(mm, profile, "app", seed=11)
    w.start(0.0)
    mm.memory_reclaim("app", 30 * PAGE, now=0.0)
    stalls = TickResult(name="acc")
    for i in range(30):
        tick = w.tick(float(i), 1.0)
        stalls.stall_mem_s += tick.stall_mem_s
        stalls.stall_io_s += tick.stall_io_s
        stalls.stall_both_s += tick.stall_both_s
    # SSD swap-ins and refaults land in the both-bucket; cold file
    # reads land in io-only.
    assert stalls.stall_both_s > 0.0
    assert stalls.stall_io_s > 0.0
    assert stalls.total_stall_s == (
        stalls.stall_mem_s + stalls.stall_io_s + stalls.stall_both_s
    )


def test_growth_allocates_over_time():
    w = make_workload(growth_gb_per_hour=3600 * 10 * PAGE / _GB)
    w.start(0.0)
    before = len(w.pages)
    for i in range(10):
        w.tick(float(i), 1.0)  # 10 pages/s of growth
    assert len(w.pages) == before + 100


def test_restart_rebuilds_population():
    w = make_workload()
    w.start(0.0)
    w.mm.memory_reclaim("app", 20 * PAGE, now=1.0)
    old_pages = w.pages.tolist()
    w.restart(2.0)
    assert w.started
    assert len(w.pages) == len(old_pages)
    assert all(p not in old_pages for p in w.pages.tolist())
    cg = w.mm.cgroup("app")
    assert cg.zswap_bytes == 0  # offloaded state dropped with restart


def test_tick_result_helpers():
    tick = TickResult(name="x", events={"hit": 2})
    assert tick.count("hit") == 2
    assert tick.count("missing") == 0
