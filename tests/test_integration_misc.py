"""Cross-feature integration: combinations the unit tests don't cover."""

import pytest

from repro.core.senpai import Senpai, SenpaiConfig
from repro.kernel.page import PageState
from repro.workloads.access import HeatBands
from repro.workloads.apps import APP_CATALOG, AppProfile
from repro.workloads.base import Workload
from repro.workloads.trace import RecordingWorkload, ReplayWorkload
from repro.workloads.web import WebWorkload

from tests.helpers import make_mm, small_host

MB = 1 << 20
_GB = 1 << 30


def profile(npages=300) -> AppProfile:
    return AppProfile(
        name="app", size_gb=npages * MB / _GB, anon_frac=0.6,
        bands=HeatBands(0.3, 0.1, 0.1), compress_ratio=3.0,
        nthreads=2, cpu_cores=1.0,
    )


def test_kill_workload_on_tiered_backend_releases_both_tiers():
    host = small_host(ram_gb=1.0, backend="tiered")
    host.add_workload(Workload, profile=profile(), name="app")
    # Force mixed placement: cold (old) and warm pages.
    cg = host.mm.cgroup("app")
    cg.refault_rate.rate = 100.0
    host.mm.memory_reclaim("app", 100 * MB, now=0.0)
    backend = host.swap_backend
    counts = backend.tier_counts()
    assert counts["zswap"] + counts["ssd"] > 0
    host.kill_workload("app")
    assert backend.stored_bytes == 0
    assert backend.tier_counts() == {"zswap": 0, "ssd": 0}


def test_mm_pages_accessor_filters_by_cgroup():
    mm = make_mm()
    mm.create_cgroup("a")
    mm.create_cgroup("b")
    mm.alloc_anon("a", 3, now=0.0)
    mm.alloc_anon("b", 5, now=0.0)
    assert len(mm.pages("a")) == 3
    assert len(mm.pages("b")) == 5
    assert len(mm.pages()) == 8
    assert (mm.table.cgroup[mm.pages("a")] == mm.cgroup("a").index).all()


def test_web_workload_is_recordable():
    """RecordingWorkload semantics extend to subclasses by composition:
    a Web run recorded through a RecordingWorkload built from the Web
    profile replays cleanly (memory behaviour only, no RPS loop)."""
    mm = make_mm(ram_mb=512, page_kb=1024)
    mm.create_cgroup("web", compressibility=4.0)
    recorder = RecordingWorkload(
        mm, APP_CATALOG["Web"], "web", seed=4
    )
    recorder.start(0.0, size_scale=0.005)
    for i in range(30):
        recorder.tick(float(i) * 2.0, 2.0)
    trace = recorder.trace
    assert trace.total_touches > 0

    mm2 = make_mm(ram_mb=512, page_kb=1024, backend="ssd")
    mm2.create_cgroup("web", compressibility=4.0)
    replayer = ReplayWorkload(mm2, trace, "web")
    replayer.start(0.0)
    for i in range(30):
        replayer.tick(float(i) * 2.0, 2.0)
    assert replayer.exhausted
    assert replayer.dropped_touches == 0


def test_senpai_file_only_then_swap_enabled_phases():
    """The deployment sequence of Section 5.1: file-only first, then
    swap-enabled — modelled as two controller phases on one host."""
    host = small_host(ram_gb=1.0, backend="zswap")
    host.add_workload(Workload, profile=profile(500), name="app")
    file_only = Senpai(SenpaiConfig(
        file_only_mode=True, reclaim_ratio=0.003, max_step_frac=0.02,
    ))
    host.add_controller(file_only)
    host.run(600.0)
    cg = host.mm.cgroup("app")
    assert cg.zswap_bytes == 0
    file_saved_phase1 = len(cg.shadow)
    assert file_saved_phase1 > 0

    # Phase 2: swap joins in.
    host._controllers.remove(file_only)
    host.add_controller(Senpai(SenpaiConfig(
        reclaim_ratio=0.003, max_step_frac=0.02,
    )))
    host.run(600.0)
    assert cg.zswap_bytes > 0


def test_oom_kill_then_backfill():
    """After an OOM kill the host's memory is reusable by a new tenant."""
    host = small_host(ram_gb=1.0, backend=None)
    host.add_workload(Workload, profile=profile(700), name="victim")
    used_before = host.mm.used_bytes()
    host.kill_workload("victim")
    assert host.mm.used_bytes() < used_before
    host.add_workload(Workload, profile=profile(700), name="tenant2")
    host.run(30.0)
    assert host.mm.cgroup("tenant2").resident_bytes > 0


def test_zswap_incompressible_page_roundtrip_state():
    mm = make_mm(backend="zswap")
    mm.create_cgroup("app", compressibility=1.0)
    pages, _ = mm.alloc_anon("app", 4, now=0.0)
    cg = mm.cgroup("app")
    cg.refault_rate.rate = 100.0
    mm.memory_reclaim("app", 2 * 256 * 1024, now=1.0)
    stored = pages[mm.table.state[pages] == PageState.ZSWAPPED]
    assert len(stored)
    # Incompressible: pool pays full freight, so net saving is ~zero...
    assert mm.zswap_pool_bytes >= len(stored) * 256 * 1024
    # ...but the data still roundtrips correctly.
    result = mm.touch(stored[0], now=2.0)
    assert result.event == "zswapin"
