"""Unit tests for the Web RPS model."""

import pytest

from repro.kernel.page import PageKind, PageState
from repro.workloads.access import HeatBands
from repro.workloads.apps import AppProfile
from repro.workloads.web import WebConfig, WebWorkload

from tests.helpers import make_mm

PAGE = 256 * 1024
_GB = 1 << 30


def small_web_profile(npages=200) -> AppProfile:
    return AppProfile(
        name="Web",
        size_gb=npages * PAGE / _GB,
        anon_frac=0.65,
        bands=HeatBands(0.20, 0.08, 0.10),
        compress_ratio=4.0,
        file_preload=True,
        nthreads=4,
        cpu_cores=4.0,
    )


def make_web(ram_mb=256, config=None, npages=200):
    mm = make_mm(ram_mb=ram_mb)
    mm.create_cgroup("web", compressibility=4.0)
    web = WebWorkload(
        mm, "web", seed=5,
        config=config or WebConfig(),
        profile=small_web_profile(npages),
    )
    web.start(0.0)
    return web


def test_starts_with_file_cache_loaded():
    web = make_web()
    file = web.pages[web.mm.table.kind[web.pages] == PageKind.FILE]
    assert len(file)
    assert (web.mm.table.state[file] == PageState.RESIDENT).all()


def test_healthy_host_serves_base_rps():
    web = make_web()
    tick = web.tick(0.0, 1.0)
    assert web.rps == pytest.approx(web.config.base_rps, rel=0.05)
    assert tick.work_done == pytest.approx(web.rps, rel=1e-6)


def test_anon_grows_with_requests():
    web = make_web()
    before = len(web.pages)
    for i in range(60):
        web.tick(float(i) * 10.0, 10.0)
    assert len(web.pages) > before


def test_memory_bound_host_throttles():
    # Fill the host so free memory drops under the throttle threshold.
    web = make_web(ram_mb=64, npages=245)  # 245 of 256 pages resident
    web.tick(0.0, 1.0)
    assert web.rps < web.config.base_rps * 0.99
    assert web.rps >= web.config.base_rps * web.config.min_throttle


def test_stalls_reduce_rps():
    web = make_web()
    mm = web.mm
    # Swap out most anon pages: the hot set will fault back in.
    mm.memory_reclaim("web", 120 * PAGE, now=0.0)
    rps_with_stalls = None
    for i in range(5):
        web.tick(float(i), 1.0)
        if rps_with_stalls is None or web.rps < rps_with_stalls:
            rps_with_stalls = web.rps
    assert rps_with_stalls < web.config.base_rps


def test_min_throttle_floor_respected():
    config = WebConfig(min_throttle=0.7)
    web = make_web(ram_mb=64, config=config, npages=250)
    for i in range(3):
        try:
            web.tick(float(i), 1.0)
        except Exception:  # pragma: no cover - OOM paths vary
            break
    assert web.rps >= config.base_rps * 0.7 * 0.99


def test_alloc_floor_stops_growth():
    config = WebConfig(alloc_free_floor_frac=0.95)  # absurdly high floor
    web = make_web(config=config)
    before = len(web.pages)
    for i in range(30):
        web.tick(float(i) * 10.0, 10.0)
    # Free memory is always below a 95% floor on this host: no growth.
    assert len(web.pages) == before


def test_stall_sensitivity_zero_disables_stall_throttle():
    config = WebConfig(stall_sensitivity=0.0)
    web = make_web(config=config)
    web.mm.memory_reclaim("web", 120 * PAGE, now=0.0)
    for i in range(5):
        web.tick(float(i), 1.0)
    # Only the memory factor can throttle; plenty of free RAM here.
    assert web.rps == pytest.approx(config.base_rps, rel=0.01)


def test_stall_factor_floor():
    from repro.workloads.base import TickResult

    web = make_web()
    tick = TickResult(name="w", stall_both_s=1e9)  # absurd stall
    assert web._stall_factor(tick, dt=1.0) == pytest.approx(0.05)


def test_memory_factor_recovers_with_headroom():
    web = make_web(ram_mb=256)
    assert web._memory_factor() == 1.0
