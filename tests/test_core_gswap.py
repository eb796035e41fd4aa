"""Unit tests for the g-swap promotion-rate baseline."""

import pytest

from repro.core.gswap import GSwapConfig, GSwapController
from repro.workloads.access import HeatBands
from repro.workloads.apps import AppProfile
from repro.workloads.base import Workload

from tests.helpers import small_host

MB = 1 << 20
_GB = 1 << 30


def profile(npages=600, hot=0.2) -> AppProfile:
    return AppProfile(
        name="app",
        size_gb=npages * MB / _GB,
        anon_frac=0.7,
        bands=HeatBands(hot, 0.05, 0.05),
        compress_ratio=3.0,
        nthreads=2,
        cpu_cores=1.0,
    )


def run(config: GSwapConfig, duration=900.0, hot=0.2):
    host = small_host(ram_gb=1.0, backend="zswap")
    host.add_workload(Workload, profile=profile(hot=hot), name="app")
    ctrl = host.add_controller(GSwapController(config))
    host.run(duration)
    return host, ctrl


def test_gswap_offloads_memory():
    host, _ = run(GSwapConfig(target_promotion_rate=20.0))
    assert host.mm.cgroup("app").offloaded_bytes() > 0


def test_promotion_rate_respects_target():
    host, _ = run(GSwapConfig(target_promotion_rate=5.0), duration=1200.0)
    rate = host.metrics.series("app/promotion_rate")
    late = rate.window(600.0, 1200.0)
    # The controller backs off whenever the rate crosses the target, so
    # the sustained average stays in the target's neighbourhood.
    assert late.mean() < 15.0


def test_higher_target_offloads_more():
    # A hot workload: offloading it causes promotions, so a low target
    # forces back-off while a high target keeps reclaiming.
    host_low, _ = run(
        GSwapConfig(target_promotion_rate=0.05), hot=0.6
    )
    host_high, _ = run(
        GSwapConfig(target_promotion_rate=100.0), hot=0.6
    )
    assert (
        host_high.mm.cgroup("app").offloaded_bytes()
        > host_low.mm.cgroup("app").offloaded_bytes()
    )


def test_step_adapts_multiplicatively():
    config = GSwapConfig(
        target_promotion_rate=1000.0,  # never reached: step keeps growing
        initial_step_frac=0.001,
        increase_factor=2.0,
        max_step_frac=0.008,
    )
    host, ctrl = run(config, duration=120.0)
    state = ctrl._states["app"]
    assert state.step_frac == pytest.approx(0.008)  # hit the cap


def test_zero_interval_metrics_recorded():
    host, _ = run(GSwapConfig(), duration=60.0)
    assert "app/gswap_reclaim" in host.metrics


def test_reclaim_step_is_a_fraction_of_the_container_bytes():
    # Each period reclaims step_frac of the container's bytes (rounded
    # up to whole pages); a bytes/pages slip in the request would
    # shrink every step to the one-page minimum.
    config = GSwapConfig(
        target_promotion_rate=1000.0,  # never reached: always reclaims
        initial_step_frac=0.01,
        max_step_frac=0.01,
    )
    host, _ = run(config, duration=20.0)
    steps = host.metrics.series("app/gswap_reclaim").values
    container_bytes = profile().size_gb * _GB
    assert len(steps) == 3
    assert min(steps) >= 0.5 * config.max_step_frac * container_bytes
    assert min(steps) > host.mm.page_size_bytes
