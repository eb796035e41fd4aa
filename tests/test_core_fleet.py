"""Unit tests for the fleet harness and savings accounting."""

import pytest

from repro.core.fleet import Fleet, HostPlan, cgroup_memory_savings
from repro.core.senpai import SenpaiConfig
from repro.kernel.page import PageState
from repro.sim.host import HostConfig

from tests.helpers import make_mm

MB = 1 << 20
PAGE = 256 * 1024


# ----------------------------------------------------------------------
# savings accounting


def test_untouched_cgroup_has_zero_savings():
    mm = make_mm()
    mm.create_cgroup("app")
    mm.alloc_anon("app", 10, now=0.0)
    stats = cgroup_memory_savings(mm, "app")
    assert stats["saved_bytes"] == 0.0
    assert stats["savings_frac"] == 0.0


def test_zswap_savings_net_of_pool():
    mm = make_mm(backend="zswap")
    mm.create_cgroup("app", compressibility=4.0)
    mm.alloc_anon("app", 20, now=0.0)
    mm.memory_reclaim("app", 10 * PAGE, now=1.0)
    stats = cgroup_memory_savings(mm, "app")
    offloaded = stats["offloaded_bytes"]
    assert offloaded > 0
    # Pool overhead ~ offloaded / 4 / 0.9 packing.
    assert 0 < stats["pool_overhead_bytes"] < offloaded / 2
    assert stats["saved_bytes"] == pytest.approx(
        offloaded - stats["pool_overhead_bytes"]
    )


def test_ssd_savings_have_no_pool_overhead():
    mm = make_mm(backend="ssd")
    mm.create_cgroup("app")
    mm.alloc_anon("app", 20, now=0.0)
    mm.memory_reclaim("app", 5 * PAGE, now=1.0)
    stats = cgroup_memory_savings(mm, "app")
    assert stats["pool_overhead_bytes"] == 0.0
    assert stats["saved_bytes"] == stats["offloaded_bytes"] > 0


def test_file_savings_counted_via_shadows():
    mm = make_mm(backend=None)
    mm.create_cgroup("app")
    mm.register_file("app", 20, now=0.0, resident=True)
    mm.memory_reclaim("app", 5 * PAGE, now=1.0)
    stats = cgroup_memory_savings(mm, "app")
    assert stats["saved_file_bytes"] == 5 * PAGE
    assert stats["savings_frac"] == pytest.approx(0.25)


def test_refault_reduces_file_savings():
    mm = make_mm(backend=None)
    mm.create_cgroup("app")
    pages, _ = mm.register_file("app", 20, now=0.0, resident=True)
    mm.memory_reclaim("app", 5 * PAGE, now=1.0)
    evicted = pages[mm.table.state[pages] != PageState.RESIDENT]
    mm.touch(evicted[0], now=2.0)  # refault: saving undone
    stats = cgroup_memory_savings(mm, "app")
    assert stats["saved_file_bytes"] == 4 * PAGE


# ----------------------------------------------------------------------
# fleet harness


def small_fleet():
    return Fleet(
        base_config=HostConfig(
            ram_gb=1.0, page_size_bytes=1 * MB, ncpu=8, backend="zswap",
        ),
        seed=3,
    )


def test_fleet_runs_planned_hosts():
    fleet = small_fleet()
    plans = [HostPlan(app="Feed", count=2, size_scale=0.01)]
    result = fleet.run(plans, duration_s=300.0)
    assert len(result.reports) == 2
    assert result.apps() == ["Feed"]
    for report in result.reports:
        assert report.backend == "zswap"
        assert report.app_baseline_bytes > 0


def test_fleet_without_tax():
    fleet = small_fleet()
    plans = [HostPlan(app="Feed", count=1, size_scale=0.01,
                      include_tax=False)]
    result = fleet.run(plans, duration_s=120.0)
    assert result.reports[0].tax_saved_bytes == 0.0


def test_fleet_backend_override():
    fleet = small_fleet()
    plans = [HostPlan(app="Feed", count=1, size_scale=0.01,
                      backend="ssd", include_tax=False)]
    result = fleet.run(plans, duration_s=60.0)
    assert result.reports[0].backend == "ssd"


def test_fleet_savings_aggregation():
    fleet = small_fleet()
    plans = [
        HostPlan(app="Feed", count=1, size_scale=0.01, include_tax=False),
        HostPlan(app="Cache B", count=1, size_scale=0.01,
                 include_tax=False),
    ]
    result = fleet.run(plans, duration_s=600.0)
    assert set(result.apps()) == {"Feed", "Cache B"}
    assert 0.0 <= result.app_savings("Feed") <= 1.0
    assert result.total_savings_of_ram() >= 0.0


def test_fleet_determinism():
    plans = [HostPlan(app="Feed", count=1, size_scale=0.01,
                      include_tax=False)]
    r1 = small_fleet().run(plans, duration_s=300.0)
    r2 = small_fleet().run(plans, duration_s=300.0)
    assert r1.reports[0].app_saved_bytes == r2.reports[0].app_saved_bytes


def test_fleet_isolates_a_failed_host():
    fleet = small_fleet()
    plans = [
        HostPlan(app="Feed", count=2, size_scale=0.01,
                 include_tax=False),
        # An invalid backend makes this host's build raise; the
        # rollout must record it and carry on.
        HostPlan(app="Cache B", count=1, size_scale=0.01,
                 include_tax=False, backend="bogus"),
    ]
    result = fleet.run(plans, duration_s=120.0)
    assert len(result.reports) == 2
    assert result.apps() == ["Feed"]
    assert result.partial is True
    assert len(result.failed_hosts) == 1
    failed = result.failed_hosts[0]
    assert failed.app == "Cache B"
    assert failed.host_index == 0
    assert "bogus" in failed.error


def test_fleet_without_failures_is_not_partial():
    fleet = small_fleet()
    plans = [HostPlan(app="Feed", count=1, size_scale=0.01,
                      include_tax=False)]
    result = fleet.run(plans, duration_s=60.0)
    assert result.partial is False
    assert result.failed_hosts == []
