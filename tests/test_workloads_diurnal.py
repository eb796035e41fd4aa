"""Unit tests for diurnal load cycling."""

import numpy as np
import pytest

from repro.core.senpai import Senpai, SenpaiConfig
from repro.kernel.page import PageState
from repro.workloads.access import HeatBands
from repro.workloads.apps import APP_CATALOG, AppProfile
from repro.workloads.diurnal import DiurnalWorkload

from tests.helpers import make_mm, small_host

MB = 1 << 20
_GB = 1 << 30

PERIOD = 1200.0  # compressed day


def profile(npages=400) -> AppProfile:
    return AppProfile(
        name="cyclic",
        size_gb=npages * MB / _GB,
        anon_frac=0.6,
        bands=HeatBands(0.4, 0.1, 0.1),
        compress_ratio=3.0,
        nthreads=2,
        cpu_cores=1.0,
    )


def make_workload(**kwargs):
    mm = make_mm(ram_mb=1024, page_kb=1024)
    mm.create_cgroup("app")
    w = DiurnalWorkload(
        mm, profile(), "app", seed=3, period_s=PERIOD, **kwargs
    )
    w.start(0.0)
    return w


def test_parameter_validation():
    mm = make_mm()
    mm.create_cgroup("app")
    with pytest.raises(ValueError):
        DiurnalWorkload(mm, profile(), "app", seed=1, amplitude=1.5)
    with pytest.raises(ValueError):
        DiurnalWorkload(mm, profile(), "app", seed=1,
                        footprint_swing=1.0)


def test_intensity_cycles_around_one():
    w = make_workload(amplitude=0.3)
    quarter = PERIOD / 4
    assert w.intensity(quarter) == pytest.approx(1.3)        # peak
    assert w.intensity(3 * quarter) == pytest.approx(0.7)    # trough
    assert w.intensity(0.0) == pytest.approx(1.0)


def test_footprint_breathes():
    w = make_workload(footprint_swing=0.2)
    base = w.npages_total
    # Walk to the peak: footprint grows.
    t = 0.0
    while t < PERIOD / 4:
        w.tick(t, 10.0)
        t += 10.0
    peak = w.npages_total
    assert peak > base
    # Walk to the trough: the swing pool is released again.
    while t < 3 * PERIOD / 4:
        w.tick(t, 10.0)
        t += 10.0
    trough = w.npages_total
    assert trough < peak
    assert trough >= base  # never below the base population


def test_released_pages_uncharge():
    w = make_workload(footprint_swing=0.3)
    mm = w.mm
    t = 0.0
    while t < PERIOD:
        w.tick(t, 10.0)
        t += 10.0
        # Accounting invariant holds through every breath.
        resident = int((mm.table.state[w.pages] == PageState.RESIDENT).sum())
        assert mm.cgroup("app").resident_bytes == (
            resident * mm.page_size_bytes
        )


def test_restart_rebuilds_the_swing_pool_from_live_pages():
    """A restart clears the swing pool and scales from the base
    population: the rebuild is no larger than the base population,
    every later swing id is a live page of the cgroup, and the next
    trough after the swing regrows releases pages."""
    host = small_host(ram_gb=1.0)
    w = host.add_workload(
        DiurnalWorkload, APP_CATALOG["Feed"], name="feed",
        size_scale=0.01, period_s=200.0, footprint_swing=0.3,
    )
    for _ in range(50):  # t = 50 s: the peak, the swing pool is full
        host.step()
    assert len(w._swing_pages) > 0
    base = w.npages_total - len(w._swing_pages)
    host.restart_workload("feed")
    assert len(w._swing_pages) == 0
    assert w.npages_total <= base
    index = host.mm.cgroup("feed").index
    sizes = []
    for _ in range(300):  # through t = 150 (trough), 250 (peak), 350
        host.step()
        swing = w._swing_pages
        assert (host.mm.table.cgroup[swing] == index).all()
        assert np.isin(swing, w.pages).all()
        sizes.append(w.npages_total)
    assert sizes[-1] < max(sizes[150:])


def test_peak_touches_more_than_trough():
    w = make_workload(amplitude=0.6, footprint_swing=0.0)
    peak_work = w.tick(PERIOD / 4, 10.0).work_done
    trough_work = w.tick(3 * PERIOD / 4, 10.0).work_done
    assert peak_work > trough_work


def test_senpai_follows_the_cycle():
    """Over full cycles under Senpai the host stays healthy and the
    cgroup keeps breathing (offload at trough, expansion at peak)."""
    host = small_host(ram_gb=1.0, backend="zswap")
    host.mm.create_cgroup("app")
    host.psi.add_group("app")
    w = DiurnalWorkload(
        host.mm, profile(), "app", seed=3,
        period_s=PERIOD, footprint_swing=0.2,
    )
    w.start(0.0)
    tasks = [host.psi.add_task(f"app/t{i}", "app") for i in range(2)]
    from repro.sim.host import HostedWorkload

    host._hosted["app"] = HostedWorkload(
        workload=w, cgroup_name="app", psi_tasks=tasks
    )
    host.add_controller(
        Senpai(SenpaiConfig(reclaim_ratio=0.003, max_step_frac=0.02))
    )
    host.run(2.5 * PERIOD)
    cg = host.mm.cgroup("app")
    assert cg.offloaded_bytes() > 0
    resident = host.metrics.series("app/resident_bytes")
    # The resident set visibly oscillates across cycles.
    mid = resident.window(PERIOD, 2 * PERIOD)
    assert mid.max() > 1.03 * mid.min()
