"""Unit tests for the tiered (zswap-over-SSD) backend."""

import numpy as np
import pytest

from repro.backends.ssd import SsdSwapBackend
from repro.backends.tiered import TIER_SSD, TIER_ZSWAP, TieredBackend
from repro.backends.zswap import ZswapBackend

PAGE = 4096


def make_tiered(pool_pages=None, **kwargs):
    zswap = ZswapBackend(
        np.random.default_rng(0),
        max_pool_bytes=pool_pages * PAGE if pool_pages else None,
    )
    ssd = SsdSwapBackend(
        "C", np.random.default_rng(1), capacity_bytes=1024 * PAGE
    )
    return TieredBackend(zswap, ssd, **kwargs)


def test_compressible_warm_page_goes_to_zswap():
    tiered = make_tiered()
    tiered.store(PAGE, 4.0, now=0.0, page_id=1, age_s=60.0)
    assert tiered.tier_of(1) == TIER_ZSWAP
    assert tiered.zswap.stored_bytes == PAGE


def test_incompressible_page_goes_to_ssd():
    tiered = make_tiered()
    tiered.store(PAGE, 1.1, now=0.0, page_id=1, age_s=60.0)
    assert tiered.tier_of(1) == TIER_SSD
    assert tiered.ssd.stored_bytes == PAGE


def test_very_cold_page_goes_to_ssd():
    tiered = make_tiered(cold_age_s=1800.0)
    tiered.store(PAGE, 4.0, now=0.0, page_id=1, age_s=7200.0)
    assert tiered.tier_of(1) == TIER_SSD


def test_pool_overflow_spills_to_ssd():
    tiered = make_tiered(pool_pages=1)
    tiered.store(PAGE, 1.9, now=0.0, page_id=1, age_s=0.0)
    # Pool is full (1.9x barely compresses); the next store spills.
    tiered.store(PAGE, 1.9, now=0.0, page_id=2, age_s=0.0)
    assert tiered.tier_of(2) == TIER_SSD
    assert tiered.spilled_stores == 1


def test_load_dispatches_by_placement():
    tiered = make_tiered()
    tiered.store(PAGE, 4.0, now=0.0, page_id=1, age_s=0.0)
    tiered.store(PAGE, 1.0, now=0.0, page_id=2, age_s=0.0)
    lat_zswap = tiered.load(PAGE, 4.0, now=1.0, page_id=1)
    lat_ssd = tiered.load(PAGE, 1.0, now=1.0, page_id=2)
    # zswap loads are an order of magnitude faster.
    assert lat_zswap < lat_ssd


def test_free_clears_placement():
    tiered = make_tiered()
    tiered.store(PAGE, 4.0, now=0.0, page_id=1, age_s=0.0)
    tiered.free(PAGE, 4.0, page_id=1)
    assert tiered.tier_of(1) is None
    assert tiered.zswap.stored_bytes == 0


def test_requires_page_identity():
    tiered = make_tiered()
    with pytest.raises(ValueError):
        tiered.store(PAGE, 4.0, now=0.0)
    with pytest.raises(ValueError):
        tiered.load(PAGE, 4.0, now=0.0)


def test_unknown_page_load_rejected():
    tiered = make_tiered()
    with pytest.raises(KeyError):
        tiered.load(PAGE, 4.0, now=0.0, page_id=99)


def test_aggregate_accounting():
    tiered = make_tiered()
    tiered.store(PAGE, 4.0, now=0.0, page_id=1, age_s=0.0)   # zswap
    tiered.store(PAGE, 1.0, now=0.0, page_id=2, age_s=0.0)   # ssd
    assert tiered.stored_bytes == 2 * PAGE
    assert tiered.dram_overhead_bytes == tiered.zswap.pool_bytes > 0
    assert tiered.endurance_bytes_written == PAGE
    counts = tiered.tier_counts()
    assert counts == {TIER_ZSWAP: 1, TIER_SSD: 1}


def test_host_integration_with_tiered_backend():
    """End to end: mixed compressibility splits across tiers."""
    from repro.core.senpai import Senpai, SenpaiConfig
    from repro.kernel.page import PageState
    from repro.workloads.access import HeatBands
    from repro.workloads.apps import AppProfile
    from repro.workloads.base import Workload

    from tests.helpers import small_host

    MB = 1 << 20
    host = small_host(ram_gb=1.0, backend="tiered")
    profile = AppProfile(
        name="mixed", size_gb=600 * MB / (1 << 30), anon_frac=0.7,
        bands=HeatBands(0.2, 0.05, 0.05), compress_ratio=3.0,
        nthreads=2, cpu_cores=1.0,
    )
    host.add_workload(Workload, profile=profile, name="app")
    host.add_controller(
        Senpai(SenpaiConfig(reclaim_ratio=0.005, max_step_frac=0.02))
    )
    host.run(900.0)
    counts = host.swap_backend.tier_counts()
    # Compressible pages land in zswap; the deeply cold ones (age
    # beyond cold_age_s) go to SSD.
    assert counts[TIER_ZSWAP] > 0
    pages = host.workload("app").pages
    state = host.mm.table.state
    assert (state[pages] == PageState.ZSWAPPED).any()
    # Page states agree with tier placement.
    for page in pages.tolist():
        tier = host.swap_backend.tier_of(page)
        if tier == TIER_ZSWAP:
            assert state[page] == PageState.ZSWAPPED
        elif tier == TIER_SSD:
            assert state[page] == PageState.SWAPPED
