"""Per-container SLO tiers in Senpai (Section 3.3's planned work)."""

import pytest

from repro.core.senpai import Senpai, SenpaiConfig, SloTier
from repro.workloads.access import HeatBands
from repro.workloads.apps import AppProfile
from repro.workloads.base import Workload

from tests.helpers import small_host

MB = 1 << 20
_GB = 1 << 30


def profile(name, npages=300) -> AppProfile:
    return AppProfile(
        name=name,
        size_gb=npages * MB / _GB,
        anon_frac=0.6,
        bands=HeatBands(0.3, 0.1, 0.1),
        compress_ratio=3.0,
        nthreads=2,
        cpu_cores=1.0,
    )


def test_default_tier_is_neutral():
    config = SenpaiConfig()
    tier = config.tier_for("anything")
    assert tier.pressure_scale == 1.0
    assert tier.ratio_scale == 1.0


def test_named_tiers():
    assert SloTier.batch().pressure_scale > 1.0


def test_tier_lookup():
    config = SenpaiConfig(
        slo_tiers=(("batchy", SloTier.batch()),)
    )
    assert config.tier_for("batchy").ratio_scale == 4.0
    assert config.tier_for("other").ratio_scale == 1.0


def test_batch_tier_offloads_more_than_sensitive():
    host = small_host(ram_gb=1.5, backend="zswap")
    host.add_workload(Workload, profile=profile("b"), name="batchy")
    host.add_workload(Workload, profile=profile("s"), name="sensitive")
    host.add_controller(Senpai(SenpaiConfig(
        reclaim_ratio=0.002,
        slo_tiers=(
            ("batchy", SloTier.batch()),
            ("sensitive", SloTier(pressure_scale=0.5, ratio_scale=0.5)),
        ),
    )))
    host.run(900.0)
    batch_offloaded = host.mm.cgroup("batchy").offloaded_bytes()
    sensitive_offloaded = host.mm.cgroup("sensitive").offloaded_bytes()
    # Identical workloads; the tiering alone drives the difference.
    assert batch_offloaded > 2 * sensitive_offloaded
