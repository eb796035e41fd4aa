"""Unit tests for the A/B harness."""

import math

import pytest

from repro.analysis.workingset import WorkingSetProfiler
from repro.core.senpai import Senpai, SenpaiConfig
from repro.sim.ab import ABTest
from repro.sim.metrics import metrics_digest
from repro.workloads.access import HeatBands
from repro.workloads.apps import AppProfile
from repro.workloads.base import Workload

from tests.helpers import small_host

MB = 1 << 20
_GB = 1 << 30


def profile() -> AppProfile:
    return AppProfile(
        name="app",
        size_gb=400 * MB / _GB,
        anon_frac=0.6,
        bands=HeatBands(0.3, 0.1, 0.1),
        compress_ratio=3.0,
        nthreads=2,
        cpu_cores=1.0,
    )


def build(seed=5, with_senpai=False):
    host = small_host(ram_gb=1.0, backend="zswap", seed=seed)
    host.add_workload(Workload, profile=profile(), name="app")
    if with_senpai:
        host.add_controller(
            Senpai(SenpaiConfig(reclaim_ratio=0.003, max_step_frac=0.02))
        )
    return host


def test_seed_mismatch_rejected():
    ab = ABTest(control=lambda: build(seed=1),
                treatment=lambda: build(seed=2))
    with pytest.raises(ValueError):
        ab.run(10.0)


def test_identical_arms_show_zero_delta():
    ab = ABTest(control=build, treatment=build)
    report = ab.run(120.0)
    delta = report.compare("app/resident_bytes")
    assert delta.delta == 0.0
    assert delta.delta_frac == 0.0


def test_treatment_effect_is_visible():
    ab = ABTest(
        control=lambda: build(with_senpai=False),
        treatment=lambda: build(with_senpai=True),
    )
    report = ab.run(600.0)
    delta = report.compare("app/resident_bytes", window=(300.0, 600.0))
    # Senpai shrank the treatment arm's resident set.
    assert delta.delta < 0
    assert delta.delta_frac < -0.01


def test_compare_unknown_series_raises():
    ab = ABTest(control=build, treatment=build)
    report = ab.run(10.0)
    with pytest.raises(KeyError):
        report.compare("nope/metric")


def test_queries_on_unrecorded_names_leave_digests_unchanged():
    """Regression: ``compare`` and ``record_from_host`` read through a
    registering fetch, so asking about a declared name a host never
    recorded added an empty series to it and changed its digest."""
    report = ABTest(control=build, treatment=build).run(10.0)
    hosts = (report.control, report.treatment)
    before = [metrics_digest(host.metrics) for host in hosts]
    with pytest.raises(KeyError):
        report.compare("app/memory_max")  # no limits controller
    profiler = WorkingSetProfiler()
    profiler.record_from_host(report.control, "app", 10.0)  # no Senpai
    assert profiler.samples[0].pressure == 0.0
    assert [metrics_digest(host.metrics) for host in hosts] == before


def test_delta_frac_nan_on_zero_control():
    ab = ABTest(
        control=lambda: build(with_senpai=False),
        treatment=lambda: build(with_senpai=True),
    )
    report = ab.run(60.0)
    delta = report.compare("app/zswap_bytes")  # control never offloads
    assert math.isnan(delta.delta_frac)
    assert delta.treatment_mean >= 0.0
