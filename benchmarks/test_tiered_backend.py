"""Ablation (Section 5.2): a kernel-managed backend hierarchy.

The paper's future work: instead of manually assigning each app to
zswap *or* SSD, let the kernel place warmer/compressible pages in the
compressed pool and colder/incompressible pages on SSD. We run a host
carrying both a compressible app (Feed, 3.5x) and a quantised-model app
(ML, 1.35x) under each backend and compare net DRAM savings.

Shape: the tiered hierarchy matches or beats both single backends —
it stops burning pool DRAM on ML's incompressible pages while keeping
zswap's fast faults for Feed's warm-cold band.
"""

import pytest

from repro.backends.tiered import TIER_SSD, TIER_ZSWAP
from repro.core.fleet import cgroup_memory_savings
from repro.core.senpai import Senpai, SenpaiConfig
from repro.workloads.apps import APP_CATALOG
from repro.workloads.base import Workload

from bench_common import bench_host, print_figure

MB = 1 << 20
DURATION_S = 3600.0
SENPAI = SenpaiConfig(reclaim_ratio=0.002, max_step_frac=0.02,
                      write_limit_mb_s=None)


def run_backend(backend: str):
    host = bench_host(backend=backend, ram_gb=6.0, tick_s=2.0)
    host.add_workload(
        Workload, profile=APP_CATALOG["Feed"], name="feed",
        size_scale=0.05,
    )
    host.add_workload(
        Workload, profile=APP_CATALOG["ML"], name="ml",
        size_scale=0.05,
    )
    host.add_controller(Senpai(SENPAI))
    host.run(DURATION_S)
    feed = cgroup_memory_savings(host.mm, "feed")
    ml = cgroup_memory_savings(host.mm, "ml")
    result = {
        "feed_savings": feed["savings_frac"],
        "ml_savings": ml["savings_frac"],
        "total_saved_mb": (feed["saved_bytes"] + ml["saved_bytes"]) / MB,
        "pool_mb": host.mm.zswap_pool_bytes / MB,
    }
    if backend == "tiered":
        result["tier_counts"] = host.swap_backend.tier_counts()
        result["ml_on_ssd"] = _tier_share(host, "ml", TIER_SSD)
        result["feed_on_zswap"] = _tier_share(host, "feed", TIER_ZSWAP)
    return result


def _tier_share(host, cgroup: str, tier: str) -> float:
    """Share of a cgroup's offloaded pages living in ``tier``."""
    backend = host.swap_backend
    placed = [
        backend.tier_of(pid)
        for pid in host.mm.pages(cgroup).tolist()
        if backend.tier_of(pid) is not None
    ]
    if not placed:
        return 0.0
    return sum(1 for t in placed if t == tier) / len(placed)


def run_experiment():
    return {
        backend: run_backend(backend)
        for backend in ("zswap", "ssd", "tiered")
    }


def test_tiered_backend_ablation(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [
        (
            backend,
            100 * r["feed_savings"],
            100 * r["ml_savings"],
            r["total_saved_mb"],
            r["pool_mb"],
        )
        for backend, r in results.items()
    ]
    print_figure(
        "Section 5.2 ablation — backend hierarchy",
        ["backend", "Feed savings %", "ML savings %",
         "total saved (MB)", "pool (MB)"],
        rows,
    )

    tiered = results["tiered"]
    # Placement sanity: ML's incompressible pages went to SSD, Feed's
    # compressible warm-cold band mostly to zswap.
    assert tiered["ml_on_ssd"] > 0.95
    assert tiered["feed_on_zswap"] > 0.5
    # The hierarchy beats zswap-only (which wastes pool DRAM on ML).
    assert tiered["total_saved_mb"] > results["zswap"]["total_saved_mb"]
    # And at least matches ssd-only overall.
    assert tiered["total_saved_mb"] > 0.9 * results["ssd"]["total_saved_mb"]
    # zswap-only is particularly bad for ML specifically.
    assert tiered["ml_savings"] > results["zswap"]["ml_savings"]
