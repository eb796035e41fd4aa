"""Microbenchmarks of the substrate's hot paths.

Not a paper figure — these time the primitives every experiment leans
on, so performance regressions in the simulator itself are visible.
The paper-relevant one is the PSI transition cost: Section 3.2.2 notes
PSI's only cost is scheduling-path bookkeeping and that it is
negligible; here that path is ~microseconds per transition in pure
Python.
"""

import pytest

from repro.backends.base import IoKind
from repro.backends.ssd import make_ssd_device
from repro.backends.zswap import ZswapBackend
from repro.kernel.page import PageKind, PageState, PageTable
from repro.kernel.shadow import ShadowMap
from repro.backends.filesystem import FilesystemBackend
from repro.kernel.mm import MemoryManager
from repro.psi.tracker import PsiSystem
from repro.psi.types import TaskFlags
from repro.sim.rng import derive_rng

from bench_common import BENCH_SEED

PAGE = 256 * 1024
MB = 1 << 20


def make_mm(ram_mb=256):
    return MemoryManager(
        ram_bytes=ram_mb * MB,
        page_size_bytes=PAGE,
        fs=FilesystemBackend("C", derive_rng(BENCH_SEED, "microbench:fs")),
        swap_backend=ZswapBackend(derive_rng(BENCH_SEED, "microbench:zswap")),
    )


def test_psi_transition_throughput(benchmark):
    psi = PsiSystem(ncpu=8)
    psi.add_group("g")
    tasks = [psi.add_task(f"t{i}", "g") for i in range(8)]
    state = {"now": 0.0}

    def transitions():
        now = state["now"]
        for i, task in enumerate(tasks):
            now += 1e-4
            task.set_flags(
                TaskFlags.MEMSTALL if i % 2 else TaskFlags.RUNNING, now
            )
        state["now"] = now

    benchmark(transitions)


def test_lru_touch_throughput(benchmark):
    table = PageTable()
    table.fit_cgroups(1)
    kind = int(PageKind.FILE)
    pages = table.add(4096, 0, kind, int(PageState.RESIDENT), False, 3.0, 0.0)
    table.link_new(pages, 0, kind)
    rng = derive_rng(BENCH_SEED, "microbench:lru-order")
    # One batch of distinct pages, as workloads touch them.
    order = pages[rng.choice(len(pages), size=512, replace=False)]

    def touches():
        table.hit(order, 1.0)

    benchmark(touches)


def test_reclaim_scan_throughput(benchmark):
    mm = make_mm(ram_mb=1024)
    mm.create_cgroup("app")
    mm.alloc_anon("app", 2000, now=0.0)

    def reclaim_and_restore():
        outcome = mm.memory_reclaim("app", 64 * PAGE, now=1.0)
        # Restore so each round reclaims from the same population.
        pages = mm.pages("app")
        for pid in pages[mm.table.state[pages] != PageState.RESIDENT]:
            mm.touch(pid, now=2.0)
        return outcome

    benchmark(reclaim_and_restore)


def test_shadow_refault_check_throughput(benchmark):
    shadow = ShadowMap()
    for pid in range(10_000):
        shadow.record_eviction(pid)

    def checks():
        for pid in range(0, 10_000, 16):
            shadow.reuse_distance(pid)

    benchmark(checks)


def test_zswap_store_load_throughput(benchmark):
    backend = ZswapBackend(
        derive_rng(BENCH_SEED, "microbench:zswap-roundtrip")
    )

    def roundtrip():
        for i in range(64):
            backend.store(PAGE, 3.0, now=0.0, page_id=i)
        for i in range(64):
            backend.load(PAGE, 3.0, now=1.0, page_id=i)
            backend.free(PAGE, 3.0, page_id=i)

    benchmark(roundtrip)


def test_device_issue_throughput(benchmark):
    device = make_ssd_device(
        "C", derive_rng(BENCH_SEED, "microbench:device-issue")
    )

    def issues():
        for _ in range(256):
            device.issue(IoKind.READ)
        device.on_tick(0.0, dt=0.1)

    benchmark(issues)


def test_host_tick_throughput(benchmark):
    """End-to-end cost of one simulated second on a bench-sized host."""
    from repro.core.senpai import Senpai, SenpaiConfig
    from repro.workloads.apps import APP_CATALOG
    from repro.workloads.base import Workload

    from bench_common import add_app, bench_host

    host = bench_host(backend="zswap")
    add_app(host, "Feed", size_scale=0.05)
    host.add_controller(Senpai(SenpaiConfig()))
    host.run(30.0)  # warm up

    benchmark(host.step)
