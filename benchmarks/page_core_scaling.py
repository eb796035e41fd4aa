"""How touch selection and ``MemoryManager.touch_batch`` scale with host
size.

Builds three fleet hosts running Feed with the tax sidecars on zswap
under Senpai, at ~2k, ~36k and ~130k resident pages (1 MiB pages), warms
each past fault-in, then times every ``touch_batch`` and every
``Workload._select_touches`` call over a window of ticks. Prints the
cost per touched page for each size: a page core whose per-touch cost
is flat in the host's page count scales. Beside it, each size's plan
build: the time to rebuild every workload's touch-selection plan (the
alias table over its prefix, or the per-page probabilities of a small
population), which a host pays at start-up, on a restored host's first
tick and whenever a prefix moves. Then prints how much each layer's time
per tick grows from the smallest host to the largest: a selection that
grows no faster than ``touch_batch`` costs per touch, not per page.

Run from the repository root::

    PYTHONPATH=src python benchmarks/page_core_scaling.py [--ticks N]

Timings are wall-clock on the machine running it; the ratio between the
largest and the smallest host is the figure that carries over.
"""

from __future__ import annotations

import argparse
import json

from repro.core.fleet import HostPlan, build_fleet_host
from repro.kernel.mm import MemoryManager
from repro.perf import wall_s
from repro.sim.host import HostConfig
from repro.workloads.base import Workload

#: (label, host RAM in GB, Feed size_scale): ~2k, ~36k and ~130k
#: resident pages once faulted in.
SIZES = (
    ("2k", 4.0, 0.04),
    ("36k", 64.0, 0.8),
    ("130k", 224.0, 2.9),
)
WARMUP_TICKS = 900
SEED = 1
#: Plan builds timed per workload; the fastest counts.
BUILD_REPEATS = 3


def plan_build_ms(host) -> float:
    """Time to rebuild every workload's touch-selection plan from its
    intervals, as a restored host's first tick does (fastest of
    :data:`BUILD_REPEATS` per workload, summed over the workloads)."""
    total = 0.0
    for hosted in host._hosted.values():
        workload = hosted.workload
        prefix = workload._prefix_pages()
        best = float("inf")
        for _ in range(BUILD_REPEATS):
            workload._plan_for = workload._table_for = None
            start = wall_s()
            if prefix:
                workload._alias_plan(prefix)
            if prefix < len(workload.pages):
                workload._touch_plan(prefix, 1.0)
            best = min(best, wall_s() - start)
        total += best
    return total * 1e3


def measure(ram_gb: float, size_scale: float, ticks: int) -> dict:
    """Warm one host, then time its touch_batch calls over ``ticks``."""
    config = HostConfig(ram_gb=ram_gb, page_size_bytes=1 << 20,
                        backend="zswap")
    host = build_fleet_host(
        config, SEED, HostPlan(app="Feed", size_scale=size_scale,
                               backend="zswap"), 0,
    )
    for _ in range(WARMUP_TICKS):
        host.step()
    spent = {"touch_batch": 0.0, "select": 0.0}
    touched = [0]
    inner_batch = MemoryManager.touch_batch
    inner_select = Workload._select_touches

    def timed_batch(mm, pages, indices, now):
        start = wall_s()
        try:
            return inner_batch(mm, pages, indices, now)
        finally:
            spent["touch_batch"] += wall_s() - start
            touched[0] += len(indices)

    def timed_select(workload, dt):
        start = wall_s()
        try:
            return inner_select(workload, dt)
        finally:
            spent["select"] += wall_s() - start

    MemoryManager.touch_batch = timed_batch
    Workload._select_touches = timed_select
    try:
        for _ in range(ticks):
            host.step()
    finally:
        MemoryManager.touch_batch = inner_batch
        Workload._select_touches = inner_select
    resident = sum(cg.resident_bytes for cg in host.mm.cgroups())
    return {
        "plan_build_ms": plan_build_ms(host),
        "resident_pages": resident // config.page_size_bytes,
        "touches_per_tick": touched[0] / ticks,
        "touch_batch_ms_per_tick": spent["touch_batch"] * 1e3 / ticks,
        "us_per_touched_page": (
            spent["touch_batch"] * 1e6 / max(1, touched[0])
        ),
        "select_ms_per_tick": spent["select"] * 1e3 / ticks,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ticks", type=int, default=400,
                        help="measured ticks per host (default 400)")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object instead of a table")
    args = parser.parse_args(argv)
    rows = {label: measure(ram, scale, args.ticks)
            for label, ram, scale in SIZES}
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    print(f"{'host':>6} {'resident':>9} {'touches/tick':>13} "
          f"{'ms/tick':>8} {'us/touch':>9} {'select ms/tick':>15} "
          f"{'build ms':>9}")
    for label, row in rows.items():
        print(f"{label:>6} {row['resident_pages']:>9} "
              f"{row['touches_per_tick']:>13.1f} "
              f"{row['touch_batch_ms_per_tick']:>8.3f} "
              f"{row['us_per_touched_page']:>9.3f} "
              f"{row['select_ms_per_tick']:>15.3f} "
              f"{row['plan_build_ms']:>9.2f}")
    small, large = rows[SIZES[0][0]], rows[SIZES[-1][0]]
    print(f"cost per touched page, largest/smallest: "
          f"{large['us_per_touched_page'] / small['us_per_touched_page']:.2f}")
    print("ms per tick, largest/smallest: touch_batch "
          f"{large['touch_batch_ms_per_tick'] / small['touch_batch_ms_per_tick']:.2f}"
          ", select "
          f"{large['select_ms_per_tick'] / small['select_ms_per_tick']:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
