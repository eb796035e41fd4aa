"""Which public functions each layer's spans wrap, and the per-layer table.

Spans are named ``<layer>.<what>``. The per-layer metrics divide span
self time by the host-ticks simulated in the traced window, except
where the name says otherwise (per call, per recovery, per request).
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, List

from spans import Row, Tracer, durations, self_times

#: Per-layer metric -> span name. Self time per host-tick.
PER_HOST_TICK_MS = {
    "kernel.touch_batch_ms": "kernel.touch_batch",
    "kernel.alloc_ms": "kernel.alloc",
    "workloads.tick_self_ms": "workloads.tick",
    "backends.store_ms": "backends.store",
    "backends.load_ms": "backends.load",
    "sim.record_ms": "sim.record",
    "sim.step_other_ms": "sim.step",
    "psi.tick_ms": "psi.tick",
    "core.poll_ms": "core.poll",
    "kernel.on_tick_ms": "kernel.on_tick",
    "kernel.reclaim_ms": "kernel.reclaim",
    "checkpoint.encode_ms": "checkpoint.encode",
    "checkpoint.dump_ms": "checkpoint.dump",
    "fleetres.spool_write_ms": "fleetres.spool_write",
    "fleetd.tick_self_ms": "fleetd.tick",
    "fleetd.rollout_ms": "fleetd.rollout",
    "fleetd.health_sample_ms": "fleetd.health_sample",
}

#: Call counts per host-tick.
PER_HOST_TICK_CALLS = {
    "kernel.touch_batch_calls": "kernel.touch_batch",
    "kernel.alloc_calls": "kernel.alloc",
    "backends.store_calls": "backends.store",
    "backends.load_calls": "backends.load",
}

#: Self time per call.
PER_CALL_MS = {
    "fleetd.rollup_ms": "fleetd.rollup",
    "fleetd.top_ms": "fleetd.top",
}

#: Client verbs whose median request latency is reported.
VERBS = ("ping", "status", "metrics", "top", "rollout-status", "rollout",
         "run")


def unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name in PER_HOST_TICK_MS:
        return "ms/host-tick"
    if name in PER_HOST_TICK_CALLS:
        return "1/host-tick"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("setup_s"):
        return "s"
    if name.startswith("checkpoint.spool_kb"):
        return "KB"
    if name.endswith("_per_s"):
        return "1/s"
    return "frac"


class Counters:
    """Simulated counts gathered at the wrapped calls."""

    def __init__(self) -> None:
        self.reclaim_requested = 0
        self.reclaim_reclaimed = 0
        self.recoveries = 0
        self.recoveries_from_spool = 0
        self.spool_bytes: List[int] = []

    def on_reclaim(self, args, kwargs, outcome) -> None:
        self.reclaim_requested += outcome.requested_bytes
        self.reclaim_reclaimed += outcome.reclaimed_bytes

    def on_recover(self, args, kwargs, from_spool) -> None:
        self.recoveries += 1
        self.recoveries_from_spool += int(bool(from_spool))

    def on_spool(self, args, kwargs, result) -> None:
        self.spool_bytes.append(os.path.getsize(args[1]))


def install(tracer: Tracer, counters: Counters) -> None:
    """Wrap the public entry points of every measured layer."""
    import repro.core.fleetres as fleetres
    import repro.fleetd.engine as engine_mod
    import repro.fleetd.rollout as rollout_mod
    from repro.backends.base import OffloadBackend
    from repro.core.daemon import SenpaiDaemon
    from repro.core.gswap import GSwapController
    from repro.core.limits import LimitSenpai
    from repro.core.oomd import Oomd
    from repro.core.senpai import Senpai
    from repro.core.supervisor import Supervisor
    from repro.fleetd.client import FleetdClient
    from repro.kernel.mm import MemoryManager
    from repro.kernel.reclaim import Reclaimer
    from repro.psi.tracker import PsiSystem
    from repro.sim.host import Host
    from repro.workloads.base import Workload
    from repro.workloads.web import WebWorkload

    wrap = tracer.wrap
    wrap(MemoryManager, "touch_batch", "kernel.touch_batch")
    wrap(MemoryManager, "alloc_anon", "kernel.alloc")
    wrap(MemoryManager, "register_file", "kernel.alloc")
    wrap(MemoryManager, "on_tick", "kernel.on_tick")
    wrap(Reclaimer, "reclaim", "kernel.reclaim", counters.on_reclaim)
    wrap(Workload, "tick", "workloads.tick")
    wrap(WebWorkload, "tick", "workloads.tick")
    pending = list(OffloadBackend.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for verb in ("store", "load"):
            if verb in cls.__dict__:
                wrap(cls, verb, f"backends.{verb}")
    wrap(PsiSystem, "tick", "psi.tick")
    for cls in (Senpai, Supervisor, GSwapController, SenpaiDaemon,
                LimitSenpai, Oomd):
        wrap(cls, "poll", "core.poll")
    wrap(Host, "step", "sim.step")
    wrap(Host, "_record", "sim.record")
    wrap(Host, "snapshot", "checkpoint.encode")
    wrap(fleetres, "dump_envelope", "checkpoint.dump")
    wrap(engine_mod, "spool_snapshot", "fleetres.spool_write",
         counters.on_spool)
    wrap(engine_mod, "load_spooled_snapshot", "checkpoint.restore")
    wrap(engine_mod.FleetdEngine, "tick", "fleetd.tick")
    wrap(engine_mod.FleetdEngine, "crash_host", "fleetd.recover",
         counters.on_recover)
    wrap(engine_mod.FleetdEngine, "fleet_rollup", "fleetd.rollup")
    wrap(engine_mod.FleetdEngine, "top_hosts", "fleetd.top")
    for verb in ("start", "advance", "roll_back"):
        wrap(rollout_mod.Rollout, verb, "fleetd.rollout")
    wrap(rollout_mod, "sample_host", "fleetd.health_sample")
    wrap(FleetdClient, "request",
         lambda client, cmd, **params: f"fleetd.verb_{cmd}")


def refault_counts(hosts) -> tuple:
    """Summed (workingset_refault, pgsteal) over every cgroup of ``hosts``."""
    refaults = steals = 0
    for host in hosts:
        for cg in host.mm.cgroups():
            refaults += cg.vmstat.workingset_refault
            steals += cg.vmstat.pgsteal
    return refaults, steals


def per_layer(
    rows: List[Row],
    host_ticks: int,
    counters: Counters,
    calibration_factor: float,
    run_ticks_per_request: int = 1,
) -> Dict[str, float]:
    """The per-layer table from one traced window's spans and counters.

    Span times are as measured; ``calibration.factor`` is reported so
    they can be compared with the scaled end-to-end timings. Every
    metric is present; a layer the workload never enters reads 0.
    """
    selfs = self_times(rows)
    out: Dict[str, float] = {}
    per_tick = 1.0 / host_ticks if host_ticks else 0.0
    for metric, span in PER_HOST_TICK_MS.items():
        out[metric] = selfs.get(span, (0.0, 0))[0] * 1e3 * per_tick
    for metric, span in PER_HOST_TICK_CALLS.items():
        out[metric] = selfs.get(span, (0.0, 0))[1] * per_tick
    for metric, span in PER_CALL_MS.items():
        total, calls = selfs.get(span, (0.0, 0))
        out[metric] = total * 1e3 / calls if calls else 0.0
    recover = durations(rows, "fleetd.recover")
    restore = durations(rows, "checkpoint.restore")
    out["checkpoint.restore_ms"] = (
        sum(restore) * 1e3 / len(restore) if restore else 0.0
    )
    # Recovery minus the restore inside it: the replay of missed ticks.
    out["fleetd.recover_ms"] = (
        (sum(recover) - sum(restore)) * 1e3 / len(recover)
        if recover else 0.0
    )
    out["fleetd.recover_from_spool_frac"] = (
        counters.recoveries_from_spool / counters.recoveries
        if counters.recoveries else 0.0
    )
    spools = counters.spool_bytes
    out["checkpoint.spool_kb_mean"] = (
        statistics.fmean(spools) / 1024 if spools else 0.0
    )
    out["checkpoint.spool_kb_last"] = spools[-1] / 1024 if spools else 0.0
    for verb in VERBS:
        lat = durations(rows, f"fleetd.verb_{verb}")
        scale = run_ticks_per_request if verb == "run" else 1
        out[f"fleetd.verb_{verb}_p50_ms"] = (
            statistics.median(lat) * 1e3 / scale if lat else 0.0
        )
    out["calibration.factor"] = calibration_factor
    # Filled in by the workloads that measure them.
    out["kernel.refault_frac"] = 0.0
    out["loadgen.lag_p50_ms"] = 0.0
    out["loadgen.lag_max_ms"] = 0.0
    out["kernel.reclaim_yield"] = (
        counters.reclaim_reclaimed / counters.reclaim_requested
        if counters.reclaim_requested else 0.0
    )
    return out
