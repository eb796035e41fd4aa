"""``fleetd_soak``: a long-lived in-process ``FleetdEngine``.

Six small hosts (0.25 GB at 1 MiB pages), Feed and Web alternating over
two regions, spool a snapshot every 60 simulated seconds (the daemon
default). One thread drives the engine through a fixed schedule: two
guarded rollouts, crash-and-recover of three hosts, and a query burst
(``fleet_rollup`` plus two ``top_hosts``) every ``QUERY_EVERY`` ticks.
No socket, no threads, no worker processes. Timed: ``FleetdEngine.tick``,
the queries, the crashes and the rollout calls; the benchmark's own
checks (digests before and after each burst, spool sizes) are untimed.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import Dict, List

from common import (
    WORK, Calibration, Ledger, end_to_end, overhead,
    peak_rss_mb, pooled_timings, raw_figures,
)
from layers import Counters, install, per_layer, refault_counts
from spans import Tracer

RAM_GB = 0.25
NCPU = 4
PAGE_BYTES = 1 << 20
SIZE_SCALE = 0.003
CHECKPOINT_EVERY_S = 60.0
#: (host id, app, region), registered in this order.
HOSTS = (
    ("h0", "Feed", "east"), ("h1", "Web", "west"),
    ("h2", "Feed", "west"), ("h3", "Web", "east"),
    ("h4", "Feed", "east"), ("h5", "Web", "west"),
)
#: Ticks of warm-up after registration: past fault-in and two spools.
WARMUP_TICKS = 120
#: Laps per run: each lap sets a fleet up and lives one life on it.
LAPS = 3
#: Measured engine ticks per requested second of run, over all laps.
TICKS_PER_RUN_SECOND = 100
QUERY_EVERY = 10
#: One calibration chunk every this many ticks.
CALIBRATE_EVERY = 5
#: How far a lap's time moves with the calibration chunk's, in logs
#: (``Calibration``). Unlike ``host_large``, this workload slows as much
#: as the chunk when the machine is busy. Over six runs of per-lap data
#: the throughput spread 2.8% at 1, 4.6% at 0.7 and 6.5% unscaled, and
#: ``tick_p99_ms`` 4.8%, 7.7% and 12.6%; over ten runs at 0.7 the scaled
#: throughput still rose and fell with the unscaled one (9.2% spread,
#: 5.1% at 1).
CALIBRATION_ELASTICITY = 1.0
#: Rollouts, as (fraction of the life, policy kind, params).
ROLLOUTS = (
    (0.05, "autotune", {}),
    (0.5, "senpai", {"reclaim_ratio": 0.001}),
)
#: Crashes, as (fraction of the life, host id); each lands off a spool
#: tick, so recovery restores a spool and replays the ticks since.
CRASHES = ((0.3, "h1"), (0.55, "h4"), (0.8, "h2"))
#: Host ticks between spools (one tick is one simulated second).
SPOOL_EVERY = int(CHECKPOINT_EVERY_S)


def _engine(seed: int, spool_dir: str):
    from repro.fleetd.engine import FleetdConfig, FleetdEngine
    from repro.sim.host import HostConfig

    return FleetdEngine(FleetdConfig(
        seed=seed,
        base_config=HostConfig(
            ram_gb=RAM_GB, ncpu=NCPU, page_size_bytes=PAGE_BYTES
        ),
        checkpoint_every_s=CHECKPOINT_EVERY_S,
        spool_dir=spool_dir,
    ))


def _set_up(seed: int, spool_dir: str):
    """Register the fleet and warm it up; returns (engine, seconds)."""
    start = time.perf_counter()
    engine = _engine(seed, spool_dir)
    for host_id, app, region in HOSTS:
        engine.register(host_id, app, size_scale=SIZE_SCALE, region=region)
    engine.run_ticks(WARMUP_TICKS)
    return engine, time.perf_counter() - start


def _schedule(life: int) -> Dict[int, List]:
    """Events by life tick; each runs before that tick's engine tick."""
    events: Dict[int, List] = {}
    for frac, kind, params in ROLLOUTS:
        events.setdefault(int(life * frac), []).append(
            ("rollout", kind, params))
    for frac, host_id in CRASHES:
        tick = int(life * frac)
        # Hosts register at engine tick 0, so before life tick i they
        # have ticked WARMUP_TICKS + i - 1 times; right after a spool,
        # recovery would replay nothing.
        if (WARMUP_TICKS + tick - 1) % SPOOL_EVERY == 0:
            tick += 1
        events.setdefault(tick, []).append(("crash", host_id))
    return events


def _spooled_bytes(engine) -> int:
    return sum(os.path.getsize(e.spool_path)
               for e in engine.registry.values())


def _live(engine, life: int, ledger: Ledger, calibration: Calibration,
          check_queries: bool) -> Dict:
    """Drive ``engine`` through the measured life.

    With ``check_queries``, every query burst is checked to leave
    ``fleet_digest`` unchanged (untimed, but it hashes every series
    twice per burst, so only the first lap does it; the other laps must
    end on the first lap's digest). Returns the timings as measured,
    and the calibration factor of the chunks run in between.
    """
    from repro.fleetd.policy import PolicySpec

    perf = time.perf_counter
    events = _schedule(life)
    tick_s: List[float] = []
    query_s: List[float] = []
    event_s: List[float] = []
    spooled = 0
    rollout_ids: List[int] = []
    for i in range(1, life + 1):
        for event in events.get(i, ()):
            if event[0] == "rollout":
                start = perf()
                rollout_ids.append(engine.begin_rollout(
                    PolicySpec.make(event[1], event[2])))
                event_s.append(perf() - start)
            else:
                replay = (engine.registry.get(event[1]).host.tick_count
                          % SPOOL_EVERY)
                start = perf()
                from_spool = engine.crash_host(event[1])
                event_s.append(perf() - start)
                ledger.check(from_spool and replay > 0,
                             f"crash of {event[1]} at life tick {i} did "
                             f"not recover from a spool and replay "
                             f"(replays {replay} ticks)")
        start = perf()
        engine.tick()
        tick_s.append(perf() - start)
        first = engine.registry.values()[0].host
        if first.tick_count % SPOOL_EVERY == 0:
            spooled += _spooled_bytes(engine)
        if i % QUERY_EVERY == 0:
            before = engine.fleet_digest() if check_queries else None
            for query in (
                lambda: engine.fleet_rollup(60.0),
                lambda: engine.top_hosts("psi_mem_some", n=3),
                lambda: engine.top_hosts("refault_rate", n=3),
            ):
                start = perf()
                query()
                query_s.append(perf() - start)
            if check_queries:
                ledger.check(engine.fleet_digest() == before,
                             f"query burst at life tick {i} changed the "
                             "fleet digest")
        if i % CALIBRATE_EVERY == 0:
            calibration.chunk()
    ledger.attempted += life  # every tick completed
    statuses = []
    for rollout_id in rollout_ids:
        result = engine.rollout_result(rollout_id)
        statuses.append(result.status)
        ledger.check(result.status not in ("pending", "running"),
                     f"rollout {rollout_id} still {result.status} at the "
                     "end of the life")
    factor = calibration.take_factor()
    busy = (sum(tick_s) + sum(query_s) + sum(event_s)) * factor
    return {"tick_s": tick_s, "query_s": query_s, "event_s": event_s,
            "busy": busy, "factor": factor, "spooled": spooled,
            "statuses": statuses}


def _simulated(engine, life: int, window: Dict) -> Dict:
    rollup = engine.fleet_rollup(float(life))
    ram = engine.config.base_config.ram_bytes
    offloaded = [
        h.signals["swap_bytes"].last + h.signals["zswap_bytes"].last
        for h in rollup.hosts
    ]
    return {
        "fleet_digest": engine.fleet_digest(),
        "savings_frac": statistics.fmean(offloaded) / ram,
        "psi_mem_some_pct": rollup.signals["psi_mem_some"].mean * 100.0,
        "spool_mb": window["spooled"] / 1e6,
        "rollouts": window["statuses"],
        "recoveries": dict(engine.recoveries),
    }


def run(seed: int, seconds: int, trace: bool, rundir: str,
        ledger: Ledger) -> Dict:
    life = max(1000, seconds * TICKS_PER_RUN_SECOND // LAPS)
    host_ticks = life * len(HOSTS)
    calibration = Calibration(CALIBRATION_ELASTICITY)
    setup_s: List[float] = []
    laps: List[Dict] = []
    sim: Dict = {}
    rss = 0.0
    for lap in range(LAPS):
        gc.collect()
        engine, took = _set_up(seed, os.path.join(rundir, f"spool{lap}"))
        try:
            laps.append(_live(engine, life, ledger, calibration,
                              check_queries=lap == 0))
            setup_s.append(took)
            if lap == 0:
                rss = peak_rss_mb()
                sim = _simulated(engine, life, laps[0])
            ledger.check(engine.fleet_digest() == sim["fleet_digest"],
                         f"lap {lap} ended on another fleet_digest")
        finally:
            engine.close()

    def figures(calibrated: bool) -> Dict:
        tick_s = pooled_timings(laps, "tick_s", calibrated)
        query_s = pooled_timings(laps, "query_s", calibrated)
        event_s = pooled_timings(laps, "event_s", calibrated)
        return end_to_end(
            [s * (w["factor"] if calibrated else 1.0)
             for s, w in zip(setup_s, laps)],
            host_ticks,
            (sum(tick_s) + sum(query_s) + sum(event_s)) / LAPS, rss,
            sim, tick_s, tick_s, query_s,
        )

    out = {"simulated": sim, "setup_s": setup_s, "ticks": life,
           "metrics": figures(True), "raw": raw_figures(figures(False))}
    if not trace:
        return out

    gc.collect()
    engine, _ = _set_up(seed, os.path.join(rundir, "spool-traced"))
    tracer = Tracer(run_id=f"fleetd_soak-seed{seed}")
    counters = Counters()
    before = refault_counts(e.host for e in engine.registry.values())
    install(tracer, counters)
    try:
        traced = _live(engine, life, ledger, calibration,
                       check_queries=False)
    finally:
        tracer.uninstall()
    after = refault_counts(e.host for e in engine.registry.values())
    tracer.write(os.path.join(WORK, "traces",
                              f"fleetd_soak-seed{seed}.json"))
    ledger.check(engine.fleet_digest() == sim["fleet_digest"],
                 "traced life's fleet_digest differs from the untraced one")
    engine.close()
    layer = per_layer(tracer.rows(), host_ticks, counters, traced["factor"])
    steals = after[1] - before[1]
    layer["kernel.refault_frac"] = (
        (after[0] - before[0]) / steals if steals else 0.0
    )
    untraced_rate = statistics.median(host_ticks / w["busy"] for w in laps)
    traced_rate = host_ticks / traced["busy"]
    layer["trace.host_ticks_per_s"] = traced_rate
    layer["trace.overhead_frac"] = overhead(untraced_rate, traced_rate)
    out["per_layer"] = layer
    return out
