"""``fleetd_serve``: the real daemon, driven over its Unix socket.

The daemon is ``python -m repro fleetd start`` in its own process, with
the same six-host fleet shape as ``fleetd_soak``. Its wall-paced tick
thread ticks once at start-up and then sleeps for the whole run
(``--tick-interval`` of 10^6 s), so every simulated tick comes from the
driver and the simulated work is identical on every run.

This process is the load generator, with two threads:

* a closed-loop driver that advances the fleet through ``run`` requests
  of ``RUN_TICKS`` tick, idling ``IDLE_RATIO`` times as long as each
  took, and queues the two rollouts at fixed ticks;
* an open-loop reader that sends ``status``, ``metrics``, ``top``,
  ``rollout-status`` and ``ping`` in turn at ``READ_RATE`` requests per
  second while the driver runs, each timed from the moment it was due.

Daemon start-up, registration and warm-up are the set-up. Each lap's
daemon is killed after its final reads and reaped before the next lap
sets up, so no daemon shutdown overlaps a timed region.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List

from common import (
    ROOT, WORK, Calibration, Ledger, end_to_end, overhead,
    peak_rss_mb, pooled_timings, raw_figures,
)
from fleetd_soak import (
    CHECKPOINT_EVERY_S, HOSTS, NCPU, PAGE_BYTES, RAM_GB, SIZE_SCALE,
    WARMUP_TICKS,
)
from layers import Counters, install, per_layer
from spans import Tracer

#: Laps per run: each lap starts, sets up and drives one daemon.
LAPS = 2
#: Ticks per driver ``run`` request.
RUN_TICKS = 1
#: Driver ticks per requested second of run, over all laps.
TICKS_PER_RUN_SECOND = 67
#: After a ``run`` request that took d seconds the driver idles for
#: IDLE_RATIO * d, so it keeps the engine busy half the time whatever
#: the machine's speed. Spool ticks then hold the lock for a share of
#: the time that depends on the program, not on the machine (about 30%
#: of the reads wait behind one), and the reads' median and 90th
#: percentile stay well inside their modes: between ticks, and behind a
#: spool tick. A driver paced by the wall clock instead put the 90th
#: percentile on the boundary whenever the machine ran fast.
IDLE_RATIO = 1.0
#: Reader requests per second (open loop), while the driver runs.
READ_RATE = 20.0
#: One calibration chunk every this many runs, in the driver's idle
#: time. A chunk takes about 1 ms; a read answered meanwhile waits for
#: it to end.
CALIBRATE_EVERY = 5
#: How far a lap's time moves with the calibration chunk's
#: (``Calibration``). The chunks run here, the work in the daemon; over
#: ten runs at 0.7 the scaled throughput still rose and fell with the
#: unscaled one (8.3% spread; 5.5% at 1, 15.9% unscaled).
CALIBRATION_ELASTICITY = 1.0
READ_VERBS = ("status", "metrics", "top", "rollout-status", "ping")
#: Rollouts, as (fraction of the driver's ticks, policy kind, params).
ROLLOUTS = (
    (0.0, "autotune", {}),
    (0.5, "senpai", {"reclaim_ratio": 0.001}),
)
READY_TIMEOUT_S = 60.0


class Daemon:
    """One ``repro fleetd start`` process and its client."""

    def __init__(self, seed: int, rundir: str, name: str) -> None:
        from repro.fleetd.client import FleetdClient

        self.dir = os.path.join(rundir, name)
        os.makedirs(self.dir)
        self.socket = os.path.join(self.dir, "fd.sock")
        self.spool = os.path.join(self.dir, "spool")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.log = open(os.path.join(self.dir, "daemon.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleetd", "start",
             "--socket", self.socket, "--seed", str(seed),
             "--ram-gb", str(RAM_GB), "--ncpu", str(NCPU),
             "--page-mb", str(PAGE_BYTES >> 20),
             "--tick-interval", "1000000",
             "--checkpoint-every", str(CHECKPOINT_EVERY_S),
             "--spool-dir", self.spool],
            cwd=ROOT, env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.client = FleetdClient(self.socket, timeout_s=60.0)

    def wait_ready(self) -> None:
        """Wait for the socket and the tick thread's one start-up tick."""
        from repro.fleetd.client import FleetdClientError

        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"fleetd exited with {self.proc.returncode} during "
                    f"start-up; see {self.dir}/daemon.log")
            try:
                if self.client.ping()["tick"] >= 1:
                    return
            except FleetdClientError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("fleetd did not become ready")
            time.sleep(0.005)

    def spooled_bytes(self) -> int:
        return sum(
            os.path.getsize(os.path.join(self.spool, f"{h}.snapshot"))
            for h, _, _ in HOSTS
        )

    def kill(self) -> None:
        """Kill the daemon and wait for it to exit.

        A graceful ``stop`` would join the sleeping tick thread for up
        to 5 s; nothing of the daemon is used after its lap, its spool
        included.
        """
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


def _set_up(seed: int, rundir: str, name: str):
    """Start, register and warm up one daemon; returns (daemon, seconds)."""
    start = time.perf_counter()
    daemon = Daemon(seed, rundir, name)
    try:
        daemon.wait_ready()
        for host_id, app, region in HOSTS:
            daemon.client.register(host_id, app, size_scale=SIZE_SCALE,
                                   region=region)
        daemon.client.run_ticks(WARMUP_TICKS)
    except BaseException:
        daemon.kill()
        raise
    return daemon, time.perf_counter() - start


def _drive(daemon: Daemon, ticks: int, calibration: Calibration) -> Dict:
    """The measured window: driver and reader threads against one daemon.

    Returns the timings as measured, and the calibration factor of the
    chunks the driver runs in its idle time.
    """
    from repro.fleetd.client import FleetdClient, FleetdClientError
    from repro.fleetd.policy import PolicySpec

    perf = time.perf_counter
    every = int(CHECKPOINT_EVERY_S)
    rollouts = {int(ticks * frac): PolicySpec.make(kind, params).to_json()
                for frac, kind, params in ROLLOUTS}
    rollout_ids: List[int] = []
    started = threading.Event()
    done = threading.Event()
    clock = {"t0": 0.0}
    failure: List[Exception] = []
    driver: Dict = {"run_s": [], "spooled": 0,
                    "end_tick": 1 + WARMUP_TICKS + ticks}
    reader: Dict = {"latency_s": [], "lag_s": [], "errors": []}

    def drive() -> None:
        client = FleetdClient(daemon.socket, timeout_s=60.0)
        try:
            for i in range(0, ticks, RUN_TICKS):
                if i in rollouts:
                    rollout_ids.append(client.rollout(rollouts[i]))
                if i == 0:
                    clock["t0"] = perf()
                    started.set()
                start = perf()
                tick = client.run_ticks(RUN_TICKS)
                took = perf() - start
                driver["run_s"].append(took)
                if (tick - 1) % every == 0:
                    driver["spooled"] += daemon.spooled_bytes()
                if i % CALIBRATE_EVERY == 0:
                    calibration.chunk()
                delay = start + (1.0 + IDLE_RATIO) * took - perf()
                if delay > 0:
                    time.sleep(delay)
        except FleetdClientError as exc:
            failure.append(exc)
        finally:
            started.set()
            done.set()

    def read() -> None:
        client = FleetdClient(daemon.socket, timeout_s=60.0)
        started.wait()
        i = 0
        while not done.is_set():
            due = clock["t0"] + i / READ_RATE
            delay = due - perf()
            if delay > 0 and done.wait(delay):
                break
            sent = perf()
            verb = READ_VERBS[i % len(READ_VERBS)]
            i += 1
            try:
                if verb == "status":
                    client.status()
                elif verb == "metrics":
                    client.metrics(window_s=60.0)
                elif verb == "top":
                    client.top("psi_mem_some", n=3)
                elif verb == "rollout-status":
                    client.rollout_status(rollout_ids[-1])
                else:
                    client.ping()
            except FleetdClientError as exc:
                # A refused read still counts, as a failure (ok_frac) and
                # with the time it took.
                reader["errors"].append(f"reader {verb}: {exc}")
            reader["latency_s"].append(perf() - due)
            reader["lag_s"].append(sent - due)

    threads = [threading.Thread(target=drive), threading.Thread(target=read)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failure:
        raise RuntimeError(f"fleetd driver request failed: {failure[0]}")
    return {"driver": driver, "reader": reader, "rollout_ids": rollout_ids,
            "run_s": driver["run_s"], "latency_s": reader["latency_s"],
            "factor": calibration.take_factor()}


def _simulated(daemon: Daemon, ticks: int, window: Dict,
               ledger: Ledger) -> Dict:
    """Final status and rollup checks; the deterministic outputs."""
    driver, reader = window["driver"], window["reader"]
    for error in reader["errors"]:
        ledger.check(False, error)
    ledger.attempted += len(driver["run_s"]) + len(window["rollout_ids"])
    ledger.attempted += len(reader["latency_s"]) - len(reader["errors"])
    status = daemon.client.status()
    ledger.check(status["tick"] == driver["end_tick"],
                 f"final status at tick {status['tick']}, planned "
                 f"{driver['end_tick']}")
    finished = [r["status"] for r in status["completed_rollouts"]]
    ledger.check(len(finished) == len(ROLLOUTS)
                 and status["active_rollout"] is None,
                 f"rollouts not all finished: {finished}")
    rollup = daemon.client.metrics(window_s=float(ticks))
    ram = RAM_GB * (1 << 30)
    offloaded = [
        h["signals"]["swap_bytes"]["last"]
        + h["signals"]["zswap_bytes"]["last"]
        for h in rollup["hosts"]
    ]
    return {
        "final_rollup": rollup,
        "savings_frac": statistics.fmean(offloaded) / ram,
        "psi_mem_some_pct":
            rollup["fleet"]["signals"]["psi_mem_some"]["mean"] * 100.0,
        "spool_mb": driver["spooled"] / 1e6,
        "rollouts": finished,
        "recoveries": status["recoveries"],
    }


def run(seed: int, seconds: int, trace: bool, rundir: str,
        ledger: Ledger) -> Dict:
    ticks = max(1000, seconds * TICKS_PER_RUN_SECOND // LAPS)
    host_ticks = ticks * len(HOSTS)
    calibration = Calibration(CALIBRATION_ELASTICITY)
    setup_s: List[float] = []
    laps: List[Dict] = []
    daemons: List[Daemon] = []
    sim: Dict = {}
    rss = 0.0
    try:
        for lap in range(LAPS):
            gc.collect()
            daemon, took = _set_up(seed, rundir, f"d{lap}")
            daemons.append(daemon)
            laps.append(_drive(daemon, ticks, calibration))
            setup_s.append(took)
            lap_sim = _simulated(daemon, ticks, laps[-1], ledger)
            if lap == 0:
                rss = peak_rss_mb(str(daemon.proc.pid))
                sim = lap_sim
            ledger.check(lap_sim == sim,
                         f"lap {lap} ended on another final rollup")
            daemon.kill()

        def figures(calibrated: bool) -> Dict:
            run_s = pooled_timings(laps, "run_s", calibrated)
            tick_s = [s / RUN_TICKS for s in run_s]
            return end_to_end(
                [s * (w["factor"] if calibrated else 1.0)
                 for s, w in zip(setup_s, laps)],
                host_ticks, sum(run_s) / LAPS, rss, sim, tick_s, tick_s,
                pooled_timings(laps, "latency_s", calibrated),
            )

        out = {"simulated": sim, "setup_s": setup_s, "ticks": ticks,
               "metrics": figures(True), "raw": raw_figures(figures(False))}
        if not trace:
            return out

        gc.collect()
        daemon, _ = _set_up(seed, rundir, "traced")
        daemons.append(daemon)
        untraced_rate = statistics.median(
            host_ticks / (sum(w["run_s"]) * w["factor"]) for w in laps)
        out["per_layer"] = _traced(daemon, ticks, seed, sim,
                                   untraced_rate, calibration, ledger)
        return out
    finally:
        for daemon in daemons:
            daemon.kill()


def _traced(daemon: Daemon, ticks: int, seed: int,
            sim: Dict, untraced_rate: float, calibration: Calibration,
            ledger: Ledger) -> Dict:
    """A window with the client side traced; same simulated result."""
    tracer = Tracer(run_id=f"fleetd_serve-seed{seed}")
    counters = Counters()
    install(tracer, counters)
    try:
        window = _drive(daemon, ticks, calibration)
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(WORK, "traces",
                              f"fleetd_serve-seed{seed}.json"))
    ledger.check(_simulated(daemon, ticks, window, ledger) == sim,
                 "traced window's final rollup differs from the untraced one")
    layer = per_layer(tracer.rows(), ticks * len(HOSTS), counters,
                      window["factor"], run_ticks_per_request=RUN_TICKS)
    lag = window["reader"]["lag_s"]
    layer["loadgen.lag_p50_ms"] = statistics.median(lag) * 1e3
    layer["loadgen.lag_max_ms"] = max(lag) * 1e3
    traced_rate = (ticks * len(HOSTS)
                   / (sum(window["run_s"]) * window["factor"]))
    layer["trace.host_ticks_per_s"] = traced_rate
    layer["trace.overhead_frac"] = overhead(untraced_rate, traced_rate)
    return layer
