"""The benchmark harness behind ``python -m repro bench``.

Runs a canonical scenario matrix over the simulator's hot paths and
emits a machine-readable report (``BENCH_5.json``):

* ``microbench_tick`` — steady-state cost of one :meth:`Host.step` on a
  warmed bench host (the number the ≥3× tentpole target is stated in).
* ``single_host``    — an end-to-end single-host run under Senpai.
* ``fleet_serial`` / ``fleet_parallel`` — the same fleet rollout with
  ``workers=1`` and ``workers=N``; their metric digests must agree.
* ``chaos``          — a fault-injected run under invariant checking.

Every scenario reports wall-clock seconds, simulated ticks/sec, pages
reclaimed/sec and peak RSS. Because absolute ticks/sec depends on the
machine, the regression gate compares *normalized* scores: each
scenario's ticks/sec divided by a pure-Python calibration loop's ops/sec
measured in the same process, which cancels most host-speed variation
between the committed baseline and the CI runner.

Wall-clock reads here are measurement of the simulator, not simulated
state, and are the one sanctioned exception to the repo's wall-clock
ban (TMO002); nothing read from the clock flows into simulation state
or metric series.
"""

from __future__ import annotations

import json
import resource
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.reporting import format_table
from repro.core.fleet import Fleet, HostPlan
from repro.core.senpai import Senpai, SenpaiConfig
from repro.faults.chaos import ChaosConfig, build_chaos_host
from repro.sim.host import Host, HostConfig
from repro.workloads.apps import APP_CATALOG
from repro.workloads.base import Workload

MB = 1 << 20

BENCH_SCHEMA_VERSION = 1
BENCH_ID = "BENCH_5"
BENCH_SEED = 20260704

#: Allowed relative drop of a scenario's normalized score vs. baseline.
DEFAULT_TOLERANCE = 0.20

#: Raw ticks/sec measured at the pre-PR commit with these same scenario
#: definitions, on the machine that produced benchmarks/
#: BENCH_baseline.json. Only ``speedup_vs_pre_pr`` on comparable
#: hardware is meaningful; the regression gate never uses these.
PRE_PR_TICKS_PER_S: Dict[str, float] = {
    "microbench_tick": 2730.7,
    "single_host": 1823.5,
    "fleet_serial": 377.8,
    "chaos": 681.9,
}


def wall_s() -> float:
    """Monotonic wall clock for timing the simulator itself (the one
    sanctioned wall-clock read outside the lint's exemptions; benchmark
    scripts time through it)."""
    return time.perf_counter()  # lint: ignore[TMO002]


def _peak_rss_bytes() -> int:
    """Peak resident set size of this process so far (bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _pgsteal(host: Host) -> int:
    return sum(cg.vmstat.pgsteal for cg in host.mm.cgroups())


def calibrate(ops: int = 2_000_000) -> float:
    """Ops/sec of a fixed pure-Python loop on this machine.

    The unit the regression gate normalizes by: scenario ticks/sec
    divided by this cancels interpreter/host speed differences between
    the baseline machine and the current one.
    """
    t0 = wall_s()
    acc = 0
    for i in range(ops):
        acc += i & 7
    elapsed = wall_s() - t0
    del acc
    return ops / max(elapsed, 1e-9)


@dataclass
class ScenarioResult:
    """One scenario's measurements, as serialized into the report."""

    wall_s: float
    ticks: int
    ticks_per_s: float
    pages_reclaimed: int
    pages_reclaimed_per_s: float
    peak_rss_bytes: int


def _measure(
    ticks_fn: Callable[[], Tuple[int, int]]
) -> ScenarioResult:
    """Time one scenario body returning ``(ticks, pages_reclaimed)``."""
    t0 = wall_s()
    ticks, reclaimed = ticks_fn()
    wall = max(wall_s() - t0, 1e-9)
    return ScenarioResult(
        wall_s=wall,
        ticks=ticks,
        ticks_per_s=ticks / wall,
        pages_reclaimed=reclaimed,
        pages_reclaimed_per_s=reclaimed / wall,
        peak_rss_bytes=_peak_rss_bytes(),
    )


# ----------------------------------------------------------------------
# scenario definitions


def _bench_host(seed: int) -> Host:
    """The standard bench host: 4 GB / 1 MiB pages / Feed under Senpai."""
    host = Host(HostConfig(
        ram_gb=4.0,
        ncpu=16,
        page_size_bytes=1 * MB,
        seed=seed,
        backend="zswap",
    ))
    host.add_workload(
        Workload, profile=APP_CATALOG["Feed"], name="app", size_scale=0.05,
    )
    host.add_controller(Senpai(SenpaiConfig()))
    return host


def _scenario_microbench(
    seed: int, steps: int, rounds: int = 3
) -> ScenarioResult:
    """Steady-state tick cost: best of ``rounds`` timed runs.

    Warm-up (faulting in the working set) happens outside the timed
    region, and the best round is reported — standard microbenchmark
    practice to suppress scheduler noise on shared runners.
    """
    host = _bench_host(seed)
    host.run(30.0)
    best: Optional[ScenarioResult] = None
    for _ in range(rounds):
        before = _pgsteal(host)

        def body() -> Tuple[int, int]:
            for _ in range(steps):
                host.step()
            return steps, _pgsteal(host) - before

        result = _measure(body)
        if best is None or result.ticks_per_s > best.ticks_per_s:
            best = result
    assert best is not None
    return best


def _scenario_single_host(seed: int, duration_s: float) -> Tuple[int, int]:
    host = _bench_host(seed)
    host.run(duration_s)
    return host.tick_count, _pgsteal(host)


def _fleet_plans(quick: bool) -> List[HostPlan]:
    count = 1 if quick else 2
    return [
        HostPlan(app="Feed", count=count, size_scale=0.003),
        HostPlan(app="Web", count=count, size_scale=0.003),
    ]


def _scenario_fleet(
    seed: int, duration_s: float, quick: bool, workers: Optional[int]
) -> Tuple[Tuple[int, int], List[str]]:
    config = HostConfig(ram_gb=0.25, page_size_bytes=1 * MB, ncpu=4)
    fleet = Fleet(base_config=config, seed=seed)
    result = fleet.run(_fleet_plans(quick), duration_s, workers=workers)
    ticks = (len(result.reports) + len(result.failed_hosts)) * int(
        duration_s / config.tick_s
    )
    reclaimed = sum(r.pgsteal for r in result.reports)
    digests = [r.metrics_digest for r in result.reports]
    return (ticks, reclaimed), digests


def _scenario_fleet_faulted(
    seed: int, duration_s: float, quick: bool
) -> Tuple[Tuple[int, int], List[str]]:
    """A serial fleet under a worker-fault storm with recovery.

    Measures the resilience runtime's overhead path: periodic
    checkpoint spooling, simulated crash/hang faults, restore-and-
    continue retries. Digest-compatible with the fault-free fleet
    scenarios — recovery must not change what the hosts compute.
    """
    from repro.core.fleetres import FleetResilienceConfig
    from repro.faults.plan import FaultPlan

    config = HostConfig(ram_gb=0.25, page_size_bytes=1 * MB, ncpu=4)
    plans = _fleet_plans(quick)
    planned = sum(plan.count for plan in plans)
    fault_plan = FaultPlan.generate(
        seed, duration_s, extra_events=0,
        worker_faults=2, fleet_hosts=planned,
    )
    resilience = FleetResilienceConfig(
        retry_backoff_s=0.01,
        retry_backoff_max_s=0.1,
        checkpoint_every_s=30.0,
    )
    fleet = Fleet(base_config=config, seed=seed)
    result = fleet.run(
        plans, duration_s,
        resilience=resilience, fault_plan=fault_plan,
    )
    ticks = planned * int(duration_s / config.tick_s)
    reclaimed = sum(r.pgsteal for r in result.reports)
    digests = [r.metrics_digest for r in result.reports]
    return (ticks, reclaimed), digests


def _scenario_chaos(seed: int, duration_s: float) -> Tuple[int, int]:
    host, _injector, _senpai = build_chaos_host(
        ChaosConfig(seed=seed, duration_s=duration_s)
    )
    host.run(duration_s)
    return host.tick_count, _pgsteal(host)


# ----------------------------------------------------------------------
# harness


def run_bench(
    seed: int = BENCH_SEED,
    quick: bool = False,
    workers: int = 4,
) -> Dict:
    """Run the full scenario matrix and return the report dict.

    ``quick=True`` shrinks every scenario (for tests and smoke runs);
    quick reports are still schema-valid but their numbers are noisy —
    never commit one as the baseline.
    """
    micro_steps = 200 if quick else 2000
    single_s = 60.0 if quick else 600.0
    fleet_s = 60.0 if quick else 300.0
    chaos_s = 120.0 if quick else 600.0

    calibration = calibrate()
    scenarios: Dict[str, ScenarioResult] = {}

    scenarios["microbench_tick"] = _scenario_microbench(seed, micro_steps)
    scenarios["single_host"] = _measure(
        lambda: _scenario_single_host(seed, single_s)
    )

    serial_digests: List[str] = []
    parallel_digests: List[str] = []

    def fleet_body(workers_n: Optional[int], sink: List[str]):
        def run() -> Tuple[int, int]:
            counts, digests = _scenario_fleet(
                seed, fleet_s, quick, workers_n
            )
            sink.extend(digests)
            return counts
        return run

    scenarios["fleet_serial"] = _measure(
        fleet_body(None, serial_digests)
    )
    scenarios["fleet_parallel"] = _measure(
        fleet_body(workers, parallel_digests)
    )

    faulted_digests: List[str] = []

    def fleet_faulted_body() -> Tuple[int, int]:
        counts, digests = _scenario_fleet_faulted(seed, fleet_s, quick)
        faulted_digests.extend(digests)
        return counts

    scenarios["fleet_faulted"] = _measure(fleet_faulted_body)
    scenarios["chaos"] = _measure(
        lambda: _scenario_chaos(seed, chaos_s)
    )

    report: Dict = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench_id": BENCH_ID,
        "seed": seed,
        "quick": quick,
        "workers": workers,
        "calibration_ops_per_s": calibration,
        "scenarios": {},
        "parallel_digests_match": (
            bool(serial_digests) and serial_digests == parallel_digests
        ),
        # Recovery equivalence at bench scale: the faulted fleet (with
        # crash/hang injection and checkpoint restores) must reproduce
        # the fault-free serial digests exactly.
        "faulted_digests_match": (
            bool(serial_digests) and serial_digests == faulted_digests
        ),
        "pre_pr": dict(PRE_PR_TICKS_PER_S),
        "speedup_vs_pre_pr": {},
    }
    for name, res in scenarios.items():
        entry = asdict(res)
        entry["normalized_score"] = res.ticks_per_s / calibration
        report["scenarios"][name] = entry
        if name in PRE_PR_TICKS_PER_S:
            report["speedup_vs_pre_pr"][name] = (
                res.ticks_per_s / PRE_PR_TICKS_PER_S[name]
            )
    return report


def write_report(report: Dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> Dict:
    with open(path) as fh:
        report = json.load(fh)
    if report.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version "
            f"{report.get('schema_version')!r} != {BENCH_SCHEMA_VERSION}"
        )
    return report


def check_regression(
    report: Dict,
    baseline: Dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Compare normalized scores against a baseline report.

    Returns one message per regressed scenario (empty = gate passes).
    A scenario regresses when its normalized score (ticks/sec over the
    same-process calibration throughput) drops more than ``tolerance``
    below the baseline's.
    """
    problems: List[str] = []
    for name, base_entry in baseline.get("scenarios", {}).items():
        entry = report.get("scenarios", {}).get(name)
        if entry is None:
            problems.append(f"{name}: missing from current report")
            continue
        base_score = base_entry["normalized_score"]
        score = entry["normalized_score"]
        floor = base_score * (1.0 - tolerance)
        if score < floor:
            problems.append(
                f"{name}: normalized score {score:.6f} is "
                f"{100 * (1 - score / base_score):.1f}% below baseline "
                f"{base_score:.6f} (tolerance {100 * tolerance:.0f}%)"
            )
    if not report.get("parallel_digests_match", False):
        problems.append(
            "fleet_parallel: metric digests diverged from fleet_serial"
        )
    # Older baselines predate the faulted scenario; only reports that
    # carry the field are held to it.
    if (
        "faulted_digests_match" in report
        and not report["faulted_digests_match"]
    ):
        problems.append(
            "fleet_faulted: recovery changed metric digests vs "
            "fleet_serial"
        )
    return problems


def format_report(report: Dict) -> str:
    rows = []
    for name, entry in report["scenarios"].items():
        speedup = report["speedup_vs_pre_pr"].get(name)
        rows.append((
            name,
            f"{entry['wall_s']:.3f}",
            f"{entry['ticks_per_s']:.1f}",
            f"{entry['pages_reclaimed_per_s']:.1f}",
            f"{entry['peak_rss_bytes'] / MB:.0f}",
            f"{speedup:.2f}x" if speedup is not None else "-",
        ))
    table = format_table(
        ["scenario", "wall (s)", "ticks/s", "reclaim pages/s",
         "peak RSS (MB)", "vs pre-PR"],
        rows,
        title=f"{report['bench_id']} (seed {report['seed']}"
              f"{', quick' if report['quick'] else ''})",
    )
    digest_line = (
        "parallel fleet digests match serial: "
        f"{report['parallel_digests_match']}"
    )
    return f"{table}\n{digest_line}"
