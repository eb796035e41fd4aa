"""One chaos driver: seeded fault storms judged by one contract set.

A storm is a seed, a topology and a fault plan. A topology is what the
storm hits — one chaos ``host``, a parallel ``fleet`` or the ``fleetd``
control plane — and supplies a :class:`Topology`: one
``run(config, variant) -> (digest, facts, error)`` and its named
graceful-degradation checks. :func:`run_storm` runs every variant the
contracts name, compares their digests and returns one
:class:`ChaosVerdict`. Every topology is held to the same contracts:

* ``determinism`` — the same storm, run twice, digests identically;
* ``query_neutrality`` — a run read through the topology's own read
  surface digests like a quiet one: observing changes nothing;
* ``crash_equivalence`` — a run killed and recovered from its
  checkpoint digests like an uninterrupted one (not applicable where
  the topology keeps no checkpoint).

``passed`` is ``not failures()``, so a failing verdict always names a
reason. Verdicts are written in one versioned envelope
(:func:`chaos_verdict_document`). The ``host`` and ``fleet``
topologies live here; ``fleetd``'s lives in :mod:`repro.fleetd.chaos`.

CLI: ``python -m repro chaos [--fleet | --fleetd]`` (see
:mod:`repro.cli`); ``chaos --controller-faults N`` runs the host storm
with its Senpai supervised.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field
from typing import (
    Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.analysis.workingset import WorkingSetProfiler
from repro.checkpoint import load_snapshot, save_snapshot
from repro.core.oomd import Oomd, OomdConfig
from repro.core.senpai import Senpai, SenpaiConfig
from repro.core.supervisor import Supervisor, SupervisorConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import RECOVERY_TAIL_FRAC, FaultPlan
from repro.sim.host import Host, HostConfig
from repro.sim.metrics import metrics_digest
from repro.workloads.access import HeatBands
from repro.workloads.apps import AppProfile
from repro.workloads.base import Workload

_MB = 1 << 20
_GB = 1 << 30

#: The contract set every verdict carries, in report order.
CONTRACTS = ("determinism", "query_neutrality", "crash_equivalence")

#: The topologies a verdict envelope may name.
CHAOS_MODES = ("host", "fleet", "fleetd")

#: ``(digest, facts, error)`` from one run of one storm variant.
Run = Tuple[str, Dict[str, Any], Optional[str]]


@dataclass(frozen=True)
class Gate:
    """One named line of a verdict: a digest contract or a check."""

    passed: bool
    detail: str
    #: False for a contract the topology has no witness for.
    applicable: bool = True


@dataclass(frozen=True)
class Topology:
    """What one topology supplies to the driver."""

    mode: str
    #: ``run(config, variant) -> (digest, facts, error)``; never raises.
    run: Callable[[Any, str], Run]
    #: ``checks(config, facts_by_variant) -> {name: Gate}``: the
    #: topology's graceful-degradation checks.
    checks: Callable[[Any, Mapping[str, Dict[str, Any]]], Dict[str, Gate]]
    #: Contract -> the two variants whose digests must agree (for
    #: ``query_neutrality`` the reading variant first), or the reason
    #: the topology has no witness for it.
    contracts: Mapping[str, Union[Tuple[str, str], str]]

    @property
    def variants(self) -> Tuple[str, ...]:
        """Every variant a contract names, in first-use order; the first
        is the primary run whose digest the verdict reports."""
        seen: Dict[str, None] = {}
        for witnesses in self.contracts.values():
            if isinstance(witnesses, tuple):
                seen.update(dict.fromkeys(witnesses))
        return tuple(seen)


@dataclass
class ChaosVerdict:
    """One storm's outcome: named contracts plus named checks."""

    mode: str
    seed: int
    contracts: Dict[str, Gate] = field(default_factory=dict)
    checks: Dict[str, Gate] = field(default_factory=dict)
    #: Variant -> its digest, primary variant first.
    digests: Dict[str, str] = field(default_factory=dict)
    #: Variant -> what its run observed (JSON-clean).
    facts: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Variant -> the exception (repr) that escaped its run.
    errors: Dict[str, str] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        """The primary run's digest."""
        return next(iter(self.digests.values()), "")

    def failures(self) -> Tuple[str, ...]:
        """Why the verdict failed (empty if it passed)."""
        reasons = [
            f"unhandled error in {variant} run: {error}"
            for variant, error in self.errors.items()
        ]
        for name, gate in {**self.contracts, **self.checks}.items():
            if not gate.passed:
                reasons.append(f"{name}: {gate.detail}")
        return tuple(reasons)

    @property
    def passed(self) -> bool:
        return not self.failures()

    def to_json(self) -> Dict[str, Any]:
        """JSON-clean verdict (one entry of the artifact envelope)."""
        return {
            "seed": self.seed,
            "passed": self.passed,
            "digest": self.digest,
            "contracts": {k: asdict(g) for k, g in self.contracts.items()},
            "checks": {k: asdict(g) for k, g in self.checks.items()},
            "digests": dict(self.digests),
            "facts": {k: dict(f) for k, f in self.facts.items()},
            "errors": dict(self.errors),
            "failures": list(self.failures()),
        }


def _contract(
    name: str,
    witnesses: Union[Tuple[str, str], str],
    runs: Mapping[str, Run],
) -> Gate:
    if isinstance(witnesses, str):
        return Gate(True, witnesses, applicable=False)
    a, b = witnesses
    da, db = (runs[v][0] if v in runs else "" for v in witnesses)
    missing = [v for v, d in ((a, da), (b, db)) if not d]
    if missing:
        return Gate(False, f"no digest from the {' or '.join(missing)} run")
    if name == "query_neutrality":
        reads = runs[a][1].get("reads", 0)
        if not reads:
            return Gate(False, f"the {a} run made no reads")
        a = f"{a} ({reads} reads)"
    if da != db:
        return Gate(False, f"{a} {da[:16]} != {b} {db[:16]}")
    return Gate(True, f"{a} == {b}")


def judge(
    topology: Topology, config: Any, runs: Mapping[str, Run]
) -> ChaosVerdict:
    """Assemble the verdict from whatever runs completed.

    A variant missing from ``runs`` fails every contract it witnesses,
    so even an empty verdict names its reasons.
    """
    facts = {v: runs[v][1] for v in topology.variants if v in runs}
    return ChaosVerdict(
        mode=topology.mode,
        seed=config.seed,
        contracts={
            name: _contract(name, topology.contracts[name], runs)
            for name in CONTRACTS
        },
        checks=topology.checks(config, facts),
        digests={v: runs[v][0] for v in topology.variants if v in runs},
        facts=facts,
        errors={
            v: runs[v][2] for v in topology.variants
            if v in runs and runs[v][2] is not None
        },
    )


def run_storm(topology: Topology, config: Any) -> ChaosVerdict:
    """Run every variant of one storm and judge it; never raises for
    in-run failures (they land in the verdict)."""
    return judge(topology, config, {
        variant: topology.run(config, variant)
        for variant in topology.variants
    })


def format_verdict(verdict: ChaosVerdict, label: str) -> str:
    """Render one verdict for the CLI."""
    status = "PASS" if verdict.passed else "FAIL"
    lines = [
        f"{label} seed={verdict.seed}: {status} "
        f"(digest {verdict.digest[:16] or 'none'})"
    ]
    for name, gate in {**verdict.contracts, **verdict.checks}.items():
        mark = "n/a" if not gate.applicable else (
            "ok" if gate.passed else "FAIL"
        )
        lines.append(f"  {mark:<4} {name}: {gate.detail}")
    for variant, error in verdict.errors.items():
        lines.append(f"  !! unhandled error in {variant} run: {error}")
    return "\n".join(lines)


def _plan_digest(plan: FaultPlan) -> str:
    return hashlib.sha256(plan.digest_text().encode()).hexdigest()


# ----------------------------------------------------------------------
# topology: one chaos host


#: Supervisor hang-kill threshold of a storm with controller faults: a
#: controller silent this long is declared hung and restarted.
_SUPERVISED_HANG_TIMEOUT_S = 20.0

#: Simulated seconds between read probes in a queried host run.
_PROBE_EVERY_S = 30.0

#: Declared, but recorded by no chaos host: reading it must not
#: register it.
_UNRECORDED_METRIC = "fleetd/generation"


@dataclass(frozen=True)
class ChaosConfig:
    """One host storm's parameters. Everything derives from ``seed``."""

    seed: int
    duration_s: float = 900.0
    ram_gb: float = 1.0
    ncpu: int = 8
    #: Footprint in 1 MiB pages; must overcommit ``ram_gb`` so the
    #: swap path carries traffic for device faults to hit.
    workload_pages: int = 1600
    #: Extra random fault windows on top of the guaranteed breaker storm.
    extra_events: int = 6
    #: Floor on tail/head throughput for a graceful-degradation verdict.
    min_rps_recovery: float = 0.5
    #: Controller crash/hang events appended to the plan (these draws
    #: never perturb the base schedule of a seed). Above 0, Senpai runs
    #: under a :class:`~repro.core.supervisor.Supervisor`: the seam
    #: those faults land on.
    controller_faults: int = 0


def _chaos_profile(config: ChaosConfig) -> AppProfile:
    """An anon-heavy profile that keeps the swap path busy, so device
    faults actually hit traffic and the breaker sees real deltas."""
    return AppProfile(
        name="chaos-app",
        size_gb=config.workload_pages * _MB / _GB,
        anon_frac=0.7,
        bands=HeatBands(0.25, 0.10, 0.10),
        compress_ratio=3.0,
        nthreads=2,
        cpu_cores=1.0,
    )


def build_chaos_host(config: ChaosConfig) -> Tuple[Host, FaultInjector, object]:
    """Assemble the chaos host: injector first, then the controllers.

    Returns the host, the injector and the reclaim controller — a bare
    :class:`Senpai`, or its :class:`Supervisor` wrapper when the plan
    carries controller faults.
    """
    host = Host(HostConfig(
        ram_gb=config.ram_gb,
        ncpu=config.ncpu,
        page_size_bytes=1 * _MB,
        seed=config.seed,
        backend="ssd",
        swap_gb=config.ram_gb,  # roomy swap: exhaustion is not the test
        check_invariants=True,
    ))
    host.add_workload(Workload, profile=_chaos_profile(config), name="app")
    plan = FaultPlan.generate(
        config.seed, config.duration_s, cgroups=("app",),
        extra_events=config.extra_events,
        controller_faults=config.controller_faults,
    )
    injector = host.add_controller(FaultInjector(plan))
    senpai = Senpai(SenpaiConfig(
        reclaim_ratio=0.005,
        max_step_frac=0.03,
        write_limit_mb_s=None,
        breaker_trip_polls=2,
        breaker_probe_s=30.0,
        stale_after_s=20.0,
    ))
    if config.controller_faults > 0:
        senpai = host.add_controller(Supervisor(senpai, SupervisorConfig(
            hang_timeout_s=_SUPERVISED_HANG_TIMEOUT_S,
            persist_interval_s=30.0,
            restart_backoff_s=6.0,
            restart_backoff_max_s=60.0,
        )))
    else:
        host.add_controller(senpai)
    host.add_controller(Oomd(OomdConfig(
        full_threshold=0.8, sustain_s=60.0,
    )))
    return host, injector, senpai


def _probe(host: Host) -> None:
    """One round of the host's read surface (the reads Senpai-side
    tooling, rollups and reports make); it must leave no trace."""
    from repro.fleetd.rollup import ROLLUP_SIGNALS  # fleetd imports faults

    now = host.clock.now
    for suffix in ROLLUP_SIGNALS.values():
        host.metrics.read_window(f"app/{suffix}", now - _PROBE_EVERY_S, now)
    host.metrics.summary()
    host.metrics.series(_UNRECORDED_METRIC)
    WorkingSetProfiler().record_from_host(host, "app", now)


def _restored_host(config: ChaosConfig) -> Host:
    """The quiet run killed at ``round(duration/2)``: only its snapshot
    file survives, loaded through the codec the fleet spool, ``fleetd``
    and ``run --resume`` use, then run on."""
    checkpoint_at_s = float(round(config.duration_s / 2.0))
    victim, _, _ = build_chaos_host(config)
    victim.run(checkpoint_at_s)
    with tempfile.TemporaryDirectory(prefix="tmo-chaos-") as spool:
        path = os.path.join(spool, "host.json")
        save_snapshot(victim, path)
        del victim
        restored = load_snapshot(path)
    restored.run(config.duration_s - checkpoint_at_s)
    return restored


def _host_facts(host: Host, config: ChaosConfig) -> Dict[str, Any]:
    facts: Dict[str, Any] = {}
    for controller in host.controllers():
        if isinstance(controller, FaultInjector):
            facts["plan_digest"] = _plan_digest(controller.plan)
            facts["scheduled_events"] = len(controller.plan.events)
            facts["fault_counts"] = dict(controller.injected)
            facts["injected_events"] = sum(controller.injected.values())
        if isinstance(controller, Supervisor):
            facts["supervisor_crashes"] = controller.crash_count
            facts["supervisor_hang_kills"] = controller.hang_kill_count
            facts["supervisor_restarts"] = controller.restart_count
            controller = controller.controller
        if isinstance(controller, Senpai):
            facts["breaker_opens"] = controller.breaker_open_count
            facts["breaker_recloses"] = controller.breaker_reclose_count
            facts["senpai_stale_skips"] = controller.stale_skips
            facts["senpai_error_skips"] = controller.error_skips
    rps = host.metrics.series("app/rps")
    head = rps.window(0.0, 0.15 * config.duration_s)
    tail = rps.window(
        RECOVERY_TAIL_FRAC * config.duration_s, config.duration_s + 1.0
    )
    facts["rps_head"] = head.mean() if len(head) else 0.0
    facts["rps_tail"] = tail.mean() if len(tail) else 0.0
    facts["oom_ticks"] = int(sum(host.metrics.series("app/oom").values))
    facts["swap_faults"] = host.mm.swap_fault_count
    facts["fs_faults"] = host.mm.fs_fault_count
    return facts


def _run_host(config: ChaosConfig, variant: str) -> Run:
    """``queried``/``rerun`` probe every 30 simulated seconds,
    ``quiet`` only runs, ``restored`` is the quiet run killed and
    restored at its midpoint."""
    facts: Dict[str, Any] = {"reads": 0}
    try:
        if variant == "restored":
            host = _restored_host(config)
        else:
            host, _, _ = build_chaos_host(config)
            if variant == "quiet":
                host.run(config.duration_s)
            else:
                rounds = int(config.duration_s // _PROBE_EVERY_S)
                for _ in range(rounds):
                    host.run(_PROBE_EVERY_S)
                    _probe(host)
                    facts["reads"] += 1
                rest = config.duration_s - rounds * _PROBE_EVERY_S
                if rest > 0:
                    host.run(rest)
        digest = metrics_digest(host.metrics)
        facts.update(_host_facts(host, config))
    except Exception as exc:
        # A crash (invariant violations included) is a finding.
        return "", facts, repr(exc)
    return digest, facts, None


def _host_checks(
    config: ChaosConfig, facts: Mapping[str, Dict[str, Any]]
) -> Dict[str, Gate]:
    seen = facts.get("queried", {})
    injected = seen.get("injected_events", 0)
    counts = ", ".join(
        f"{k}={v}" for k, v in sorted(seen.get("fault_counts", {}).items())
    )
    opens = seen.get("breaker_opens", 0)
    recloses = seen.get("breaker_recloses", 0)
    head = seen.get("rps_head", 0.0)
    recovery = seen.get("rps_tail", 0.0) / head if head > 0 else 0.0
    return {
        "faults_injected": Gate(
            injected > 0,
            f"{injected}/{seen.get('scheduled_events', 0)} scheduled "
            f"events injected ({counts or 'none'})",
        ),
        "breaker": Gate(
            opens > 0 and recloses > 0,
            f"opened {opens}x, re-closed {recloses}x",
        ),
        "rps_recovery": Gate(
            recovery >= config.min_rps_recovery,
            f"tail/head throughput {recovery:.2f} "
            f"(floor {config.min_rps_recovery:.2f})",
        ),
    }


HOST_TOPOLOGY = Topology(
    mode="host",
    run=_run_host,
    checks=_host_checks,
    contracts={
        "determinism": ("queried", "rerun"),
        "query_neutrality": ("queried", "quiet"),
        "crash_equivalence": ("quiet", "restored"),
    },
)


# ----------------------------------------------------------------------
# topology: a parallel fleet


@dataclass(frozen=True)
class FleetChaosConfig:
    """One fleet storm's parameters: a seed-derived storm of
    ``worker_crash`` / ``worker_hang`` / ``worker_slow`` events."""

    seed: int
    duration_s: float = 240.0
    workers: int = 3
    #: Worker-level fault events drawn into the plan.
    worker_faults: int = 3
    size_scale: float = 0.003
    max_attempts: int = 3
    checkpoint_every_s: float = 60.0
    #: Wall-clock deadline per host attempt, whatever ``duration_s``;
    #: a hung worker is killed once it runs this long. An attempt at a
    #: storm host takes under 0.2 s with invariants on (2 vCPUs), plus
    #: at most 1 s when ``worker_slow`` fires, so 5 s leaves a slower
    #: CI runner room while each ``worker_hang`` costs seconds, not a
    #: minute.
    deadline_min_s: float = 5.0


def _run_fleet(config: FleetChaosConfig, variant: str) -> Run:
    """``control``/``rerun``: serial, fault-free, spool off.
    ``spooled``: the control spooling every ``checkpoint_every_s``, at
    least once mid-run (the spool is the fleet's one mid-run read).
    ``faulted``: parallel under the worker storm, recovering hosts from
    their spools."""
    from repro.core.fleet import Fleet, HostPlan
    from repro.core.fleetres import FleetResilienceConfig

    facts: Dict[str, Any] = {"reads": 0}
    plans = [
        HostPlan(app="Feed", count=2, size_scale=config.size_scale),
        HostPlan(app="Web", count=1, size_scale=config.size_scale),
    ]
    planned = sum(plan.count for plan in plans)
    fleet = Fleet(
        base_config=HostConfig(ram_gb=0.25, page_size_bytes=1 * _MB, ncpu=4),
        seed=config.seed,
    )
    try:
        if variant == "faulted":
            fault_plan = FaultPlan.generate(
                config.seed, config.duration_s, extra_events=0,
                worker_faults=config.worker_faults, fleet_hosts=planned,
            )
            counts: Dict[str, int] = {}
            for event in fault_plan.events:
                if event.target.startswith("host:"):
                    counts[event.kind] = counts.get(event.kind, 0) + 1
            facts["fault_counts"] = counts
            facts["plan_digest"] = _plan_digest(fault_plan)
            result = fleet.run(
                plans, config.duration_s, workers=config.workers,
                resilience=FleetResilienceConfig(
                    max_attempts=config.max_attempts,
                    deadline_min_s=config.deadline_min_s,
                    deadline_per_sim_s=0.0,
                    checkpoint_every_s=config.checkpoint_every_s,
                ),
                fault_plan=fault_plan,
            )
        elif variant == "spooled":
            # At least one mid-run spool per host, even in a storm no
            # longer than the checkpoint interval.
            every_s = min(config.checkpoint_every_s, config.duration_s / 2)
            result = fleet.run(
                plans, config.duration_s,
                resilience=FleetResilienceConfig(checkpoint_every_s=every_s),
            )
            spools = math.ceil(config.duration_s / every_s) - 1
            facts["reads"] = planned * spools
        else:
            result = fleet.run(plans, config.duration_s)
        facts.update(
            planned_hosts=result.planned_hosts,
            completed_hosts=len(result.reports),
            recovered_hosts=result.recovered_hosts,
            quarantined_hosts=len(result.failed_hosts),
            quarantine_hints=[f.repro_hint() for f in result.failed_hosts],
        )
    except Exception as exc:
        return "", facts, repr(exc)
    return result.merged_digest(), facts, None


def _fleet_checks(
    config: FleetChaosConfig, facts: Mapping[str, Dict[str, Any]]
) -> Dict[str, Gate]:
    seen = facts.get("faulted", {})
    planned = seen.get("planned_hosts", 0)
    completed = seen.get("completed_hosts", 0)
    quarantined = seen.get("quarantined_hosts", 0)
    return {
        "hosts_completed": Gate(
            planned > 0 and completed == planned,
            f"{completed}/{planned} planned hosts completed, "
            f"{seen.get('recovered_hosts', 0)} recovered from checkpoints",
        ),
        "none_quarantined": Gate(
            quarantined == 0,
            f"{quarantined} quarantined"
            + "".join(f"; {h}" for h in seen.get("quarantine_hints", ())),
        ),
    }


FLEET_TOPOLOGY = Topology(
    mode="fleet",
    run=_run_fleet,
    checks=_fleet_checks,
    contracts={
        "determinism": ("control", "rerun"),
        "query_neutrality": ("spooled", "control"),
        "crash_equivalence": ("faulted", "control"),
    },
)


# ----------------------------------------------------------------------
# the versioned chaos-verdict artifact


#: Version of the verdict artifact (the CI upload). Bump on any
#: incompatible envelope change; :func:`load_chaos_verdicts` refuses
#: mismatched versions instead of misreading them.
#: v2: one envelope for every topology (mode ``host`` added), each
#: verdict naming its ``contracts`` and ``checks``, with ``passed``
#: derived from ``failures`` so a FAIL always names a reason.
CHAOS_VERDICT_SCHEMA_VERSION = 2


def chaos_verdict_document(
    mode: str, config: Dict[str, Any], verdicts: Sequence[ChaosVerdict]
) -> Dict[str, Any]:
    """Wrap per-seed verdicts in the versioned artifact envelope.

    ``config`` is the storm configuration shared by every seed, so an
    archived artifact is reproducible on its own.
    """
    if mode not in CHAOS_MODES:
        raise ValueError(f"unknown chaos verdict mode {mode!r}")
    for verdict in verdicts:
        if verdict.mode != mode:
            raise ValueError(
                f"a {verdict.mode} verdict in a {mode} document"
            )
    return {
        "schema_version": CHAOS_VERDICT_SCHEMA_VERSION,
        "kind": "chaos-verdict",
        "mode": mode,
        "seeds": [verdict.seed for verdict in verdicts],
        "config": dict(config),
        "verdicts": [verdict.to_json() for verdict in verdicts],
    }


def write_chaos_verdicts(document: Dict[str, Any], path: str) -> None:
    """Write one verdict artifact (envelope from
    :func:`chaos_verdict_document`)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_chaos_verdicts(path: str) -> Dict[str, Any]:
    """Read one verdict artifact back, validating the envelope.

    Raises ``ValueError`` for a missing/foreign/mismatched envelope —
    a bare pre-versioning ``{"verdicts": [...]}`` artifact is refused
    with a pointer at its missing provenance, not silently accepted.
    """
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    if not isinstance(document, dict):
        raise ValueError(f"{path}: verdict artifact is not an object")
    if document.get("kind") != "chaos-verdict":
        raise ValueError(
            f"{path}: kind {document.get('kind')!r} is not a chaos "
            "verdict artifact (pre-versioning artifacts lack the "
            "envelope; regenerate with `repro chaos --out PATH`)"
        )
    version = document.get("schema_version")
    if version != CHAOS_VERDICT_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r} != "
            f"{CHAOS_VERDICT_SCHEMA_VERSION}"
        )
    if document.get("mode") not in CHAOS_MODES:
        raise ValueError(
            f"{path}: unknown mode {document.get('mode')!r}"
        )
    seeds = document.get("seeds")
    verdicts = document.get("verdicts")
    if not isinstance(seeds, list) or not isinstance(verdicts, list):
        raise ValueError(f"{path}: seeds/verdicts must be lists")
    if len(seeds) != len(verdicts):
        raise ValueError(
            f"{path}: {len(verdicts)} verdicts for {len(seeds)} seeds"
        )
    for i, verdict in enumerate(verdicts):
        if not isinstance(verdict, dict) or "passed" not in verdict:
            raise ValueError(
                f"{path}: verdict #{i} lacks a pass/fail outcome"
            )
        missing = set(CONTRACTS) - set(verdict.get("contracts", ()))
        if missing:
            raise ValueError(
                f"{path}: verdict #{i} lacks contract(s) {sorted(missing)}"
            )
        if verdict["passed"] != (not verdict.get("failures")):
            raise ValueError(
                f"{path}: verdict #{i} passed={verdict['passed']} "
                f"disagrees with its failures"
            )
    if not isinstance(document.get("config"), dict):
        raise ValueError(f"{path}: config provenance missing")
    return document
