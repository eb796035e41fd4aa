"""Seed-derived fault schedules.

A :class:`FaultPlan` is generated once, up front, from the host seed via
:func:`~repro.sim.rng.derive_rng` — the same discipline every other
stochastic component follows — so one seed maps to exactly one fault
schedule, bit-for-bit, forever. The injector then merely replays it.

Fault taxonomy (``kind`` values; see docs/RESILIENCE.md):

========================  =====================================================
``io_error``              per-operation failures on a device (``severity`` is
                          the error probability)
``brownout``              latency inflation (``severity`` scales the
                          multiplier)
``outage``                the device is gone for the window
``wear``                  instantaneous endurance-budget consumption
                          (``severity`` is the budget fraction)
``psi_freeze``            the PSI read side serves stale values for the window
``malformed_pressure``    pressure files return unparseable text
``controlfs_error``       control-file reads/writes raise for the window
``restart``               instantaneous container restart
``spike``                 instantaneous footprint spike (``severity`` is the
                          growth fraction)
``controller_crash``      instantaneous controller death (the supervisor
                          restarts it from persisted state)
``controller_hang``       the controller stops making progress for the
                          window (heartbeats stall)
``worker_crash``          a fleet worker process dies mid-host (the
                          resilience runtime recovers the host from its
                          spooled checkpoint)
``worker_hang``           a fleet worker wedges and stops making progress;
                          the runtime kills it at the per-host deadline
``worker_slow``           a fleet worker stalls for a wall-clock interval
                          scaled by ``severity`` during the window
========================  =====================================================

``malformed_pressure`` and ``controlfs_error`` reach only the host's
:class:`~repro.kernel.controlfs.ControlFs`, which only
:class:`~repro.core.daemon.SenpaiDaemon` reads. No chaos topology runs
that daemon, so in a chaos storm those events are counted in
``faults_injected`` but change nothing the run measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.sim.rng import derive_rng

#: The kinds ``generate`` draws from in its base loop. Kept separate
#: from :data:`FAULT_KINDS` so adding new kinds (drawn by dedicated
#: parameters) does not perturb the byte-exact plans of existing seeds.
GENERATED_KINDS: Tuple[str, ...] = (
    "io_error",
    "brownout",
    "outage",
    "wear",
    "psi_freeze",
    "malformed_pressure",
    "controlfs_error",
    "restart",
    "spike",
)

#: Kinds that hit a supervised controller (``target`` is ``"controller"``).
CONTROLLER_KINDS: Tuple[str, ...] = ("controller_crash", "controller_hang")

#: Kinds that hit a fleet worker process (``target`` is ``"host:<slot>"``
#: where ``slot`` is the host's position in canonical rollout order).
#: Consumed by :mod:`repro.core.fleetres`, not the host-level injector.
WORKER_KINDS: Tuple[str, ...] = ("worker_crash", "worker_hang",
                                 "worker_slow")

#: Every fault kind a plan may schedule.
FAULT_KINDS: Tuple[str, ...] = (
    GENERATED_KINDS + CONTROLLER_KINDS + WORKER_KINDS
)

#: Kinds that fire once at ``start_s`` rather than holding for a window.
#: ``worker_hang`` is instant too: a wedged worker never resumes on its
#: own — the hang lasts until the resilience runtime's deadline kill.
INSTANT_KINDS: Tuple[str, ...] = ("wear", "restart", "spike",
                                  "controller_crash", "worker_crash",
                                  "worker_hang")

#: Kinds that target a device (``target`` is ``"swap"`` or ``"fs"``).
DEVICE_KINDS: Tuple[str, ...] = ("io_error", "brownout", "outage")

#: Fraction of the run after which every fault has ended — the quiet
#: recovery tail the chaos harness measures throughput against.
RECOVERY_TAIL_FRAC = 0.75


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        target: what the fault hits — ``"swap"`` / ``"fs"`` for device
            kinds, ``"host"`` for telemetry kinds, a cgroup name for
            workload kinds.
        start_s: virtual time the fault begins.
        duration_s: window length; 0 for instantaneous kinds.
        severity: kind-specific magnitude in [0, 1].
    """

    kind: str
    target: str
    start_s: float
    duration_s: float
    severity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; have {FAULT_KINDS}"
            )
        if self.start_s < 0 or self.duration_s < 0:
            raise ValueError("fault start/duration must be >= 0")
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError(
                f"severity must be in [0, 1], got {self.severity}"
            )

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def instant(self) -> bool:
        return self.kind in INSTANT_KINDS

    def active(self, now: float) -> bool:
        """Whether the window covers ``now`` (always False for instants)."""
        if self.instant:
            return False
        return self.start_s <= now < self.end_s


@dataclass(frozen=True)
class FaultPlan:
    """A complete, immutable fault schedule for one run."""

    seed: int
    duration_s: float
    events: Tuple[FaultEvent, ...]

    def digest_text(self) -> str:
        """Canonical text form, for bit-reproducibility assertions."""
        lines = [f"plan seed={self.seed} duration_s={self.duration_s!r}"]
        for ev in self.events:
            lines.append(
                f"{ev.kind} target={ev.target} start_s={ev.start_s!r} "
                f"duration_s={ev.duration_s!r} severity={ev.severity!r}"
            )
        return "\n".join(lines)

    def worker_events(self, slot: int) -> Tuple[FaultEvent, ...]:
        """Worker-level events targeting fleet host ``slot``.

        ``slot`` is the host's position in the fleet's canonical rollout
        order (see :meth:`repro.core.fleet.Fleet._tasks`); the resilience
        runtime hands each host exactly this slice of the plan.
        """
        target = f"host:{slot}"
        return tuple(
            ev for ev in self.events
            if ev.kind in WORKER_KINDS and ev.target == target
        )

    @classmethod
    def generate(
        cls,
        seed: int,
        duration_s: float,
        cgroups: Tuple[str, ...] = ("app",),
        extra_events: int = 6,
        controller_faults: int = 0,
        worker_faults: int = 0,
        fleet_hosts: int = 1,
    ) -> "FaultPlan":
        """Generate the schedule for ``seed``.

        Deterministic: all randomness comes from
        ``derive_rng(seed, "faults:plan")`` and is drawn in a fixed
        order, so identical arguments yield an identical plan. The
        ``controller_faults`` draws happen strictly after the base
        draws, and the ``worker_faults`` draws strictly after those,
        so plans generated with the defaults (``0``) are byte-identical
        to plans from before either parameter existed.

        ``worker_faults`` events target fleet host slots drawn
        uniformly from ``range(fleet_hosts)`` (``target`` is
        ``"host:<slot>"``); they are consumed by the fleet resilience
        runtime, not the in-host injector.

        Two structural guarantees hold for every seed:

        * one swap ``io_error`` window is long and severe enough to
          trip Senpai's circuit breaker (the chaos harness asserts the
          breaker demonstrably opens and re-closes);
        * every window ends by ``RECOVERY_TAIL_FRAC * duration_s``, so
          the run always finishes with a quiet recovery tail.
        """
        if duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {duration_s}")
        if not cgroups:
            raise ValueError("need at least one cgroup for workload faults")
        rng = derive_rng(seed, "faults:plan")
        tail_start_s = RECOVERY_TAIL_FRAC * duration_s
        events = []

        # Guaranteed breaker-tripping window: a severe swap IO-error
        # storm early in the run, long enough to cover several Senpai
        # polling periods.
        storm_len_s = min(max(45.0, 0.1 * duration_s), 0.25 * duration_s)
        storm_start_s = float(
            rng.uniform(0.15, 0.35) * duration_s
        )
        storm_start_s = min(storm_start_s, tail_start_s - storm_len_s)
        events.append(FaultEvent(
            kind="io_error", target="swap",
            start_s=storm_start_s, duration_s=storm_len_s,
            severity=0.95,
        ))

        for _ in range(extra_events):
            kind = GENERATED_KINDS[int(rng.integers(0, len(GENERATED_KINDS)))]
            if kind in DEVICE_KINDS:
                target = "swap" if rng.random() < 0.5 else "fs"
            elif kind in ("restart", "spike"):
                target = cgroups[int(rng.integers(0, len(cgroups)))]
            elif kind == "wear":
                target = "swap"
            else:
                target = "host"
            start_s = float(rng.uniform(0.05, 0.65) * duration_s)
            if kind in INSTANT_KINDS:
                window_s = 0.0
            else:
                window_s = float(rng.uniform(10.0, 60.0))
                window_s = min(window_s, max(1.0, tail_start_s - start_s))
            if kind == "io_error":
                severity = float(rng.uniform(0.2, 0.9))
            elif kind == "brownout":
                severity = float(rng.uniform(0.3, 1.0))
            elif kind == "wear":
                severity = float(rng.uniform(0.05, 0.25))
            elif kind == "spike":
                severity = float(rng.uniform(0.05, 0.3))
            else:
                severity = 1.0
            events.append(FaultEvent(
                kind=kind, target=target, start_s=start_s,
                duration_s=window_s, severity=severity,
            ))

        # Controller faults (crash/hang against the supervisor seam) are
        # drawn after every base draw so they extend a seed's plan
        # without rewriting it.
        for _ in range(controller_faults):
            kind = CONTROLLER_KINDS[
                int(rng.integers(0, len(CONTROLLER_KINDS)))
            ]
            start_s = float(rng.uniform(0.05, 0.65) * duration_s)
            if kind in INSTANT_KINDS:
                window_s = 0.0
            else:
                window_s = float(rng.uniform(10.0, 60.0))
                window_s = min(window_s, max(1.0, tail_start_s - start_s))
            events.append(FaultEvent(
                kind=kind, target="controller", start_s=start_s,
                duration_s=window_s, severity=1.0,
            ))

        # Worker-process faults (crash/hang/slow against fleet host
        # slots) are drawn after every other draw, again so a seed's
        # existing plan is extended, never rewritten.
        if fleet_hosts < 1:
            raise ValueError(
                f"fleet_hosts must be >= 1, got {fleet_hosts}"
            )
        for _ in range(worker_faults):
            kind = WORKER_KINDS[int(rng.integers(0, len(WORKER_KINDS)))]
            slot = int(rng.integers(0, fleet_hosts))
            # Fire well inside the run, so a spooled checkpoint can
            # exist before the fault and the recovery tail after it.
            start_s = float(rng.uniform(0.1, 0.6) * duration_s)
            if kind in INSTANT_KINDS:
                window_s = 0.0
            else:
                window_s = float(rng.uniform(10.0, 60.0))
                window_s = min(window_s, max(1.0, tail_start_s - start_s))
            severity = (
                float(rng.uniform(0.3, 1.0))
                if kind == "worker_slow" else 1.0
            )
            events.append(FaultEvent(
                kind=kind, target=f"host:{slot}", start_s=start_s,
                duration_s=window_s, severity=severity,
            ))

        events.sort(key=lambda ev: (ev.start_s, ev.kind, ev.target))
        return cls(seed=seed, duration_s=duration_s, events=tuple(events))
