"""Per-host health rollups and the rollout health gate.

The gate's job during a guarded rollout (docs/RESILIENCE.md, "Control
plane"): after a wave of hosts switches to the candidate policy, watch
each wave host's streaming metrics over a soak window and compare them
to the same host's *pre-rollout baseline*. A policy that spikes
pressure, storms refaults, OOM-kills containers, trips the swap
circuit breaker, or quarantines its controller fails the gate, and the
rollout engine rolls the wave back automatically.

All signals come from the host's own :class:`~repro.sim.metrics`
series — the same streams the chaos verdicts digest — so the gate is
deterministic and replayable: two runs with the same seed see the same
samples and reach the same verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class HealthSample:
    """One host's metric rollup over a time window.

    All reads are **non-registering**
    (:meth:`MetricsRecorder.read_window`): sampling a host's health never creates phantom
    series for names the host has not recorded (a gswap host has no
    ``senpai/degraded``), so health queries are digest-neutral.

    Attributes:
        psi_mem_some: mean memory ``some`` avg10 of the app container.
        psi_io_some: mean io ``some`` avg10 of the app container.
        refault_rate: mean file refaults/s of the app container.
        oom_kills: OOM events of the app container inside the window.
        breaker_open: the swap circuit breaker left the closed state
            inside the window (``senpai/degraded`` > 0).
        quarantined: the host's supervised controller was quarantined
            inside the window (``supervisor/quarantined`` edge seen) or
            is quarantined now.
        samples: total metric samples backing the rollup; 0 means
            the window saw no data at all and the rollup is
            meaningless.
        psi_mem_samples / psi_io_samples / refault_samples: per-signal
            sample counts, so a window with only refault data cannot
            masquerade as "has PSI data" (the pooled ``samples`` used
            to hide exactly that). ``None`` means "not tracked" —
            hand-built samples in tests and defaults skip the
            per-signal gate check.
    """

    psi_mem_some: float = 0.0
    psi_io_some: float = 0.0
    refault_rate: float = 0.0
    oom_kills: int = 0
    breaker_open: bool = False
    quarantined: bool = False
    samples: int = 0
    psi_mem_samples: Optional[int] = None
    psi_io_samples: Optional[int] = None
    refault_samples: Optional[int] = None

    def to_json(self) -> Dict[str, object]:
        return {
            "psi_mem_some": self.psi_mem_some,
            "psi_io_some": self.psi_io_some,
            "refault_rate": self.refault_rate,
            "oom_kills": self.oom_kills,
            "breaker_open": self.breaker_open,
            "quarantined": self.quarantined,
            "samples": self.samples,
            "psi_mem_samples": self.psi_mem_samples,
            "psi_io_samples": self.psi_io_samples,
            "refault_samples": self.refault_samples,
        }


@dataclass(frozen=True)
class HealthGateConfig:
    """Gate thresholds: observed-vs-baseline tolerances per signal.

    A ratio-style signal passes while::

        observed <= max(floor, baseline * mult)

    so quiet fleets (baseline ~0) are judged against the absolute floor
    and loaded fleets against a multiple of their own baseline.

    The default floors are anchored to Senpai's own control targets: a
    policy is unhealthy when it pushes mean pressure past the avg10
    level Senpai deliberately regulates toward
    (``SenpaiConfig.psi_threshold``, 0.001), with io given 2x slack
    because reclaim traffic shares the filesystem device.

    Attributes:
        psi_mult / psi_floor: memory-pressure tolerance.
        io_mult / io_floor: io-pressure tolerance.
        refault_mult / refault_floor: refault-rate tolerance.
        max_new_ooms: OOM kills tolerated inside the soak window.
        allow_breaker_open: whether an open swap breaker passes.
        allow_quarantine: whether a quarantined controller passes.
    """

    psi_mult: float = 3.0
    psi_floor: float = 0.001
    io_mult: float = 3.0
    io_floor: float = 0.002
    refault_mult: float = 4.0
    refault_floor: float = 0.5
    max_new_ooms: int = 0
    allow_breaker_open: bool = False
    allow_quarantine: bool = False

    def to_json(self) -> Dict[str, object]:
        return {
            "psi_mult": self.psi_mult,
            "psi_floor": self.psi_floor,
            "io_mult": self.io_mult,
            "io_floor": self.io_floor,
            "refault_mult": self.refault_mult,
            "refault_floor": self.refault_floor,
            "max_new_ooms": self.max_new_ooms,
            "allow_breaker_open": self.allow_breaker_open,
            "allow_quarantine": self.allow_quarantine,
        }


def _window_mean(host, name: str, t0: float, t1: float) -> Tuple[float, int]:
    window = host.metrics.read_window(name, t0, t1)
    n = len(window)
    return (window.mean() if n else 0.0), n


def sample_host(host, cgroup: str, t0: float, t1: float,
                quarantined_now: bool = False) -> HealthSample:
    """Roll one host's metrics up over ``[t0, t1)``.

    Read-only: every lookup goes through the recorder's non-registering
    path, so sampling a host twice leaves its metrics digest
    byte-identical to never sampling it.

    ``quarantined_now`` folds in live supervisor state, so a host whose
    controller died before the window still reads as quarantined.
    """
    psi_mem, n_mem = _window_mean(
        host, f"{cgroup}/psi_mem_some_avg10", t0, t1
    )
    psi_io, n_io = _window_mean(
        host, f"{cgroup}/psi_io_some_avg10", t0, t1
    )
    refaults, n_ref = _window_mean(host, f"{cgroup}/refaults", t0, t1)
    oom = host.metrics.read_window(f"{cgroup}/oom", t0, t1)
    degraded = host.metrics.read_window("senpai/degraded", t0, t1)
    quarantine_edges = host.metrics.read_window(
        "supervisor/quarantined", t0, t1
    )
    return HealthSample(
        psi_mem_some=psi_mem,
        psi_io_some=psi_io,
        refault_rate=refaults,
        oom_kills=int(sum(oom.values)),
        breaker_open=bool(len(degraded) and degraded.max() > 0.0),
        quarantined=bool(len(quarantine_edges)) or quarantined_now,
        samples=n_mem + n_io + n_ref,
        psi_mem_samples=n_mem,
        psi_io_samples=n_io,
        refault_samples=n_ref,
    )


@dataclass
class GateVerdict:
    """One host's gate decision: observed-vs-baseline, with reasons."""

    host_id: str
    passed: bool
    reasons: Tuple[str, ...] = ()
    baseline: HealthSample = field(default_factory=HealthSample)
    observed: HealthSample = field(default_factory=HealthSample)

    def to_json(self) -> Dict[str, object]:
        return {
            "host_id": self.host_id,
            "passed": self.passed,
            "reasons": list(self.reasons),
            "baseline": self.baseline.to_json(),
            "observed": self.observed.to_json(),
        }


def evaluate_gate(
    host_id: str,
    baseline: HealthSample,
    observed: HealthSample,
    config: HealthGateConfig,
) -> GateVerdict:
    """Judge one wave host's soak window against its baseline."""
    reasons: List[str] = []
    if observed.samples == 0:
        reasons.append("no metric samples in the soak window")
    else:
        # Per-signal starvation: the pooled count above cannot see a
        # window where, say, only refaults arrived — the gate would
        # then judge pressure against a fabricated 0.0 mean. Name the
        # starved signal instead of trusting the fabricated value.
        for label, count in (
            ("psi_mem_some", observed.psi_mem_samples),
            ("psi_io_some", observed.psi_io_samples),
            ("refault_rate", observed.refault_samples),
        ):
            if count == 0:
                reasons.append(
                    f"no {label} samples in the soak window (its 0.0 "
                    "mean is fabricated, not observed)"
                )

    def ratio_check(name: str, base: float, seen: float,
                    mult: float, floor: float) -> None:
        limit = max(floor, base * mult)
        if seen > limit:
            reasons.append(
                f"{name} {seen:.4g} > limit {limit:.4g} "
                f"(baseline {base:.4g})"
            )

    ratio_check("psi_mem_some", baseline.psi_mem_some,
                observed.psi_mem_some, config.psi_mult, config.psi_floor)
    ratio_check("psi_io_some", baseline.psi_io_some,
                observed.psi_io_some, config.io_mult, config.io_floor)
    ratio_check("refault_rate", baseline.refault_rate,
                observed.refault_rate, config.refault_mult,
                config.refault_floor)
    if observed.oom_kills > config.max_new_ooms:
        reasons.append(
            f"{observed.oom_kills} OOM kill(s) in the soak window "
            f"(allowed {config.max_new_ooms})"
        )
    if observed.breaker_open and not config.allow_breaker_open:
        reasons.append("swap circuit breaker opened")
    if observed.quarantined and not config.allow_quarantine:
        reasons.append("supervised controller quarantined")
    return GateVerdict(
        host_id=host_id,
        passed=not reasons,
        reasons=tuple(reasons),
        baseline=baseline,
        observed=observed,
    )
