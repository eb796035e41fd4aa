"""The rollout health gate.

The gate's job during a guarded rollout (docs/RESILIENCE.md, "Control
plane"): after a wave of hosts switches to the candidate policy, watch
each wave host's streaming metrics over a soak window and compare them
to the same host's *pre-rollout baseline*. A policy that spikes
pressure, storms refaults, OOM-kills containers or trips the swap
circuit breaker fails the gate, and the rollout engine rolls the wave
back automatically.

Both windows are :class:`~repro.fleetd.rollup.HostRollup` reads
(:func:`repro.fleetd.rollup.sample_host`) of the host's own metric
series — the same streams the chaos verdicts digest and the
``metrics``/``top`` verbs serve — so the gate is deterministic and
replayable: two runs with the same seed see the same samples and reach
the same verdict.

A ratio-style signal passes while::

    observed mean <= max(floor, baseline mean * mult)

so quiet fleets (baseline ~0) are judged against the absolute floor
and loaded fleets against a multiple of their own baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.fleetd.rollup import HostRollup

#: Memory pressure: a policy is unhealthy once it pushes mean app
#: ``some`` avg10 past the level Senpai deliberately regulates toward
#: (``SenpaiConfig.psi_threshold``, 0.001; paper §3.3), or past 3x a
#: baseline that already sat above it.
PSI_MULT = 3.0
PSI_FLOOR = 0.001
#: IO pressure: the same anchor with 2x slack, because reclaim traffic
#: shares the filesystem device with the app's own file IO.
IO_MULT = 3.0
IO_FLOOR = 0.002
#: Refaults/s: refaults are the intended cost of offloading, so a
#: policy may raise them 4x, and a quiet host may reach 0.5/s, before
#: it is thrashing rather than offloading.
REFAULT_MULT = 4.0
REFAULT_FLOOR = 0.5
#: OOM kills tolerated in a soak window: none — an OOM kill is an
#: outage of the container, not a regression to weigh.
MAX_NEW_OOMS = 0

#: (signal, mult, floor) for every ratio-judged rollup signal, in the
#: order the gate reports them. An open swap breaker always fails the
#: gate.
_RATIO_LIMITS: Tuple[Tuple[str, float, float], ...] = (
    ("psi_mem_some", PSI_MULT, PSI_FLOOR),
    ("psi_io_some", IO_MULT, IO_FLOOR),
    ("refault_rate", REFAULT_MULT, REFAULT_FLOOR),
)


@dataclass
class GateVerdict:
    """One host's gate decision: observed-vs-baseline, with reasons."""

    host_id: str
    passed: bool
    reasons: Tuple[str, ...]
    baseline: HostRollup
    observed: HostRollup

    def to_json(self) -> Dict[str, object]:
        return {
            "host_id": self.host_id,
            "passed": self.passed,
            "reasons": list(self.reasons),
            "baseline": self.baseline.to_json(),
            "observed": self.observed.to_json(),
        }


def evaluate_gate(
    host_id: str, baseline: HostRollup, observed: HostRollup
) -> GateVerdict:
    """Judge one wave host's soak window against its baseline."""
    reasons: List[str] = []
    starved = [
        name for name, _, _ in _RATIO_LIMITS
        if not observed.signals[name].count
    ]
    if len(starved) == len(_RATIO_LIMITS):
        reasons.append("no metric samples in the soak window")
    else:
        # Per-signal starvation: a window where, say, only refaults
        # arrived would otherwise judge pressure against a fabricated
        # 0.0 mean. Name the starved signal instead.
        for name in starved:
            reasons.append(
                f"no {name} samples in the soak window (its 0.0 "
                "mean is fabricated, not observed)"
            )
    for name, mult, floor in _RATIO_LIMITS:
        base = baseline.signals[name].mean or 0.0
        seen = observed.signals[name].mean or 0.0
        limit = max(floor, base * mult)
        if seen > limit:
            reasons.append(
                f"{name} {seen:.4g} > limit {limit:.4g} "
                f"(baseline {base:.4g})"
            )
    if observed.oom_kills > MAX_NEW_OOMS:
        reasons.append(
            f"{observed.oom_kills} OOM kill(s) in the soak window "
            f"(allowed {MAX_NEW_OOMS})"
        )
    if observed.breaker_open:
        reasons.append("swap circuit breaker opened")
    return GateVerdict(
        host_id=host_id,
        passed=not reasons,
        reasons=tuple(reasons),
        baseline=baseline,
        observed=observed,
    )
