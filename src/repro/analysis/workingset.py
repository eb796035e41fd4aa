"""Working-set profiling and miss-ratio curves.

Section 3.3: Senpai's continuous mild pressure "provides an accurate
workingset profile of the application over time. This allows
application developers to more precisely provision memory capacity for
their workloads." This module turns the simulator's observations into
that profile two ways:

* :class:`WorkingSetProfiler` — samples (footprint, pressure) over time
  and derives the *required* memory: the smallest footprint observed
  while the container's pressure stayed at or under the target.
* :func:`miss_ratio_curve` — converts the cgroup's refault
  reuse-distance histogram into the classic miss-ratio-vs-cache-size
  curve (Mattson-style): the probability that a file fault would have
  been a hit had the resident set been ``s`` pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.kernel.cgroup import Cgroup


@dataclass
class WorkingSetSample:
    """One observation of a container's footprint and health."""

    time: float
    footprint_bytes: int
    pressure: float  # normalised some-pressure over the last period


@dataclass
class ProvisioningEstimate:
    """The capacity recommendation a profile run produces."""

    required_bytes: int
    peak_bytes: int
    samples: int


class WorkingSetProfiler:
    """Accumulates footprint/pressure samples for one container."""

    def __init__(self, pressure_target: float = 1.0) -> None:
        """
        Args:
            pressure_target: normalised pressure (1.0 = Senpai's
                threshold) below which the workload counts as healthy.
        """
        self.pressure_target = pressure_target
        self.samples: List[WorkingSetSample] = []

    def record(
        self, time: float, footprint_bytes: int, pressure: float
    ) -> None:
        self.samples.append(
            WorkingSetSample(time, footprint_bytes, pressure)
        )

    def record_from_host(self, host, cgroup: str, now: float) -> None:
        """Convenience: sample a hosted container's resident footprint
        and its recorded Senpai pressure."""
        cg = host.mm.cgroup(cgroup)
        series = host.metrics.series(f"{cgroup}/senpai_pressure")
        pressure = series.last() if len(series) else 0.0
        self.record(now, cg.resident_bytes, pressure)

    def estimate(self) -> ProvisioningEstimate:
        """Derive the provisioning recommendation from the samples."""
        if not self.samples:
            raise ValueError("no samples recorded")
        healthy = [
            s.footprint_bytes
            for s in self.samples
            if s.pressure <= self.pressure_target
        ]
        peak = max(s.footprint_bytes for s in self.samples)
        required = min(healthy) if healthy else peak
        return ProvisioningEstimate(
            required_bytes=required,
            peak_bytes=peak,
            samples=len(self.samples),
        )


def miss_ratio_curve(
    cgroup: Cgroup,
) -> List[Tuple[int, float]]:
    """Miss-ratio curve from the cgroup's reuse-distance histogram.

    Returns ``(cache_size_pages, refault_fraction)`` points: the share
    of observed re-references whose reuse distance *exceeded* that cache
    size — i.e. the fraction that would still miss with a resident set
    of that size. Monotonically non-increasing in cache size.
    """
    hist = cgroup.reuse_distance_hist
    if not hist:
        return []
    total = sum(hist.values())
    buckets = sorted(hist)
    curve: List[Tuple[int, float]] = []
    for bucket in buckets:
        cache_pages = 1 << (bucket + 1)  # distances in this bucket fit
        misses_beyond = sum(
            count for b, count in hist.items() if b > bucket
        )
        curve.append((cache_pages, misses_beyond / total))
    return curve


def required_cache_for_miss_ratio(
    cgroup: Cgroup, target_miss_ratio: float
) -> Optional[int]:
    """Smallest cache size (pages) whose modelled miss ratio is at or
    below ``target_miss_ratio``; None when the curve never gets there."""
    if not 0.0 <= target_miss_ratio <= 1.0:
        raise ValueError(
            f"miss ratio must be in [0,1], got {target_miss_ratio}"
        )
    for cache_pages, miss_ratio in miss_ratio_curve(cgroup):
        if miss_ratio <= target_miss_ratio:
            return cache_pages
    return None
