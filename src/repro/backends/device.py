"""A queued block device.

Models what the paper's experiments actually observe from an SSD: base
latency per operation, a throughput ceiling (IOPS), and latency inflation
as the device saturates. We use an open-loop M/M/1-style inflation factor
``1 / (1 - rho)`` on a utilisation estimate smoothed over a short window,
capped to keep the simulation stable when demand exceeds capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.base import (
    BackendIOError,
    BackendUnavailableError,
    IoKind,
)

#: Utilisation at which latency inflation is clamped.
_RHO_CAP = 0.95


@dataclass
class DeviceFaultState:
    """The public fault-injection seam of a device or backend.

    A :class:`~repro.faults.injector.FaultInjector` (or a test) mutates
    these fields to model degraded hardware; the device consults them on
    every operation. All fields at their defaults means a healthy
    device, and the operation path then consumes no extra randomness —
    so fault-free runs are bit-identical with or without an injector
    attached.

    Attributes:
        latency_multiplier: scales every sampled latency (brownout).
        io_error_rate: per-operation probability of a
            :class:`~repro.backends.base.BackendIOError` (0 disables).
        available: when False every operation raises
            :class:`~repro.backends.base.BackendUnavailableError`.
    """

    latency_multiplier: float = 1.0
    io_error_rate: float = 0.0
    available: bool = True

    def clear(self) -> None:
        """Reset to the healthy-device defaults."""
        self.latency_multiplier = 1.0
        self.io_error_rate = 0.0
        self.available = True

    @property
    def healthy(self) -> bool:
        return (
            self.latency_multiplier == 1.0
            and self.io_error_rate == 0.0
            and self.available
        )


@dataclass(frozen=True)
class DeviceSpec:
    """Performance envelope of a block device."""

    name: str
    read_iops: float
    write_iops: float
    read_latency_p50_us: float
    write_latency_p50_us: float
    #: Lognormal sigma of per-op latency; sets the p50->p99 spread.
    latency_sigma: float = 0.9


class QueuedDevice:
    """Tracks utilisation and draws per-operation latencies.

    The device smooths its operation rate with an exponential window
    (default 5 s) and inflates latency by ``1/(1-rho)``. Latency samples
    are lognormal around the inflated median, which reproduces the long
    tails the paper reports for the slower SSD generations.
    """

    __state__ = (
        "_rng", "_util_window", "_read_rate", "_write_rate",
        "_pending_reads", "_pending_writes", "faults",
    )
    #: The catalog spec is fixed by the host config.
    __transient__ = ("spec",)
    _rng: np.random.Generator
    faults: DeviceFaultState

    def __init__(
        self,
        spec: DeviceSpec,
        rng: np.random.Generator,
        util_window_s: float = 5.0,
    ) -> None:
        self.spec = spec
        self._rng = rng
        self._util_window = util_window_s
        self._read_rate = 0.0  # smoothed ops/s
        self._write_rate = 0.0
        self._pending_reads = 0.0  # ops issued since last tick
        self._pending_writes = 0.0
        #: Fault-injection seam; healthy by default.
        self.faults = DeviceFaultState()

    # ------------------------------------------------------------------

    def on_tick(self, now: float, dt: float) -> None:
        """Fold operations issued during the last ``dt`` into the rates."""
        if dt <= 0:
            return
        alpha = min(1.0, dt / self._util_window)
        self._read_rate += (self._pending_reads / dt - self._read_rate) * alpha
        self._write_rate += (
            self._pending_writes / dt - self._write_rate
        ) * alpha
        self._pending_reads = 0.0
        self._pending_writes = 0.0

    @property
    def utilization(self) -> float:
        """Combined utilisation estimate in [0, 1]."""
        rho = (
            self._read_rate / self.spec.read_iops
            + self._write_rate / self.spec.write_iops
        )
        return min(_RHO_CAP, rho)

    def _base_latency_us(self, kind: IoKind) -> float:
        if kind is IoKind.READ:
            return self.spec.read_latency_p50_us
        return self.spec.write_latency_p50_us

    def issue(self, kind: IoKind, weight: float = 1.0) -> float:
        """Issue one (weighted) operation; return its latency in seconds.

        Args:
            kind: read or write.
            weight: how many real operations this sampled operation stands
                for (the simulator samples accesses; rates must reflect
                the true operation count).
        """
        # Fault checks come first: a failed operation never reaches the
        # queue, so accounting is only mutated by successful ops.
        if not self.faults.available:
            raise BackendUnavailableError(
                f"{self.spec.name}: device unavailable (injected outage)"
            )
        if self.faults.io_error_rate > 0.0 and (
            float(self._rng.random()) < self.faults.io_error_rate
        ):
            raise BackendIOError(
                f"{self.spec.name}: {kind.value} failed (injected IO error)"
            )
        if kind is IoKind.READ:
            self._pending_reads += weight
        else:
            self._pending_writes += weight
        inflation = 1.0 / (1.0 - self.utilization)
        median_us = self._base_latency_us(kind) * inflation
        sample_us = median_us * float(
            self._rng.lognormal(mean=0.0, sigma=self.spec.latency_sigma)
        )
        return sample_us * self.faults.latency_multiplier * 1e-6
