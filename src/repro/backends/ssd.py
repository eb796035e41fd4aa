"""NVMe SSD device catalog and SSD-backed swap.

Figure 5 of the paper characterises seven SSD types (A oldest .. G newest)
across Meta's fleet: endurance grows with generation, IOPS is roughly
stable, and p99 read latency spans 9.3 ms down to 470 us. The catalog
below encodes that shape; Figure 12's "slow SSD" and "fast SSD" are
devices B and C respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.backends.base import IoKind, OffloadBackend
from repro.backends.device import DeviceSpec, QueuedDevice


@dataclass(frozen=True)
class SsdSpec:
    """Catalog entry for one SSD type (Figure 5).

    Attributes:
        name: device letter A..G (A oldest generation).
        endurance_pbw: rated lifetime writes in petabytes (pTBW / 1000).
        read_iops / write_iops: sustained 4 KiB operation rates.
        read_p99_us / write_p99_us: tail latency of an uncontended device.
    """

    name: str
    endurance_pbw: float
    read_iops: float
    write_iops: float
    read_p99_us: float
    write_p99_us: float

    def device_spec(self) -> DeviceSpec:
        """Derive the queueing-model spec (p50 from p99, lognormal tail)."""
        # For a lognormal with sigma, p99/p50 = exp(2.326 * sigma).
        sigma = 0.9
        tail_ratio = float(np.exp(2.326 * sigma))
        return DeviceSpec(
            name=f"ssd-{self.name}",
            read_iops=self.read_iops,
            write_iops=self.write_iops,
            read_latency_p50_us=self.read_p99_us / tail_ratio,
            write_latency_p50_us=self.write_p99_us / tail_ratio,
            latency_sigma=sigma,
        )


#: Figure 5's seven device types. Absolute values are representative of
#: the log-scale chart: endurance climbs ~20x over the generations, IOPS
#: stays within a small factor, and read p99 falls from 9.3 ms to 470 us.
SSD_CATALOG: Dict[str, SsdSpec] = {
    "A": SsdSpec("A", endurance_pbw=0.5, read_iops=90_000,
                 write_iops=35_000, read_p99_us=9300.0, write_p99_us=8000.0),
    "B": SsdSpec("B", endurance_pbw=1.0, read_iops=150_000,
                 write_iops=50_000, read_p99_us=4000.0, write_p99_us=3500.0),
    "C": SsdSpec("C", endurance_pbw=2.0, read_iops=300_000,
                 write_iops=80_000, read_p99_us=900.0, write_p99_us=1400.0),
    "D": SsdSpec("D", endurance_pbw=3.5, read_iops=400_000,
                 write_iops=100_000, read_p99_us=750.0, write_p99_us=1200.0),
    "E": SsdSpec("E", endurance_pbw=5.0, read_iops=500_000,
                 write_iops=120_000, read_p99_us=650.0, write_p99_us=1000.0),
    "F": SsdSpec("F", endurance_pbw=8.0, read_iops=600_000,
                 write_iops=150_000, read_p99_us=550.0, write_p99_us=900.0),
    "G": SsdSpec("G", endurance_pbw=10.0, read_iops=700_000,
                 write_iops=180_000, read_p99_us=470.0, write_p99_us=800.0),
}


def make_ssd_device(
    model: str, rng: np.random.Generator
) -> QueuedDevice:
    """Instantiate the queued device for catalog entry ``model``."""
    try:
        spec = SSD_CATALOG[model]
    except KeyError:
        raise KeyError(
            f"unknown SSD model {model!r}; catalog has {sorted(SSD_CATALOG)}"
        ) from None
    return QueuedDevice(spec.device_spec(), rng)


class SsdSwapBackend(OffloadBackend):
    """Swap space on an NVMe SSD.

    Pages are written out on reclaim (consuming endurance) and read back
    on major fault. Both directions go through the shared
    :class:`QueuedDevice`, so swap traffic and filesystem traffic on the
    same physical SSD contend with each other — the effect Figure 13
    traces back to bytecode refaults.
    """

    # The device is shared with the filesystem backend on a host, and
    # snapshots write it once.
    __state__ = ("device", "capacity_bytes", "_stored",
                 "endurance_bytes_written")
    #: The catalog spec is fixed by the host config.
    __transient__ = ("spec",)
    device: QueuedDevice

    def __init__(
        self,
        model: str,
        rng: np.random.Generator,
        capacity_bytes: int,
        device: "QueuedDevice" = None,
    ) -> None:
        super().__init__(name=f"swap-ssd-{model}")
        self.spec = SSD_CATALOG[model]
        self.device = device if device is not None else make_ssd_device(model, rng)
        self.capacity_bytes = capacity_bytes
        self._stored = 0
        self.endurance_bytes_written = 0

    @property
    def blocks_on_io(self) -> bool:
        return True

    @property
    def stored_bytes(self) -> int:
        return self._stored

    @property
    def dram_overhead_bytes(self) -> int:
        return 0

    @property
    def free_bytes(self) -> int:
        return max(0, self.capacity_bytes - self._stored)

    @property
    def wear_fraction(self) -> float:
        """Share of the rated endurance budget consumed so far."""
        budget = self.spec.endurance_pbw * 1e15
        return self.endurance_bytes_written / budget

    def inject_wear(self, nbytes: int) -> None:
        """Consume ``nbytes`` of the endurance budget without a write.

        The public premature-wear seam: a fault plan can age the device
        (e.g. model a swap partition inherited from a worn fleet host)
        and Senpai's endurance modulation reacts exactly as it would to
        real writes.
        """
        if nbytes < 0:
            raise ValueError(f"wear bytes must be >= 0, got {nbytes}")
        self.endurance_bytes_written += nbytes

    def store(
        self,
        nbytes: int,
        compressibility: float,
        now: float,
        page_id: int = None,
        age_s: float = 0.0,
    ) -> float:
        if nbytes > self.free_bytes:
            raise SwapFullError(
                f"{self.name}: swap full ({self._stored}/{self.capacity_bytes})"
            )
        # The device op may raise a BackendFaultError (injected fault);
        # issuing before any accounting keeps a failed store side-effect
        # free, so callers can retry or fall back safely.
        latency = self.device.issue(IoKind.WRITE, weight=max(1.0, nbytes / 4096))
        self._stored += nbytes
        self.endurance_bytes_written += nbytes
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        self.stats.write_stall_seconds += latency
        self.stats.latencies.add(latency)
        return latency

    def load(
        self,
        nbytes: int,
        compressibility: float,
        now: float,
        page_id: int = None,
    ) -> float:
        """Fault ``nbytes`` back in.

        A simulated page stands for ``nbytes/4096`` real 4 KiB pages;
        anonymous faults are random-access, so each constituent page
        pays its own device round-trip. The returned stall scales
        accordingly — this is what makes device speed matter to PSI.
        """
        n4k = max(1.0, nbytes / 4096)
        per_op = self.device.issue(IoKind.READ, weight=n4k)
        latency = per_op * n4k
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        self.stats.read_stall_seconds += latency
        self.stats.latencies.add(per_op)
        return latency

    def free(
        self, nbytes: int, compressibility: float, page_id: int = None
    ) -> None:
        self._stored = max(0, self._stored - nbytes)

    def on_tick(self, now: float, dt: float) -> None:
        self.device.on_tick(now, dt)


class SwapFullError(RuntimeError):
    """Raised when a store would exceed the swap device's capacity."""
