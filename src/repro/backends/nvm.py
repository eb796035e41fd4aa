"""NVM and CXL-attached memory backends.

Sections 2.5 and 5.2: the fleet's offload backends are zswap and NVMe
SSD today, but "in the future we expect this to include NVM and CXL
devices". These models let the controller experiments run against that
future:

* **NVM** (Optane-style persistent memory): byte-addressable but
  kernel-managed as a swap tier here; ~2 us loads, effectively
  unlimited read endurance, finite write endurance far above SSD.
* **CXL memory**: DDR-class semantics across a CXL link; loads cost a
  fraction of a microsecond per page (link + controller latency), no
  endurance concerns. Offloading to CXL is closer to NUMA migration
  than to swapping; the fault path modelled here is the kernel's
  page-migration cost.

Both are modelled with the same per-4KiB stall scaling as the other
backends, so PSI comparisons across all tiers are consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.base import OffloadBackend


@dataclass(frozen=True)
class FarMemorySpec:
    """Latency/endurance envelope for a byte-addressable far tier."""

    name: str
    read_us_per_4k: float
    write_us_per_4k: float
    endurance_pbw: float  # float("inf") for none
    latency_sigma: float = 0.25


#: Representative device envelopes (per 4 KiB page moved).
NVM_SPEC = FarMemorySpec(
    name="nvm", read_us_per_4k=2.0, write_us_per_4k=3.0,
    endurance_pbw=60.0,
)
CXL_SPEC = FarMemorySpec(
    name="cxl", read_us_per_4k=0.4, write_us_per_4k=0.5,
    endurance_pbw=float("inf"),
)


class FarMemoryBackend(OffloadBackend):
    """A byte-addressable far-memory tier (NVM or CXL)."""

    __state__ = ("_rng", "capacity_bytes", "_stored",
                 "endurance_bytes_written")
    #: The catalog spec is fixed by the host config.
    __transient__ = ("spec",)
    _rng: np.random.Generator

    def __init__(
        self,
        spec: FarMemorySpec,
        rng: np.random.Generator,
        capacity_bytes: int,
    ) -> None:
        super().__init__(name=f"farmem-{spec.name}")
        if capacity_bytes <= 0:
            raise ValueError("far-memory capacity must be positive")
        self.spec = spec
        self._rng = rng
        self.capacity_bytes = capacity_bytes
        self._stored = 0
        self.endurance_bytes_written = 0

    @property
    def blocks_on_io(self) -> bool:
        # Far-memory faults resolve through page migration, not block
        # IO: they count toward memory pressure only, like zswap.
        return False

    @property
    def stored_bytes(self) -> int:
        return self._stored

    @property
    def dram_overhead_bytes(self) -> int:
        return 0  # the tier is its own physical capacity

    @property
    def free_bytes(self) -> int:
        return max(0, self.capacity_bytes - self._stored)

    @property
    def wear_fraction(self) -> float:
        if self.spec.endurance_pbw == float("inf"):
            return 0.0
        return self.endurance_bytes_written / (
            self.spec.endurance_pbw * 1e15
        )

    def _latency(self, us_per_4k: float, nbytes: int) -> float:
        pages = max(1.0, nbytes / 4096)
        jitter = float(
            self._rng.lognormal(mean=0.0, sigma=self.spec.latency_sigma)
        )
        return us_per_4k * pages * 1e-6 * jitter

    def store(
        self,
        nbytes: int,
        compressibility: float,
        now: float,
        page_id: int = None,
        age_s: float = 0.0,
    ) -> float:
        if nbytes > self.free_bytes:
            raise FarMemoryFullError(
                f"{self.name}: tier full "
                f"({self._stored}/{self.capacity_bytes})"
            )
        self._stored += nbytes
        self.endurance_bytes_written += nbytes
        latency = self._latency(self.spec.write_us_per_4k, nbytes)
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        self.stats.write_stall_seconds += latency
        return latency

    def load(
        self,
        nbytes: int,
        compressibility: float,
        now: float,
        page_id: int = None,
    ) -> float:
        latency = self._latency(self.spec.read_us_per_4k, nbytes)
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        self.stats.read_stall_seconds += latency
        self.stats.latencies.add(latency)
        return latency

    def free(
        self, nbytes: int, compressibility: float, page_id: int = None
    ) -> None:
        self._stored = max(0, self._stored - nbytes)


class FarMemoryFullError(RuntimeError):
    """Raised when a store would exceed the far tier's capacity."""


def make_nvm(rng: np.random.Generator, capacity_bytes: int) -> FarMemoryBackend:
    """An NVM swap tier."""
    return FarMemoryBackend(NVM_SPEC, rng, capacity_bytes)


def make_cxl(rng: np.random.Generator, capacity_bytes: int) -> FarMemoryBackend:
    """A CXL-attached memory tier."""
    return FarMemoryBackend(CXL_SPEC, rng, capacity_bytes)
