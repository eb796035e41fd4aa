"""zswap: a compressed in-DRAM pool for anonymous pages.

Instead of writing a reclaimed anonymous page to a swap partition, the
kernel compresses it and keeps it in RAM (Section 3.4.1). Faults still
occur, but resolve by decompression — roughly 40 us at p90 versus
hundreds of microseconds to milliseconds for an SSD — and the memory
saving per page is ``page_size_bytes * (1 - 1/effective_ratio)`` minus
allocator slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.backends.base import (
    BackendIOError,
    BackendUnavailableError,
    OffloadBackend,
)
from repro.backends.compression import (
    COMPRESSION_ALGORITHMS,
    CompressionAlgorithm,
    compressed_size,
)
from repro.backends.device import DeviceFaultState


@dataclass(frozen=True)
class ZswapAllocator:
    """A zswap pool allocator model (Section 5.1's selection study).

    Attributes:
        name: allocator identifier.
        max_pages_per_page: hard cap on how many compressed pages can
            share one physical page — zbud packs at most 2, z3fold at
            most 3, zsmalloc is unbounded (size-class slabs).
        packing_efficiency: fraction of a physical page's bytes usable
            for compressed payloads (slab/metadata overhead).
    """

    name: str
    max_pages_per_page: float
    packing_efficiency: float

    def stored_footprint(self, nbytes: int, compressed: int) -> int:
        """Physical DRAM consumed to store one compressed page.

        The per-page footprint is the compressed size inflated by packing
        overhead, but never better than the allocator's per-page cap
        allows (``nbytes / max_pages_per_page``).
        """
        footprint = compressed / self.packing_efficiency
        floor = nbytes / self.max_pages_per_page
        return int(round(min(float(nbytes), max(footprint, floor))))


#: The three allocators evaluated in Section 5.1. zsmalloc gives the
#: densest pool, which is why the paper's deployment selected it.
ZSWAP_ALLOCATORS: Dict[str, ZswapAllocator] = {
    "zbud": ZswapAllocator("zbud", max_pages_per_page=2.0,
                           packing_efficiency=0.98),
    "z3fold": ZswapAllocator("z3fold", max_pages_per_page=3.0,
                             packing_efficiency=0.95),
    "zsmalloc": ZswapAllocator("zsmalloc", max_pages_per_page=16.0,
                               packing_efficiency=0.90),
}


class ZswapBackend(OffloadBackend):
    """The compressed memory pool.

    Production config (Section 5.1): zstd + zsmalloc. The pool's bytes
    count as DRAM use on the host (``dram_overhead_bytes``), so the net
    saving of offloading a page is automatically its size minus its
    compressed footprint.
    """

    #: Fixed software path cost added to every fault resolution, on top
    #: of the per-byte decompression time. Puts the p90 load latency in
    #: the ~40 us range the paper quotes for 4 KiB pages.
    _FAULT_PATH_US = 25.0

    __state__ = (
        "max_pool_bytes", "_rng", "_pool_bytes", "_logical_bytes",
        "compress_cpu_seconds", "decompress_cpu_seconds", "faults",
    )
    #: Catalog entries fixed by the host config.
    __transient__ = ("algorithm", "allocator")
    _rng: np.random.Generator
    faults: DeviceFaultState

    def __init__(
        self,
        rng: np.random.Generator,
        algorithm: str = "zstd",
        allocator: str = "zsmalloc",
        max_pool_bytes: int = None,
    ) -> None:
        super().__init__(name=f"zswap-{algorithm}-{allocator}")
        if algorithm not in COMPRESSION_ALGORITHMS:
            raise KeyError(
                f"unknown compression algorithm {algorithm!r}; "
                f"have {sorted(COMPRESSION_ALGORITHMS)}"
            )
        if allocator not in ZSWAP_ALLOCATORS:
            raise KeyError(
                f"unknown zswap allocator {allocator!r}; "
                f"have {sorted(ZSWAP_ALLOCATORS)}"
            )
        self.algorithm: CompressionAlgorithm = COMPRESSION_ALGORITHMS[algorithm]
        self.allocator: ZswapAllocator = ZSWAP_ALLOCATORS[allocator]
        self.max_pool_bytes = max_pool_bytes
        self._rng = rng
        self._pool_bytes = 0
        self._logical_bytes = 0
        self.compress_cpu_seconds = 0.0
        self.decompress_cpu_seconds = 0.0
        #: Fault-injection seam (allocator failures, slow compression
        #: under CPU contention, pool corruption windows); healthy by
        #: default, in which case no extra randomness is consumed.
        self.faults = DeviceFaultState()

    def _check_faults(self, op: str) -> None:
        if not self.faults.available:
            raise BackendUnavailableError(
                f"{self.name}: pool unavailable (injected outage)"
            )
        if self.faults.io_error_rate > 0.0 and (
            float(self._rng.random()) < self.faults.io_error_rate
        ):
            raise BackendIOError(
                f"{self.name}: {op} failed (injected fault)"
            )

    @property
    def blocks_on_io(self) -> bool:
        return False

    @property
    def stored_bytes(self) -> int:
        """Uncompressed bytes logically held by the pool."""
        return self._logical_bytes

    @property
    def pool_bytes(self) -> int:
        """Physical DRAM bytes the compressed pool occupies."""
        return self._pool_bytes

    @property
    def dram_overhead_bytes(self) -> int:
        return self._pool_bytes

    def footprint_of(self, nbytes: int, compressibility: float) -> int:
        """DRAM footprint a page of ``nbytes`` would occupy in the pool."""
        compressed = compressed_size(nbytes, compressibility, self.algorithm)
        return self.allocator.stored_footprint(nbytes, compressed)

    def store(
        self,
        nbytes: int,
        compressibility: float,
        now: float,
        page_id: int = None,
        age_s: float = 0.0,
    ) -> float:
        footprint = self.footprint_of(nbytes, compressibility)
        if (
            self.max_pool_bytes is not None
            and self._pool_bytes + footprint > self.max_pool_bytes
        ):
            raise ZswapPoolFullError(
                f"{self.name}: pool full "
                f"({self._pool_bytes}/{self.max_pool_bytes})"
            )
        self._check_faults("store")
        self._pool_bytes += footprint
        self._logical_bytes += nbytes
        pages = max(1.0, nbytes / 4096)
        compress_s = (
            self.algorithm.compress_us_per_4k * pages * 1e-6
            * self.faults.latency_multiplier
        )
        self.compress_cpu_seconds += compress_s
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        self.stats.write_stall_seconds += compress_s
        return compress_s

    def load(
        self,
        nbytes: int,
        compressibility: float,
        now: float,
        page_id: int = None,
    ) -> float:
        """Fault ``nbytes`` back in by decompression.

        Each constituent 4 KiB page pays the software fault path plus
        its decompression time (~40 us at p90, per the paper), so the
        stall scales with the simulated page's size like the SSD path.
        """
        self._check_faults("load")
        pages = max(1.0, nbytes / 4096)
        base_us = (
            self._FAULT_PATH_US
            + self.algorithm.decompress_us_per_4k
        ) * pages
        latency = base_us * 1e-6 * float(
            self._rng.lognormal(mean=0.0, sigma=0.35)
        ) * self.faults.latency_multiplier
        self.decompress_cpu_seconds += latency
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        self.stats.read_stall_seconds += latency
        self.stats.latencies.add(latency)
        return latency

    def free(
        self, nbytes: int, compressibility: float, page_id: int = None
    ) -> None:
        footprint = self.footprint_of(nbytes, compressibility)
        self._pool_bytes = max(0, self._pool_bytes - footprint)
        self._logical_bytes = max(0, self._logical_bytes - nbytes)


class ZswapPoolFullError(RuntimeError):
    """Raised when a store would exceed the configured pool limit."""
