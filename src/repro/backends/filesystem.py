"""The filesystem read path.

Evicted file-cache pages are not "stored" anywhere by reclaim — their
backing data already lives in the filesystem. Dropping a clean page is
free; a dirty page costs a writeback; reading the page back on fault (a
refault, when it was recently resident) costs an SSD read. The
filesystem shares its physical device with swap when both live on the
same SSD, which is the production layout in Figure 6.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import IoKind, OffloadBackend
from repro.backends.device import QueuedDevice
from repro.backends.ssd import make_ssd_device


class FilesystemBackend(OffloadBackend):
    """Backing store for file pages on an SSD filesystem."""

    __state__ = ("device",)
    device: QueuedDevice

    def __init__(
        self,
        model: str,
        rng: np.random.Generator,
        device: "QueuedDevice" = None,
    ) -> None:
        super().__init__(name=f"fs-ssd-{model}")
        self.device = device if device is not None else make_ssd_device(model, rng)

    @property
    def blocks_on_io(self) -> bool:
        return True

    @property
    def stored_bytes(self) -> int:
        return 0  # file data always lives in the filesystem

    @property
    def dram_overhead_bytes(self) -> int:
        return 0

    def store(
        self,
        nbytes: int,
        compressibility: float,
        now: float,
        page_id: int = None,
        age_s: float = 0.0,
    ) -> float:
        """Write back a dirty file page; clean drops should not call this."""
        latency = self.device.issue(IoKind.WRITE, weight=max(1.0, nbytes / 4096))
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        self.stats.write_stall_seconds += latency
        return latency

    #: File reads benefit from the kernel's readahead: sequentially
    #: adjacent pages are fetched in large chunks, so a simulated page
    #: costs one device round-trip per readahead window, not per 4 KiB.
    #: (Section 3.2.4 notes readahead "shields the application to
    #: varying degrees" — the asymmetry with random-access swap-ins.)
    READAHEAD_BYTES = 128 * 1024

    def load(
        self,
        nbytes: int,
        compressibility: float,
        now: float,
        page_id: int = None,
    ) -> float:
        """Read a file page from the filesystem on (re)fault."""
        chunks = max(1.0, nbytes / self.READAHEAD_BYTES)
        per_op = self.device.issue(IoKind.READ, weight=max(1.0, nbytes / 4096))
        latency = per_op * chunks
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        self.stats.read_stall_seconds += latency
        self.stats.latencies.add(per_op)
        return latency

    def free(
        self, nbytes: int, compressibility: float, page_id: int = None
    ) -> None:
        """Nothing to release — the filesystem retains the data."""

    def on_tick(self, now: float, dt: float) -> None:
        self.device.on_tick(now, dt)
