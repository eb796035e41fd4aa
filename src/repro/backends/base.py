"""Common backend interface.

An offload backend stores pages evicted from DRAM and loads them back on
fault. The controller never sees backend internals — only the latency of
each operation, which is what shapes PSI, and aggregate statistics.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field

import numpy as np


class IoKind(enum.Enum):
    """Direction of a backend operation."""

    READ = "read"
    WRITE = "write"


class BackendFaultError(RuntimeError):
    """A transient backend/device fault (injected or modelled).

    Consumers must treat these as retryable: the page involved is
    *not* lost, the operation simply did not happen. The memory
    manager maps load faults to refault-with-retry and store faults
    to "keep the page resident" (see :mod:`repro.faults`).
    """


class BackendIOError(BackendFaultError):
    """One operation failed (media error, command timeout)."""


class BackendUnavailableError(BackendFaultError):
    """The device is temporarily gone (link drop, controller reset)."""


@dataclass
class DeviceStats:
    """Aggregate operation counters for one backend."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_stall_seconds: float = 0.0
    write_stall_seconds: float = 0.0
    latencies: "LatencyReservoir" = field(default_factory=lambda: LatencyReservoir())


class LatencyReservoir:
    """Fixed-size reservoir of recent operation latencies for percentiles.

    Keeps the most recent ``capacity_entries`` samples (a sliding window, not a
    random reservoir): the experiments plot latency percentiles over time
    windows, so recency is what matters.
    """

    def __init__(self, capacity_entries: int = 4096) -> None:
        if capacity_entries < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.capacity_entries = capacity_entries
        self._buf = np.empty(capacity_entries, dtype=np.float64)
        self._count = 0
        self._next = 0
        self._forget()

    def _forget(self) -> None:
        """Start :meth:`percentile`'s memo afresh (not snapshot state)."""
        #: Samples added since; keys the memo.
        self._writes = 0
        #: ``(writes, q, percentile)`` of the last :meth:`percentile`.
        self._memo = (-1, 0.0, 0.0)

    def add(self, latency_s: float) -> None:
        self._writes += 1
        if self._count < self.capacity_entries:
            self._buf[self._count] = latency_s
            self._count += 1
        else:
            self._buf[self._next] = latency_s
            self._next = (self._next + 1) % self.capacity_entries

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile as an exact order statistic.

        Uses an O(n) selection (``np.partition``) instead of sorting the
        window; returns the same sample ``sorted(samples)[idx]`` would.
        Asked again for the same ``q`` with no sample added since (a
        host's per-tick read while no file I/O happens), it answers from
        a memo.
        """
        writes, memo_q, value = self._memo
        if writes == self._writes and memo_q == q:
            return value
        n = self._count
        if n == 0:
            value = 0.0
        else:
            idx = min(n - 1, int(round(q / 100.0 * (n - 1))))
            value = float(np.partition(self._buf[:n], idx)[idx])
        self._memo = (self._writes, q, value)
        return value

    def __snapshot__(self) -> list:
        """Snapshot state: the filled part of the buffer, not all of it."""
        from repro.checkpoint.state import encode_array

        return [self.capacity_entries,
                encode_array(self._buf[: self._count]), self._next]

    def __restore__(self, state: list) -> None:
        from repro.checkpoint.state import decode_array

        self.capacity_entries, doc, self._next = state
        samples = decode_array(doc)
        n = len(samples)
        if n > self.capacity_entries:
            raise ValueError(
                f"{n} samples exceed reservoir capacity "
                f"{self.capacity_entries}"
            )
        self._buf = np.empty(self.capacity_entries, dtype=np.float64)
        self._buf[:n] = samples
        self._forget()
        self._count = n

    def __len__(self) -> int:
        return self._count


class OffloadBackend(abc.ABC):
    """A slow-memory tier that holds offloaded pages.

    Latencies returned by :meth:`store` and :meth:`load` are what the
    faulting (or reclaiming) task stalls for; the host feeds them into PSI.
    """

    __state__ = ("name", "stats")
    stats: DeviceStats

    def __init__(self, name: str) -> None:
        self.name = name
        self.stats = DeviceStats()

    @property
    @abc.abstractmethod
    def blocks_on_io(self) -> bool:
        """Whether loads from this backend are block-IO stalls.

        SSD swap-ins block on the block layer (memory *and* IO pressure);
        zswap decompression happens in DRAM (memory pressure only).
        """

    @abc.abstractmethod
    def store(
        self,
        nbytes: int,
        compressibility: float,
        now: float,
        page_id: int = None,
        age_s: float = 0.0,
    ) -> float:
        """Offload ``nbytes`` of page data; return the stall latency in
        seconds charged to the reclaiming context.

        Args:
            nbytes: uncompressed page bytes being offloaded.
            compressibility: the page's compression ratio under zstd
                (e.g. 4.0 for Web heap, 1.35 for quantised ML model data).
            now: current virtual time.
            page_id: identity of the stored page. Single-tier backends
                ignore it; the tiered backend keys placement on it.
            age_s: how long ago the page was last touched — a coldness
                hint for placement-aware backends.
        """

    @abc.abstractmethod
    def load(
        self,
        nbytes: int,
        compressibility: float,
        now: float,
        page_id: int = None,
    ) -> float:
        """Fault ``nbytes`` back in; return the stall latency in seconds."""

    @abc.abstractmethod
    def free(
        self, nbytes: int, compressibility: float, page_id: int = None
    ) -> None:
        """Release the backend space of a page (e.g. after swap-in or exit)."""

    @property
    @abc.abstractmethod
    def stored_bytes(self) -> int:
        """Bytes of backend capacity currently occupied."""

    @property
    @abc.abstractmethod
    def dram_overhead_bytes(self) -> int:
        """DRAM consumed by the backend itself (nonzero only for zswap)."""

    def on_tick(self, now: float, dt: float) -> None:
        """Advance time-dependent device state (queue drain, rate windows)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
