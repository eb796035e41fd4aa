"""A tiered offload hierarchy: zswap for warm pages, SSD for cold ones.

Section 5.2 describes this as the paper's active future work: instead
of manually choosing zswap *or* SSD per application, the kernel should
manage a hierarchy — compressed memory for warmer pages, SSD for colder
or poorly-compressible pages — and balance across the pools.

Placement policy on store:

* pages whose data barely compresses (effective ratio below
  ``compress_threshold``) go straight to SSD — keeping them in the pool
  would burn DRAM for almost no saving;
* pages colder than ``cold_age_s`` (by last-touch age) go to SSD;
* everything else lands in zswap;
* when the zswap pool is full, stores spill to SSD rather than fail.

Loads and frees dispatch on the per-page placement map.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.backends.base import OffloadBackend
from repro.backends.ssd import SsdSwapBackend
from repro.backends.zswap import ZswapBackend, ZswapPoolFullError

#: Placement labels.
TIER_ZSWAP = "zswap"
TIER_SSD = "ssd"


class TieredBackend(OffloadBackend):
    """Two-level offload backend (zswap over SSD swap)."""

    __state__ = ("zswap", "ssd", "compress_threshold", "cold_age_s",
                 "_placement", "spilled_stores")
    zswap: ZswapBackend
    ssd: SsdSwapBackend
    _placement: Dict[int, str]

    def __init__(
        self,
        zswap: ZswapBackend,
        ssd: SsdSwapBackend,
        compress_threshold: float = 1.5,
        cold_age_s: float = 1800.0,
    ) -> None:
        """
        Args:
            zswap: the warm, compressed tier.
            ssd: the cold tier.
            compress_threshold: minimum effective compression ratio for
                a page to be worth pool DRAM.
            cold_age_s: last-touch age beyond which a page goes straight
                to the SSD tier.
        """
        super().__init__(name=f"tiered({zswap.name}+{ssd.name})")
        self.zswap = zswap
        self.ssd = ssd
        self.compress_threshold = compress_threshold
        self.cold_age_s = cold_age_s
        self._placement = {}
        self.spilled_stores = 0

    # ------------------------------------------------------------------
    # placement

    def choose_tier(self, compressibility: float, age_s: float) -> str:
        """The placement policy (before capacity fallbacks)."""
        ratio = self.zswap.algorithm.effective_ratio(compressibility)
        if ratio < self.compress_threshold:
            return TIER_SSD
        if age_s >= self.cold_age_s:
            return TIER_SSD
        return TIER_ZSWAP

    def tier_of(self, page_id: int) -> Optional[str]:
        """Where a stored page currently lives (None if unknown)."""
        return self._placement.get(page_id)

    # ------------------------------------------------------------------
    # backend interface

    @property
    def blocks_on_io(self) -> bool:
        # Per-page: the memory manager consults tier_of() instead; this
        # is the conservative default for code that cannot.
        return True

    @property
    def stored_bytes(self) -> int:
        return self.zswap.stored_bytes + self.ssd.stored_bytes

    @property
    def dram_overhead_bytes(self) -> int:
        return self.zswap.dram_overhead_bytes

    @property
    def free_bytes(self) -> int:
        """Remaining capacity, counting the SSD tier (the deep pool)."""
        return self.ssd.free_bytes

    @property
    def endurance_bytes_written(self) -> int:
        return self.ssd.endurance_bytes_written

    def store(
        self,
        nbytes: int,
        compressibility: float,
        now: float,
        page_id: int = None,
        age_s: float = 0.0,
    ) -> float:
        if page_id is None:
            raise ValueError(
                "the tiered backend requires page identity for placement"
            )
        tier = self.choose_tier(compressibility, age_s)
        if tier == TIER_ZSWAP:
            try:
                cost = self.zswap.store(
                    nbytes, compressibility, now, page_id=page_id,
                    age_s=age_s,
                )
            except ZswapPoolFullError:
                tier = TIER_SSD
                self.spilled_stores += 1
        if tier == TIER_SSD:
            cost = self.ssd.store(
                nbytes, compressibility, now, page_id=page_id, age_s=age_s
            )
        self._placement[page_id] = tier
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        return cost

    def load(
        self,
        nbytes: int,
        compressibility: float,
        now: float,
        page_id: int = None,
    ) -> float:
        tier = self._require_placement(page_id)
        backend = self.zswap if tier == TIER_ZSWAP else self.ssd
        latency = backend.load(
            nbytes, compressibility, now, page_id=page_id
        )
        self.stats.reads += 1
        self.stats.bytes_read += nbytes
        return latency

    def free(
        self, nbytes: int, compressibility: float, page_id: int = None
    ) -> None:
        tier = self._require_placement(page_id)
        backend = self.zswap if tier == TIER_ZSWAP else self.ssd
        backend.free(nbytes, compressibility, page_id=page_id)
        del self._placement[page_id]

    def _require_placement(self, page_id) -> str:
        if page_id is None:
            raise ValueError("the tiered backend requires page identity")
        tier = self._placement.get(page_id)
        if tier is None:
            raise KeyError(
                f"page {page_id} is not stored in the tiered backend"
            )
        return tier

    def on_tick(self, now: float, dt: float) -> None:
        self.zswap.on_tick(now, dt)
        self.ssd.on_tick(now, dt)

    # ------------------------------------------------------------------
    # introspection

    def tier_counts(self) -> Dict[str, int]:
        """How many pages each tier currently holds."""
        counts = {TIER_ZSWAP: 0, TIER_SSD: 0}
        for tier in self._placement.values():
            counts[tier] += 1
        return counts
