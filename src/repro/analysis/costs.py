"""Hardware cost trends (Figure 1, Section 2.1).

DRAM's share of server cost grows across hardware generations toward
33% (Gen 6); compressed memory — DRAM provisioned at a 3x average
compression ratio — costs a third of that; and iso-capacity SSD stays
under 1% of server cost across generations, about 10x cheaper per byte
than compressed memory. DRAM power follows the same trend toward 38%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

#: Average production compression ratio the paper uses to price the
#: compressed-memory tier.
DEFAULT_COMPRESSION_RATIO = 3.0


@dataclass(frozen=True)
class GenerationCost:
    """Cost shares (% of compute infrastructure) for one HW generation.

    Attributes:
        generation: 1 (end of life) .. 6 (upcoming).
        memory_pct: DRAM cost share.
        ssd_iso_capacity_pct: cost share of SSD sized iso-capacity to
            the DRAM (the sub-1% line in Figure 1).
        memory_power_pct: DRAM's share of infrastructure power.
    """

    generation: int
    memory_pct: float
    ssd_iso_capacity_pct: float
    memory_power_pct: float

    def compressed_memory_pct(
        self, ratio: float = DEFAULT_COMPRESSION_RATIO
    ) -> float:
        """Cost of a compressed pool with DRAM-equivalent capacity."""
        if ratio < 1.0:
            raise ValueError(f"compression ratio must be >= 1, got {ratio}")
        return self.memory_pct / ratio


#: Figure 1's six generations. Memory climbs from the mid-teens toward
#: the stated 33% (and 38% of power); iso-capacity SSD stays below 1%.
COST_TRENDS: List[GenerationCost] = [
    GenerationCost(1, memory_pct=14.0, ssd_iso_capacity_pct=0.45,
                   memory_power_pct=16.0),
    GenerationCost(2, memory_pct=18.0, ssd_iso_capacity_pct=0.55,
                   memory_power_pct=21.0),
    GenerationCost(3, memory_pct=22.0, ssd_iso_capacity_pct=0.65,
                   memory_power_pct=26.0),
    GenerationCost(4, memory_pct=26.0, ssd_iso_capacity_pct=0.75,
                   memory_power_pct=30.0),
    GenerationCost(5, memory_pct=30.0, ssd_iso_capacity_pct=0.85,
                   memory_power_pct=34.0),
    GenerationCost(6, memory_pct=33.0, ssd_iso_capacity_pct=0.95,
                   memory_power_pct=38.0),
]


def compressed_memory_cost_pct(
    generation: int, ratio: float = DEFAULT_COMPRESSION_RATIO
) -> float:
    """Compressed-memory cost share for a generation (1-based)."""
    for row in COST_TRENDS:
        if row.generation == generation:
            return row.compressed_memory_pct(ratio)
    raise KeyError(f"no cost data for generation {generation}")


def cost_table(ratio: float = DEFAULT_COMPRESSION_RATIO):
    """Figure 1 as rows of ``(gen, memory, compressed, ssd_iso)`` percents."""
    return [
        (
            row.generation,
            row.memory_pct,
            row.compressed_memory_pct(ratio),
            row.ssd_iso_capacity_pct,
        )
        for row in COST_TRENDS
    ]
