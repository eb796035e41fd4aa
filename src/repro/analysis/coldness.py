"""Memory-coldness measurement (Figure 2).

Replays the paper's characterisation: after letting a workload run long
enough for its access pattern to reach steady state, classify every page
by how recently it was touched — within 1, 2 or 5 minutes — with the
remainder counted as cold (the offloading opportunity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.base import Workload


@dataclass(frozen=True)
class ColdnessProfile:
    """Recency histogram of one workload's memory, as fractions."""

    used_1min: float
    used_2min: float
    used_5min: float
    cold: float

    @property
    def warm(self) -> float:
        return 1.0 - self.cold


def measure_coldness(workload: Workload, now: float) -> ColdnessProfile:
    """Classify the workload's pages by last-touch recency at ``now``.

    Offloaded pages count by the same rule — a page swapped out two
    minutes after its last touch is "cold" precisely because it has not
    been touched; placement does not affect recency.
    """
    pages = workload.pages
    if not len(pages):
        raise ValueError(
            f"workload {workload.profile.name!r} has no pages to profile"
        )
    ages = now - workload.mm.table.last_access[pages]
    # Bucket i holds ages in (edge[i-1], edge[i]]; the last, the rest.
    index = np.searchsorted(np.array([60.0, 120.0, 300.0]), ages, side="left")
    buckets = np.bincount(index, minlength=4).tolist()
    total = len(pages)
    return ColdnessProfile(
        used_1min=buckets[0] / total,
        used_2min=buckets[1] / total,
        used_5min=buckets[2] / total,
        cold=buckets[3] / total,
    )
