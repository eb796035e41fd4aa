"""Exponential running averages over the kernel's PSI windows.

The kernel folds raw stall time into running averages every
``PSI_AVG_PERIOD`` (2 s), over 10 s / 60 s / 300 s windows. Those three
averages are what ``/proc/pressure/*`` and the per-cgroup ``*.pressure``
files report as ``avg10``, ``avg60`` and ``avg300``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

#: Seconds between average refreshes, matching the kernel's PSI_FREQ.
PSI_AVG_PERIOD = 2.0

#: The reporting windows, in seconds.
PSI_WINDOWS: Tuple[float, float, float] = (10.0, 60.0, 300.0)


@functools.lru_cache(maxsize=None)
def decay_constants(period_s: float) -> Tuple[Tuple[float, float], ...]:
    """``(window, alpha)`` per window for folds ``period_s`` apart.

    Computed once per distinct period rather than on every fold: PSI
    folds every group's six averages every ``PSI_AVG_PERIOD``.
    """
    return tuple(
        (window, 1.0 - math.exp(-period_s / window)) for window in PSI_WINDOWS
    )


@dataclass
class RunningAverages:
    """avg10/avg60/avg300 for one (resource, some|full) stall integral."""

    #: Exponential moving averages keyed by window length, as fractions
    #: in [0, 1] (multiply by 100 for the kernel's percentage form).
    avgs: Dict[float, float] = field(
        default_factory=lambda: {w: 0.0 for w in PSI_WINDOWS}
    )
    #: Total stall seconds folded in so far.
    last_total: float = 0.0

    def update(self, total: float, period_s: float = PSI_AVG_PERIOD) -> None:
        """Fold the stall-total delta since the last update into the averages.

        Args:
            total: cumulative stall seconds for this state.
            period_s: seconds elapsed since the previous update.
        """
        fold_averages(((self, total),), period_s)

    @property
    def avg10(self) -> float:
        return self.avgs[10.0]

    @property
    def avg60(self) -> float:
        return self.avgs[60.0]

    @property
    def avg300(self) -> float:
        return self.avgs[300.0]


def fold_averages(
    pairs: Iterable[Tuple[RunningAverages, float]],
    period_s: float = PSI_AVG_PERIOD,
) -> None:
    """Fold each ``(averages, total)`` pair's stall-total delta since its
    last fold into its averages.

    One call folds all six averages of a PSI group at a period boundary
    (:meth:`repro.psi.group.PsiGroup.sweep`); :meth:`RunningAverages.
    update` is the one-pair call. The delta is clamped at zero (totals
    only grow; guard anyway) and the sample at one (no more stall than
    wall time).
    """
    if period_s <= 0:
        raise ValueError(f"update period must be positive, got {period_s}")
    decay = decay_constants(period_s)
    for averages, total in pairs:
        delta = total - averages.last_total
        averages.last_total = total
        ratio = delta / period_s if delta > 0.0 else 0.0
        sample = ratio if ratio < 1.0 else 1.0
        avgs = averages.avgs
        for window, alpha in decay:
            avgs[window] += (sample - avgs[window]) * alpha
