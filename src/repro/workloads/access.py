"""Memory access patterns: heat bands and re-access intervals.

Figure 2 describes each application's memory by how recently it was
touched: within 1 minute, within 2, within 5, or colder. We model each
page with a mean re-access interval drawn from its heat band and a
Poisson re-access process of rate ``1 / interval``: per tick, a page is
touched when its process fires at least once, with probability
``1 - exp(-dt / interval)`` (:func:`touch_probability`), independently
across pages and ticks. That reproduces the published recency histogram
in steady state.

The pages' processes superpose into one Poisson process of rate
``sum(1 / interval)`` whose events land on page ``i`` with probability
``(1 / interval_i) / sum``. By the marking theorem the per-page event
counts of that process are independent ``Poisson(dt / interval_i)``, so
drawing the events of the sum and keeping the distinct pages they hit
touches each page with exactly :func:`touch_probability`, at a cost that
follows the touches rather than the population
(:func:`alias_table` places each event in constant time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Mean re-access interval (seconds) representative of each heat band.
#: Band 1 re-accesses well inside a minute; band 2 inside two minutes;
#: band 3 inside five; cold pages are touched on the scale of hours.
BAND_INTERVALS_S = (12.0, 75.0, 200.0, 5400.0)

#: Lognormal jitter within the three warm bands.
WARM_SIGMA = 0.4

#: Lognormal spread of the cold band. Deliberately wide (heavy-tailed):
#: page coldness in production is a continuum, and it is exactly the
#: *marginal* cold page — re-accessed every handful of minutes — whose
#: fault cost differs between a fast and a slow backend. A sharp
#: warm/cold gap would erase the backend-speed sensitivity that
#: Figures 11-13 demonstrate.
COLD_SIGMA = 1.6

#: Fraction of cold pages that are never re-accessed at all (allocated
#: once and forgotten — the "used just once" memory Section 3.3 calls
#: out). Modelled with an effectively infinite interval.
NEVER_TOUCHED_SHARE_OF_COLD = 0.35

_NEVER = 1e18  # seconds; effectively never within any simulation


@dataclass(frozen=True)
class HeatBands:
    """Share of a workload's memory in each recency band (Figure 2).

    Attributes:
        used_1min: fraction touched within the last minute.
        used_2min: *additional* fraction touched within two minutes.
        used_5min: *additional* fraction touched within five minutes.

    The remainder (``cold``) is untouched past five minutes.
    """

    used_1min: float
    used_2min: float
    used_5min: float

    def __post_init__(self) -> None:
        total = self.used_1min + self.used_2min + self.used_5min
        if not (0.0 <= self.used_1min <= 1.0
                and 0.0 <= self.used_2min <= 1.0
                and 0.0 <= self.used_5min <= 1.0):
            raise ValueError(f"band fractions must be in [0,1]: {self}")
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"band fractions sum to {total:.3f} > 1: {self}"
            )

    @property
    def cold(self) -> float:
        """Fraction untouched in the last five minutes."""
        return max(0.0, 1.0 - self.used_1min - self.used_2min - self.used_5min)

    @property
    def warm(self) -> float:
        """Fraction touched within five minutes (the active working set)."""
        return 1.0 - self.cold


def assign_reaccess_intervals(
    n_pages: int,
    bands: HeatBands,
    rng: np.random.Generator,
    never_share: float = NEVER_TOUCHED_SHARE_OF_COLD,
) -> np.ndarray:
    """Draw a mean re-access interval for each of ``n_pages`` pages.

    Args:
        never_share: fraction of cold pages that are never re-accessed
            (default :data:`NEVER_TOUCHED_SHARE_OF_COLD`). Lower values
            mean the cold mass churns — every offloaded page eventually
            costs a fault, so the offload depth becomes a function of
            backend speed.

    Pages are assigned to bands according to the band fractions; within
    the warm bands, intervals are jittered lognormally (sigma 0.4)
    around the band's representative interval so the recency histogram
    is smooth rather than stepped. The cold band is a wide lognormal
    continuum (see :data:`COLD_SIGMA`).
    """
    if n_pages < 0:
        raise ValueError(f"n_pages must be >= 0, got {n_pages}")
    fractions = np.array(
        [bands.used_1min, bands.used_2min, bands.used_5min, bands.cold]
    )
    fractions = fractions / fractions.sum()
    band_idx = rng.choice(4, size=n_pages, p=fractions)
    base = np.array(BAND_INTERVALS_S)[band_idx]
    sigma = np.where(band_idx == 3, COLD_SIGMA, WARM_SIGMA)
    jitter = np.exp(rng.normal(loc=0.0, scale=1.0, size=n_pages) * sigma)
    intervals = base * jitter
    # Cold intervals never dip into the warm range: a "cold" page is by
    # definition not touched within the 5-minute window.
    cold_mask = band_idx == 3
    intervals[cold_mask] = np.maximum(intervals[cold_mask], 420.0)
    # A share of cold pages is never re-accessed at all.
    never = rng.random(n_pages) < never_share
    intervals[cold_mask & never] = _NEVER
    return intervals


def touch_probability(intervals: np.ndarray, dt: float) -> np.ndarray:
    """Per-page probability of at least one touch during ``dt`` seconds."""
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    return -np.expm1(-dt / intervals)


def alias_table(intervals: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
    """Walker/Vose alias table over the pages' re-access rates.

    Returns ``(prob, alias, total)``: ``total`` is the summed rate
    ``sum(1 / interval)``, and an event placed by a uniform ``u`` in
    ``[0, 1)`` lands on page ``i = int(u * n)`` when ``u * n - i <
    prob[i]``, else on ``alias[i]``. Page ``j`` then receives exactly
    ``(prob[j] + sum(1 - prob[k] for alias[k] == j)) / n`` of the events,
    its share ``rate_j / total`` up to rounding. A never-touched page has
    rate exactly 0, a zero ``prob`` and no cell aliased to it: no event
    can land on it. With no positive rate at all, ``total`` is 0, so no
    event is ever drawn and the table is never read.

    Each page starts as a cell of mass ``n * rate / total``. Cells below
    1 ("small") are paired in bulk with cells above 1 ("large"): each
    small cell's deficit ``1 - mass`` is laid end to end, zero-rate cells
    first, against the large cells' surpluses laid end to end, and goes
    to the large cell whose surplus its start falls in. A large cell
    that gave away more than its surplus is small in the next round.
    Every round settles its first small cell, so the loop ends; cells
    left at the end hold a mass of 1 up to rounding and keep
    themselves. The table is a pure function of ``intervals``.
    """
    n = len(intervals)
    mass = np.reciprocal(intervals)
    mass[intervals >= _NEVER] = 0.0
    total = float(mass.sum())
    prob = np.ones(n)
    alias = np.arange(n)
    if total == 0.0:
        return prob, alias, total
    mass *= n / total
    small = np.flatnonzero(mass < 1.0)
    small = np.concatenate([small[mass[small] == 0.0],
                            small[mass[small] > 0.0]])
    large = np.flatnonzero(mass > 1.0)
    while len(small) and len(large):
        deficit = 1.0 - mass[small]
        start = np.cumsum(deficit)
        start -= deficit
        owner = np.cumsum(mass[large] - 1.0).searchsorted(start, "right")
        paired = owner < len(large)
        mass[large] -= np.bincount(owner[paired], weights=deficit[paired],
                                   minlength=len(large))
        # Rounding in the two running sums can overdraw a large cell by
        # a hair; its last small cell waits for the next round instead.
        over = np.flatnonzero(mass[large] < 0.0)
        if len(over):
            last = owner.searchsorted(over, "right") - 1
            paired[last] = False
            mass[large[over]] += deficit[last]
        settled = small[paired]
        prob[settled] = mass[settled]
        alias[settled] = large[owner[paired]]
        left = mass[large]
        small = np.concatenate([small[~paired], large[left < 1.0]])
        large = large[left > 1.0]
    return prob, alias, total
