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
(:func:`cumulative_rates` is the table the events are placed with).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def cumulative_rates(intervals: np.ndarray, start: float = 0.0) -> np.ndarray:
    """Running sum of the pages' re-access rates ``1 / interval``.

    Entry ``i`` is ``start`` plus the summed rate of pages ``0..i``, so
    page ``i`` owns the slice ``[cum[i-1], cum[i])`` of the superposed
    process's rate axis. A never-touched page has rate exactly 0 and so
    an empty slice: no event can land on it. The sum is one sequential
    accumulation, so extending a table over appended pages by passing
    its last entry as ``start`` equals a full rebuild bit for bit.
    """
    rates = np.empty(len(intervals) + 1)
    rates[0] = start
    np.reciprocal(intervals, out=rates[1:])
    rates[1:][intervals >= _NEVER] = 0.0
    return np.cumsum(rates)[1:]
