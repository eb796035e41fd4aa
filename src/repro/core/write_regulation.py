"""SSD write-endurance regulation (Section 4.5).

SSDs have limited write endurance; a fleet-wide analysis identified
1 MB/s of swap-out as a safe sustained rate. The regulator tracks the
observed swap write rate and modulates Senpai's reclaim: above the limit
it scales the anon-reclaim opportunity down (to the point of forcing
file-only reclaim), exactly reproducing Figure 14's clamp of the P90
swap-out rate from several MB/s to the configured ceiling.
"""

from __future__ import annotations

_MB = 1 << 20


class WriteRegulator:
    """Token-bucket style limiter on swap-out bandwidth."""

    __state__ = ("limit_bytes_per_s", "window_s", "_rate",
                 "_last_bytes_written", "_allowance")

    def __init__(
        self,
        limit_mb_s: float = 1.0,
        window_s: float = 60.0,
    ) -> None:
        """
        Args:
            limit_mb_s: sustained swap write budget.
            window_s: smoothing window of the observed write rate.
        """
        if limit_mb_s <= 0:
            raise ValueError(f"write limit must be > 0, got {limit_mb_s}")
        self.limit_bytes_per_s = limit_mb_s * _MB
        self.window_s = window_s
        self._rate = 0.0
        self._last_bytes_written = 0
        self._allowance = 1.0

    @property
    def observed_rate_mb_s(self) -> float:
        return self._rate / _MB

    def update(self, bytes_written_total: int, dt: float) -> None:
        """Fold the backend's cumulative write counter into the rate EMA
        and adapt the allowance multiplicatively.

        Multiplicative adaptation (rather than a one-shot proportional
        scale) is what makes the achieved rate *converge onto* the
        limit instead of settling above it.
        """
        if dt <= 0:
            return
        delta = max(0, bytes_written_total - self._last_bytes_written)
        self._last_bytes_written = bytes_written_total
        alpha = min(1.0, dt / self.window_s)
        self._rate += (delta / dt - self._rate) * alpha
        if self._rate > self.limit_bytes_per_s:
            self._allowance *= self.limit_bytes_per_s / self._rate
            self._allowance = max(1e-3, self._allowance)
        else:
            # Gentle recovery while under budget.
            self._allowance = min(1.0, self._allowance * 1.05)

    def allowance(self) -> float:
        """Scaling factor in [0, 1] for anon reclaim this period.

        1.0 while the observed rate has stayed under the budget; decays
        while it overshoots, converging the write rate onto the limit.
        """
        return self._allowance

    def file_only(self) -> bool:
        """Whether anon reclaim should pause entirely this period."""
        return self._rate > 2.0 * self.limit_bytes_per_s
