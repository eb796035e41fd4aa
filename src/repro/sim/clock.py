"""Virtual time for the simulator.

All components share one :class:`Clock`. Time is a float number of seconds
since simulation start. The clock only moves forward, in explicit steps
driven by the host loop; nothing in the library reads wall-clock time, which
keeps every run deterministic and replayable.
"""

from __future__ import annotations


class Clock:
    """A monotonically advancing virtual clock.

    >>> clock = Clock()
    >>> clock.now
    0.0
    >>> clock.advance(1.5)
    >>> clock.now
    1.5
    """

    __slots__ = ("_now",)
    __state__ = ("_now",)
    _now: float

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start before zero, got {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, dt: float) -> None:
        """Move time forward by ``dt`` seconds.

        Raises:
            ValueError: if ``dt`` is negative; the clock never rewinds.
        """
        if dt < 0:
            raise ValueError(f"clock cannot move backwards (dt={dt})")
        self._now += dt

    def __repr__(self) -> str:
        return f"Clock(now={self._now:.6f})"
