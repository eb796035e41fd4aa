"""The simulator's wall clock for timing itself.

:func:`wall_s` is the one sanctioned wall-clock read outside the lint's
exemptions (TMO002): benchmark scripts time the simulator through it,
and nothing it returns flows into simulation state or metric series.
The benchmark itself is ``perfbench/`` (docs/PERFORMANCE.md).
"""

import time

__all__ = ["wall_s"]


def wall_s() -> float:
    """Monotonic wall clock for timing the simulator itself."""
    return time.perf_counter()  # lint: ignore[TMO002]
