"""Time-series recording for experiments.

Every benchmark in this repo regenerates one of the paper's figures; the
figure data is a set of named series sampled over simulated time. The
:class:`MetricsRecorder` collects those samples and offers the reductions
(means, percentiles, window slices) the benchmark tables need.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.metric_names import check_metric_name

#: Initial sample capacity of a series buffer; doubles on overflow.
_INITIAL_CAPACITY = 16


class Series:
    """A single named time series of ``(time, value)`` samples.

    Samples live in amortised-doubling numpy buffers, so the per-tick
    :meth:`record` call is an array store instead of two list appends
    and :meth:`as_arrays` hands out views without converting. The
    ``times``/``values`` properties still present plain Python lists
    for the callers (tests, CSV export) that want them. A series is
    snapshotted by the recorder that holds it.
    """

    __slots__ = ("name", "_t_buf", "_v_buf", "_n")

    def __init__(
        self,
        name: str,
        times: Sequence[float] = (),
        values: Sequence[float] = (),
    ) -> None:
        self.name = name
        if len(times) != len(values):
            raise ValueError(
                f"series {name!r}: {len(times)} times vs "
                f"{len(values)} values"
            )
        self._load(times, values)

    def _load(self, times: Sequence[float], values: Sequence[float]) -> None:
        n = len(times)
        capacity = max(_INITIAL_CAPACITY, n)
        self._t_buf = np.empty(capacity, dtype=np.float64)
        self._v_buf = np.empty(capacity, dtype=np.float64)
        self._t_buf[:n] = times
        self._v_buf[:n] = values
        self._n = n

    @property
    def times(self) -> List[float]:
        """Sample times as a plain list (a copy; do not append to it)."""
        return self._t_buf[: self._n].tolist()

    @property
    def values(self) -> List[float]:
        """Sample values as a plain list (a copy; do not append to it)."""
        return self._v_buf[: self._n].tolist()

    def record(self, t: float, value: float) -> None:
        """Append one sample; time must be non-decreasing."""
        n = self._n
        t_buf = self._t_buf
        if n and t < t_buf[n - 1]:
            raise ValueError(
                f"series {self.name!r}: time went backwards "
                f"({t_buf[n - 1]} -> {t})"
            )
        if n == len(t_buf):
            self._t_buf = t_buf = np.concatenate(
                [t_buf, np.empty(n, dtype=np.float64)]
            )
            self._v_buf = np.concatenate(
                [self._v_buf, np.empty(n, dtype=np.float64)]
            )
        t_buf[n] = t
        self._v_buf[n] = value
        self._n = n + 1

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"Series(name={self.name!r}, samples={self._n})"

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(times, values)`` as read-only numpy array views."""
        times = self._t_buf[: self._n]
        values = self._v_buf[: self._n]
        times.flags.writeable = False
        values.flags.writeable = False
        return times, values

    def window(self, start: float, end: float) -> "Series":
        """Return the sub-series with ``start <= t < end``.

        Times are non-decreasing (enforced by :meth:`record`), so the
        window is one contiguous slice found by bisection.
        """
        t = self._t_buf[: self._n]
        lo = int(t.searchsorted(start, side="left"))
        hi = int(t.searchsorted(end, side="left"))
        # Copied buffer to buffer: no detour through Python lists.
        window = Series.__new__(Series)
        window.name = self.name
        window._load(t[lo:hi], self._v_buf[lo:hi])
        return window

    def mean(self) -> float:
        """Mean of all sample values (nan when empty)."""
        n = self._n
        return float(self._v_buf[:n].mean()) if n else float("nan")

    def last(self) -> float:
        """Most recent value (nan when empty)."""
        return float(self._v_buf[self._n - 1]) if self._n else float("nan")

    def min(self) -> float:
        return float(self._v_buf[: self._n].min()) if self._n else float("nan")

    def max(self) -> float:
        return float(self._v_buf[: self._n].max()) if self._n else float("nan")

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the sample values."""
        if not self._n:
            return float("nan")
        return float(np.percentile(self._v_buf[: self._n], q))


class MetricsRecorder:
    """A collection of named series, created on first record.

    :meth:`record` is the only way a series comes into being, and it
    checks the name against :mod:`repro.sim.metric_names` when it
    does. Every other method is a read: it never registers a name, so
    querying a host leaves :func:`metrics_digest` byte-identical
    (query-twice == query-never), and it refuses an undeclared name
    with the same ``KeyError``.

    A snapshot (:meth:`__snapshot__`) writes each distinct time column
    once: ``Host._record`` stamps most series with the same times.
    """

    def __init__(self) -> None:
        self._series: Dict[str, Series] = {}

    def __snapshot__(self) -> list:
        """``[time columns, [[name, column index, values], ...]]``, the
        columns packed by :func:`repro.checkpoint.state.encode_array`."""
        from repro.checkpoint.state import encode_array

        axes: Dict[bytes, int] = {}
        columns: List[object] = []
        rows = []
        for name, series in self._series.items():
            times, values = series.as_arrays()
            key = times.tobytes()
            index = axes.get(key)
            if index is None:
                index = axes[key] = len(columns)
                columns.append(encode_array(times))
            rows.append([name, index, encode_array(values)])
        return [columns, rows]

    def __restore__(self, state: list) -> None:
        from repro.checkpoint.state import decode_array

        columns, rows = state
        axes = [decode_array(doc) for doc in columns]
        # Series copy what they are given, so no two share a buffer.
        self._series = {
            name: Series(name, axes[index], decode_array(values))
            for name, index, values in rows
        }

    def record(self, name: str, t: float, value: float) -> None:
        """Record one sample on the series called ``name``."""
        series = self._series.get(name)
        if series is None:
            check_metric_name(name)
            series = self._series[name] = Series(name)
        series.record(t, value)

    def series(self, name: str) -> Series:
        """The series called ``name``, without registering it.

        A recorded name returns the recorder's own series; a declared
        name never recorded returns an empty *detached* series
        (recording on it does not reach this recorder).
        """
        series = self._series.get(name)
        if series is None:
            check_metric_name(name)
            return Series(name)
        return series

    def read_window(self, name: str, start: float, end: float) -> Series:
        """Windowed read of :meth:`series`: ``start <= t < end``."""
        series = self._series.get(name)
        if series is None:
            return self.series(name)  # checks the name; empty, detached
        return series.window(start, end)

    def names(self) -> Iterable[str]:
        return self._series.keys()

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def summary(
        self, names: Optional[Iterable[str]] = None
    ) -> Dict[str, Optional[float]]:
        """Mean of each requested series (all series by default).

        Unrecorded or empty series map to ``None`` — JSON-safe
        ``null`` — never to the bare ``NaN`` token, which is invalid
        JSON on the wire.
        """
        wanted = list(names) if names is not None else list(self._series)
        out: Dict[str, Optional[float]] = {}
        for name in wanted:
            series = self.series(name)
            out[name] = series.mean() if len(series) else None
        return out


def metrics_digest(metrics: MetricsRecorder) -> str:
    """SHA-256 over every series' name, times and values, in name order.

    Bit-level: floats are packed as IEEE doubles, so two digests match
    only when every sample of every series is byte-identical. This is
    the equivalence check behind crash-restore verification and the
    parallel-vs-serial fleet contract.
    """
    sha = hashlib.sha256()
    for name in sorted(metrics.names()):
        series = metrics.series(name)
        sha.update(name.encode())
        sha.update(struct.pack("<q", len(series)))
        # One interleaved (t, v) float64 array hashed in a single call:
        # little-endian IEEE doubles, byte-identical to packing each
        # sample with struct.pack("<dd", t, v).
        times, values = series.as_arrays()
        interleaved = np.empty((len(series), 2), dtype="<f8")
        interleaved[:, 0] = times
        interleaved[:, 1] = values
        sha.update(interleaved.tobytes())
    return sha.hexdigest()
