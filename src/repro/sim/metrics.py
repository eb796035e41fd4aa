"""Time-series recording for experiments.

Every benchmark in this repo regenerates one of the paper's figures; the
figure data is a set of named series sampled over simulated time. The
:class:`MetricsRecorder` collects those samples and offers the reductions
(means, percentiles, window slices) the benchmark tables need.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.metric_names import check_metric_name

#: Sample capacity of a block's first buffers; they double on overflow.
_INITIAL_CAPACITY = 16

#: :meth:`MetricsRecorder.record_row` has not seen this name tuple yet.
_UNPLANNED = object()

#: The buffers of every never-recorded series a read hands out: shared,
#: zero-length and read-only, so an empty read allocates none, and a
#: first record on such a series grows buffers of its own
#: (:meth:`SeriesBlock.append`).
_NO_TIMES = np.empty(0)
_NO_VALUES = np.empty((1, 0))
_NO_TIMES.flags.writeable = _NO_VALUES.flags.writeable = False


class SeriesBlock:
    """Series that share one time column.

    ``times[:n]`` is the shared time column and ``values`` a
    ``(series, capacity)`` float64 matrix with one row per member, both
    doubling on overflow. A member's samples are its row from its start
    offset on, so a series that joins late (a workload added mid-run)
    starts at a later column. Samples are only appended, so views of
    the buffers stay valid as the block grows. ``row_key`` is the name
    tuple of the :meth:`MetricsRecorder.record_row` the block stores,
    and ``None`` when it stores none (or has since lost a member).
    """

    __slots__ = ("times", "values", "n", "members", "row_key")

    def __init__(
        self, times: np.ndarray, values: np.ndarray, n: Optional[int] = None
    ) -> None:
        self.times = times
        self.values = values
        self.n = len(times) if n is None else n
        self.members: List[Series] = []
        self.row_key: Optional[Tuple[str, ...]] = None

    def append(self, t: float, row) -> None:
        """Store one sample per member at time ``t`` (one column)."""
        n = self.n
        times = self.times
        if n and t < times[n - 1]:
            raise ValueError(
                f"series {self.members[0].name!r}: time went backwards "
                f"({times[n - 1]} -> {t})"
            )
        if n == len(times):
            capacity = max(_INITIAL_CAPACITY, 2 * n)
            old_times, old_values = times, self.values
            self.times = times = np.empty(capacity)
            self.values = np.empty((len(old_values), capacity))
            times[:n] = old_times
            self.values[:, :n] = old_values[:, :n]
        times[n] = t
        self.values[:, n] = row
        self.n = n + 1

    def drop(self, leaving: Sequence["Series"]) -> None:
        """Remove members, packing the rest into a smaller matrix."""
        stay = [s for s in self.members if s not in leaving]
        self.values = self.values[[s._row for s in stay]]
        for row, series in enumerate(stay):
            series._row = row
        self.members = stay
        self.row_key = None


class Series:
    """A single named time series of ``(time, value)`` samples.

    A live view of one row of a :class:`SeriesBlock`: reads see every
    sample the block has stored, and :meth:`as_arrays` and
    :meth:`window` hand out views without copying. A series made on its
    own owns a block of width one; :meth:`record` on a member of a
    wider block first copies the series into a block of its own, so
    series recorded apart never share a time column. The
    ``times``/``values`` properties still present plain Python lists
    for the callers (figure benchmarks, tests) that want them.
    """

    __slots__ = ("name", "_block", "_row", "_start")

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
        self._join(SeriesBlock(
            np.array(times, dtype=np.float64),
            np.array(values, dtype=np.float64).reshape(1, -1),
        ), 0, 0)

    def _join(self, block: SeriesBlock, row: int, start: int) -> None:
        self._block, self._row, self._start = block, row, start
        block.members.append(self)

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        block = self._block
        return block.times[self._start:block.n], self._values()

    def _values(self) -> np.ndarray:
        block = self._block
        return block.values[self._row, self._start:block.n]

    @property
    def times(self) -> List[float]:
        """Sample times as a plain list (a copy; do not append to it)."""
        return self._arrays()[0].tolist()

    @property
    def values(self) -> List[float]:
        """Sample values as a plain list (a copy; do not append to it)."""
        return self._values().tolist()

    def record(self, t: float, value: float) -> None:
        """Append one sample; time must be non-decreasing."""
        if len(self._block.members) > 1:
            times, values = self._arrays()
            self._block.drop([self])
            Series.__init__(self, self.name, times, values)
        self._block.append(t, value)

    def __len__(self) -> int:
        return self._block.n - self._start

    def __repr__(self) -> str:
        return f"Series(name={self.name!r}, samples={len(self)})"

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(times, values)`` as read-only numpy array views."""
        times, values = self._arrays()
        times.flags.writeable = False
        values.flags.writeable = False
        return times, values

    def window(self, start: float, end: float) -> "Series":
        """Return the sub-series with ``start <= t < end``.

        Times are non-decreasing (enforced by :meth:`record`), so the
        window is one contiguous slice found by bisection, and a view:
        it copies nothing. Its block is full, so recording on it copies
        it out first and never writes to this series' buffers.
        """
        times, values = self._arrays()
        lo = int(times.searchsorted(start, side="left"))
        hi = max(lo, int(times.searchsorted(end, side="left")))
        window = Series.__new__(Series)
        window.name = self.name
        window._join(SeriesBlock(
            times[lo:hi], values[lo:hi].reshape(1, -1)
        ), 0, 0)
        return window

    def mean(self) -> float:
        """Mean of all sample values (nan when empty)."""
        values = self._values()
        return float(values.mean()) if len(values) else float("nan")

    def last(self) -> float:
        """Most recent value (nan when empty)."""
        values = self._values()
        return float(values[-1]) if len(values) else float("nan")

    def min(self) -> float:
        values = self._values()
        return float(values.min()) if len(values) else float("nan")

    def max(self) -> float:
        values = self._values()
        return float(values.max()) if len(values) else float("nan")

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the sample values."""
        values = self._values()
        if not len(values):
            return float("nan")
        return float(np.percentile(values, q))


class MetricsRecorder:
    """A collection of named series, created on first record.

    :meth:`record` and :meth:`record_row` are the only ways a series
    comes into being, and they check the name against
    :mod:`repro.sim.metric_names` when they do. Every other method is a
    read: it never registers a name, so querying a host leaves
    :func:`metrics_digest` byte-identical (query-twice == query-never),
    and it refuses an undeclared name with the same ``KeyError``.

    Series live in :class:`SeriesBlock`\\ s. :meth:`record_row` stores a
    row of series on one time column as one column store; a series
    recorded by :meth:`record` has a block of its own, and writing part
    of a block splits it once. A snapshot (:meth:`__snapshot__`) writes
    each distinct time column once, and a restore builds one block per
    time column.
    """

    def __init__(self) -> None:
        self._series: Dict[str, Series] = {}
        #: :meth:`record_row` name tuple -> the block that stores it, or
        #: ``None`` when those series are not on one time column.
        self._rows: Dict[Tuple[str, ...], Optional[SeriesBlock]] = {}

    def __snapshot__(self) -> list:
        """``[time columns, [[name, column index, values], ...]]``, the
        columns packed by :func:`repro.checkpoint.state.encode_array`.

        Series that share a block and a start share a time column, so
        the column is looked up once per (block, start); byte-equal
        columns of different blocks (series recorded apart in lockstep)
        are still written once."""
        from repro.checkpoint.state import encode_array

        axes: Dict[bytes, int] = {}
        starts: Dict[Tuple[int, int], int] = {}
        columns: List[object] = []
        rows = []
        for name, series in self._series.items():
            block, start = series._block, series._start
            index = starts.get((id(block), start))
            if index is None:
                times = block.times[start:block.n]
                index = axes.setdefault(times.tobytes(), len(columns))
                if index == len(columns):
                    columns.append(encode_array(times))
                starts[id(block), start] = index
            rows.append([name, index, encode_array(series._values())])
        return [columns, rows]

    def __restore__(self, state: list) -> None:
        from repro.checkpoint.state import decode_array

        columns, rows = state
        widths = Counter(index for _, index, _ in rows)
        blocks = []
        for index, doc in enumerate(columns):
            times = decode_array(doc)
            values = np.empty((widths[index], len(times)))
            blocks.append(SeriesBlock(times, values))
        self._series, self._rows = {}, {}
        for name, index, doc in rows:
            block = blocks[index]
            values = decode_array(doc)
            if len(values) != block.n:
                raise ValueError(
                    f"series {name!r}: {block.n} times vs "
                    f"{len(values)} values"
                )
            series = self._series[name] = Series.__new__(Series)
            series.name = name
            series._join(block, len(block.members), 0)
            block.values[series._row] = values

    def record(self, name: str, t: float, value: float) -> None:
        """Record one sample on the series called ``name``."""
        series = self._series.get(name)
        if series is None:
            check_metric_name(name)
            series = self._series[name] = Series(name)
        series.record(t, value)

    def record_row(
        self, names: Tuple[str, ...], t: float, values: Sequence[float]
    ) -> None:
        """Record ``values[i]`` on series ``names[i]``, all at time ``t``.

        The same samples as one :meth:`record` per name, in order. When
        the series are on one time column (one host's per-tick series)
        the row is one column store into their block; the first row of
        a name tuple builds that block, copying their samples once.
        """
        block = self._rows.get(names, _UNPLANNED)
        if block is _UNPLANNED or (
            block is not None and block.row_key is None
        ):
            block = self._plan(names, t)
        if block is None:
            for name, value in zip(names, values):
                self.record(name, t, value)
        else:
            block.append(t, values)

    def _plan(
        self, names: Tuple[str, ...], t: float
    ) -> Optional[SeriesBlock]:
        """A block holding ``names`` in row order, or ``None`` when some
        series' times are not a tail of the longest one's."""
        if len(set(names)) != len(names):
            raise ValueError(f"record_row: repeated names in {names!r}")
        members = [self._series.get(name) for name in names]
        for name, series in zip(names, members):
            if series is None:
                check_metric_name(name)
        found = [s for s in members if s is not None]
        base = max(found, key=len)._arrays()[0] if found else np.empty(0)
        n = len(base)
        for series in found:
            tail = base[n - len(series):].view(np.int64)
            if not np.array_equal(tail, series._arrays()[0].view(np.int64)):
                self._rows[names] = None
                return None
        if n and t < base[n - 1]:
            raise ValueError(
                f"series {names[0]!r}: time went backwards "
                f"({base[n - 1]} -> {t})"
            )
        capacity = max(_INITIAL_CAPACITY, 2 * n)
        block = SeriesBlock(
            np.empty(capacity), np.empty((len(names), capacity)), n
        )
        block.times[:n] = base
        leaving: Dict[int, Tuple[SeriesBlock, List[Series]]] = {}
        for row, (name, series) in enumerate(zip(names, members)):
            if series is None:
                series = self._series[name] = Series.__new__(Series)
                series.name = name
                series._join(block, row, n)
                continue
            start = n - len(series)
            block.values[row, start:n] = series._arrays()[1]
            old = series._block
            leaving.setdefault(id(old), (old, []))[1].append(series)
            series._join(block, row, start)
        for old, moved in leaving.values():
            old.drop(moved)
        block.row_key = names
        self._rows = {  # forget the plans this one retired
            key: plan for key, plan in self._rows.items()
            if plan is None or plan.row_key is not None
        }
        self._rows[names] = block
        return block

    def series(self, name: str) -> Series:
        """The series called ``name``, without registering it.

        A recorded name returns the recorder's own series; a declared
        name never recorded returns an empty *detached* series
        (recording on it does not reach this recorder).
        """
        series = self._series.get(name)
        if series is None:
            check_metric_name(name)
            series = Series.__new__(Series)
            series.name = name
            series._join(SeriesBlock(_NO_TIMES, _NO_VALUES), 0, 0)
        return series

    def read_window(self, name: str, start: float, end: float) -> Series:
        """Windowed read of :meth:`series`: ``start <= t < end``."""
        series = self._series.get(name)
        if series is None:
            return self.series(name)  # checks the name; empty, detached
        return series.window(start, end)

    def read_block(
        self, names: Sequence[str], start: float, end: float
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(times, values)`` over ``start <= t < end``, row ``i`` of
        ``values`` being series ``names[i]``, when all the series are
        recorded on one time column; ``None`` when they are not.

        One bisection for them all; ``times`` is a view and ``values``
        one gather of the rows, C-contiguous, so a reduction along
        ``axis=1`` runs over each series' samples in order.
        """
        first = self._series.get(names[0])
        if first is None:
            return None
        block, offset, rows = first._block, first._start, []
        for name in names:
            series = self._series.get(name)
            if (
                series is None or series._block is not block
                or series._start != offset
            ):
                return None
            rows.append(series._row)
        times = block.times[offset:block.n]
        lo = int(times.searchsorted(start, side="left"))
        hi = max(lo, int(times.searchsorted(end, side="left")))
        return times[lo:hi], block.values[rows, offset + lo:offset + hi]

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
