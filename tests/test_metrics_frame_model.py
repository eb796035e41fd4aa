"""The block recorder against a plain per-series list model.

The reference keeps each series as two Python lists, appended one
sample at a time, in first-record order. A :class:`MetricsRecorder`
gets the same random stream the host produces: a per-tick row of series
stored by ``record_row`` (workloads join and leave mid-run), single
``record`` calls on series of their own and, now and then, on one
member of a row or of a restored shared block, and snapshot/restore in
the middle of the stream. After every tick the two must hold the same
times and values, the same windows (edges on sample times included),
the same ``metrics_digest`` and the same snapshot bytes, and a block
read must reduce to the same :class:`SignalSummary` bits as
``SignalSummary.of`` on a 1-D copy.
"""

import hashlib
import random
import struct
from collections import Counter

import numpy as np

from repro.checkpoint.snapshot import canonical_json, parse_document
from repro.checkpoint.state import encode_array
from repro.fleetd.rollup import SignalSummary
from repro.sim.metrics import MetricsRecorder, Series, metrics_digest

HOST_ROW = ("host/free_bytes", "host/used_bytes", "fs/read_rate")
SUFFIXES = ("resident_bytes", "refaults", "oom", "psi_mem_some_avg10")
WORKLOADS = ("app", "tax", "side")
#: A block read in an order other than the row's.
READ = ("app/psi_mem_some_avg10", "app/refaults", "app/oom")
#: A block read across series that start at different columns.
MIXED = ("host/used_bytes", "tax/refaults")
SPECIAL = (float("nan"), -0.0, float("inf"), 5e-324)


class Model:
    """name -> (times, values), plain lists in first-record order."""

    def __init__(self):
        self.series = {}

    def record(self, name, t, value):
        times, values = self.series.setdefault(name, ([], []))
        times.append(float(t))
        values.append(float(value))

    def window(self, name, start, end):
        times, values = self.series.get(name, ([], []))
        keep = [i for i, t in enumerate(times) if start <= t < end]
        return [times[i] for i in keep], [values[i] for i in keep]

    def digest(self):
        sha = hashlib.sha256()
        for name in sorted(self.series):
            times, values = self.series[name]
            sha.update(name.encode())
            sha.update(struct.pack("<q", len(times)))
            for t, v in zip(times, values):
                sha.update(struct.pack("<dd", t, v))
        return sha.hexdigest()

    def snapshot(self):
        axes, columns, rows = {}, [], []
        for name, (times, values) in self.series.items():
            column = np.array(times, dtype=np.float64)
            index = axes.setdefault(column.tobytes(), len(columns))
            if index == len(columns):
                columns.append(encode_array(column))
            rows.append([name, index, encode_array(
                np.array(values, dtype=np.float64)
            )])
        return [columns, rows]


def bits(values):
    return np.array(values, dtype=np.float64).tobytes()


def summary_bits(summary):
    return (
        summary.count, bits([summary.total]),
        None if summary.min is None else bits([summary.min]),
        None if summary.max is None else bits([summary.max]),
        None if summary.last is None else bits([summary.last]),
        bits([summary.last_t]),
    )


def row_names(hosted):
    return HOST_ROW + tuple(
        f"{w}/{suffix}" for w in hosted for suffix in SUFFIXES
    )


def value(rng):
    if rng.random() < 0.05:
        return rng.choice(SPECIAL)
    if rng.random() < 0.3:
        return rng.randrange(1 << 40)  # byte counts arrive as ints
    return rng.uniform(-1e6, 1e6)


def check_reads(rec, model, rng, seen):
    assert list(rec.names()) == list(model.series)
    for name, (times, values) in model.series.items():
        got_t, got_v = rec.series(name).as_arrays()
        assert got_t.tobytes() == bits(times)
        assert got_v.tobytes() == bits(values)
    assert metrics_digest(rec) == model.digest()
    assert canonical_json(rec.__snapshot__()) == canonical_json(
        model.snapshot()
    )
    for _ in range(3):
        name = rng.choice(list(model.series))
        times = model.series[name][0]
        # Edges on sample times (duplicates included), or between them.
        start, end = sorted(
            rng.choice(times) if rng.random() < 0.7
            else rng.uniform(times[0] - 1, times[-1] + 1)
            for _ in range(2)
        )
        want_t, want_v = model.window(name, start, end)
        window = rec.read_window(name, start, end)
        assert window.times == want_t
        assert bits(window.values) == bits(want_v)
    for names in (READ, MIXED):
        if not all(name in model.series for name in names):
            continue
        times = model.series[names[-1]][0]
        start, end = sorted(rng.choice(times) for _ in range(2))
        block = rec.read_block(names, start, end)
        if block is None:
            continue
        seen["block reads"] += 1
        got_t, got_v = block
        for name, got, summary in zip(
            names, got_v, SignalSummary.of_rows(got_t, got_v)
        ):
            want_t, want_v = model.window(name, start, end)
            assert got_t.tobytes() == bits(want_t)
            assert got.tobytes() == bits(want_v)
            want = SignalSummary.of(Series(name, want_t, want_v))
            assert summary_bits(summary) == summary_bits(want)
            if want.count > 1:
                seen["non-trivial summaries"] += 1


def drive(seed, seen, ticks=120):
    rng = random.Random(seed)
    rec, model = MetricsRecorder(), Model()
    hosted = ["app"]
    names = row_names(hosted)
    t = 0.0
    for _ in range(ticks):
        t += rng.choice((0.0, 0.5, 1.0, 1.0))
        # Controllers poll before the row: a per-tick single series
        # that shares the row's times (restored into the row's block).
        rec.record("supervisor/alive", t, 1.0)
        model.record("supervisor/alive", t, 1.0)
        row = [value(rng) for _ in names]
        # An equal tuple that is not the same object finds the same row.
        key = names if rng.random() < 0.8 else tuple(list(names))
        rec.record_row(key, t, row)
        for name, v in zip(names, row):
            model.record(name, t, v)
        if rng.random() < 0.15:
            v = value(rng)
            rec.record("senpai/degraded", t, v)
            model.record("senpai/degraded", t, v)
        if rng.random() < 0.01:
            # A single sample on one member of the row splits its block.
            name = rng.choice(names)
            rec.record(name, t, 7.0)
            model.record(name, t, 7.0)
            seen["row member records"] += 1
        roll = rng.random()
        if roll < 0.04 and len(hosted) < len(WORKLOADS):
            hosted.append(next(w for w in WORKLOADS if w not in hosted))
            names = row_names(hosted)
            seen["late joins"] += 1
        elif roll < 0.06 and len(hosted) > 1:
            hosted.remove(rng.choice(hosted))
            names = row_names(hosted)
            seen["leaves"] += 1
        elif roll < 0.10:
            twin = MetricsRecorder()
            twin.__restore__(parse_document(canonical_json(
                rec.__snapshot__()
            )))
            rec = twin
            seen["restores"] += 1
        check_reads(rec, model, rng, seen)


def test_block_recorder_matches_the_list_model():
    seen = Counter()
    for seed in range(12):
        drive(seed, seen)
    # Every path was taken, not just the common one.
    for event in ("block reads", "non-trivial summaries", "late joins",
                  "leaves", "restores", "row member records"):
        assert seen[event] > 0, event


def test_windows_are_views():
    rec = MetricsRecorder()
    for t in range(40):
        rec.record_row(("a", "b"), float(t), [float(t), -float(t)])
    series = rec.series("a")
    window = series.window(10.0, 20.0)
    live_t, live_v = series.as_arrays()
    win_t, win_v = window.as_arrays()
    assert np.shares_memory(win_t, live_t)
    assert np.shares_memory(win_v, live_v)
    # Recording on a window copies it out; the live series is untouched.
    window.record(20.0, 99.0)
    assert window.values[-1] == 99.0
    assert rec.series("a").values == [float(t) for t in range(40)]
