"""Shared helpers: statistics, memory, correctness ledger, repeat record."""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import sys
import time
from typing import Dict, List, Sequence

#: The checkout root (parent of this directory).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch space for spools, sockets, span files and the repeat record.
#: Relative to ROOT, which is the working directory of every run, so
#: Unix socket paths stay short.
WORK = ".perfbench_run"


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: Median of one calibration chunk on the reference machine (2 vCPU
#: Intel Xeon at 2.1 GHz, Python 3.11, no other load), in seconds.
#: Timings are reported as they would read on a machine whose chunk
#: median is this.
CALIBRATION_REF_S = 0.001


class Calibration:
    """A fixed pure-Python workload run in small chunks between the
    measured operations, to read how fast the machine is right now.

    The machine is shared: its speed drifts by tens of percent over
    minutes, and a whole lap of the simulator is slower or faster with
    it. The chunk walks a 32k-entry table in random order, so like the
    simulator it is bound by the interpreter and the memory hierarchy,
    and the median of its times follows the machine's speed. Over the
    chunk's median the scaled lap times of one seed varied less than
    over its 10th percentile (4.5% against 6.3% on twelve laps at full
    scaling).

    How far a workload's time moves with the chunk's is its
    ``elasticity``: a lap is scaled by ``(ref / chunk median) **
    elasticity``. The chunk is all cache misses; a workload that is
    less bound by memory slows less than the chunk when the machine is
    busy, and its elasticity is below 1. Each workload states its own,
    fitted on laps that caught the machine both calm and busy.

    The chunk allocates nothing: each step flips low bits of a table
    entry, so every value stays a cached small int. A chunk that let
    its entries grow past the small-int cache allocated a new int per
    step, scattered its table over the heap as the run went on, and
    slowed down lap after lap (its factor fell from 1.04 to 0.83 over
    four laps whose raw times were flat).

    The chunk runs no code of the program, but it shares the caches
    with it: the program evicts the chunk's lines between chunks, the
    more so the larger its working set. In one probe the chunk was 2.1
    times as slow between ``host_large`` ticks as between ticks of a
    small-footprint filler; in another, on a calmer machine, the two
    were equal. A change that shrinks the program's working set can
    therefore raise the factor and hide part of its gain; the
    uncalibrated figures (``raw_figures``) are reported beside the
    calibrated ones so that can be checked.
    """

    CHUNK_OPS = 2000
    TABLE = 1 << 15

    def __init__(self, elasticity: float) -> None:
        self.elasticity = elasticity
        self._table = [[0] for _ in range(self.TABLE)]
        self.times: List[float] = []

    def chunk(self) -> None:
        table, mask = self._table, self.TABLE - 1
        x = 12345
        start = time.perf_counter()
        for _ in range(self.CHUNK_OPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            table[x & mask][0] ^= x & 7
        self.times.append(time.perf_counter() - start)

    def take_factor(self) -> float:
        """Reference chunk time over the median of the chunks since the
        last call, to the power ``elasticity`` (below 1 when the machine
        ran slower than the reference)."""
        require_tail(self.times, 50, "calibration median")
        factor = ((CALIBRATION_REF_S / statistics.median(self.times))
                  ** self.elasticity)
        self.times = []
        return factor


def scaled(samples: Sequence[float], factor: float) -> List[float]:
    return [sample * factor for sample in samples]


def pooled_timings(laps: Sequence[Dict], key: str,
                   calibrated: bool) -> List[float]:
    """Every lap's ``key`` timings together: scaled by each lap's
    calibration ``factor``, or as measured.

    For samples whose cost falls in one of two modes at random from lap
    to lap (a read between ticks or behind a spool tick; a status read
    in its fast or slow mode): the fastest lap per sample would keep a
    sample in the slow mode only when every lap put it there, so the
    share of the slow mode, and any percentile near its edge, would
    swing from run to run. Pooled, the share is the mean over laps.
    """
    return [x for lap in laps
            for x in scaled(lap[key], lap["factor"] if calibrated else 1.0)]


def lap_timings(laps: Sequence[Dict], key: str,
                calibrated: bool) -> List[float]:
    """Per sample, the fastest lap's ``key`` timing: scaled by each lap's
    calibration ``factor``, or as measured.

    Other tenants of a shared machine slow work down in bursts, and the
    fastest of a few identical repetitions of a short sample leaves
    them out; but it also keeps the lap whose calibration read the
    machine as fastest, so it is used only where bursts dominate (see
    ``end_to_end``).
    """
    timings = [scaled(lap[key], lap["factor"]) if calibrated else lap[key]
               for lap in laps]
    if len({len(lap) for lap in timings}) != 1:
        raise ValueError("laps differ in sample count")
    return [min(samples) for samples in zip(*timings)]


def require_tail(values: Sequence[float], q: float, what: str) -> None:
    """Refuse a percentile with fewer than 10 samples beyond it."""
    beyond = len(values) * (100.0 - q) / 100.0
    if beyond < 10:
        raise SystemExit(
            f"{what}: {len(values)} samples leave {beyond:.1f} beyond "
            f"p{q:g}; size the run so at least 10 do"
        )


def peak_rss_mb(pid: str = "self") -> float:
    """High-water resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Ledger:
    """Counts operations attempted and failed; failures are printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: CHECK FAILED: {what}", file=sys.stderr)
        return ok

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted


def code_identity() -> str:
    """SHA-256 over the path and contents of every Python file under
    ``src/`` and ``perfbench/``: the code that produces a run's
    simulated outputs."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def check_repeats(ledger: Ledger, key: str, simulated: Dict) -> None:
    """Check ``simulated`` against the first run of the same key.

    The key names the code (``code_identity``), the workload, the seed
    and the size. The first run of a key writes its simulated outputs to
    a record in the work directory; every later run of the same key,
    traced or not, must reproduce them exactly. A change to the code
    starts a new key, so a change that moves the simulated outputs is
    measured, not refused.
    """
    path = os.path.join(WORK, "repeat-record.json")
    record: Dict = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    # Round-trip through JSON so the comparison sees what was stored.
    current = json.loads(json.dumps(simulated))
    first = record.get(key)
    if first is None:
        record[key] = current
        os.makedirs(WORK, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return
    for name in sorted(set(first) | set(current)):
        ledger.check(
            first.get(name) == current.get(name),
            f"{key}: simulated output {name} did not repeat: first run "
            f"{first.get(name)!r}, this run {current.get(name)!r}",
        )


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(
    setup_s: Sequence[float],
    host_ticks: int,
    busy_s: float,
    rss_mb: float,
    simulated: Dict,
    tick_s: Sequence[float],
    tail_tick_s: Sequence[float],
    req_s: Sequence[float],
) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics of one run (``ok_frac`` is added last).

    ``busy_s`` is the time one lap's measured window spent on the
    program's work and ``host_ticks`` the host-ticks it advanced;
    ``tick_s`` is every lap's tick samples pooled, ``tail_tick_s`` the
    samples ``tick_p99_ms`` is taken over, and ``req_s`` every request
    sample pooled.

    The median tick and the throughput come from all laps: a lap
    minimum would pick, for every sample, the lap whose calibration
    read the machine as fastest, and so carry the largest calibration
    error of the run (on eight ``host_large`` runs, 6.2% spread against
    4.5% pooled). The tail is the exception where ticks are short: on
    ``host_large`` (2 ms ticks) a burst on one lap lands in the pooled
    tail, and the fastest lap per tick spread 6% against 16% pooled. On
    the fleetd workloads the tail is the spool ticks (about 200 ms),
    which outlast a burst, and pooled spread 7.7% against 16.4% for the
    lap minimum over six ``fleetd_soak`` runs.
    """
    require_tail(tail_tick_s, 99, "tick_p99_ms")
    require_tail(req_s, 90, "req_p90_ms")
    return {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "host_ticks_per_s": metric(host_ticks / busy_s, "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "savings_frac": metric(simulated["savings_frac"], "frac"),
        "psi_mem_some_pct": metric(simulated["psi_mem_some_pct"], "%"),
        "tick_p50_ms": metric(percentile(tick_s, 50) * 1e3, "ms"),
        "tick_p99_ms": metric(percentile(tail_tick_s, 99) * 1e3, "ms"),
        "spool_mb": metric(simulated["spool_mb"], "MB"),
        "req_p50_ms": metric(percentile(req_s, 50) * 1e3, "ms"),
        "req_p90_ms": metric(percentile(req_s, 90) * 1e3, "ms"),
    }


#: The end-to-end metrics that are host timings (calibrated).
TIMINGS = ("setup_s", "host_ticks_per_s", "tick_p50_ms", "tick_p99_ms",
           "req_p50_ms", "req_p90_ms")


def raw_figures(metrics: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """The timings of an end-to-end table computed without calibration,
    as ``raw.<name>``: the program's own seconds on this machine."""
    return {f"raw.{name}": metrics[name]["value"] for name in TIMINGS}


def emit(ledger: Ledger, metrics: Dict[str, Dict[str, object]]) -> int:
    """Print the result line; exit status 1 when any check failed."""
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }, allow_nan=False))
    return 0 if ledger.failed == 0 else 1


def overhead(untraced_rate: float, traced_rate: float) -> float:
    """Tracing overhead as extra wall time per unit of work."""
    return untraced_rate / traced_rate - 1.0
