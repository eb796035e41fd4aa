"""Read-only streaming metric rollups: host → region → fleet.

The query half of the control plane (ROADMAP item 2, the vcmmd ldmgr
shape): operators watch fleet-wide pressure/refault/offload signals
live and act on them, so the query surface must be **provably
read-only** — observing a fleet must never perturb it. Every metric
lookup here goes through the recorder's non-registering paths
(:meth:`~repro.sim.metrics.MetricsRecorder.read_block` and
``read_window``), so querying a live fleet is digest-neutral:
query-twice == query-never, asserted per storm by ``chaos --fleetd``.

Aggregation shape: each host's recent metric windows reduce to
fixed-size :class:`SignalSummary` records (count/sum/min/max/last) —
**mergeable**, so a :class:`HostRollup` folds into a
:class:`RegionRollup` folds into a :class:`FleetRollup` by pure
summary merges, and the sharded aggregation planned in ROADMAP item 3
can ship the same summaries across worker boundaries verbatim instead
of full series. Merge caveat: ``count``/``min``/``max``/``last`` merge
exactly in any association order; ``mean`` is ``sum/count`` and float
addition is not bitwise-associative, so merged means are equal only to
float tolerance.

The wire form is a versioned JSON envelope (kinds ``fleetd-rollup``
and ``fleetd-top``), validated on read like the rollout artifacts, and
encoded NaN-free: empty windows serialize as ``null`` with an explicit
``samples: 0``, and :func:`encode_envelope` refuses non-finite numbers
loudly rather than emitting the bare ``NaN`` token (invalid JSON for
the one-request-per-line socket protocol).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

#: Schema version of the rollup/top JSON envelopes.
#: v2: host rollups lose the flag for a supervisor that gave up on its
#: controller, and the region and fleet folds lose the count of such
#: hosts: a supervised controller is always restarted.
ROLLUP_SCHEMA_VERSION = 2

#: The cgroup whose signals the rollups and the rollout gate watch (the
#: fleet host recipe names the application container ``app``).
_APP_CGROUP = "app"

#: Query-surface signal name -> per-cgroup metric suffix (all declared
#: in :mod:`repro.sim.metric_names`). The rollups *read* these; they
#: record nothing.
ROLLUP_SIGNALS: Dict[str, str] = {
    "psi_mem_some": "psi_mem_some_avg10",
    "psi_io_some": "psi_io_some_avg10",
    "refault_rate": "refaults",
    "promotion_rate": "promotion_rate",
    "swap_bytes": "swap_bytes",
    "zswap_bytes": "zswap_bytes",
}

#: The app series one host read reduces: every rollup signal, then the
#: OOM flags. ``Host._record`` stores them all in one row, so they share
#: one time column and read as one block.
_APP_READS = tuple(
    f"{_APP_CGROUP}/{suffix}" for suffix in ROLLUP_SIGNALS.values()
) + (f"{_APP_CGROUP}/oom",)


class RollupError(ValueError):
    """A rollup query the engine refuses (unknown signal, bad window)."""


@dataclass(frozen=True)
class SignalSummary:
    """Fixed-size mergeable reduction of one signal's window.

    The empty summary (``count == 0``) is the merge identity; its
    aggregates serialize as ``null``, never NaN.
    """

    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None
    last: Optional[float] = None
    #: Time of ``last``, for merge ordering; ``-inf`` when empty so any
    #: real sample wins.
    last_t: float = float("-inf")

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    @classmethod
    def of_rows(
        cls, times: np.ndarray, values: np.ndarray
    ) -> List["SignalSummary"]:
        """Reduce each row of a ``(series, samples)`` window on one time
        column; row ``i``'s summary is :meth:`of` on series ``i``, bit
        for bit (each row is reduced along its contiguous axis)."""
        n = len(times)
        if not n:
            return [cls()] * len(values)
        last_t = float(times[-1])
        return [
            cls(n, total, lo, hi, last, last_t)
            for total, lo, hi, last in zip(
                values.sum(axis=1).tolist(), values.min(axis=1).tolist(),
                values.max(axis=1).tolist(), values[:, -1].tolist(),
            )
        ]

    @classmethod
    def of(cls, series) -> "SignalSummary":
        """Reduce one (windowed) :class:`~repro.sim.metrics.Series`."""
        times, values = series.as_arrays()
        n = len(values)
        if not n:
            return cls()
        return cls(
            count=n,
            total=float(values.sum()),
            min=float(values.min()),
            max=float(values.max()),
            last=float(values[-1]),
            last_t=float(times[-1]),
        )

    def merge(self, other: "SignalSummary") -> "SignalSummary":
        """Combine two summaries as if reduced from the concatenation.

        Exact and order-independent for count/min/max/last; the mean is
        ``sum/count`` so it is associative only to float tolerance. A
        ``last_t`` tie picks ``other`` — deterministic given a fixed
        fold order (hosts merge in registration order, regions in
        first-appearance order).
        """
        if not other.count:
            return self
        if not self.count:
            return other
        if other.last_t >= self.last_t:
            last, last_t = other.last, other.last_t
        else:
            last, last_t = self.last, self.last_t
        return SignalSummary(
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
            last=last,
            last_t=last_t,
        )

    def to_json(self) -> Dict[str, Any]:
        """JSON-clean form: empty aggregates are ``null``, never NaN."""
        return {
            "samples": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "last": self.last,
        }


def _signals_json(
    signals: Mapping[str, SignalSummary]
) -> Dict[str, Dict[str, Any]]:
    return {name: summary.to_json() for name, summary in signals.items()}


def _merge_signals(
    a: Mapping[str, SignalSummary], b: Mapping[str, SignalSummary]
) -> Dict[str, SignalSummary]:
    return {
        name: a.get(name, SignalSummary()).merge(
            b.get(name, SignalSummary())
        )
        for name in ROLLUP_SIGNALS
    }


@dataclass(frozen=True)
class HostRollup:
    """One host's window reduced to fixed-size summaries."""

    host_id: str
    region: str
    app: str
    window_s: float
    signals: Dict[str, SignalSummary]
    oom_kills: int = 0
    breaker_open: bool = False
    alive: bool = True
    generation: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "host_id": self.host_id,
            "region": self.region,
            "app": self.app,
            "window_s": self.window_s,
            "signals": _signals_json(self.signals),
            "oom_kills": self.oom_kills,
            "breaker_open": self.breaker_open,
            "alive": self.alive,
            "generation": self.generation,
        }


@dataclass(frozen=True)
class RegionRollup:
    """All of one region's hosts folded into one summary set."""

    region: str
    hosts: int = 0
    signals: Dict[str, SignalSummary] = field(default_factory=dict)
    oom_kills: int = 0
    breaker_open_hosts: int = 0

    @classmethod
    def of_host(cls, rollup: HostRollup) -> "RegionRollup":
        return cls(
            region=rollup.region,
            hosts=1,
            signals=dict(rollup.signals),
            oom_kills=rollup.oom_kills,
            breaker_open_hosts=int(rollup.breaker_open),
        )

    def merge(self, other: "RegionRollup") -> "RegionRollup":
        if self.region != other.region:
            raise RollupError(
                f"cannot merge rollups across regions "
                f"({self.region!r} vs {other.region!r})"
            )
        return RegionRollup(
            region=self.region,
            hosts=self.hosts + other.hosts,
            signals=_merge_signals(self.signals, other.signals),
            oom_kills=self.oom_kills + other.oom_kills,
            breaker_open_hosts=(
                self.breaker_open_hosts + other.breaker_open_hosts
            ),
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "region": self.region,
            "hosts": self.hosts,
            "signals": _signals_json(self.signals),
            "oom_kills": self.oom_kills,
            "breaker_open_hosts": self.breaker_open_hosts,
        }


@dataclass(frozen=True)
class FleetRollup:
    """The full query answer: hosts, regions, and the fleet fold."""

    now_s: float
    tick: int
    window_s: float
    hosts: Tuple[HostRollup, ...] = ()
    regions: Dict[str, RegionRollup] = field(default_factory=dict)
    signals: Dict[str, SignalSummary] = field(default_factory=dict)
    oom_kills: int = 0
    breaker_open_hosts: int = 0

    def to_json(self) -> Dict[str, Any]:
        """Versioned JSON envelope (kind ``fleetd-rollup``)."""
        return {
            "schema_version": ROLLUP_SCHEMA_VERSION,
            "kind": "fleetd-rollup",
            "now_s": self.now_s,
            "tick": self.tick,
            "window_s": self.window_s,
            "hosts": [h.to_json() for h in self.hosts],
            "regions": {
                region: rollup.to_json()
                for region, rollup in self.regions.items()
            },
            "fleet": {
                "hosts": len(self.hosts),
                "signals": _signals_json(self.signals),
                "oom_kills": self.oom_kills,
                "breaker_open_hosts": self.breaker_open_hosts,
            },
        }


def sample_host(
    entry, t0: float, t1: float, window_s: Optional[float] = None
) -> HostRollup:
    """Reduce one registered host's signals over ``[t0, t1)``.

    The one window read of a host: the rollout gate's baseline and soak
    windows and the ``metrics``/``top`` trailing windows all come from
    here. ``t0``/``t1`` are host-local: a host's series run on its own
    clock, zero at registration (engine time minus ``entry.epoch_s``).
    The rollup reports ``window_s``, by default ``t1 - t0``.

    Pure reader: every lookup is a non-registering window read, so
    sampling a host N times leaves its metrics digest byte-identical to
    never sampling it. The app's signals and OOM flags are one block
    read (:meth:`~repro.sim.metrics.MetricsRecorder.read_block`); a
    host that has not recorded them on one time column (no tick yet)
    reads them one series at a time.
    """
    metrics = entry.host.metrics
    block = metrics.read_block(_APP_READS, t0, t1)
    if block is None:
        summaries = [
            SignalSummary.of(metrics.read_window(name, t0, t1))
            for name in _APP_READS
        ]
    else:
        summaries = SignalSummary.of_rows(*block)
    *signal_summaries, oom = summaries
    degraded = metrics.read_window("senpai/degraded", t0, t1)
    return HostRollup(
        host_id=entry.host_id,
        region=entry.region,
        app=entry.app,
        window_s=t1 - t0 if window_s is None else window_s,
        signals=dict(zip(ROLLUP_SIGNALS, signal_summaries)),
        oom_kills=int(oom.total),
        breaker_open=bool(len(degraded) and degraded.max() > 0.0),
        alive=entry.supervisor.alive,
        generation=entry.generation,
    )


def _check_window(window_s: float) -> None:
    """Refuse a non-positive (or NaN) query window, hosts or none."""
    if not window_s > 0.0:
        raise RollupError("window_s must be positive")


def _host_rollup(entry, window_s: float) -> HostRollup:
    """One host's trailing ``window_s``, up to its own clock's now.

    A host younger than the window is read from its zero; the rollup
    still reports the requested ``window_s``. The caller has checked
    ``window_s``.
    """
    t1 = entry.host.clock.now
    return sample_host(entry, max(0.0, t1 - window_s), t1, window_s)


def fleet_rollup(engine, window_s: float) -> FleetRollup:
    """Reduce every registered host of a live
    :class:`~repro.fleetd.engine.FleetdEngine`, folded by region and
    fleet. The engine lock (held by the server around each command)
    serializes this read against ticks."""
    _check_window(window_s)
    host_rollups = tuple(
        _host_rollup(entry, window_s) for entry in engine.registry.values()
    )
    regions: Dict[str, RegionRollup] = {}
    for rollup in host_rollups:
        piece = RegionRollup.of_host(rollup)
        if rollup.region in regions:
            regions[rollup.region] = regions[rollup.region].merge(piece)
        else:
            regions[rollup.region] = piece
    fleet_signals: Dict[str, SignalSummary] = {
        name: SignalSummary() for name in ROLLUP_SIGNALS
    }
    for region_rollup in regions.values():
        fleet_signals = _merge_signals(
            fleet_signals, region_rollup.signals
        )
    return FleetRollup(
        now_s=engine.now,
        tick=engine.tick_index,
        window_s=window_s,
        hosts=host_rollups,
        regions=regions,
        signals=fleet_signals,
        oom_kills=sum(r.oom_kills for r in regions.values()),
        breaker_open_hosts=sum(
            r.breaker_open_hosts for r in regions.values()
        ),
    )


def top_hosts(
    engine, signal: str, n: int, window_s: float
) -> Dict[str, Any]:
    """Rank hosts by a signal's window mean; returns an envelope.

    Unknown signals are refused loudly — a typo must not rank a fleet
    by a silently-empty series. Hosts whose window holds no samples
    rank last (their mean is ``null``, not a fabricated 0).
    """
    if signal not in ROLLUP_SIGNALS:
        raise RollupError(
            f"unknown signal {signal!r}; have {sorted(ROLLUP_SIGNALS)}"
        )
    if n < 1:
        raise RollupError("n must be at least 1")
    _check_window(window_s)
    rollups = [
        _host_rollup(entry, window_s) for entry in engine.registry.values()
    ]
    ranked = sorted(
        rollups,
        key=lambda rollup: (
            rollup.signals[signal].mean is None,
            -(rollup.signals[signal].mean or 0.0),
            rollup.host_id,
        ),
    )
    return {
        "schema_version": ROLLUP_SCHEMA_VERSION,
        "kind": "fleetd-top",
        "signal": signal,
        "n": n,
        "window_s": window_s,
        "now_s": engine.now,
        "tick": engine.tick_index,
        "hosts": [
            {
                "host_id": rollup.host_id,
                "region": rollup.region,
                "app": rollup.app,
                **rollup.signals[signal].to_json(),
            }
            for rollup in ranked[:n]
        ],
    }


# ----------------------------------------------------------------------
# envelope encode / validate-on-read


def _reject_non_finite(value: Any, path: str) -> None:
    if isinstance(value, bool):
        return
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(
            f"rollup envelope carries a non-finite number at {path}: "
            f"{value!r}"
        )
    if isinstance(value, Mapping):
        for key, item in value.items():
            _reject_non_finite(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _reject_non_finite(item, f"{path}[{i}]")


def encode_envelope(doc: Mapping[str, Any]) -> str:
    """Serialize an envelope, refusing NaN/Inf loudly.

    ``json.dumps`` would otherwise emit the bare ``NaN`` token —
    invalid JSON that a strict peer cannot parse off the socket.
    """
    try:
        return json.dumps(doc, allow_nan=False, sort_keys=True)
    except ValueError as exc:
        raise ValueError(
            f"refusing to encode rollup envelope with non-finite "
            f"numbers: {exc}"
        ) from exc


def _parse_envelope(doc: Mapping[str, Any], kind: str) -> Dict[str, Any]:
    if not isinstance(doc, Mapping):
        raise ValueError(f"{kind} envelope must be a JSON object")
    version = doc.get("schema_version")
    if version != ROLLUP_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported {kind} schema_version {version!r} "
            f"(expected {ROLLUP_SCHEMA_VERSION})"
        )
    if doc.get("kind") != kind:
        raise ValueError(
            f"not a {kind} document (kind={doc.get('kind')!r})"
        )
    _reject_non_finite(doc, kind)
    return dict(doc)


def parse_fleet_rollup(doc: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate a ``fleetd-rollup`` envelope read off the wire/disk."""
    parsed = _parse_envelope(doc, "fleetd-rollup")
    if not isinstance(parsed.get("hosts"), list):
        raise ValueError("fleet rollup is missing its host list")
    if not isinstance(parsed.get("fleet"), Mapping):
        raise ValueError("fleet rollup is missing its fleet fold")
    return parsed


def parse_top_report(doc: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate a ``fleetd-top`` envelope read off the wire/disk."""
    parsed = _parse_envelope(doc, "fleetd-top")
    if not isinstance(parsed.get("hosts"), list):
        raise ValueError("top report is missing its ranked host list")
    if parsed.get("signal") not in ROLLUP_SIGNALS:
        raise ValueError(
            f"top report ranks unknown signal {parsed.get('signal')!r}"
        )
    return parsed
