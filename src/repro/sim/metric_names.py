"""The declared metric-name registry, enforced by the recorder.

Metric names feed :func:`repro.sim.metrics.metrics_digest`, the
benchmark's status reads, the chaos verdicts and the fleetd health
gates and rollups, so they are interface, not incidental strings. Every
``/``-namespaced name must be declared here before it is recorded or
read: :meth:`~repro.sim.metrics.MetricsRecorder.record` and
``record_row`` run :func:`check_metric_name` when they create a
series, and the read paths (``series``, ``read_window``, ``summary``)
run it on names the recorder has never seen. An undeclared name
raises ``KeyError`` that names the table it belongs in and the
closest declared name.

Adding a metric is two steps:

1. declare the name below — ``METRIC_NAMES`` for a host-wide series,
   ``PER_CGROUP_METRICS`` for a ``<cgroup>/<suffix>`` family,
   ``DYNAMIC_NAMESPACES`` when the tail is runtime data;
2. record it at the producing site.

Names without a ``/`` are ad-hoc local recorders (scratch series in
tests and analyses) and are out of the registry's scope.

The fleetd query surface (:mod:`repro.fleetd.rollup`) records
**nothing**: it reduces already-declared series (the PSI/refault/
offload families below) through the recorder's non-registering reads.
"""

from __future__ import annotations

from typing import Dict

#: Host-wide series: full name -> one-line description.
METRIC_NAMES: Dict[str, str] = {
    "host/free_bytes": "free RAM on the host",
    "host/used_bytes": "RAM in use across all cgroups",
    "host/zswap_pool_bytes": "compressed pool size (zswap backends)",
    "fs/read_rate": "filesystem reads per second",
    "fs/read_latency_p90": "p90 filesystem read latency (seconds)",
    "swap/out_rate_mb_s": "swap-out write rate (MB/s)",
    "swap/stored_bytes": "bytes resident in the swap backend",
    "senpai/stale": "senpai skipped a period on stale telemetry",
    "senpai/errors": "cumulative senpai control-file error skips",
    "senpai/degraded": "breaker state (0 closed, 0.5 half-open, 1 open)",
    "faults/active": "number of fault-plan events currently active",
    "supervisor/crashes": "cumulative supervised-controller crashes",
    "supervisor/hang_kills": "cumulative watchdog kills of hung controllers",
    "supervisor/restarts": "cumulative supervised-controller restarts",
    "supervisor/alive": "whether the supervised controller is running",
    "fleetd/generation":
        "policy generation the control plane applied to this host "
        "(recorded at rollout apply/rollback/recovery edges)",
}

#: Per-cgroup families recorded as ``<cgroup>/<suffix>``: suffix ->
#: one-line description.
PER_CGROUP_METRICS: Dict[str, str] = {
    "resident_bytes": "resident set (anon + file) of the cgroup",
    "anon_bytes": "anonymous memory charged to the cgroup",
    "file_bytes": "file cache charged to the cgroup",
    "swap_bytes": "swapped-out bytes charged to the cgroup",
    "zswap_bytes": "compressed bytes charged to the cgroup",
    "promotion_rate": "pages promoted back from swap per second",
    "refaults": "file refaults per second",
    "rps": "workload work units completed per second",
    "oom": "1.0 on a tick where the cgroup OOMed",
    "psi_mem_some_avg10": "memory some avg10 at tick time",
    "psi_io_some_avg10": "io some avg10 at tick time",
    "psi_mem_some_total": "cumulative memory some stall (seconds)",
    "psi_io_some_total": "cumulative io some stall (seconds)",
    "senpai_reclaim": "bytes senpai reclaimed from the cgroup",
    "senpai_pressure": "pressure senpai computed for the cgroup",
    "senpai_ratio": "auto-tuned reclaim ratio for the cgroup",
    "gswap_reclaim": "bytes gswap reclaimed from the cgroup",
    "memory_max": "memory.max limit applied by the limits controller",
}

#: Namespaces whose tails are runtime data (``faults/<event kind>``):
#: namespace -> one-line description.
DYNAMIC_NAMESPACES: Dict[str, str] = {
    "faults": "per-kind fault-injection activity, keyed by event kind",
}

#: Namespaces of the host-wide names: an undeclared name under one of
#: these belongs in ``METRIC_NAMES``; under any other head it is read
#: as ``<cgroup>/<suffix>``.
_HOST_NAMESPACES = frozenset(name.partition("/")[0] for name in METRIC_NAMES)


def check_metric_name(name: str) -> None:
    """Raise ``KeyError`` unless ``name`` is declared or has no ``/``.

    A name is declared when it is in ``METRIC_NAMES``, its last
    ``/``-component is in ``PER_CGROUP_METRICS`` or its first is in
    ``DYNAMIC_NAMESPACES``.
    """
    head, slash, _ = name.partition("/")
    suffix = name.rpartition("/")[2]
    if (
        not slash
        or name in METRIC_NAMES
        or suffix in PER_CGROUP_METRICS
        or head in DYNAMIC_NAMESPACES
    ):
        return
    if head in _HOST_NAMESPACES:
        missing, table, declared = name, "METRIC_NAMES", METRIC_NAMES
        alternative = ""
    else:
        missing, table, declared = (
            suffix, "PER_CGROUP_METRICS", PER_CGROUP_METRICS
        )
        alternative = (
            f", or namespace {head!r} to DYNAMIC_NAMESPACES when the "
            "tail is runtime data"
        )
    import difflib  # error path only: keep it off the import graph

    close = difflib.get_close_matches(missing, list(declared), n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    raise KeyError(
        f"metric {name!r} is not declared: add {missing!r} to {table} "
        f"in repro.sim.metric_names{alternative}{hint}"
    )
