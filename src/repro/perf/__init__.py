"""Simulator performance layer: benchmark harness and regression gate.

``python -m repro bench`` runs the canonical scenario matrix (single
host, fleet serial+parallel, chaos-enabled, tick microbenchmark), writes
a machine-readable ``BENCH_5.json`` and optionally gates against a
committed baseline (see :mod:`repro.perf.harness` and
docs/PERFORMANCE.md). ``python -m repro bench --profile`` instead
profiles the microbench under cProfile and writes the tick-share
document the hot-path lint cross-checks (:mod:`repro.perf.profile`,
docs/LINTING.md "Hot paths"). :mod:`repro.perf.batched` is the
batched-API registry that same lint reads statically.
"""

from repro.perf.batched import BATCHED_EQUIVALENTS, SUPERSEDED_SCALAR_APIS
from repro.perf.harness import (
    BENCH_ID,
    BENCH_SCHEMA_VERSION,
    BENCH_SEED,
    DEFAULT_TOLERANCE,
    PRE_PR_TICKS_PER_S,
    check_regression,
    format_report,
    load_report,
    run_bench,
    wall_s,
    write_report,
)
from repro.perf.profile import (
    PROFILE_DEFAULT_OUT,
    PROFILE_SCHEMA_VERSION,
    run_profile,
    write_profile,
)

__all__ = [
    "BATCHED_EQUIVALENTS",
    "SUPERSEDED_SCALAR_APIS",
    "PROFILE_DEFAULT_OUT",
    "PROFILE_SCHEMA_VERSION",
    "run_profile",
    "write_profile",
    "BENCH_ID",
    "BENCH_SCHEMA_VERSION",
    "BENCH_SEED",
    "DEFAULT_TOLERANCE",
    "PRE_PR_TICKS_PER_S",
    "check_regression",
    "format_report",
    "load_report",
    "run_bench",
    "wall_s",
    "write_report",
]
