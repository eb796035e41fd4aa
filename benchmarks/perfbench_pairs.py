"""Run perfbench on two checkouts in alternating pairs; write one
trajectory point.

``perfbench/`` measures one checkout. A change that touches a hot path
is judged against its parent: at least ten pairs of runs per workload,
alternating which side runs first, each side's median and quartiles,
and the pairs the change won. This script runs those pairs (with
``--trace 0`` for the end-to-end metrics and ``--trace 1`` for the
per-layer table), keeps every run's last stdout line under
``--results``, and writes the summary as ``benchmarks/BENCH_<n>.json``.

    python benchmarks/perfbench_pairs.py --parent ../parent --change . \\
        --pairs 10 --trace-pairs 2 --out benchmarks/BENCH_<n>.json

``--assemble-only`` skips the runs and summarizes the files already in
``--results`` (named ``<workload>-t<trace>-<side>-<seed>.json``).
Seeds run from ``--first-seed`` up. Timings depend on the machine;
compare sides of one file, not files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

import numpy

WORKLOADS = ("host_large", "fleetd_soak", "fleetd_serve")
SIDES = ("parent", "change")


def _bench_spec(checkout: str) -> Dict[str, Dict]:
    """Metric name -> its BENCHMARK.json entry (unit, better, bound)."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def _path(results: str, workload: str, trace: int, side: str,
          seed: int) -> str:
    return os.path.join(results, f"{workload}-t{trace}-{side}-{seed}.json")


def run_pairs(dirs: Dict[str, str], results: str, workload: str,
              trace: int, seeds: range, seconds: int) -> None:
    """Run alternating parent/change pairs of one workload."""
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for side in order:
            out = _path(results, workload, trace, side, seed)
            with open(out, "w") as fh:
                subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload",
                     workload, "--seed", str(seed), "--seconds",
                     str(seconds), "--trace", str(trace)],
                    cwd=dirs[side], stdout=fh, stderr=subprocess.DEVNULL,
                    check=False,
                )


def _load(path: str):
    try:
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        return json.loads(lines[-1]) if lines else None
    except (OSError, ValueError):
        return None


def summarize(results: str, workload: str, trace: int,
              spec: Dict[str, Dict]) -> Dict:
    """Per-side medians and quartiles, and pairs won, for one table."""
    runs: Dict[str, Dict[int, Dict]] = {side: {} for side in SIDES}
    prefix = f"{workload}-t{trace}-"
    for name in os.listdir(results):
        if not name.startswith(prefix) or not name.endswith(".json"):
            continue
        side, _, seed = name[len(prefix):-len(".json")].partition("-")
        doc = _load(os.path.join(results, name))
        if side in runs and seed.isdigit() and doc is not None:
            runs[side][int(seed)] = doc
    seeds = sorted(set(runs["parent"]) & set(runs["change"]))
    table: Dict = {
        "seeds": seeds,
        "correct": {side: sum(bool(runs[side][s]["correct"]) for s in seeds)
                    for side in SIDES},
        "metrics": {},
    }
    if not seeds:
        return table
    for name in sorted(runs["parent"][seeds[0]]["metrics"]):
        per_side: Dict[str, List[float]] = {
            side: [runs[side][s]["metrics"][name]["value"] for s in seeds]
            for side in SIDES
        }
        entry: Dict = {"unit": runs["parent"][seeds[0]]["metrics"][name]
                       ["unit"]}
        for side in SIDES:
            values = per_side[side]
            quart = (statistics.quantiles(values, n=4) if len(values) > 1
                     else [values[0]] * 3)
            entry[side] = {"median": statistics.median(values),
                           "q1": quart[0], "q3": quart[2], "runs": values}
        better = spec.get(name, {}).get("better")
        if better in ("higher", "lower"):
            sign = 1.0 if better == "higher" else -1.0
            entry["change_won"] = sum(
                sign * (c - p) > 0
                for p, c in zip(per_side["parent"], per_side["change"])
            )
            entry["pairs"] = len(seeds)
        table["metrics"][name] = entry
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the change")
    parser.add_argument("--results", default=".perfbench_pairs",
                        help="directory for the per-run outputs")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-pairs", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--assemble-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    dirs = {"parent": os.path.abspath(args.parent),
            "change": os.path.abspath(args.change)}
    workloads = args.workloads.split(",")
    os.makedirs(args.results, exist_ok=True)
    if not args.assemble_only:
        first = args.first_seed
        for workload in workloads:
            run_pairs(dirs, args.results, workload, 0,
                      range(first, first + args.pairs), args.seconds)
            run_pairs(dirs, args.results, workload, 1,
                      range(first, first + args.trace_pairs), args.seconds)
    spec = _bench_spec(dirs["change"])
    point = {
        "seconds": args.seconds,
        "machine": {"cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__},
        "workloads": {
            workload: {
                "end_to_end": summarize(args.results, workload, 0, spec),
                "per_layer": summarize(args.results, workload, 1, spec),
            }
            for workload in workloads
        },
    }
    with open(args.out, "w") as fh:
        json.dump(point, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
