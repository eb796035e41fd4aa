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

``--check`` is the CI throughput gate. It runs the ``--change``
checkout alone on every workload for seeds 1-5, at the ``seconds`` of
the newest committed point (``benchmarks/BENCH_<n>.json`` with the
largest ``n``), and fails when a workload's median calibrated
``host_ticks_per_s`` is more than 20% below that point's ``change``
median, when a run is missing, or when a run reports ``correct:
false`` or ``failed > 0``:

    python benchmarks/perfbench_pairs.py --check

With ``--assemble-only`` it judges the run files already in
``--results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

import numpy

WORKLOADS = ("host_large", "fleetd_soak", "fleetd_serve")
SIDES = ("parent", "change")

#: The gate: seeds run per workload, the metric judged, and the largest
#: drop of its median below the point's ``change`` median that passes.
CHECK_SEEDS = (1, 2, 3, 4, 5)
CHECK_METRIC = "host_ticks_per_s"
CHECK_TOLERANCE = 0.20


def _bench_spec(checkout: str) -> Dict[str, Dict]:
    """Metric name -> its BENCHMARK.json entry (unit, better, bound)."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def _path(results: str, workload: str, trace: int, side: str,
          seed: int) -> str:
    return os.path.join(results, f"{workload}-t{trace}-{side}-{seed}.json")


def run_pairs(dirs: Dict[str, str], results: str, workload: str,
              trace: int, seeds: Sequence[int], seconds: int,
              sides: Sequence[str] = SIDES) -> None:
    """Run alternating pairs of one workload over ``sides``."""
    for seed in seeds:
        order = sides if seed % 2 else sides[::-1]
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
              spec: Dict[str, Dict], sides: Sequence[str] = SIDES,
              only_seeds: Optional[Sequence[int]] = None) -> Dict:
    """Per-side medians and quartiles, and pairs won, for one table.

    A seed counts when every side in ``sides`` has a readable run of it
    (and, given ``only_seeds``, when it is one of them)."""
    runs: Dict[str, Dict[int, Dict]] = {side: {} for side in sides}
    prefix = f"{workload}-t{trace}-"
    for name in os.listdir(results):
        if not name.startswith(prefix) or not name.endswith(".json"):
            continue
        side, _, seed = name[len(prefix):-len(".json")].partition("-")
        doc = _load(os.path.join(results, name))
        if side in runs and seed.isdigit() and doc is not None:
            runs[side][int(seed)] = doc
    seeds = sorted(set.intersection(*(set(runs[side]) for side in sides)))
    if only_seeds is not None:
        seeds = [s for s in seeds if s in only_seeds]
    table: Dict = {
        "seeds": seeds,
        "correct": {side: sum(bool(runs[side][s]["correct"]) for s in seeds)
                    for side in sides},
        "failed": {side: sum(runs[side][s].get("failed", 0) for s in seeds)
                   for side in sides},
        "metrics": {},
    }
    if not seeds:
        return table
    first = runs[sides[0]][seeds[0]]["metrics"]
    for name in sorted(first):
        per_side: Dict[str, List[float]] = {
            side: [runs[side][s]["metrics"][name]["value"] for s in seeds]
            for side in sides
        }
        entry: Dict = {"unit": first[name]["unit"]}
        for side in sides:
            values = per_side[side]
            quart = (statistics.quantiles(values, n=4) if len(values) > 1
                     else [values[0]] * 3)
            entry[side] = {"median": statistics.median(values),
                           "q1": quart[0], "q3": quart[2], "runs": values}
        better = spec.get(name, {}).get("better")
        if better in ("higher", "lower") and len(sides) == 2:
            sign = 1.0 if better == "higher" else -1.0
            entry["change_won"] = sum(
                sign * (c - p) > 0
                for p, c in zip(per_side["parent"], per_side["change"])
            )
            entry["pairs"] = len(seeds)
        table["metrics"][name] = entry
    return table


def newest_point(checkout: str) -> Optional[str]:
    """The committed trajectory point with the largest ``<n>``."""
    bench = os.path.join(checkout, "benchmarks")
    if not os.path.isdir(bench):
        return None
    numbered = [(int(m.group(1)), name) for name in os.listdir(bench)
                for m in [re.fullmatch(r"BENCH_(\d+)\.json", name)] if m]
    return os.path.join(bench, max(numbered)[1]) if numbered else None


def check(results: str, point_path: str) -> List[str]:
    """Judge the ``change`` runs in ``results`` against a point.

    Prints one line per judged workload; returns one line per failure
    (an empty list passes)."""
    with open(point_path) as fh:
        point = json.load(fh)["workloads"]
    name = os.path.basename(point_path)
    problems: List[str] = []
    for workload in WORKLOADS:
        table = summarize(results, workload, 0, {}, sides=("change",),
                          only_seeds=CHECK_SEEDS)
        seeds = table["seeds"]
        missing = [s for s in CHECK_SEEDS if s not in seeds]
        if missing:
            problems.append(f"{workload}: no readable run for seed(s) "
                            + ", ".join(map(str, missing)))
        wrong = len(seeds) - table["correct"]["change"]
        failed = table["failed"]["change"]
        if wrong or failed:
            problems.append(f"{workload}: {wrong} run(s) with correct: "
                            f"false, {failed} failed check(s)")
        ref = (point.get(workload, {}).get("end_to_end", {})
               .get("metrics", {}).get(CHECK_METRIC))
        if ref is None:
            problems.append(f"{workload}: {name} has no {CHECK_METRIC}")
            continue
        if not seeds:
            continue
        median = table["metrics"][CHECK_METRIC]["change"]["median"]
        ratio = median / ref["change"]["median"]
        print(f"{workload}: {CHECK_METRIC} median {median:.1f} = "
              f"{ratio:.1%} of {ref['change']['median']:.1f} ({name}); "
              f"{100 * (ratio - 1 + CHECK_TOLERANCE):+.1f} points over "
              f"the {1 - CHECK_TOLERANCE:.0%} floor")
        if ratio < 1.0 - CHECK_TOLERANCE:
            problems.append(
                f"{workload}: {CHECK_METRIC} median {median:.1f} is "
                f"{1 - ratio:.1%} below {name}'s "
                f"{ref['change']['median']:.1f}; the gate allows "
                f"{CHECK_TOLERANCE:.0%}")
    return problems


def _check(args) -> int:
    change = os.path.abspath(args.change)
    point = newest_point(change)
    if point is None:
        print(f"no benchmarks/BENCH_<n>.json under {change}",
              file=sys.stderr)
        return 2
    with open(point) as fh:
        seconds = json.load(fh)["seconds"]
    os.makedirs(args.results, exist_ok=True)
    if not args.assemble_only:
        for workload in WORKLOADS:
            run_pairs({"change": change}, args.results, workload, 0,
                      CHECK_SEEDS, seconds, sides=("change",))
    problems = check(args.results, point)
    for problem in problems:
        print(f"REGRESSION: {problem}", file=sys.stderr)
    if not problems:
        print(f"perfbench gate passed against {os.path.basename(point)}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", default=".",
                        help="checkout of the change (default: .)")
    parser.add_argument("--results", default=".perfbench_pairs",
                        help="directory for the per-run outputs")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-pairs", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--assemble-only", action="store_true")
    parser.add_argument("--check", action="store_true",
                        help="gate --change against the newest point")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.check:
        return _check(args)
    if args.parent is None or args.out is None:
        parser.error("--parent and --out are required without --check")
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
