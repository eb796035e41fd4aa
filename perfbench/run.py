"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1``, run from the checkout root.

Workloads (see perfbench/README.md for the design):

* ``host_large`` - one 64 GB production-shaped host, batch tick loop;
* ``fleetd_soak`` - an in-process ``FleetdEngine`` over a long life with
  spooling, rollouts, crash recovery and query bursts;
* ``fleetd_serve`` - the ``python -m repro fleetd`` daemon driven over
  its Unix socket by a closed-loop driver and an open-loop reader.

``--seconds`` sizes the fixed simulated work of the measured window, so
one (workload, seed, seconds) always simulates the same thing and its
simulated outputs must repeat exactly. With ``--trace 0`` the last line
of stdout carries the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of a traced window run beside an untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys

from common import (
    ROOT, WORK, Ledger, check_repeats, code_identity, emit, metric,
)

WORKLOADS = ("host_large", "fleetd_soak", "fleetd_serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # A terminated run still stops the daemons it started (finally
    # blocks run on SystemExit, not on a bare SIGTERM).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.chdir(ROOT)

    import importlib

    module = importlib.import_module(args.workload)
    rundir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    ledger = Ledger()
    try:
        out = module.run(args.seed, args.seconds, bool(args.trace),
                         rundir, ledger)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    check_repeats(
        ledger,
        f"{args.workload}:seed={args.seed}:ticks={out['ticks']}"
        f":code={code_identity()[:16]}",
        out["simulated"],
    )
    if args.trace:
        from layers import unit

        metrics = {
            name: metric(value, unit(name))
            for name, value in sorted({**out["per_layer"],
                                       **out["raw"]}.items())
        }
    else:
        metrics = out["metrics"]
        metrics["ok_frac"] = metric(ledger.ok_frac, "frac")
        print("perfbench: uncalibrated timings "
              + json.dumps(out["raw"], sort_keys=True), file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: set-ups took "
          + ", ".join(f"{s:.3f}" for s in out["setup_s"]) + " s; "
          f"median {statistics.median(out['setup_s']):.3f} s",
          file=sys.stderr)
    return emit(ledger, metrics)


if __name__ == "__main__":
    sys.exit(main())
