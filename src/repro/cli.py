"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list-apps`` — the application catalog with its published
  characteristics.
* ``list-ssds`` — the Figure 5 device catalog.
* ``run-host`` — simulate one host under Senpai and report savings.
* ``run`` — a checkpointed long run: ``--checkpoint-every N`` snapshots
  periodically, ``--resume PATH`` continues a killed run bit-identically
  (see docs/RESILIENCE.md, "Recovery").
* ``cost-table`` — the Figure 1 hardware cost trends.
* ``chaos`` — seeded fault storms through the one chaos driver (see
  docs/RESILIENCE.md, "Chaos"): a chaos host by default, a parallel
  fleet with worker crash/hang/slow faults under ``--fleet``, the
  control plane's guarded rollouts under ``--fleetd``. Every storm is
  judged on determinism, query-neutrality and crash-equivalence plus
  its topology's graceful-degradation checks, and the verdicts are
  written as one versioned JSON envelope.
* ``fleet`` — a fleet rollout through the resilience runtime, with
  loud partial-result warnings, per-failure repro hints, and
  ``--max-attempts`` / ``--deadline-min-s`` /
  ``--checkpoint-every-sim-s`` resilience knobs.
* ``fleetd`` — the live control-plane daemon (docs/RESILIENCE.md,
  "Control plane"): host registration (with a placement ``--region``
  label), guarded policy rollouts with health-gated canary waves and
  auto-rollback, the fleet kill switch, and the read-only query
  surface (``metrics`` — host/region/fleet rollup envelopes, ``top``
  — hosts ranked by a signal), over a Unix socket.
* ``crash-equivalence`` — the supervised host storm through the same
  driver: checkpoint → kill → restore → continue must match the
  uninterrupted run digest-for-digest (``--workers`` farms a seed
  sweep over processes).

The benchmark is ``perfbench/`` with its CI gate
``benchmarks/perfbench_pairs.py --check`` (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.costs import cost_table
from repro.analysis.reporting import format_table
from repro.backends.ssd import SSD_CATALOG
from repro.core.fleet import cgroup_memory_savings
from repro.core.senpai import Senpai, SenpaiConfig
from repro.psi.types import Resource
from repro.sim.host import Host, HostConfig
from repro.workloads.apps import APP_CATALOG
from repro.workloads.base import Workload
from repro.workloads.web import WebWorkload

MB = 1 << 20


def _cmd_list_apps(_args) -> int:
    rows = [
        (
            p.name,
            f"{p.size_gb:.0f}",
            f"{100 * p.anon_frac:.0f}",
            f"{100 * p.bands.cold:.0f}",
            f"{p.compress_ratio:.2f}",
            p.preferred_backend,
        )
        for p in APP_CATALOG.values()
    ]
    print(format_table(
        ["app", "size (GB)", "anon %", "cold %", "zstd ratio", "backend"],
        rows,
        title="application catalog",
    ))
    return 0


def _cmd_list_ssds(_args) -> int:
    rows = [
        (
            s.name,
            f"{s.endurance_pbw:.1f}",
            f"{s.read_iops / 1e3:.0f}",
            f"{s.write_iops / 1e3:.0f}",
            f"{s.read_p99_us:.0f}",
            f"{s.write_p99_us:.0f}",
        )
        for s in SSD_CATALOG.values()
    ]
    print(format_table(
        ["device", "endurance (PBW)", "read kIOPS", "write kIOPS",
         "read p99 (us)", "write p99 (us)"],
        rows,
        title="SSD catalog (Figure 5)",
    ))
    return 0


def _cmd_cost_table(_args) -> int:
    rows = [
        (gen, f"{mem:.1f}", f"{comp:.1f}", f"{ssd:.2f}")
        for gen, mem, comp, ssd in cost_table()
    ]
    print(format_table(
        ["generation", "memory %", "compressed %", "ssd iso %"],
        rows,
        title="hardware cost trends (Figure 1)",
    ))
    return 0


def _cmd_run_host(args) -> int:
    host = _build_single_app_host(args)
    if host is None:
        return 2
    backend = args.backend or APP_CATALOG[args.app].preferred_backend
    print(f"simulating {args.duration:.0f}s of {args.app!r} on a "
          f"{args.ram_gb:.0f} GB host with backend {backend!r} ...")
    host.run(args.duration)

    cg = host.mm.cgroup("app")
    stats = cgroup_memory_savings(host.mm, "app")
    group = host.psi.group("app")
    mem = group.sample(Resource.MEMORY, host.clock.now)
    rows = [
        ("resident (MB)", f"{cg.resident_bytes / MB:.1f}"),
        ("offloaded (MB)", f"{cg.offloaded_bytes() / MB:.1f}"),
        ("file evicted (MB)", f"{stats['saved_file_bytes'] / MB:.1f}"),
        ("net savings %", f"{100 * stats['savings_frac']:.1f}"),
        ("PSI memory some avg300 %", f"{100 * mem.some_avg300:.4f}"),
        ("swap-ins", str(cg.vmstat.pswpin)),
        ("refaults", str(cg.vmstat.workingset_refault)),
    ]
    print(format_table(["metric", "value"], rows, title="results"))
    return 0


def _cmd_run_ab(args) -> int:
    from repro.sim.ab import ABTest

    if args.app not in APP_CATALOG:
        print(f"unknown app {args.app!r}; see `list-apps`",
              file=sys.stderr)
        return 2
    profile = APP_CATALOG[args.app]

    def build(backend):
        host = Host(HostConfig(
            ram_gb=args.ram_gb, ncpu=args.ncpu,
            page_size_bytes=args.page_mb * MB,
            backend=None if backend == "none" else backend,
            seed=args.seed,
        ))
        if args.app == "Web":
            host.add_workload(WebWorkload, name="app",
                              size_scale=args.size_scale)
        else:
            host.add_workload(Workload, profile=profile, name="app",
                              size_scale=args.size_scale)
        if backend != "none":
            host.add_controller(Senpai(SenpaiConfig()))
        return host

    print(f"A/B: {args.app!r} — control={args.control!r} vs "
          f"treatment={args.treatment!r}, {args.duration:.0f}s ...")
    report = ABTest(
        control=lambda: build(args.control),
        treatment=lambda: build(args.treatment),
    ).run(args.duration)

    window = (args.duration / 2, args.duration)
    rows = []
    for series in ("app/resident_bytes", "app/rps",
                   "app/psi_mem_some_avg10", "app/promotion_rate"):
        delta = report.compare(series, window=window)
        rows.append((
            series,
            f"{delta.control_mean:.4g}",
            f"{delta.treatment_mean:.4g}",
            f"{100 * delta.delta_frac:+.1f}%"
            if delta.control_mean else "n/a",
        ))
    print(format_table(
        ["metric (2nd half mean)", "control", "treatment", "delta"],
        rows, title="A/B results",
    ))
    return 0


def _build_single_app_host(args) -> Optional[Host]:
    """The shared host recipe of ``run-host`` and ``run``."""
    if args.app not in APP_CATALOG:
        print(f"unknown app {args.app!r}; see `list-apps`",
              file=sys.stderr)
        return None
    profile = APP_CATALOG[args.app]
    backend = args.backend or profile.preferred_backend
    host = Host(HostConfig(
        ram_gb=args.ram_gb,
        ncpu=args.ncpu,
        page_size_bytes=args.page_mb * MB,
        backend=None if backend == "none" else backend,
        seed=args.seed,
    ))
    if args.app == "Web":
        host.add_workload(WebWorkload, name="app",
                          size_scale=args.size_scale)
    else:
        host.add_workload(Workload, profile=profile, name="app",
                          size_scale=args.size_scale)
    if backend != "none":
        host.add_controller(Senpai(SenpaiConfig()))
    return host


def _cmd_run(args) -> int:
    from repro.checkpoint import SnapshotError, load_snapshot, save_snapshot
    from repro.sim.metrics import metrics_digest

    if args.resume is not None:
        try:
            host = load_snapshot(args.resume)
        except OSError as exc:
            print(f"cannot read snapshot: {exc}", file=sys.stderr)
            return 2
        except SnapshotError as exc:
            print(f"refusing snapshot {args.resume!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"resumed from {args.resume} at t={host.clock.now:.0f}s")
    else:
        host = _build_single_app_host(args)
        if host is None:
            return 2
    end_s = args.duration
    if host.clock.now >= end_s:
        print(f"nothing to do: snapshot is already at "
              f"t={host.clock.now:.0f}s >= --duration {end_s:.0f}s",
              file=sys.stderr)
        return 2
    while host.clock.now < end_s:
        if args.checkpoint_every is not None:
            chunk = min(args.checkpoint_every, end_s - host.clock.now)
        else:
            chunk = end_s - host.clock.now
        host.run(chunk)
        if args.checkpoint_every is not None:
            digest = save_snapshot(host, args.checkpoint_path)
            print(f"checkpoint at t={host.clock.now:.0f}s -> "
                  f"{args.checkpoint_path} (digest {digest[:16]})")
    print(f"done at t={host.clock.now:.0f}s; metrics digest "
          f"{metrics_digest(host.metrics)}")
    return 0


def _run_chaos_verb(label, topology, configs, out=None, workers=1) -> int:
    """Run one storm per config through the one chaos driver; print
    each verdict, write the envelope to ``out`` if given."""
    import dataclasses
    import functools

    from repro.faults.chaos import (
        chaos_verdict_document,
        format_verdict,
        run_storm,
        write_chaos_verdicts,
    )

    run = functools.partial(run_storm, topology)
    if workers > 1 and len(configs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(workers, len(configs))
        ) as pool:
            verdicts = list(pool.map(run, configs))
    else:
        verdicts = [run(config) for config in configs]
    for verdict in verdicts:
        print(format_verdict(verdict, label))
    if out:
        provenance = dataclasses.asdict(configs[0])
        del provenance["seed"]  # per-verdict, not shared provenance
        write_chaos_verdicts(
            chaos_verdict_document(topology.mode, provenance, verdicts),
            out,
        )
        print(f"verdicts written to {out}")
    failures = sum(1 for verdict in verdicts if not verdict.passed)
    if failures:
        print(f"{failures}/{len(verdicts)} {label} runs FAILED",
              file=sys.stderr)
        return 1
    print(f"all {len(verdicts)} {label} runs passed")
    return 0


def _cmd_crash_equivalence(args) -> int:
    from repro.faults.chaos import HOST_TOPOLOGY, ChaosConfig

    configs = [
        ChaosConfig(
            seed=seed,
            duration_s=args.duration,
            supervised=True,
            controller_faults=args.controller_faults,
        )
        for seed in (args.seeds if args.seeds else [args.seed])
    ]
    return _run_chaos_verb(
        "crash-equivalence", HOST_TOPOLOGY, configs, workers=args.workers
    )


def _cmd_chaos(args) -> int:
    from repro.faults.chaos import (
        FLEET_TOPOLOGY,
        HOST_TOPOLOGY,
        ChaosConfig,
        FleetChaosConfig,
    )

    if args.fleet and args.fleetd:
        print("--fleet and --fleetd are mutually exclusive",
              file=sys.stderr)
        return 2
    seeds = args.seeds if args.seeds else [args.seed]
    # Each topology's config carries its own default duration.
    knobs = {} if args.duration is None else {"duration_s": args.duration}
    if args.fleet:
        label, topology = "fleet-chaos", FLEET_TOPOLOGY
        configs = [
            FleetChaosConfig(seed=seed, workers=args.workers,
                             worker_faults=args.worker_faults, **knobs)
            for seed in seeds
        ]
    elif args.fleetd:
        from repro.fleetd.chaos import FLEETD_TOPOLOGY, FleetdChaosConfig

        label, topology = "fleetd-chaos", FLEETD_TOPOLOGY
        configs = [
            FleetdChaosConfig(seed=seed,
                              controller_faults=args.controller_faults,
                              worker_faults=args.worker_faults, **knobs)
            for seed in seeds
        ]
    else:
        label, topology = "chaos", HOST_TOPOLOGY
        configs = [
            ChaosConfig(seed=seed, ram_gb=args.ram_gb, ncpu=args.ncpu,
                        extra_events=args.extra_events, **knobs)
            for seed in seeds
        ]
    out = args.out if args.out else f"chaos-{topology.mode}-verdict.json"
    return _run_chaos_verb(label, topology, configs, out=out)


def _cmd_fleet(args) -> int:
    """Run a fleet rollout and report savings — loudly when partial."""
    import math

    from repro.core.fleet import Fleet, HostPlan
    from repro.core.fleetres import FleetResilienceConfig
    from repro.workloads.apps import APP_CATALOG as catalog

    resilience = None
    knobs = (args.max_attempts, args.deadline_min_s,
             args.checkpoint_every_sim_s)
    if any(knob is not None for knob in knobs):
        # Only build an explicit config when a knob is set; the None
        # default keeps Fleet.run's fault-free fast path (retries on,
        # periodic spooling off).
        kwargs = {
            "checkpoint_every_s": (
                args.checkpoint_every_sim_s
                if args.checkpoint_every_sim_s is not None else math.inf
            ),
        }
        if args.max_attempts is not None:
            kwargs["max_attempts"] = args.max_attempts
        if args.deadline_min_s is not None:
            kwargs["deadline_min_s"] = args.deadline_min_s
        try:
            resilience = FleetResilienceConfig(**kwargs)
        except ValueError as exc:
            print(f"bad resilience knobs: {exc}", file=sys.stderr)
            return 2

    plans = []
    for app in args.apps:
        if app not in catalog:
            print(f"unknown app {app!r}; see `list-apps`",
                  file=sys.stderr)
            return 2
        plans.append(HostPlan(
            app=app, count=args.count, size_scale=args.size_scale,
        ))
    fleet = Fleet(
        base_config=HostConfig(
            ram_gb=args.ram_gb, ncpu=args.ncpu,
            page_size_bytes=args.page_mb * MB,
        ),
        seed=args.seed,
    )
    print(f"rolling out {sum(p.count for p in plans)} hosts "
          f"({', '.join(args.apps)}) for {args.duration:.0f}s "
          f"(workers {args.workers}) ...")
    result = fleet.run(plans, args.duration, workers=args.workers,
                       resilience=resilience)
    rows = [
        (app, f"{100 * result.app_savings(app):.1f}")
        for app in result.apps()
    ]
    rows.append(("— tax (of RAM)",
                 f"{100 * result.tax_savings_of_ram():.1f}"))
    rows.append(("— total (of RAM)",
                 f"{100 * result.total_savings_of_ram():.1f}"))
    print(format_table(["app", "savings %"], rows,
                       title="fleet savings"))
    if result.partial:
        print(
            f"WARNING: PARTIAL RESULT — only "
            f"{100 * result.completed_fraction:.0f}% of planned hosts "
            f"completed ({len(result.reports)}/{result.planned_hosts}); "
            "the savings above average the survivors only and are a "
            "biased estimate of the fleet.",
            file=sys.stderr,
        )
        for failed in result.failed_hosts:
            print(f"  quarantined: {failed.repro_hint()}",
                  file=sys.stderr)
        return 1
    print(f"all {result.planned_hosts} planned hosts completed "
          f"({result.recovered_hosts} recovered); merged digest "
          f"{result.merged_digest()[:16]}")
    return 0


def _parse_policy_args(kind, sets):
    """Build the wire-form policy from ``--policy KIND --set k=v ...``."""
    import json

    params = {}
    for item in sets or []:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ValueError(
                f"--set needs key=value, got {item!r}"
            )
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw
    from repro.fleetd.policy import PolicySpec

    return PolicySpec.make(kind, params).to_json()


def _cmd_fleetd(args) -> int:
    """``repro fleetd <verb>``: drive the control-plane daemon."""
    import json

    from repro.fleetd.client import FleetdClient, FleetdClientError
    from repro.fleetd.policy import PolicyError
    from repro.fleetd.rollout import parse_rollout_result

    if args.fleetd_command == "start":
        return _cmd_fleetd_start(args)

    client = FleetdClient(args.socket)
    try:
        if args.fleetd_command == "status":
            print(json.dumps(client.status(), indent=2, sort_keys=True))
        elif args.fleetd_command == "register":
            policy = (
                _parse_policy_args(args.policy, args.set)
                if args.policy is not None else None
            )
            entry = client.register(
                args.host_id, args.app, policy=policy,
                size_scale=args.size_scale,
                region=args.region,
            )
            print(f"registered {args.host_id}: "
                  f"{json.dumps(entry, sort_keys=True)}")
        elif args.fleetd_command == "deregister":
            client.deregister(args.host_id)
            print(f"deregistered {args.host_id}")
        elif args.fleetd_command == "rollout":
            policy = _parse_policy_args(args.policy, args.set)
            rollout_id = client.rollout(policy, hosts=args.hosts)
            print(f"rollout {rollout_id} queued: "
                  f"{json.dumps(policy, sort_keys=True)}")
            result = client.rollout_status(rollout_id)
            if args.wait:
                # Drive the daemon's simulated clock synchronously
                # instead of polling wall time: deterministic, and no
                # sleep in the CLI.
                spent = 0
                while result["status"] in ("pending", "running"):
                    if spent >= args.max_wait_ticks:
                        print(
                            f"rollout {rollout_id} still "
                            f"{result['status']} after {spent} ticks",
                            file=sys.stderr,
                        )
                        return 1
                    client.run_ticks(args.wait_step_ticks)
                    spent += args.wait_step_ticks
                    result = client.rollout_status(rollout_id)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(result, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                print(f"rollout result written to {args.out}")
            print(f"rollout {rollout_id}: {result['status']}"
                  + (f" ({result['rollback_reason']})"
                     if result.get("rollback_reason") else ""))
            if args.wait and result["status"] != "succeeded":
                return 1
        elif args.fleetd_command == "rollout-status":
            result = client.rollout_status(args.id)
            parse_rollout_result(result)
            print(json.dumps(result, indent=2, sort_keys=True))
        elif args.fleetd_command == "rollback":
            rolled = client.rollback()
            print("rolled back the active rollout" if rolled
                  else "no active rollout")
        elif args.fleetd_command == "kill-switch":
            killed = client.kill_switch()
            print(f"kill switch engaged: {killed} rollout(s) "
                  "reverted/killed; fleet frozen")
        elif args.fleetd_command == "reset-quarantine":
            reset = client.reset_quarantine(args.host_id)
            print(f"{args.host_id}: "
                  + ("controller un-quarantined and restarted"
                     if reset else "was not quarantined"))
        elif args.fleetd_command == "metrics":
            # Validated on read by the client (schema version, kind,
            # NaN-free) — a daemon/CLI version skew fails loudly here
            # instead of printing a half-foreign document.
            rollup = client.metrics(window_s=args.window)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(rollup, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                print(f"fleet rollup written to {args.out}")
            print(json.dumps(rollup, indent=2, sort_keys=True))
        elif args.fleetd_command == "top":
            report = client.top(
                args.signal, n=args.n, window_s=args.window
            )
            print(json.dumps(report, indent=2, sort_keys=True))
        elif args.fleetd_command == "run":
            tick = client.run_ticks(args.ticks)
            print(f"advanced to tick {tick}")
        elif args.fleetd_command == "stop":
            client.stop()
            print("fleetd stopping")
    except (FleetdClientError, PolicyError, ValueError) as exc:
        print(f"fleetd: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_fleetd_start(args) -> int:
    """``repro fleetd start``: run the daemon on a Unix socket."""
    from repro.core.supervisor import SupervisorConfig
    from repro.fleetd.engine import FleetdConfig, FleetdEngine
    from repro.fleetd.health import HealthGateConfig
    from repro.fleetd.rollout import RolloutConfig
    from repro.fleetd.server import FleetdServer

    try:
        rollout = RolloutConfig(
            canary_frac=args.canary_frac,
            wave_frac=args.wave_frac,
            baseline_s=args.baseline_s,
            soak_s=args.soak_s,
            gate=HealthGateConfig(),
        )
    except ValueError as exc:
        print(f"bad rollout knobs: {exc}", file=sys.stderr)
        return 2
    engine = FleetdEngine(FleetdConfig(
        seed=args.seed,
        base_config=HostConfig(
            ram_gb=args.ram_gb, ncpu=args.ncpu,
            page_size_bytes=args.page_mb * MB,
        ),
        supervisor=SupervisorConfig(),
        rollout=rollout,
        checkpoint_every_s=args.checkpoint_every,
        spool_dir=args.spool_dir,
    ))
    server = FleetdServer(
        engine, args.socket, tick_interval_s=args.tick_interval,
    )
    print(f"fleetd listening on {args.socket} "
          f"(seed {args.seed}, tick every {args.tick_interval}s); "
          "stop with `repro fleetd stop` or SIGINT")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    finally:
        engine.close()
    print("fleetd stopped")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TMO (ASPLOS '22) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="show the application catalog")
    sub.add_parser("list-ssds", help="show the SSD device catalog")
    sub.add_parser("cost-table", help="show Figure 1's cost trends")

    run = sub.add_parser("run-host",
                         help="simulate one host under Senpai")
    run.add_argument("--app", default="Feed",
                     help="application name (see list-apps)")
    run.add_argument("--backend", default=None,
                     choices=["zswap", "ssd", "tiered", "none"],
                     help="offload backend (default: app's preference)")
    run.add_argument("--duration", type=float, default=1800.0,
                     help="simulated seconds (default 1800)")
    run.add_argument("--ram-gb", type=float, default=4.0)
    run.add_argument("--ncpu", type=int, default=16)
    run.add_argument("--page-mb", type=int, default=1,
                     help="simulated page granularity in MiB")
    run.add_argument("--size-scale", type=float, default=0.05,
                     help="fraction of the production footprint")
    run.add_argument("--seed", type=int, default=1234)

    ckpt = sub.add_parser(
        "run",
        help="checkpointed long run: snapshot periodically, resume "
             "a killed run bit-identically",
    )
    ckpt.add_argument("--app", default="Feed",
                      help="application name (ignored with --resume)")
    ckpt.add_argument("--backend", default=None,
                      choices=["zswap", "ssd", "tiered", "none"])
    ckpt.add_argument("--duration", type=float, default=1800.0,
                      help="total simulated seconds, including any "
                           "already covered by a resumed snapshot")
    ckpt.add_argument("--ram-gb", type=float, default=4.0)
    ckpt.add_argument("--ncpu", type=int, default=16)
    ckpt.add_argument("--page-mb", type=int, default=1)
    ckpt.add_argument("--size-scale", type=float, default=0.05)
    ckpt.add_argument("--seed", type=int, default=1234)
    ckpt.add_argument("--checkpoint-every", type=float, default=None,
                      metavar="N",
                      help="snapshot every N simulated seconds")
    ckpt.add_argument("--checkpoint-path",
                      default="tmo-checkpoint.json",
                      help="where snapshots are written")
    ckpt.add_argument("--resume", default=None, metavar="PATH",
                      help="restore this snapshot and continue")

    ab = sub.add_parser(
        "run-ab", help="A/B two backends on identically seeded hosts"
    )
    ab.add_argument("--app", default="Feed")
    ab.add_argument("--control", default="none",
                    choices=["zswap", "ssd", "tiered", "nvm", "cxl",
                             "none"])
    ab.add_argument("--treatment", default="zswap",
                    choices=["zswap", "ssd", "tiered", "nvm", "cxl",
                             "none"])
    ab.add_argument("--duration", type=float, default=1800.0)
    ab.add_argument("--ram-gb", type=float, default=4.0)
    ab.add_argument("--ncpu", type=int, default=16)
    ab.add_argument("--page-mb", type=int, default=1)
    ab.add_argument("--size-scale", type=float, default=0.05)
    ab.add_argument("--seed", type=int, default=1234)

    chaos = sub.add_parser(
        "chaos",
        help="run seeded fault-injection scenarios under invariants",
    )
    chaos.add_argument("--seed", type=int, default=1,
                       help="seed for a single run (ignored with --seeds)")
    chaos.add_argument("--seeds", type=int, nargs="+", default=None,
                       help="sweep several seeds; nonzero exit on any FAIL")
    chaos.add_argument("--duration", type=float, default=None,
                       help="simulated seconds per run (default 900; "
                            "240 with --fleet, 420 with --fleetd)")
    chaos.add_argument("--ram-gb", type=float, default=1.0)
    chaos.add_argument("--ncpu", type=int, default=8)
    chaos.add_argument("--extra-events", type=int, default=6,
                       help="random fault windows beyond the guaranteed "
                            "breaker storm")
    chaos.add_argument("--fleet", action="store_true",
                       help="storm a parallel fleet with worker "
                            "crash/hang/slow faults and assert the "
                            "graceful-degradation verdict")
    chaos.add_argument("--fleetd", action="store_true",
                       help="storm the fleetd control plane: guarded "
                            "rollouts under controller/worker faults, "
                            "kill switch, deterministic digests")
    chaos.add_argument("--workers", type=int, default=3,
                       help="worker processes for --fleet (default 3)")
    chaos.add_argument("--worker-faults", type=int, default=3,
                       help="worker fault events per --fleet/--fleetd "
                            "storm (default 3)")
    chaos.add_argument("--controller-faults", type=int, default=3,
                       help="controller fault events per --fleetd "
                            "storm (default 3)")
    chaos.add_argument("--out", default=None, metavar="PATH",
                       help="where the versioned verdict JSON is "
                            "written (default chaos-host-verdict.json, "
                            "chaos-fleet-verdict.json with --fleet, "
                            "chaos-fleetd-verdict.json with --fleetd)")

    fleet = sub.add_parser(
        "fleet",
        help="run a fleet rollout through the resilience runtime and "
             "report per-app savings",
    )
    fleet.add_argument("--apps", nargs="+",
                       default=["Feed", "Web", "Cache"],
                       help="applications to roll out (see list-apps)")
    fleet.add_argument("--count", type=int, default=2,
                       help="hosts per application (default 2)")
    fleet.add_argument("--duration", type=float, default=600.0,
                       help="simulated seconds per host (default 600)")
    fleet.add_argument("--ram-gb", type=float, default=1.0)
    fleet.add_argument("--ncpu", type=int, default=8)
    fleet.add_argument("--page-mb", type=int, default=1)
    fleet.add_argument("--size-scale", type=float, default=0.01,
                       help="fraction of the production footprint")
    fleet.add_argument("--seed", type=int, default=7)
    fleet.add_argument("--workers", type=int, default=1,
                       help="worker processes (default 1: serial)")
    fleet.add_argument("--max-attempts", type=int, default=None,
                       help="resilience: tries per host before "
                            "quarantine (default 3)")
    fleet.add_argument("--deadline-min-s", type=float, default=None,
                       help="resilience: floor on the per-host "
                            "wall-clock deadline (default 60)")
    fleet.add_argument("--checkpoint-every-sim-s", type=float,
                       default=None, metavar="N",
                       help="resilience: spool a snapshot every N "
                            "simulated seconds so retries resume "
                            "instead of rerunning (default: off)")

    fleetd = sub.add_parser(
        "fleetd",
        help="the fleet control-plane daemon: live host registration "
             "and guarded policy rollouts over a Unix socket",
    )
    fleetd_sub = fleetd.add_subparsers(dest="fleetd_command",
                                       required=True)

    fd_start = fleetd_sub.add_parser(
        "start", help="run the daemon (blocks until `fleetd stop`)"
    )
    fd_start.add_argument("--socket", default="tmo-fleetd.sock",
                          help="Unix socket path "
                               "(default tmo-fleetd.sock)")
    fd_start.add_argument("--seed", type=int, default=7)
    fd_start.add_argument("--ram-gb", type=float, default=0.25,
                          help="RAM per registered host (default 0.25)")
    fd_start.add_argument("--ncpu", type=int, default=4)
    fd_start.add_argument("--page-mb", type=int, default=1)
    fd_start.add_argument("--tick-interval", type=float, default=0.05,
                          help="wall seconds per simulated tick "
                               "(default 0.05)")
    fd_start.add_argument("--checkpoint-every", type=float,
                          default=60.0, metavar="N",
                          help="spool host snapshots every N simulated "
                               "seconds (default 60)")
    fd_start.add_argument("--spool-dir", default=None,
                          help="snapshot spool directory (default: a "
                               "private temporary directory)")
    fd_start.add_argument("--canary-frac", type=float, default=0.25,
                          help="fraction of hosts in the canary wave")
    fd_start.add_argument("--wave-frac", type=float, default=0.5,
                          help="fraction of remaining hosts per wave")
    fd_start.add_argument("--baseline-s", type=float, default=60.0,
                          help="pre-rollout baseline window "
                               "(simulated seconds)")
    fd_start.add_argument("--soak-s", type=float, default=60.0,
                          help="soak time before each wave's health "
                               "gate (simulated seconds)")

    def _fd_client_parser(name, help_text):
        p = fleetd_sub.add_parser(name, help=help_text)
        p.add_argument("--socket", default="tmo-fleetd.sock",
                       help="daemon socket path "
                            "(default tmo-fleetd.sock)")
        return p

    _fd_client_parser("status", "print the daemon's fleet status JSON")

    fd_reg = _fd_client_parser(
        "register", "admit a host into the running fleet"
    )
    fd_reg.add_argument("host_id", help="new host id ([A-Za-z0-9._-])")
    fd_reg.add_argument("--app", default="Feed",
                        help="application (see list-apps)")
    fd_reg.add_argument("--policy", default=None,
                        choices=["senpai", "autotune", "gswap"],
                        help="initial policy (default: the fleet's "
                             "committed policy)")
    fd_reg.add_argument("--set", action="append", metavar="K=V",
                        help="policy parameter (repeatable)")
    fd_reg.add_argument("--size-scale", type=float, default=0.003,
                        help="fraction of the production footprint")
    fd_reg.add_argument("--region", default="default",
                        help="placement region label; rollups fold "
                             "host -> region -> fleet and wave "
                             "planning never makes one region "
                             "all-canary (default: 'default')")

    fd_dereg = _fd_client_parser(
        "deregister", "remove a host from the fleet"
    )
    fd_dereg.add_argument("host_id")

    fd_roll = _fd_client_parser(
        "rollout", "start a guarded policy rollout"
    )
    fd_roll.add_argument("--policy", required=True,
                         choices=["senpai", "autotune", "gswap"])
    fd_roll.add_argument("--set", action="append", metavar="K=V",
                         help="policy parameter (repeatable)")
    fd_roll.add_argument("--hosts", nargs="+", default=None,
                         help="target hosts (default: whole fleet)")
    fd_roll.add_argument("--wait", action="store_true",
                         help="drive simulated ticks until the rollout "
                              "reaches a terminal state; exit nonzero "
                              "unless it succeeded")
    fd_roll.add_argument("--max-wait-ticks", type=int, default=5000,
                         help="tick budget for --wait (default 5000)")
    fd_roll.add_argument("--wait-step-ticks", type=int, default=50,
                         help="ticks advanced per --wait poll "
                              "(default 50)")
    fd_roll.add_argument("--out", default=None, metavar="PATH",
                         help="write the RolloutResult JSON envelope "
                              "here")

    fd_rs = _fd_client_parser(
        "rollout-status", "print one rollout's RolloutResult envelope"
    )
    fd_rs.add_argument("--id", type=int, required=True,
                       help="rollout id")

    _fd_client_parser("rollback",
                      "abort the active rollout, reverting its hosts")
    _fd_client_parser("kill-switch",
                      "revert every in-flight rollout and freeze the "
                      "fleet")

    fd_rq = _fd_client_parser(
        "reset-quarantine",
        "manually un-quarantine a host's supervised controller",
    )
    fd_rq.add_argument("host_id")

    fd_metrics = _fd_client_parser(
        "metrics",
        "print the read-only host/region/fleet metric rollup envelope",
    )
    fd_metrics.add_argument("--window", type=float, default=60.0,
                            help="trailing window per host "
                                 "(simulated seconds, default 60)")
    fd_metrics.add_argument("--out", default=None, metavar="PATH",
                            help="also write the validated envelope "
                                 "here (the CI artifact)")

    fd_top = _fd_client_parser(
        "top", "rank hosts by a rollup signal's window mean"
    )
    fd_top.add_argument("--signal", default="psi_mem_some",
                        help="signal to rank by (psi_mem_some, "
                             "psi_io_some, refault_rate, "
                             "promotion_rate, swap_bytes, zswap_bytes)")
    fd_top.add_argument("-n", type=int, default=5,
                        help="how many hosts (default 5)")
    fd_top.add_argument("--window", type=float, default=60.0,
                        help="trailing window per host "
                             "(simulated seconds, default 60)")

    fd_run = _fd_client_parser(
        "run", "advance the daemon's simulated clock synchronously"
    )
    fd_run.add_argument("--ticks", type=int, default=60,
                        help="ticks to advance (default 60)")

    _fd_client_parser("stop", "shut the daemon down cleanly")

    ce = sub.add_parser(
        "crash-equivalence",
        help="assert checkpoint -> kill -> restore -> continue matches "
             "the uninterrupted run digest-for-digest",
    )
    ce.add_argument("--seed", type=int, default=1,
                    help="seed for a single run (ignored with --seeds)")
    ce.add_argument("--seeds", type=int, nargs="+", default=None,
                    help="sweep several seeds; nonzero exit on any FAIL")
    ce.add_argument("--duration", type=float, default=600.0,
                    help="simulated seconds per run (default 600)")
    ce.add_argument("--controller-faults", type=int, default=2,
                    help="controller crash/hang events injected against "
                         "the supervised controller")
    ce.add_argument("--workers", type=int, default=1,
                    help="run a --seeds sweep across this many worker "
                         "processes (default 1: serial)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list-apps": _cmd_list_apps,
        "list-ssds": _cmd_list_ssds,
        "cost-table": _cmd_cost_table,
        "run-host": _cmd_run_host,
        "run": _cmd_run,
        "run-ab": _cmd_run_ab,
        "chaos": _cmd_chaos,
        "fleet": _cmd_fleet,
        "fleetd": _cmd_fleetd,
        "crash-equivalence": _cmd_crash_equivalence,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
