"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list-apps`` — the application catalog with its published
  characteristics.
* ``list-ssds`` — the Figure 5 device catalog.
* ``run`` — simulate one host under Senpai and report savings;
  ``--checkpoint-every N`` snapshots periodically, ``--resume PATH``
  continues a killed run bit-identically (see docs/RESILIENCE.md,
  "Recovery").
* ``cost-table`` — the Figure 1 hardware cost trends.
* ``chaos`` — seeded fault storms through the one chaos driver (see
  docs/RESILIENCE.md, "Chaos"): a chaos host by default, a parallel
  fleet with worker crash/hang/slow faults under ``--fleet``, the
  control plane's guarded rollouts under ``--fleetd``. Every storm is
  judged on determinism, query-neutrality and crash-equivalence plus
  its topology's graceful-degradation checks, and the verdicts are
  written as one versioned JSON envelope. ``--controller-faults N``
  runs the host's Senpai under its Supervisor, so the kill and
  restore land while controllers crash and hang. A storm flag the
  chosen topology does not read is refused (exit 2).
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

The benchmark is ``perfbench/`` with its CI gate
``benchmarks/perfbench_pairs.py --check`` (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.costs import cost_table
from repro.analysis.reporting import format_table
from repro.backends.ssd import SSD_CATALOG
from repro.core.fleet import build_app_host, cgroup_memory_savings
from repro.core.senpai import Senpai, SenpaiConfig
from repro.psi.types import Resource
from repro.sim.host import Host, HostConfig
from repro.workloads.apps import APP_CATALOG

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


def _known_app(app: str) -> bool:
    if app in APP_CATALOG:
        return True
    print(f"unknown app {app!r}; see `list-apps`", file=sys.stderr)
    return False


def _single_app_host(args, backend: str) -> Host:
    """The ``run``/``run-ab`` host: the fleet recipe without tax
    sidecars, under Senpai unless ``backend`` is ``"none"``."""
    offloading = backend != "none"
    config = HostConfig(
        ram_gb=args.ram_gb,
        ncpu=args.ncpu,
        page_size_bytes=args.page_mb * MB,
        backend=backend if offloading else None,
        seed=args.seed,
    )
    return build_app_host(
        config, args.app, args.size_scale, include_tax=False,
        controller=Senpai(SenpaiConfig()) if offloading else None,
    )


def _cmd_run_ab(args) -> int:
    from repro.sim.ab import ABTest

    if not _known_app(args.app):
        return 2

    print(f"A/B: {args.app!r} — control={args.control!r} vs "
          f"treatment={args.treatment!r}, {args.duration:.0f}s ...")
    report = ABTest(
        control=lambda: _single_app_host(args, args.control),
        treatment=lambda: _single_app_host(args, args.treatment),
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


def _print_results(host: Host) -> None:
    """The app container's savings and pressure, as one table."""
    cg = host.mm.cgroup("app")
    stats = cgroup_memory_savings(host.mm, "app")
    mem = host.psi.group("app").sample(Resource.MEMORY, host.clock.now)
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


def _cmd_run(args) -> int:
    from repro.checkpoint import SnapshotError, load_snapshot, save_snapshot
    from repro.sim.metrics import metrics_digest

    if args.checkpoint_every is not None and not args.checkpoint_every > 0:
        print(f"--checkpoint-every must be positive, got "
              f"{args.checkpoint_every:g}", file=sys.stderr)
        return 2
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
        if not _known_app(args.app):
            return 2
        backend = args.backend or APP_CATALOG[args.app].preferred_backend
        host = _single_app_host(args, backend)
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
    digest = metrics_digest(host.metrics)
    _print_results(host)
    print(f"done at t={host.clock.now:.0f}s; metrics digest {digest}")
    return 0


def _run_chaos_verb(label, topology, configs, out) -> int:
    """Run one storm per config through the one chaos driver; print
    each verdict and write the envelope to ``out``."""
    import dataclasses

    from repro.faults.chaos import (
        chaos_verdict_document,
        format_verdict,
        run_storm,
        write_chaos_verdicts,
    )

    verdicts = [run_storm(topology, config) for config in configs]
    for verdict in verdicts:
        print(format_verdict(verdict, label))
    provenance = dataclasses.asdict(configs[0])
    del provenance["seed"]  # per-verdict, not shared provenance
    write_chaos_verdicts(
        chaos_verdict_document(topology.mode, provenance, verdicts), out
    )
    print(f"verdicts written to {out}")
    failures = sum(1 for verdict in verdicts if not verdict.passed)
    if failures:
        print(f"{failures}/{len(verdicts)} {label} runs FAILED",
              file=sys.stderr)
        return 1
    print(f"all {len(verdicts)} {label} runs passed")
    return 0


#: The storm flags each chaos topology reads (argparse dests, named as
#: the config fields they set). A flag the chosen topology does not
#: read is refused, not dropped.
_CHAOS_FLAGS = {
    "host": ("ram_gb", "ncpu", "extra_events", "controller_faults"),
    "fleet": ("workers", "worker_faults"),
    "fleetd": ("controller_faults", "worker_faults"),
}


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
    if args.fleetd:
        from repro.fleetd.chaos import FLEETD_TOPOLOGY, FleetdChaosConfig

        topology, config_type = FLEETD_TOPOLOGY, FleetdChaosConfig
    elif args.fleet:
        topology, config_type = FLEET_TOPOLOGY, FleetChaosConfig
    else:
        topology, config_type = HOST_TOPOLOGY, ChaosConfig
    reads = _CHAOS_FLAGS[topology.mode]
    refused = [
        "--" + dest.replace("_", "-")
        for dest in dict.fromkeys(sum(_CHAOS_FLAGS.values(), ()))
        if dest not in reads and getattr(args, dest) is not None
    ]
    if refused:
        print(f"{', '.join(refused)}: not read by a {topology.mode} storm",
              file=sys.stderr)
        return 2
    # A flag left unset keeps its config's own default.
    knobs = {
        dest: getattr(args, dest) for dest in reads
        if getattr(args, dest) is not None
    }
    if args.duration is not None:
        knobs["duration_s"] = args.duration
    configs = [
        config_type(seed=seed, **knobs)
        for seed in (args.seeds if args.seeds else [args.seed])
    ]
    label = "chaos" if topology.mode == "host" else f"{topology.mode}-chaos"
    out = args.out if args.out else f"chaos-{topology.mode}-verdict.json"
    return _run_chaos_verb(label, topology, configs, out)


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


#: The printed line of each client verb that does not print its result
#: as JSON, from its parsed arguments and its result.
_FLEETD_SAYS = {
    "register": lambda args, entry:
        f"registered {args.host_id}: {json.dumps(entry, sort_keys=True)}",
    "deregister": lambda args, host_id: f"deregistered {host_id}",
    "rollback": lambda args, rolled:
        "rolled back the active rollout" if rolled else "no active rollout",
    "kill-switch": lambda args, killed:
        f"kill switch engaged: {killed} rollout(s) reverted/killed; "
        "fleet frozen",
    "run": lambda args, tick: f"advanced to tick {tick}",
    "stop": lambda args, stopping: "fleetd stopping",
}


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_fleetd(args) -> int:
    """``repro fleetd <verb>``: drive the control-plane daemon."""
    from repro.fleetd.client import FleetdClient, FleetdClientError
    from repro.fleetd.policy import PolicyError
    from repro.fleetd.rollout import parse_rollout_result
    from repro.fleetd.verbs import VERBS

    if args.fleetd_command == "start":
        return _cmd_fleetd_start(args)

    verb = VERBS[args.fleetd_command]
    client = FleetdClient(args.socket)
    try:
        params = {p.name: getattr(args, p.name) for p in verb.params}
        if params.get("policy") is not None:
            params["policy"] = _parse_policy_args(args.policy, args.set)
        result = client.call(verb.name, **params)
        if verb.name == "rollout":
            return _fleetd_rollout(client, args, params["policy"], result)
        if verb.name == "rollout-status":
            parse_rollout_result(result)
        if verb.name == "metrics" and args.out:
            _write_json(args.out, result)
            print(f"fleet rollup written to {args.out}")
        say = _FLEETD_SAYS.get(verb.name)
        print(say(args, result) if say
              else json.dumps(result, indent=2, sort_keys=True))
    except (FleetdClientError, PolicyError, ValueError) as exc:
        print(f"fleetd: {exc}", file=sys.stderr)
        return 1
    return 0


def _fleetd_rollout(client, args, policy, rollout_id) -> int:
    """``fleetd rollout``: with ``--wait``, drive ticks until it ends."""
    print(f"rollout {rollout_id} queued: {json.dumps(policy, sort_keys=True)}")
    result = client.rollout_status(rollout_id)
    if args.wait:
        # Drive the daemon's simulated clock synchronously instead of
        # polling wall time: deterministic, and no sleep in the CLI.
        spent = 0
        while result["status"] in ("pending", "running"):
            if spent >= args.max_wait_ticks:
                print(f"rollout {rollout_id} still {result['status']} "
                      f"after {spent} ticks", file=sys.stderr)
                return 1
            client.run_ticks(args.wait_step_ticks)
            spent += args.wait_step_ticks
            result = client.rollout_status(rollout_id)
    if args.out:
        _write_json(args.out, result)
        print(f"rollout result written to {args.out}")
    print(f"rollout {rollout_id}: {result['status']}"
          + (f" ({result['rollback_reason']})"
             if result.get("rollback_reason") else ""))
    return 1 if args.wait and result["status"] != "succeeded" else 0


def _cmd_fleetd_start(args) -> int:
    """``repro fleetd start``: run the daemon on a Unix socket."""
    from repro.core.supervisor import SupervisorConfig
    from repro.fleetd.engine import FleetdConfig, FleetdEngine
    from repro.fleetd.rollout import RolloutConfig
    from repro.fleetd.server import FleetdServer

    try:
        rollout = RolloutConfig(
            canary_frac=args.canary_frac,
            wave_frac=args.wave_frac,
            baseline_s=args.baseline_s,
            soak_s=args.soak_s,
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


def _fleetd_verb_parsers(fleetd_sub) -> None:
    """One ``repro fleetd`` sub-parser per row of the verb table."""
    from repro.fleetd.policy import POLICY_KINDS
    from repro.fleetd.verbs import REQUIRED, VERBS

    parsers = {}
    for verb in VERBS.values():
        p = parsers[verb.name] = fleetd_sub.add_parser(
            verb.name, help=verb.help)
        p.add_argument("--socket", default="tmo-fleetd.sock",
                       help="daemon socket path (default tmo-fleetd.sock)")
        for param in verb.params:
            required = param.default is REQUIRED
            if param.type is dict:  # from --policy KIND --set k=v
                p.add_argument("--policy", required=required,
                               choices=list(POLICY_KINDS), help=param.help)
                p.add_argument("--set", action="append", metavar="K=V",
                               help="policy parameter (repeatable)")
            elif param.flag.startswith("-"):
                p.add_argument(
                    param.flag, dest=param.name, required=required,
                    default=None if required else param.default,
                    type=param.type if param.type in (int, float) else None,
                    nargs="+" if param.type is list else None,
                    help=param.help,
                )
            else:
                p.add_argument(param.flag, help=param.help)
    rollout = parsers["rollout"]
    rollout.add_argument("--wait", action="store_true",
                         help="drive simulated ticks until the rollout "
                              "reaches a terminal state; exit nonzero "
                              "unless it succeeded")
    rollout.add_argument("--max-wait-ticks", type=int, default=5000,
                         help="tick budget for --wait (default 5000)")
    rollout.add_argument("--wait-step-ticks", type=int, default=50,
                         help="ticks advanced per --wait poll "
                              "(default 50)")
    rollout.add_argument("--out", default=None, metavar="PATH",
                         help="write the RolloutResult JSON envelope "
                              "here")
    parsers["metrics"].add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the validated envelope here (the CI artifact)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TMO (ASPLOS '22) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="show the application catalog")
    sub.add_parser("list-ssds", help="show the SSD device catalog")
    sub.add_parser("cost-table", help="show Figure 1's cost trends")

    ckpt = sub.add_parser(
        "run",
        help="simulate one host under Senpai and report savings; "
             "optionally snapshot periodically and resume a killed run "
             "bit-identically",
    )
    ckpt.add_argument("--app", default="Feed",
                      help="application name (see list-apps; ignored "
                           "with --resume)")
    ckpt.add_argument("--backend", default=None,
                      choices=["zswap", "ssd", "tiered", "none"],
                      help="offload backend (default: app's preference)")
    ckpt.add_argument("--duration", type=float, default=1800.0,
                      help="total simulated seconds, including any "
                           "already covered by a resumed snapshot "
                           "(default 1800)")
    ckpt.add_argument("--ram-gb", type=float, default=4.0)
    ckpt.add_argument("--ncpu", type=int, default=16)
    ckpt.add_argument("--page-mb", type=int, default=1,
                      help="simulated page granularity in MiB")
    ckpt.add_argument("--size-scale", type=float, default=0.05,
                      help="fraction of the production footprint")
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
    chaos.add_argument("--ram-gb", type=float, default=None,
                       help="host RAM (default 1; host storm only)")
    chaos.add_argument("--ncpu", type=int, default=None,
                       help="host CPUs (default 8; host storm only)")
    chaos.add_argument("--extra-events", type=int, default=None,
                       help="random fault windows beyond the guaranteed "
                            "breaker storm (default 6; host storm only)")
    chaos.add_argument("--fleet", action="store_true",
                       help="storm a parallel fleet with worker "
                            "crash/hang/slow faults and assert the "
                            "graceful-degradation verdict")
    chaos.add_argument("--fleetd", action="store_true",
                       help="storm the fleetd control plane: guarded "
                            "rollouts under controller/worker faults, "
                            "kill switch, deterministic digests")
    chaos.add_argument("--workers", type=int, default=None,
                       help="worker processes for --fleet (default 3)")
    chaos.add_argument("--worker-faults", type=int, default=None,
                       help="worker fault events per --fleet/--fleetd "
                            "storm (default 3)")
    chaos.add_argument("--controller-faults", type=int, default=None,
                       help="controller crash/hang events per storm "
                            "(default 0 for a host, 3 with --fleetd); "
                            "above 0 a host's Senpai runs supervised")
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

    _fleetd_verb_parsers(fleetd_sub)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list-apps": _cmd_list_apps,
        "list-ssds": _cmd_list_ssds,
        "cost-table": _cmd_cost_table,
        "run": _cmd_run,
        "run-ab": _cmd_run_ab,
        "chaos": _cmd_chaos,
        "fleet": _cmd_fleet,
        "fleetd": _cmd_fleetd,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
