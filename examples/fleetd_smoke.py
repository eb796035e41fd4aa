"""Control-plane smoke: boot fleetd, roll a fleet forward and back.

Starts the fleetd daemon on a private Unix socket, registers three
hosts, then exercises both legs of the guarded-rollout state machine
(docs/RESILIENCE.md, "Control plane"):

* a healthy rollout to the auto-tuner that passes every wave's health
  gate and commits, and
* a deliberately bad policy (unreachable pressure target, huge reclaim
  step) whose canary trips the gate — the engine auto-rolls the canary
  back from its pre-apply checkpoint and every controller stays up, and
* the read-only query surface against the live daemon: ``metrics``
  (host → region → fleet rollup envelope, validated on read, NaN-free)
  and ``top`` (hosts ranked by a signal), with regions on the
  registered hosts.

The envelopes are written next to the working directory (CI uploads
them as artifacts):

    fleetd-rollout-pass.json
    fleetd-rollout-tripped.json
    fleetd-rollup-fleet.json

Run:  python examples/fleetd_smoke.py
"""

import json
import sys
import tempfile

from repro.fleetd.client import FleetdClient
from repro.fleetd.engine import FleetdConfig, FleetdEngine
from repro.fleetd.rollout import RolloutConfig, parse_rollout_result
from repro.fleetd.rollup import parse_fleet_rollup
from repro.fleetd.server import FleetdServer
from repro.sim.host import HostConfig

MB = 1 << 20

#: A policy the health gate must reject: an unreachable pressure
#: target with an enormous, rapid reclaim step, so the canary's PSI
#: and refault rate blow past the gate's baseline-anchored limits
#: within the soak window (same shape as the chaos storm's
#: ``repro.fleetd.chaos.BAD_POLICY``).
BAD_POLICY = {
    "kind": "senpai",
    "params": {
        "psi_threshold": 10.0,
        "reclaim_ratio": 0.5,
        "max_step_frac": 0.5,
        "interval_s": 2.0,
    },
}


def drive_to_terminal(client, rollout_id, max_ticks=2000):
    """Advance simulated time until the rollout reaches a terminal
    state — the `run` verb keeps the smoke deterministic (no wall
    clock, no polling)."""
    spent = 0
    result = client.rollout_status(rollout_id)
    while result["status"] in ("pending", "running"):
        if spent >= max_ticks:
            raise RuntimeError(
                f"rollout {rollout_id} still {result['status']} "
                f"after {spent} ticks"
            )
        client.run_ticks(50)
        spent += 50
        result = client.rollout_status(rollout_id)
    return result


def write_artifact(path, result):
    parse_rollout_result(result)  # validate the envelope before archiving
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"  wrote {path}")


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="fleetd-smoke-")
    engine = FleetdEngine(FleetdConfig(
        seed=11,
        base_config=HostConfig(
            ram_gb=0.25, page_size_bytes=1 * MB, ncpu=4,
        ),
        rollout=RolloutConfig(
            canary_frac=0.34, wave_frac=1.0,
            baseline_s=20.0, soak_s=20.0,
        ),
        checkpoint_every_s=15.0,
        spool_dir=f"{workdir}/spool",
    ))
    server = FleetdServer(
        engine, f"{workdir}/fleetd.sock", tick_interval_s=5.0,
    )
    server.start()
    client = FleetdClient(server.socket_path)
    try:
        print(f"fleetd up on {server.socket_path}")
        regions = ["east", "west", "east"]
        for i, app in enumerate(["Feed", "Web", "Feed"]):
            client.register(
                f"h{i}", app, size_scale=0.003, region=regions[i]
            )
        print("registered 3 hosts across 2 regions; "
              "warming the fleet ...")
        client.run_ticks(25)

        print("rollout 1: autotune across the fleet (guarded waves)")
        good = drive_to_terminal(
            client, client.rollout({"kind": "autotune", "params": {}})
        )
        assert good["status"] == "succeeded", good
        assert all(w["passed"] for w in good["waves"])
        write_artifact("fleetd-rollout-pass.json", good)
        print(f"  succeeded in {len(good['waves'])} wave(s)")

        print("rollout 2: a bad policy the health gate must catch")
        bad = drive_to_terminal(client, client.rollout(BAD_POLICY))
        assert bad["status"] == "rolled_back", bad
        assert len(bad["waves"]) == 1  # only the canary saw it
        write_artifact("fleetd-rollout-tripped.json", bad)
        print(f"  gate tripped: {bad['rollback_reason']}")

        print("query surface: metrics + top against the live daemon")
        rollup = client.metrics(window_s=30.0)  # validated on read
        parse_fleet_rollup(rollup)  # and again before archiving
        assert rollup["fleet"]["hosts"] == 3, rollup["fleet"]
        assert set(rollup["regions"]) == {"east", "west"}, (
            rollup["regions"]
        )
        assert rollup["fleet"]["signals"]["psi_mem_some"]["samples"] \
            > 0, rollup["fleet"]["signals"]
        with open("fleetd-rollup-fleet.json", "w",
                  encoding="utf-8") as fh:
            json.dump(rollup, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("  wrote fleetd-rollup-fleet.json")
        top = client.top("psi_mem_some", n=3, window_s=30.0)
        assert len(top["hosts"]) == 3, top
        leader = top["hosts"][0]
        print(f"  top psi_mem_some: {leader['host_id']} "
              f"({leader['region']}) mean={leader['mean']}")

        status = client.status()
        committed = status["committed_policy"]
        assert committed["kind"] == "autotune", committed
        down = [
            h["host_id"] for h in status["hosts"] if not h["alive"]
        ]
        assert not down, down
        print("fleet converged on the committed policy "
              f"({committed['kind']}), every controller alive")

        client.stop()
        print("fleetd stopped cleanly")
        return 0
    finally:
        server.stop()
        engine.close()


if __name__ == "__main__":
    sys.exit(main())
