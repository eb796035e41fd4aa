"""End-to-end check of the deterministic-seeding design decision.

DESIGN.md promises: identical seeds => bit-identical runs, which is
what makes the A/B harness exact. These tests build two hosts from the
same config, run them independently, and compare every recorded metric
series for float-exact equality — then show a different seed actually
changes the numbers (so the first assertion is not vacuous).
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.core.senpai import Senpai, SenpaiConfig
from repro.workloads.access import HeatBands
from repro.workloads.apps import AppProfile
from repro.workloads.base import Workload

from tests.helpers import small_host

MB = 1 << 20
_GB = 1 << 30

RUN_S = 60.0


def build_host(seed: int):
    host = small_host(ram_gb=1.0, seed=seed)
    profile = AppProfile(
        name="app",
        size_gb=900 * MB / _GB,
        anon_frac=0.6,
        bands=HeatBands(0.3, 0.2, 0.1),
        compress_ratio=3.0,
        nthreads=2,
        cpu_cores=1.0,
    )
    host.add_workload(Workload, profile=profile, name="app")
    host.add_controller(Senpai(SenpaiConfig()))
    return host


def run_series(seed: int):
    host = build_host(seed)
    host.run(RUN_S)
    return {
        name: (
            tuple(host.metrics.series(name).times),
            tuple(host.metrics.series(name).values),
        )
        for name in host.metrics.names()
    }


def test_same_seed_is_bit_identical():
    a = run_series(seed=1234)
    b = run_series(seed=1234)
    assert sorted(a) == sorted(b)
    for name in a:
        # Tuple equality on floats is exact — no tolerance anywhere.
        assert a[name] == b[name], f"series {name!r} diverged"


def test_same_seed_offload_state_is_identical():
    ha, hb = build_host(seed=7), build_host(seed=7)
    ha.run(RUN_S)
    hb.run(RUN_S)
    cga, cgb = ha.mm.cgroup("app"), hb.mm.cgroup("app")
    assert cga.anon_bytes == cgb.anon_bytes
    assert cga.file_bytes == cgb.file_bytes
    assert cga.swap_bytes == cgb.swap_bytes
    assert cga.zswap_bytes == cgb.zswap_bytes
    assert ha.mm.free_bytes() == hb.mm.free_bytes()


def test_different_seed_diverges():
    a = run_series(seed=1234)
    b = run_series(seed=4321)
    assert sorted(a) == sorted(b)  # same metric names either way
    assert any(a[name] != b[name] for name in a), (
        "changing the seed changed nothing — the determinism test "
        "would be vacuous"
    )


def test_fleet_digests_are_worker_count_invariant():
    """The same promise, fleet-wide: fanning hosts over processes is a
    pure speedup. Per-host metric digests (SHA-256 over every series,
    see :func:`repro.sim.metrics.metrics_digest`) must be bit-identical
    whatever the worker count."""
    from repro.core.fleet import Fleet, HostPlan
    from repro.sim.host import HostConfig

    plans = [HostPlan(app="Feed", count=2, size_scale=0.003)]

    def digests(seed, workers):
        fleet = Fleet(
            base_config=HostConfig(
                ram_gb=0.25, page_size_bytes=1 * MB, ncpu=4,
            ),
            seed=seed,
        )
        result = fleet.run(plans, duration_s=60.0, workers=workers)
        assert not result.failed_hosts
        return [r.metrics_digest for r in result.reports]

    for seed in (1234, 4321):
        assert digests(seed, None) == digests(seed, 2)
    assert digests(1234, 2) != digests(4321, 2)


#: One Feed host with tax sidecars under Senpai, run in a fresh
#: interpreter; prints its metrics digest.
_DIGEST_SCRIPT = """
from repro.core.fleet import build_app_host
from repro.core.senpai import Senpai, SenpaiConfig
from repro.sim.host import HostConfig
from repro.sim.metrics import metrics_digest

config = HostConfig(ram_gb=0.25, page_size_bytes=1 << 20, seed=1234)
host = build_app_host(config, "Feed", 0.003, True, Senpai(SenpaiConfig()))
host.run(60.0)
print(metrics_digest(host.metrics))
"""


def _digest_under_hash_seed(hash_seed: str) -> str:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout.strip()


def test_digest_is_independent_of_the_interpreter_hash_seed():
    """Same seed, bit-identical run, across interpreters too.

    Forked workers inherit the parent's hash secret, so the in-process
    and parallel == serial checks cannot see a value that depends on
    ``hash()`` of a str, or on the iteration order of a set of str.
    Two fresh interpreters with different ``PYTHONHASHSEED`` can."""
    first = _digest_under_hash_seed("1")
    assert len(first) == 64
    assert first == _digest_under_hash_seed("2")
