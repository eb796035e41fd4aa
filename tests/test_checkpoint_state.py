"""The declared-state walker: whole-graph round trips and refusals.

After snapshot -> dump -> parse -> restore, every declared attribute of
every object reachable from the host must come back equal — same
types, same dict order, same sharing — across every backend, every
snapshotable controller, the Web/Tax/Diurnal workloads and a chaos
host. And an attribute a class does not declare must stop a snapshot
before anything is written, naming ``Class.attr``.
"""

import enum

import numpy as np
import pytest

from repro.checkpoint import SnapshotError
from repro.checkpoint.snapshot import dump_envelope, parse_document
from repro.checkpoint.state import declared_state
from repro.core.autotune import AutoTuneConfig, AutoTuneSenpai
from repro.core.daemon import SenpaiDaemon, SenpaiDaemonConfig
from repro.core.gswap import GSwapConfig, GSwapController
from repro.core.oomd import Oomd, OomdConfig
from repro.core.senpai import Senpai, SenpaiConfig
from repro.core.supervisor import Supervisor, SupervisorConfig
from repro.faults.chaos import ChaosConfig, build_chaos_host
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim.host import Host, HostConfig
from repro.sim.metrics import metrics_digest
from repro.workloads.apps import APP_CATALOG
from repro.workloads.diurnal import DiurnalWorkload
from repro.workloads.tax import TaxWorkload
from repro.workloads.trace import RecordingWorkload
from repro.workloads.web import WebWorkload

MB = 1 << 20
_SCALARS = (bool, int, float, str, type(None), enum.Enum, np.generic)


def assert_same_state(a, b, path="host", pairs=None):
    """Deep-compare two object graphs through their declared state."""
    pairs = {} if pairs is None else pairs
    if isinstance(a, _SCALARS):
        assert a == b or (a != a and b != b), f"{path}: {a!r} != {b!r}"
        if not isinstance(a, np.generic):
            assert type(a) is type(b), f"{path}: {type(a)} vs {type(b)}"
        return
    assert type(a) is type(b), f"{path}: {type(a)} vs {type(b)}"
    if isinstance(a, np.random.Generator):
        assert a.bit_generator.state == b.bit_generator.state, path
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), path
    elif isinstance(a, dict):
        assert list(a) == list(b), f"{path}: keys or their order differ"
        for key in a:
            assert_same_state(a[key], b[key], f"{path}[{key!r}]", pairs)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_state(x, y, f"{path}[{i}]", pairs)
    elif isinstance(a, (set, frozenset)):
        assert a == b, path
    elif id(a) in pairs:
        # Shared once, shared again: the same partner every time.
        assert pairs[id(a)] is b, f"{path}: sharing differs"
    else:
        pairs[id(a)] = b
        if hasattr(a, "__snapshot__"):
            assert a.__snapshot__() == b.__snapshot__(), path
            return
        names = declared_state(type(a))
        assert names, f"{path}: {type(a).__name__} declares nothing"
        for name in names:
            assert_same_state(
                getattr(a, name), getattr(b, name), f"{path}.{name}", pairs
            )


def round_trip(host: Host) -> Host:
    text = dump_envelope(host.snapshot())
    return Host.restore(parse_document(text))


def check_round_trip(host: Host, ticks: int = 30) -> None:
    restored = round_trip(host)
    assert_same_state(host, restored)
    host.run(float(ticks))
    restored.run(float(ticks))
    assert metrics_digest(restored.metrics) == metrics_digest(host.metrics)


def small_host(backend="ssd", seed=11) -> Host:
    return Host(HostConfig(
        ram_gb=1.0, page_size_bytes=1 * MB, ncpu=8,
        backend=backend, seed=seed,
    ))


# ----------------------------------------------------------------------
# whole-graph round trips


@pytest.mark.parametrize(
    "backend", ["ssd", "zswap", "tiered", "nvm", "cxl", None]
)
def test_every_backend_round_trips(backend):
    host = small_host(backend)
    host.add_workload(WebWorkload, name="app", size_scale=0.01)
    host.add_controller(Senpai(SenpaiConfig(interval_s=30.0)))
    host.run(120.0)
    check_round_trip(host)


CONTROLLERS = {
    "Senpai": lambda: Senpai(SenpaiConfig(interval_s=12.0)),
    "AutoTuneSenpai": lambda: AutoTuneSenpai(AutoTuneConfig(
        base=SenpaiConfig(interval_s=12.0),
    )),
    "GSwap": lambda: GSwapController(GSwapConfig(interval_s=6.0)),
    "SenpaiDaemon": lambda: SenpaiDaemon(SenpaiDaemonConfig(
        interval_s=6.0, cgroups=("app",),
    )),
    "Oomd": lambda: Oomd(OomdConfig(interval_s=1.0)),
    "FaultInjector": lambda: FaultInjector(
        FaultPlan.generate(3, 240.0, cgroups=("app",))
    ),
    "Supervisor": lambda: Supervisor(
        AutoTuneSenpai(AutoTuneConfig(base=SenpaiConfig(interval_s=12.0))),
        SupervisorConfig(persist_interval_s=20.0),
    ),
}


@pytest.mark.parametrize("name", sorted(CONTROLLERS))
def test_every_controller_round_trips(name):
    host = small_host("zswap")
    host.add_workload(WebWorkload, name="app", size_scale=0.01)
    host.add_controller(CONTROLLERS[name]())
    host.run(120.0)
    check_round_trip(host)


WORKLOADS = {
    "Web": lambda host: host.add_workload(
        WebWorkload, name="app", size_scale=0.01,
    ),
    "Tax": lambda host: host.add_workload(
        TaxWorkload, name="app", size_scale=0.05, kind="Datacenter Tax",
    ),
    "Diurnal": lambda host: host.add_workload(
        DiurnalWorkload, profile=APP_CATALOG["Feed"], name="app",
        size_scale=0.01, period_s=90.0, amplitude=0.5,
        footprint_swing=0.5,
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_round_trips(name):
    host = small_host("ssd")
    WORKLOADS[name](host)
    host.add_controller(Senpai(SenpaiConfig(interval_s=12.0)))
    host.run(120.0)
    check_round_trip(host)


def test_chaos_host_round_trips():
    config = ChaosConfig(
        seed=5, duration_s=300.0, controller_faults=1,
    )
    host, _, _ = build_chaos_host(config)
    host.run(150.0)
    check_round_trip(host)


# ----------------------------------------------------------------------
# refusals


def test_undeclared_controller_attribute_is_refused_by_name():
    host = small_host()
    host.add_workload(WebWorkload, name="app", size_scale=0.01)
    senpai = host.add_controller(Senpai(SenpaiConfig(interval_s=30.0)))
    host.run(30.0)
    senpai.pending_boost = 2.0  # state no declaration knows about
    with pytest.raises(SnapshotError, match=r"Senpai\.pending_boost"):
        host.snapshot()


def test_trace_workload_is_refused_before_anything_is_written():
    host = small_host()
    host.add_workload(
        RecordingWorkload, profile=APP_CATALOG["Web"], name="app",
        size_scale=0.01,
    )
    host.run(10.0)
    with pytest.raises(SnapshotError, match=r"RecordingWorkload\."):
        host.snapshot()


def test_undeclared_controller_type_is_refused():
    class Custom:
        def poll(self, host, now):
            pass

    host = small_host()
    host.add_controller(Custom())
    with pytest.raises(SnapshotError, match="Custom declares no"):
        host.snapshot()
