"""Unit tests for the debug-mode runtime invariant checker.

Each corruption test reaches into a healthy host, breaks one of the
redundant state views directly, and asserts the checker names the
broken invariant — proving the checks would catch real accounting bugs
at the tick that introduces them.
"""

import pytest

from repro.kernel.page import PageKind
from repro.psi.types import Resource
from repro.sim.host import Host, HostConfig
from repro.sim.invariants import (
    ENV_FLAG,
    InvariantChecker,
    InvariantViolation,
    checking_enabled,
    env_enabled,
)
from repro.workloads.access import HeatBands
from repro.workloads.apps import AppProfile
from repro.workloads.base import Workload

from tests.helpers import small_host

MB = 1 << 20
_GB = 1 << 30


def checked_host(**kwargs) -> Host:
    host = small_host(check_invariants=True, **kwargs)
    profile = AppProfile(
        name="app",
        size_gb=400 * MB / _GB,
        anon_frac=0.6,
        bands=HeatBands(0.4, 0.1, 0.1),
        compress_ratio=3.0,
        nthreads=2,
        cpu_cores=1.0,
    )
    host.add_workload(Workload, profile=profile, name="app")
    return host


# ----------------------------------------------------------------------
# enablement plumbing


def test_disabled_by_default(monkeypatch):
    monkeypatch.delenv(ENV_FLAG, raising=False)
    assert small_host().invariants is None


def test_config_flag_enables():
    assert checked_host().invariants is not None


def test_env_flag_enables(monkeypatch):
    monkeypatch.setenv(ENV_FLAG, "1")
    assert small_host().invariants is not None
    monkeypatch.setenv(ENV_FLAG, "off")
    assert small_host().invariants is None


def test_config_flag_overrides_env(monkeypatch):
    monkeypatch.setenv(ENV_FLAG, "1")
    assert small_host(check_invariants=False).invariants is None
    monkeypatch.delenv(ENV_FLAG)
    assert small_host(check_invariants=True).invariants is not None


def test_env_parsing():
    assert env_enabled({ENV_FLAG: "true"})
    assert env_enabled({ENV_FLAG: " YES "})
    assert not env_enabled({ENV_FLAG: "0"})
    assert not env_enabled({})
    assert checking_enabled(None) == env_enabled()


# ----------------------------------------------------------------------
# a healthy host stays silent


def test_clean_run_raises_nothing():
    host = checked_host()
    host.run(20.0)  # every tick cross-checked
    assert host.clock.now == pytest.approx(20.0)


def test_clean_run_with_reclaim_pressure():
    # Small RAM forces offloading, exercising every page-state
    # transition under checking.
    host = checked_host(ram_gb=0.5)
    host.run(20.0)


# ----------------------------------------------------------------------
# corruption is caught


def test_catches_anon_counter_drift():
    host = checked_host()
    host.run(2.0)
    host.mm.cgroup("app").anon_bytes += host.mm.page_size_bytes
    with pytest.raises(InvariantViolation, match="anon_bytes"):
        host.step()


def test_catches_swap_counter_drift():
    host = checked_host()
    host.run(2.0)
    host.mm.cgroup("app").swap_bytes += host.mm.page_size_bytes
    with pytest.raises(InvariantViolation, match="swap_bytes"):
        host.step()


def test_catches_lru_membership_leak():
    host = checked_host()
    host.run(2.0)
    cgroup = host.mm.cgroup("app")
    # Drop one resident file page from its LRU without uncharging —
    # the classic "forgot to update the list" bug.
    table = host.mm.table
    victim = table.members(cgroup.index, PageKind.FILE, False)[0]
    table.unlink(victim)
    checker = host.invariants
    with pytest.raises(InvariantViolation, match="LRU"):
        checker.check_lru_accounting(host.mm)


def test_catches_negative_free_memory():
    host = checked_host()
    checker = host.invariants
    host.mm.ram_bytes = host.mm.used_bytes() - 1
    with pytest.raises(InvariantViolation, match="overcommitted"):
        checker.check_dram_budget(host.mm)


class _StubGroup:
    def __init__(self, name, sample):
        self.name = name
        self._sample = sample

    def sample(self, resource, now):
        return self._sample


class _StubPsi:
    def __init__(self, *groups):
        self._groups = list(groups)

    def groups(self):
        return list(self._groups)


def _sample(**overrides):
    from repro.psi.group import PressureSample

    fields = dict(
        resource=Resource.MEMORY,
        some_avg10=0.2, some_avg60=0.1, some_avg300=0.05,
        some_total=3.0,
        full_avg10=0.1, full_avg60=0.05, full_avg300=0.02,
        full_total=1.0,
    )
    fields.update(overrides)
    return PressureSample(**fields)


def test_catches_psi_fraction_out_of_range():
    checker = InvariantChecker()
    psi = _StubPsi(_StubGroup("g", _sample(some_avg10=1.5)))
    with pytest.raises(InvariantViolation, match="outside"):
        checker.check_psi(psi, now_s=1.0)


def test_catches_full_exceeding_some():
    checker = InvariantChecker()
    psi = _StubPsi(_StubGroup("g", _sample(full_avg10=0.9)))
    with pytest.raises(InvariantViolation, match="exceeds"):
        checker.check_psi(psi, now_s=1.0)


def test_catches_backwards_stall_total():
    checker = InvariantChecker()
    psi = _StubPsi(_StubGroup("g", _sample(some_total=5.0)))
    checker.check_psi(psi, now_s=1.0)
    psi = _StubPsi(_StubGroup("g", _sample(some_total=4.0)))
    with pytest.raises(InvariantViolation, match="backwards"):
        checker.check_psi(psi, now_s=2.0)


def test_violation_is_assertion_error():
    # So `pytest` and plain `assert`-aware tooling both catch it.
    assert issubclass(InvariantViolation, AssertionError)
