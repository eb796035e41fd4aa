"""Supervisor: crash/hang detection, capped-backoff restart, metrics.

Covers the watchdog three ways: direct polls against a scripted
controller (state-machine precision), injected ``controller_crash`` /
``controller_hang`` faults through the full host loop (the acceptance
scenario: recovery visible in ``supervisor/*`` metrics), and the
restart-from-persisted-state contract.
"""

import pytest

from repro.core.senpai import Senpai, SenpaiConfig
from repro.core.supervisor import (
    ControllerFaultState,
    Supervisor,
    SupervisorConfig,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.sim.host import Host, HostConfig
from repro.workloads.web import WebWorkload

MB = 1 << 20


def make_host(seed: int = 21) -> Host:
    host = Host(HostConfig(
        ram_gb=1.0, page_size_bytes=1 * MB, ncpu=8,
        backend="ssd", seed=seed,
    ))
    host.add_workload(WebWorkload, name="app", size_scale=0.01)
    return host


def controller_plan(*events: FaultEvent) -> FaultPlan:
    return FaultPlan(seed=0, duration_s=600.0, events=tuple(events))


def crash_event(start_s: float) -> FaultEvent:
    return FaultEvent(kind="controller_crash", target="controller",
                      start_s=start_s, duration_s=0.0, severity=1.0)


def hang_event(start_s: float, duration_s: float) -> FaultEvent:
    return FaultEvent(kind="controller_hang", target="controller",
                      start_s=start_s, duration_s=duration_s,
                      severity=1.0)


def boom(host, now):
    raise RuntimeError("controller bug")


class PatchableSenpai(Senpai):
    """A Senpai whose ``poll`` a test may replace on the instance.

    ``poll`` is declared transient, so the supervisor can still persist
    the instance, and a restart decodes a fresh one whose ``poll`` is
    the healthy method again.
    """

    __transient__ = ("poll",)


def failing_senpai() -> Senpai:
    """A real (hence persistable) Senpai whose every poll raises.

    The instance attribute shadows the method. A restart decodes a
    fresh, healthy instance — tests re-arm it when the failure must
    persist across restarts.
    """
    senpai = PatchableSenpai(SenpaiConfig(interval_s=30.0))
    senpai.poll = boom
    return senpai


# ----------------------------------------------------------------------
# fault seam semantics


def test_clear_preserves_crash_pending():
    state = ControllerFaultState(crash_pending=True, hung=True)
    state.clear()
    assert state.crash_pending is True  # instant-driven, consumed once
    assert state.hung is False  # window-driven, recomputed per poll


# ----------------------------------------------------------------------
# end-to-end: injected faults through the host loop


def test_supervisor_restarts_a_crashed_controller():
    host = make_host()
    host.add_controller(FaultInjector(controller_plan(crash_event(100.0))))
    sup = host.add_controller(Supervisor(
        Senpai(SenpaiConfig(interval_s=30.0)),
        SupervisorConfig(restart_backoff_s=10.0),
    ))
    host.run(300.0)

    assert sup.crash_count == 1
    assert sup.restart_count == 1
    assert sup.alive is True
    crashes = host.metrics.series("supervisor/crashes")
    assert list(crashes.values) == [1.0]
    restarts = host.metrics.series("supervisor/restarts")
    assert list(restarts.values) == [1.0]
    # The restart happened after the configured backoff.
    assert restarts.times[0] >= crashes.times[0] + 10.0
    # The alive gauge dipped to 0 during the outage and recovered.
    alive = host.metrics.series("supervisor/alive")
    assert 0.0 in alive.values
    assert alive.values[-1] == 1.0


def test_supervisor_kills_and_restarts_a_hung_controller():
    host = make_host()
    host.add_controller(FaultInjector(controller_plan(
        hang_event(100.0, 60.0)
    )))
    sup = host.add_controller(Supervisor(
        Senpai(SenpaiConfig(interval_s=30.0)),
        SupervisorConfig(hang_timeout_s=30.0, restart_backoff_s=10.0),
    ))
    host.run(300.0)

    assert sup.hang_kill_count >= 1
    assert sup.restart_count >= 1
    assert sup.alive is True
    hang_kills = host.metrics.series("supervisor/hang_kills")
    assert hang_kills.last() >= 1.0
    assert "supervisor/restarts" in host.metrics.names()
    alive = host.metrics.series("supervisor/alive")
    assert alive.values[-1] == 1.0


def test_controller_fault_without_supervisor_is_skipped():
    host = make_host()
    injector = host.add_controller(FaultInjector(controller_plan(
        crash_event(100.0)
    )))
    host.add_controller(Senpai(SenpaiConfig(interval_s=30.0)))
    host.run(300.0)
    # No supervised controller exposes the seam: the event is counted
    # as skipped rather than silently dropped.
    assert injector.skipped == 1
    assert "supervisor/crashes" not in host.metrics.names()


# ----------------------------------------------------------------------
# state machine: direct polls


def test_backoff_doubles_and_caps_per_consecutive_death():
    host = make_host()
    sup = Supervisor(failing_senpai(), SupervisorConfig(
        restart_backoff_s=10.0, restart_backoff_max_s=40.0,
    ))
    sup.poll(host, 0.0)  # raises inside -> dead
    assert sup.alive is False
    assert sup._restart_at_s == 10.0
    sup.poll(host, 5.0)  # backoff not elapsed: stays dead
    assert sup.alive is False
    sup.poll(host, 10.0)  # restart (restarts never delegate in-poll)
    assert sup.alive is True
    sup.controller.poll = boom  # re-arm the decoded replacement
    sup.poll(host, 11.0)  # dies again: the wait has doubled
    assert sup._restart_at_s == 11.0 + 20.0
    sup.poll(host, 31.0)  # restart
    sup.controller.poll = boom
    sup.poll(host, 32.0)
    assert sup._restart_at_s == 32.0 + 40.0
    sup.poll(host, 72.0)  # restart
    sup.controller.poll = boom
    sup.poll(host, 73.0)
    assert sup._restart_at_s == 73.0 + 40.0  # capped
    assert sup.crash_count == 4
    assert sup.restart_count == 3


def test_successful_poll_resets_the_backoff():
    host = make_host()
    sup = Supervisor(
        Senpai(SenpaiConfig(interval_s=30.0)),
        SupervisorConfig(restart_backoff_s=10.0,
                         restart_backoff_max_s=40.0),
    )
    sup.faults.crash_pending = True
    sup.poll(host, 0.0)  # die: backoff escalates to 20
    sup.poll(host, 10.0)  # restart
    sup.poll(host, 11.0)  # healthy poll resets the ladder
    assert sup.alive is True
    sup.faults.crash_pending = True
    sup.poll(host, 12.0)
    assert sup._restart_at_s == 12.0 + 10.0


def test_hang_kill_waits_for_the_timeout():
    host = make_host()
    sup = Supervisor(
        Senpai(SenpaiConfig(interval_s=30.0)),
        SupervisorConfig(hang_timeout_s=30.0),
    )
    sup.poll(host, 0.0)  # healthy: heartbeat at 0
    sup.faults.hung = True
    sup.poll(host, 20.0)  # stale 20s < 30s: still alive, no inner poll
    assert sup.alive is True
    sup.poll(host, 30.0)  # stale 30s: killed
    assert sup.alive is False
    assert sup.hang_kill_count == 1


def test_restart_resumes_from_the_last_persisted_state():
    host = make_host()
    inner = Senpai(SenpaiConfig(interval_s=30.0))
    sup = Supervisor(inner, SupervisorConfig(
        persist_interval_s=30.0, restart_backoff_s=10.0,
    ))
    sup.poll(host, 0.0)  # first poll persists before delegating
    inner.stale_skips = 7  # in-memory-only mutation after the persist
    sup.faults.crash_pending = True
    sup.poll(host, 10.0)  # dies before the next persist window
    sup.poll(host, 20.0)  # restart from the t=0 snapshot
    assert sup.alive is True
    assert sup.controller is not inner  # a fresh instance...
    assert isinstance(sup.controller, Senpai)
    assert sup.controller.stale_skips == 0  # ...without the lost state


def test_inner_poll_exception_does_not_escape():
    host = make_host()
    polls = []
    senpai = PatchableSenpai(SenpaiConfig(interval_s=30.0))

    def tracked_boom(inner_host, now):
        polls.append(now)
        raise RuntimeError("controller bug")

    senpai.poll = tracked_boom
    sup = Supervisor(senpai, SupervisorConfig())
    sup.poll(host, 0.0)  # must not raise
    assert polls == [0.0]
    assert sup.alive is False
    assert sup.crash_count == 1


# ----------------------------------------------------------------------
# no restart budget: a supervised controller always comes back


def test_restarts_after_every_death_with_a_capped_doubling_backoff():
    """Every death schedules a restart; the wait doubles per
    consecutive death up to ``restart_backoff_max_s`` and drops back
    to ``restart_backoff_s`` after one healthy poll."""
    host = make_host()
    sup = Supervisor(failing_senpai(), SupervisorConfig(
        restart_backoff_s=1.0, restart_backoff_max_s=8.0,
    ))
    now = 0.0
    waits = []
    for _ in range(8):
        sup.controller.poll = boom  # re-arm the decoded replacement
        sup.poll(host, now)  # death
        assert sup.alive is False
        waits.append(sup._restart_at_s - now)
        now = sup._restart_at_s
        sup.poll(host, now)  # restart
        assert sup.alive is True
    assert waits == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0, 8.0, 8.0]
    assert sup.crash_count == sup.restart_count == 8
    sup.poll(host, now + 1.0)  # healthy: the ladder resets
    sup.controller.poll = boom
    sup.poll(host, now + 2.0)
    assert sup._restart_at_s == now + 2.0 + 1.0
    sup.poll(host, now + 1000.0)
    assert sup.alive is True and sup.restart_count == 9


# ----------------------------------------------------------------------
# live controller swap (the control plane's seam; see repro.fleetd)


def test_replace_controller_resets_watchdog_bookkeeping():
    host = make_host()
    sup = Supervisor(
        Senpai(SenpaiConfig(interval_s=30.0)),
        SupervisorConfig(restart_backoff_s=10.0),
    )
    sup.poll(host, 0.0)
    replacement = Senpai(SenpaiConfig(interval_s=5.0))
    sup.replace_controller(replacement)
    assert sup.controller is replacement
    assert sup._persisted is None
    assert sup._last_heartbeat_s is None
    assert sup.alive  # liveness is untouched by a policy swap
    # The replacement polls normally from here on.
    sup.poll(host, 1.0)
    assert sup.alive


def test_replace_controller_does_not_revive_a_dead_controller():
    """A policy swap on a dead controller leaves it dead until its
    pending restart, which brings up the replacement (the swap dropped
    the old instance's persisted state)."""
    host = make_host()
    sup = Supervisor(failing_senpai(), SupervisorConfig(
        restart_backoff_s=10.0,
    ))
    sup.poll(host, 0.0)  # death: restart due at 10
    replacement = Senpai(SenpaiConfig())
    sup.replace_controller(replacement)
    sup.poll(host, 5.0)
    assert not sup.alive
    sup.poll(host, 10.0)  # restart
    assert sup.alive and sup.controller is replacement
