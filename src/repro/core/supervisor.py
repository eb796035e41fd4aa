"""Controller supervision: watchdog, capped-backoff restart, heartbeats.

TMO's controllers are deliberately stateless against the kernel —
Senpai can die and restart without corrupting anything (Section 3.3) —
but a dead controller silently stops applying pressure. The
:class:`Supervisor` wraps any controller (anything with
``poll(host, now)``) and plays the role of the init/systemd layer that
production daemons run under:

* **heartbeat**: every successful inner poll refreshes a heartbeat; a
  controller that stops making progress (the ``controller_hang`` fault)
  is detected once the heartbeat goes stale for ``hang_timeout_s`` and
  is killed.
* **crash detection**: an inner poll that raises — or an injected
  ``controller_crash`` fault — marks the controller dead.
* **restart with capped backoff**: a dead controller is restarted from
  its last persisted state snapshot after a backoff that doubles per
  consecutive death up to ``restart_backoff_max_s``, and resets once a
  poll succeeds again.
* **state persistence**: the inner controller's state is encoded
  (via :mod:`repro.checkpoint.state`) every
  ``persist_interval_s`` *before* polling, so a restart resumes from a
  consistent pre-crash state — the vcmmd-style persist-across-restart
  pattern.

A supervised controller is always restarted: because Senpai acts only
through the stateless ``memory.reclaim`` file, a restart is always
safe, and the capped backoff bounds how often a crash-looping
controller is retried.

Everything is observable through ``supervisor/*`` metrics: ``alive``
(gauge), ``crashes``, ``hang_kills`` and ``restarts`` (cumulative
counts recorded at each event edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.checkpoint.state import decode_state, encode_state


@dataclass(frozen=True)
class SupervisorConfig:
    """Watchdog tunables.

    Attributes:
        hang_timeout_s: heartbeat staleness after which a hung
            controller is killed.
        persist_interval_s: how often the inner controller's state is
            snapshotted for restart.
        restart_backoff_s: delay before the first restart attempt;
            doubles per consecutive death.
        restart_backoff_max_s: cap on the doubling backoff.
    """

    hang_timeout_s: float = 30.0
    persist_interval_s: float = 30.0
    restart_backoff_s: float = 10.0
    restart_backoff_max_s: float = 120.0


@dataclass
class ControllerFaultState:
    """The fault seam the injector toggles on a supervised controller.

    Mirrors ``DeviceFaultState``/``ControlFsFaultState``: plans stay
    declarative, the injector folds active events into this state, and
    the supervisor reads it.
    """

    #: A ``controller_crash`` instant fired: the next poll dies.
    crash_pending: bool = False
    #: A ``controller_hang`` window is active: polls make no progress.
    hung: bool = False

    def clear(self) -> None:
        """Reset window-driven seams (called on window recompute).

        ``crash_pending`` is instant-driven — set once, consumed once —
        so a window-edge recompute in the same injector poll must not
        drop it.
        """
        self.hung = False


class Supervisor:
    """Wraps a controller with crash/hang detection and restart."""

    __state__ = (
        "controller", "config", "faults", "alive", "crash_count",
        "hang_kill_count", "restart_count", "_last_heartbeat_s",
        "_next_persist_s", "_restart_at_s", "_backoff_s", "_persisted",
    )
    controller: object
    config: SupervisorConfig
    faults: ControllerFaultState
    _persisted: Any

    def __init__(
        self,
        controller: Any,
        config: SupervisorConfig = SupervisorConfig(),
    ) -> None:
        self.controller = controller
        self.config = config
        self.faults = ControllerFaultState()
        self.alive = True
        self.crash_count = 0
        self.hang_kill_count = 0
        self.restart_count = 0
        self._last_heartbeat_s: Optional[float] = None
        self._next_persist_s: Optional[float] = None
        self._restart_at_s: Optional[float] = None
        self._backoff_s = config.restart_backoff_s
        #: Last encoded state of the inner controller (a JSON document
        #: from repro.checkpoint.state); None until the first persist
        #: (which happens on the first poll, before the controller can
        #: die with unsaved state).
        self._persisted = None

    # ------------------------------------------------------------------

    def _persist(self, now: float) -> None:
        self._persisted = encode_state(self.controller)
        self._next_persist_s = now + self.config.persist_interval_s

    def _die(self, host, now: float, metric: str, count: int) -> None:
        self.alive = False
        self._restart_at_s = now + self._backoff_s
        self._backoff_s = min(
            self.config.restart_backoff_max_s, self._backoff_s * 2.0
        )
        host.metrics.record(metric, now, float(count))

    def _restart(self, host, now: float) -> None:
        if self._persisted is not None:
            # The crashed instance's in-memory state is gone; the
            # replacement resumes from the last persisted snapshot.
            self.controller = decode_state(self._persisted)
        self.alive = True
        self.restart_count += 1
        self._restart_at_s = None
        self._last_heartbeat_s = now
        self._next_persist_s = now + self.config.persist_interval_s
        host.metrics.record("supervisor/restarts", now,
                            float(self.restart_count))

    def _record(self, host, now: float) -> None:
        host.metrics.record("supervisor/alive", now,
                            1.0 if self.alive else 0.0)

    # ------------------------------------------------------------------
    # control-plane surface (repro.fleetd)

    def replace_controller(self, controller: Any) -> None:
        """Swap the supervised controller live (a policy rollout).

        The watchdog bookkeeping that belongs to the *old* instance —
        persisted state, heartbeat, backoff ladder — is reset so the
        replacement starts clean; liveness is left untouched (a dead
        controller's replacement comes up at the pending restart).
        """
        self.controller = controller
        self._persisted = None
        self._next_persist_s = None
        self._last_heartbeat_s = None
        self._backoff_s = self.config.restart_backoff_s

    # ------------------------------------------------------------------

    def poll(self, host, now: float) -> None:
        """One watchdog round: detect death, restart, or delegate."""
        if not self.alive:
            if self._restart_at_s is not None and now >= self._restart_at_s:
                self._restart(host, now)
            self._record(host, now)
            return
        if self.faults.crash_pending:
            self.faults.crash_pending = False
            self.crash_count += 1
            self._die(host, now, "supervisor/crashes", self.crash_count)
            self._record(host, now)
            return
        if self._last_heartbeat_s is None:
            self._last_heartbeat_s = now
        if self.faults.hung:
            # The controller is wedged: no inner poll, no heartbeat.
            stale_s = now - self._last_heartbeat_s
            if stale_s >= self.config.hang_timeout_s:
                self.hang_kill_count += 1
                self._die(host, now, "supervisor/hang_kills",
                          self.hang_kill_count)
            self._record(host, now)
            return
        if self._next_persist_s is None or now >= self._next_persist_s:
            self._persist(now)
        try:
            self.controller.poll(host, now)
        except Exception:
            self.crash_count += 1
            self._die(host, now, "supervisor/crashes", self.crash_count)
            self._record(host, now)
            return
        self._last_heartbeat_s = now
        self._backoff_s = self.config.restart_backoff_s
        self._record(host, now)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return (
            f"Supervisor({type(self.controller).__name__}, {state}, "
            f"crashes={self.crash_count}, hangs={self.hang_kill_count}, "
            f"restarts={self.restart_count})"
        )
