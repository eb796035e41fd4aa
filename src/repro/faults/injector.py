"""The fault injector: replays a :class:`~repro.faults.plan.FaultPlan`.

The injector is an ordinary host controller (install it *first*, so
real controllers observe the faulted world within the same tick). Each
poll it walks the plan, fires instantaneous events whose time has come,
toggles windowed faults on their activation/deactivation edges, and
recomputes the public fault seams from the currently-active set:

* device windows → :class:`~repro.backends.device.DeviceFaultState` on
  the swap and filesystem backends;
* ``psi_freeze`` → :meth:`PsiSystem.freeze_telemetry` plus the
  control-file pressure cache (both telemetry surfaces stick);
* ``malformed_pressure`` / ``controlfs_error`` →
  :class:`~repro.kernel.controlfs.ControlFsFaultState`;
* ``restart`` / ``spike`` / ``wear`` → the host's public workload and
  wear hooks;
* ``controller_crash`` / ``controller_hang`` →
  :class:`~repro.core.supervisor.ControllerFaultState` on supervised
  controllers.

Every edge is recorded on the host metrics as ``faults/<kind>``
(1.0 on activation, 0.0 on deactivation) and the number of active
windows as ``faults/active``, so a metrics dump alone shows exactly
what was injected and when. The injector draws no randomness of its
own — determinism lives entirely in the plan.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.faults.plan import FaultEvent, FaultPlan


def _device_fault_states(backend) -> List:
    """All DeviceFaultState seams reachable from one backend.

    Tiered backends expose both tiers; queued-device backends expose
    the device's state; zswap exposes its own.
    """
    states = []
    if backend is None:
        return states
    seen: Set[int] = set()

    def visit(node) -> None:
        if node is None or id(node) in seen:
            return
        seen.add(id(node))
        faults = getattr(node, "faults", None)
        if faults is not None and hasattr(faults, "io_error_rate"):
            states.append(faults)
        for attr in ("device", "zswap", "ssd"):
            visit(getattr(node, attr, None))

    visit(backend)
    return states


def _controller_fault_states(host) -> List:
    """All ControllerFaultState seams among the host's controllers.

    Supervised controllers expose a ``faults`` seam with a ``hung``
    flag (see :class:`~repro.core.supervisor.ControllerFaultState`);
    unsupervised ones have no seam and cannot be crash/hang targets.
    """
    states = []
    for controller in host.controllers():
        faults = getattr(controller, "faults", None)
        if faults is not None and hasattr(faults, "hung"):
            states.append(faults)
    return states


class FaultInjector:
    """Applies a fault plan to a running host; a controller."""

    __state__ = ("plan", "_active", "_fired", "injected", "skipped")
    plan: FaultPlan
    _active: Set[int]
    _fired: Set[int]
    injected: Dict[str, int]

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._active = set()
        self._fired = set()
        #: Injections per kind (activations and instant firings).
        self.injected = {}
        #: Instant events dropped because their target was gone.
        self.skipped = 0

    # ------------------------------------------------------------------

    def _record_edge(self, host, ev: FaultEvent, now: float,
                     value: float) -> None:
        host.metrics.record(f"faults/{ev.kind}", now, value)

    def _count(self, ev: FaultEvent) -> None:
        self.injected[ev.kind] = self.injected.get(ev.kind, 0) + 1

    def _fire_instant(self, host, ev: FaultEvent, now: float) -> None:
        """Apply one instantaneous event through the public hooks."""
        if ev.kind == "restart":
            if host.has_workload(ev.target):
                host.restart_workload(ev.target)
            else:
                self.skipped += 1
                return
        elif ev.kind == "spike":
            if host.has_workload(ev.target):
                host.spike_workload(ev.target, ev.severity)
            else:
                self.skipped += 1
                return
        elif ev.kind == "controller_crash":
            seams = _controller_fault_states(host)
            if not seams:
                self.skipped += 1
                return
            for seam in seams:
                seam.crash_pending = True
        else:  # wear
            applied = False
            for node in (host.swap_backend,
                         getattr(host.swap_backend, "ssd", None)):
                inject = getattr(node, "inject_wear", None)
                if inject is not None:
                    budget = node.spec.endurance_pbw * 1e15
                    inject(int(ev.severity * budget))
                    applied = True
                    break
            if not applied:
                self.skipped += 1
                return
        self._count(ev)
        self._record_edge(host, ev, now, 1.0)

    # ------------------------------------------------------------------

    def _apply_windows(self, host, active: List[FaultEvent],
                       now: float) -> None:
        """Recompute every fault seam from the active window set.

        Stateless recomputation (clear, then fold each active window
        in schedule order) makes overlapping windows compose without
        order bugs and guarantees full recovery when the set empties.
        """
        swap_states = _device_fault_states(host.swap_backend)
        fs_states = _device_fault_states(host.fs)
        for state in swap_states + fs_states:
            state.clear()
        controlfs = host.controlfs
        controlfs.faults.clear()
        controller_states = _controller_fault_states(host)
        for state in controller_states:
            # clear() resets only the window-driven hang flag; a
            # crash_pending set by an instant in this same poll survives.
            state.clear()
        freeze = False

        for ev in active:
            if ev.kind in ("io_error", "brownout", "outage"):
                targets = swap_states if ev.target == "swap" else fs_states
                for state in targets:
                    if ev.kind == "io_error":
                        state.io_error_rate = max(
                            state.io_error_rate, ev.severity
                        )
                    elif ev.kind == "brownout":
                        state.latency_multiplier *= 1.0 + 9.0 * ev.severity
                    else:
                        state.available = False
            elif ev.kind == "psi_freeze":
                freeze = True
            elif ev.kind == "malformed_pressure":
                controlfs.faults.malformed_pressure = True
            elif ev.kind == "controlfs_error":
                controlfs.faults.error_on_read = True
                controlfs.faults.error_on_write = True
            elif ev.kind == "controller_hang":
                for state in controller_states:
                    state.hung = True

        if freeze:
            host.psi.freeze_telemetry(now)
            controlfs.faults.frozen_pressure = True
        elif host.psi.telemetry_frozen:
            host.psi.thaw_telemetry()

    # ------------------------------------------------------------------

    def poll(self, host, now: float) -> None:
        edges = False
        for idx, ev in enumerate(self.plan.events):
            if ev.instant:
                if idx not in self._fired and now >= ev.start_s:
                    self._fired.add(idx)
                    self._fire_instant(host, ev, now)
                continue
            is_active = ev.active(now)
            was_active = idx in self._active
            if is_active and not was_active:
                self._active.add(idx)
                self._count(ev)
                self._record_edge(host, ev, now, 1.0)
                edges = True
            elif was_active and not is_active:
                self._active.discard(idx)
                self._record_edge(host, ev, now, 0.0)
                edges = True
        if edges:
            active = [
                ev for idx, ev in enumerate(self.plan.events)
                if idx in self._active
            ]
            self._apply_windows(host, active, now)
        host.metrics.record("faults/active", now, float(len(self._active)))
