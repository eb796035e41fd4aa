"""Fleet resilience runtime: deadlines, recovery, retry, quarantine.

TMO runs on millions of servers where individual hosts crash, hang and
slow down constantly; fleet-wide savings numbers are only trustworthy
because the deployment tolerates partial failure. This module is the
robustness layer :class:`repro.core.fleet.Fleet` executes through:

* **Deadlines** — every host unit of work gets a wall-clock budget
  derived from its simulated duration. A worker that blows it is killed
  and treated as hung, so a wedged worker can no longer stall a rollout.
* **Checkpoint-based recovery** — workers periodically spool a snapshot
  (the :mod:`repro.checkpoint` envelope) to a per-host file; a crashed
  or hung host is retried by restoring its latest valid snapshot and
  continuing. The codec's crash-equivalence guarantee (see
  docs/RESILIENCE.md, "Recovery") makes the recovered host's metric
  digest bit-identical to an uninterrupted run.
* **Retry budgets + quarantine** — each host gets capped
  exponential-backoff retries; after ``max_attempts`` failures it is
  quarantined as a structured :class:`~repro.core.fleet.FailedHost`
  (phase, attempts, derived seed, traceback tail).
* **Fault consumption** — the seed-derived ``worker_crash`` /
  ``worker_hang`` / ``worker_slow`` events of a
  :class:`~repro.faults.plan.FaultPlan` are fired here, at the runner
  level, not by the in-host injector: they model the *worker process*
  failing, not the simulated host.

Two execution paths share every other line of logic:

* **serial** (``in_process=True``): faults are cooperative —
  ``worker_crash``/``worker_hang`` raise a simulated-failure exception
  that the attempt loop treats exactly like a real worker death, with
  instant detection instead of a deadline wait;
* **parallel**: each attempt runs in its own ``multiprocessing``
  process (fork start method where available, so test monkeypatches
  propagate). ``worker_crash`` hard-exits the process, ``worker_hang``
  wedges it until the deadline kill.

This module legitimately reads the wall clock and sleeps: it
orchestrates *real* processes around the simulation, it is not part of
the simulation (the TMO002 lint exemption in ``repro.lint.config``
records this).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import sys
import time
import traceback
from dataclasses import dataclass, replace
from math import ceil, isfinite
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.checkpoint import SnapshotError, save_snapshot
# dump_envelope is no longer called here; it stays a module attribute
# because perfbench's layer table wraps fleetres.dump_envelope.
from repro.checkpoint.snapshot import dump_envelope, parse_document  # noqa: F401
from repro.faults.plan import FaultEvent
from repro.sim.host import Host
from repro.sim.rng import derive_seed

#: Exit code a parallel worker dies with when a ``worker_crash`` fault
#: fires (distinguishable from a genuine interpreter fault in logs).
CRASH_EXIT_CODE = 173

#: Scheduler poll interval while waiting on worker pipes (seconds).
_POLL_S = 0.02

#: Grace period between ``terminate()`` and ``kill()`` on a deadline
#: overrun (seconds).
_TERM_GRACE_S = 1.0


class SimulatedWorkerCrash(RuntimeError):
    """A ``worker_crash`` fault firing on the in-process (serial) path."""


class SimulatedWorkerHang(RuntimeError):
    """A ``worker_hang`` fault firing on the in-process (serial) path.

    Serial execution cannot literally wedge and be deadline-killed
    without stalling the whole rollout, so the hang is cooperative: it
    raises, and the attempt loop records the failure as hung — the same
    outcome the parallel path reaches via terminate-at-deadline.
    """


@dataclass(frozen=True)
class FleetResilienceConfig:
    """Policy knobs for one resilient fleet rollout.

    Attributes:
        max_attempts: total tries per host (first run + retries) before
            quarantine.
        retry_backoff_s: base delay before the first retry; doubles per
            subsequent failure.
        retry_backoff_max_s: cap on the backoff delay.
        deadline_min_s: floor on the per-host wall-clock budget.
        deadline_per_sim_s: wall-clock budget per simulated second; the
            deadline is ``max(deadline_min_s, duration_s * this)``.
        checkpoint_every_s: simulated-time interval between snapshot
            spools (rounded to whole ticks; at least one tick).
        slow_stall_s: wall-clock stall per unit severity when a
            ``worker_slow`` fault fires.
        spool_dir: directory for per-host snapshot spools; ``None``
            means the caller provisions a temporary directory.
    """

    max_attempts: int = 3
    retry_backoff_s: float = 0.05
    retry_backoff_max_s: float = 1.0
    deadline_min_s: float = 60.0
    deadline_per_sim_s: float = 0.5
    checkpoint_every_s: float = 60.0
    slow_stall_s: float = 1.0
    spool_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.retry_backoff_s < 0 or self.retry_backoff_max_s < 0:
            raise ValueError("retry backoffs must be >= 0")
        if self.deadline_min_s <= 0 or self.deadline_per_sim_s < 0:
            raise ValueError("deadline parameters must be positive")
        if self.checkpoint_every_s <= 0:
            raise ValueError(
                f"checkpoint_every_s must be > 0, "
                f"got {self.checkpoint_every_s}"
            )

    def deadline_s(self, duration_s: float) -> float:
        """Wall-clock budget for one attempt at a ``duration_s`` host."""
        return max(
            self.deadline_min_s, duration_s * self.deadline_per_sim_s
        )

    def backoff_s(self, failure_count: int) -> float:
        """Delay before the retry following failure ``failure_count``."""
        if failure_count < 1:
            return 0.0
        return min(
            self.retry_backoff_max_s,
            self.retry_backoff_s * (2.0 ** (failure_count - 1)),
        )


@dataclass(frozen=True)
class HostUnit:
    """One host's unit of work: everything an attempt needs, picklable.

    ``slot`` is the host's position in the fleet's canonical rollout
    order — the coordinate worker-level fault events target
    (``host:<slot>``). ``attempt`` is 1-based; fault events fire only on
    attempt 1, so a retry replays the surviving simulation state rather
    than re-injecting the process failure.
    """

    base_config: Any  # repro.sim.host.HostConfig (kept loose for pickle)
    fleet_seed: int
    plan: Any  # repro.core.fleet.HostPlan
    index: int
    slot: int
    duration_s: float
    spool_path: str
    checkpoint_every_s: float
    faults: Tuple[FaultEvent, ...] = ()
    attempt: int = 1
    slow_stall_s: float = 1.0

    @property
    def host_seed(self) -> int:
        """The derived seed this unit's host runs with."""
        return derive_seed(
            self.fleet_seed, f"host:{self.plan.app}:{self.index}"
        )


@dataclass(frozen=True)
class WorkerFailure:
    """One failed attempt, as observed by the scheduler.

    Attributes:
        phase: where the attempt died — ``"build"``, ``"run"`` or
            ``"measure"``.
        error: repr of the exception (or a synthesized description for
            process-level deaths).
        traceback_tail: last lines of the traceback, when one exists.
        hung: whether the failure was a hang (deadline kill or
            simulated hang) rather than a crash.
    """

    phase: str
    error: str
    traceback_tail: str = ""
    hung: bool = False


def _ticks_for(duration_s: float, tick_s: float) -> int:
    """Integer tick count for a duration — :meth:`Host.run`'s formula."""
    ratio = duration_s / tick_s
    nticks = int(ratio)
    if ratio - nticks > 1e-9 * max(1.0, ratio):
        nticks += 1
    return nticks


def _fire_tick(event: FaultEvent, tick_s: float) -> int:
    """The 1-based tick after which ``event`` fires.

    Aligned to the integer tick grid (never float accumulation): the
    event fires once the simulation clock first reaches or passes
    ``start_s``, i.e. after tick ``ceil(start_s / tick_s)``.
    """
    return max(1, ceil(event.start_s / tick_s))


def spool_snapshot(host: Host, path: str) -> None:
    """Atomically write ``host``'s snapshot envelope to ``path``.

    The spool seam over :func:`repro.checkpoint.save_snapshot`, which
    writes to ``path + ".tmp"`` then renames, so a worker dying
    mid-write can never leave a torn spool file: the previous valid
    snapshot (or absence of one) survives.
    """
    save_snapshot(host, path)


def load_spooled_snapshot(path: str) -> Optional[Host]:
    """Restore a host from its spool file, or ``None`` if impossible.

    Any failure — missing file, torn write, digest mismatch, schema
    refusal — degrades to ``None``: the caller falls back to a
    from-scratch rerun, which is always correct, just slower.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        return None
    try:
        return Host.restore(parse_document(text))
    except SnapshotError:
        return None


def _fire(event: FaultEvent, unit: HostUnit, in_process: bool) -> None:
    """Fire one worker-level fault event."""
    if event.kind == "worker_crash":
        if in_process:
            raise SimulatedWorkerCrash(
                f"worker_crash fault at t={event.start_s:.0f}s "
                f"(host slot {unit.slot})"
            )
        # A real worker death: no exception propagation, no cleanup,
        # no result ever sent. The scheduler observes a dead process.
        os._exit(CRASH_EXIT_CODE)
    if event.kind == "worker_hang":
        if in_process:
            raise SimulatedWorkerHang(
                f"worker_hang fault at t={event.start_s:.0f}s "
                f"(host slot {unit.slot})"
            )
        # Wedge until the deadline kill arrives.
        while True:  # pragma: no cover - killed externally
            time.sleep(3600.0)
    if event.kind == "worker_slow":
        time.sleep(event.severity * unit.slow_stall_s)
        return
    raise ValueError(f"not a worker fault kind: {event.kind!r}")


def _run_with_spool(host: Host, unit: HostUnit, in_process: bool) -> None:
    """Drive ``host`` to ``unit.duration_s``, spooling checkpoints.

    The loop is integer-tick driven (same formula as :meth:`Host.run`)
    and resume-aware: a restored host picks up at ``host.tick_count``
    and executes exactly the remaining ticks, so the completed tick
    sequence — and therefore every metric series — is identical to an
    uninterrupted run. Spools happen every ``checkpoint_every_s`` of
    simulated time, after any fault events at that tick have fired (a
    crash therefore never makes it into the snapshot that outlives it).
    """
    tick_s = host.config.tick_s
    total_ticks = _ticks_for(unit.duration_s, tick_s)
    if isfinite(unit.checkpoint_every_s):
        ckpt_ticks = max(1, int(round(unit.checkpoint_every_s / tick_s)))
    else:
        # Spooling disabled (Fleet.run's fault-free fast path): retries
        # rerun from scratch instead of restoring.
        ckpt_ticks = total_ticks + 1
    fire_at: Dict[int, List[FaultEvent]] = {}
    if unit.attempt == 1:
        for event in unit.faults:
            fire_at.setdefault(_fire_tick(event, tick_s), []).append(event)
    for t in range(host.tick_count + 1, total_ticks + 1):
        host.step()
        for event in fire_at.get(t, ()):
            _fire(event, unit, in_process)
        if t % ckpt_ticks == 0 and t < total_ticks:
            spool_snapshot(host, unit.spool_path)


def run_host_attempt(unit: HostUnit, in_process: bool = True):
    """One attempt at one host: build-or-restore, run, measure.

    Returns a :class:`~repro.core.fleet.HostReport` on success or a
    :class:`WorkerFailure` on any in-attempt exception (including the
    simulated serial-path faults). On the parallel path a
    ``worker_crash``/``worker_hang`` fault never returns at all — the
    process dies or wedges and the scheduler synthesizes the failure.
    """
    # Deferred: fleet.py imports this module for its runner.
    from repro.core.fleet import build_fleet_host, measure_fleet_host

    phase = "build"
    recovered = False
    try:
        host: Optional[Host] = None
        if unit.attempt > 1:
            host = load_spooled_snapshot(unit.spool_path)
            recovered = host is not None
        if host is None:
            host = build_fleet_host(
                unit.base_config, unit.fleet_seed, unit.plan, unit.index
            )
        phase = "run"
        _run_with_spool(host, unit, in_process)
        phase = "measure"
        report = measure_fleet_host(host, unit.plan, unit.index)
        report.attempts = unit.attempt
        report.recovered = recovered
        return report
    except SimulatedWorkerHang as exc:
        return WorkerFailure(phase=phase, error=repr(exc), hung=True)
    except SimulatedWorkerCrash as exc:
        return WorkerFailure(phase=phase, error=repr(exc), hung=False)
    except Exception as exc:
        tail = "".join(
            traceback.format_exception(
                type(exc), exc, exc.__traceback__
            )
        ).strip().splitlines()[-6:]
        return WorkerFailure(
            phase=phase, error=repr(exc),
            traceback_tail="\n".join(tail),
        )


def _worker_main(conn, unit: HostUnit) -> None:
    """Parallel worker entrypoint: run one attempt, pipe back the outcome.

    Looks ``run_host_attempt`` up through the module object so test
    monkeypatches (which the fork start method propagates) take effect
    in the child too.
    """
    import repro.core.fleetres as _self

    try:
        outcome = _self.run_host_attempt(unit, in_process=False)
        conn.send(outcome)
    except BaseException as exc:  # pragma: no cover - last-ditch guard
        try:
            conn.send(WorkerFailure(phase="run", error=repr(exc)))
        except Exception as send_exc:
            # The pipe is gone too; the parent will synthesize a
            # crash failure from the dead process. Leave a trace for
            # the operator's stderr.
            print(
                f"fleetres worker: result delivery failed "
                f"({send_exc!r}) after {exc!r}",
                file=sys.stderr,
            )
    finally:
        conn.close()


def _quarantine(unit: HostUnit, failures: Sequence[WorkerFailure]):
    """Build the structured quarantine record for an exhausted host."""
    from repro.core.fleet import FailedHost

    last = failures[-1]
    return FailedHost(
        app=unit.plan.app,
        host_index=unit.index,
        error=last.error,
        seed=unit.host_seed,
        phase=last.phase,
        attempts=len(failures),
        traceback_tail=last.traceback_tail,
        hung=last.hung,
    )


def _run_unit_serial(unit: HostUnit, config: FleetResilienceConfig):
    """The serial attempt loop: retry with backoff, then quarantine."""
    failures: List[WorkerFailure] = []
    for attempt in range(1, config.max_attempts + 1):
        outcome = run_host_attempt(
            replace(unit, attempt=attempt), in_process=True
        )
        if not isinstance(outcome, WorkerFailure):
            return outcome
        failures.append(outcome)
        if attempt < config.max_attempts:
            time.sleep(config.backoff_s(len(failures)))
    return _quarantine(unit, failures)


@dataclass
class _UnitState:
    """Parallel-scheduler bookkeeping for one host unit."""

    unit: HostUnit
    order: int
    attempt: int = 1
    ready_at: float = 0.0
    outcome: Any = None
    failures: Tuple[WorkerFailure, ...] = ()


def _mp_context():
    """Fork where available (monkeypatches propagate to children)."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _collect_outcome(proc, conn) -> Optional[Any]:
    """Drain a finished/living worker's pipe, if a result is waiting."""
    try:
        if conn.poll(0):
            return conn.recv()
    except (EOFError, OSError):
        return None
    return None


def _handle_failure(
    state: _UnitState,
    failure: WorkerFailure,
    config: FleetResilienceConfig,
    waiting: List[_UnitState],
) -> Optional[Any]:
    """Record one failed attempt; requeue or quarantine. Returns the
    final outcome when the host is quarantined, else ``None``."""
    state.failures = state.failures + (failure,)
    if state.attempt >= config.max_attempts:
        return _quarantine(state.unit, state.failures)
    state.attempt += 1
    state.ready_at = time.monotonic() + config.backoff_s(
        len(state.failures)
    )
    waiting.append(state)
    return None


def _run_units_parallel(
    units: Sequence[HostUnit],
    workers: int,
    config: FleetResilienceConfig,
) -> List[Any]:
    """The parallel scheduler: launch, deadline-kill, retry, quarantine.

    Own mini process pool (``multiprocessing.Process`` + ``Pipe``)
    rather than :class:`~concurrent.futures.ProcessPoolExecutor`: the
    executor cannot kill a hung worker without breaking the whole pool,
    and deadline kills are the point.
    """
    ctx = _mp_context()
    states = [
        _UnitState(unit=unit, order=i) for i, unit in enumerate(units)
    ]
    waiting: List[_UnitState] = list(states)
    # state -> (process, parent pipe end, wall-clock kill time)
    running: Dict[int, Tuple[Any, Any, float, _UnitState]] = {}
    try:
        while waiting or running:
            now = time.monotonic()
            # Launch everything ready, up to the worker cap.
            launchable = [
                s for s in waiting if s.ready_at <= now
            ]
            for state in launchable:
                if len(running) >= workers:
                    break
                waiting.remove(state)
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                unit = replace(state.unit, attempt=state.attempt)
                proc = ctx.Process(
                    target=_worker_main, args=(child_conn, unit),
                )
                proc.start()
                child_conn.close()
                kill_at = now + config.deadline_s(unit.duration_s)
                running[id(state)] = (proc, parent_conn, kill_at, state)

            progressed = False
            for key in list(running):
                proc, conn, kill_at, state = running[key]
                outcome = _collect_outcome(proc, conn)
                if outcome is None and not proc.is_alive():
                    # Worker exited without a drained result. One last
                    # poll closes the send-then-exit race window.
                    try:
                        if conn.poll(0.2):
                            outcome = conn.recv()
                    except (EOFError, OSError):
                        outcome = None
                    if outcome is None:
                        outcome = WorkerFailure(
                            phase="run",
                            error=(
                                "worker process died "
                                f"(exitcode={proc.exitcode})"
                            ),
                        )
                elif outcome is None and time.monotonic() >= kill_at:
                    # Deadline blown: kill the worker, record a hang.
                    proc.terminate()
                    proc.join(_TERM_GRACE_S)
                    if proc.is_alive():  # pragma: no cover - stubborn
                        proc.kill()
                        proc.join()
                    outcome = WorkerFailure(
                        phase="run",
                        error=(
                            "worker deadline exceeded "
                            f"({config.deadline_s(state.unit.duration_s):.0f}s "
                            "wall clock); killed"
                        ),
                        hung=True,
                    )
                if outcome is None:
                    continue
                progressed = True
                del running[key]
                proc.join()
                conn.close()
                if isinstance(outcome, WorkerFailure):
                    final = _handle_failure(
                        state, outcome, config, waiting
                    )
                    if final is not None:
                        state.outcome = final
                else:
                    state.outcome = outcome
            if not progressed and running:
                # Sleep until a worker pipe has data (or its end dies,
                # which also readies the pipe), the earliest deadline,
                # or the earliest backoff expiry — whichever is first.
                now = time.monotonic()
                horizon = min(
                    [kill_at for _, _, kill_at, _ in running.values()]
                    + [s.ready_at for s in waiting]
                )
                multiprocessing.connection.wait(
                    [conn for _, conn, _, _ in running.values()],
                    timeout=max(0.0, min(horizon - now, _POLL_S * 50)),
                )
            elif not progressed:
                time.sleep(_POLL_S)
    finally:
        for proc, conn, _, _ in running.values():
            proc.terminate()
            proc.join(_TERM_GRACE_S)
            if proc.is_alive():  # pragma: no cover - stubborn
                proc.kill()
                proc.join()
            conn.close()
    return [state.outcome for state in states]


def run_units(
    units: Sequence[HostUnit],
    workers: int,
    config: FleetResilienceConfig,
) -> List[Any]:
    """Run every unit through the resilience runtime.

    Outcomes (:class:`~repro.core.fleet.HostReport` or
    :class:`~repro.core.fleet.FailedHost`) come back in the input
    order, regardless of completion order, preserving the fleet's
    parallel-vs-serial bit-identity contract.
    """
    if workers <= 1:
        return [_run_unit_serial(unit, config) for unit in units]
    return _run_units_parallel(units, workers, config)
