"""SenpaiDaemon: the controller as the open-source senpai is written.

The production (and open-sourced) senpai is a small daemon that knows
nothing about kernel internals: it reads ``memory.pressure`` text,
parses the ``total=`` stall counter, reads ``memory.current``, computes
the reclaim step, and writes the byte count to ``memory.reclaim``. This
class is that daemon, verbatim against the simulator's
:class:`~repro.kernel.controlfs.ControlFs` façade — a living proof that
the simulated control surface is drivable by unmodified tooling logic.

(The in-process :class:`~repro.core.senpai.Senpai` is the richer
controller with write regulation; this one trades features for being a
faithful port of the file-level protocol.)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.policy import reclaim_amount
from repro.kernel.controlfs import ControlFileError

_TOTAL_RE = re.compile(r"^some .*total=(\d+)$", re.MULTILINE)


def parse_some_total_us(pressure_text: str) -> int:
    """Extract the ``some ... total=<us>`` counter from a pressure file.

    >>> parse_some_total_us(
    ...     "some avg10=0.00 avg60=0.00 avg300=0.00 total=1500\\n"
    ...     "full avg10=0.00 avg60=0.00 avg300=0.00 total=0")
    1500
    """
    match = _TOTAL_RE.search(pressure_text)
    if not match:
        raise ValueError(
            f"not a pressure file: {pressure_text[:60]!r}"
        )
    return int(match.group(1))


@dataclass(frozen=True)
class SenpaiDaemonConfig:
    """The open-source senpai's knobs (its defaults match Section 3.3)."""

    interval_s: float = 6.0
    psi_threshold: float = 0.001
    reclaim_ratio: float = 0.0005
    max_step_frac: float = 0.01
    cgroups: Tuple[str, ...] = ()
    #: Base/backstop of the per-cgroup exponential backoff after a
    #: failed read or write (the daemon's crash-loop protection).
    error_backoff_s: float = 6.0
    error_backoff_max_s: float = 120.0


@dataclass
class _DaemonCgroupState:
    """Per-cgroup bookkeeping between daemon polls."""

    last_total_us: int = 0
    last_poll_at_s: Optional[float] = None
    error_streak: int = 0
    skip_until_s: float = 0.0


class SenpaiDaemon:
    """File-protocol senpai against the ControlFs surface.

    Hardened like its production counterpart must be: a malformed or
    unreadable pressure file is skipped and counted (``skipped_reads``)
    rather than crashing the daemon, failed ``memory.reclaim`` writes
    are counted (``failed_writes``), and a cgroup that keeps erroring is
    backed off exponentially instead of being hammered every period.
    """

    __state__ = (
        "config", "_states", "_next_poll", "_pressure_path",
        "_current_path", "_reclaim_path", "skipped_reads", "failed_writes",
    )
    config: SenpaiDaemonConfig
    _states: Dict[str, _DaemonCgroupState]
    _pressure_path: Dict[str, str]
    _current_path: Dict[str, str]
    _reclaim_path: Dict[str, str]

    def __init__(self, config: SenpaiDaemonConfig) -> None:
        if not config.cgroups:
            raise ValueError(
                "SenpaiDaemon needs explicit cgroup paths to manage"
            )
        self.config = config
        self._states = {}
        self._next_poll: Optional[float] = None
        # The managed cgroup set is fixed at construction, so every
        # control-file path is formatted exactly once here instead of
        # on each poll of each cgroup (TMO018).
        self._pressure_path = {
            c: f"{c}/memory.pressure" for c in config.cgroups
        }
        self._current_path = {
            c: f"{c}/memory.current" for c in config.cgroups
        }
        self._reclaim_path = {
            c: f"{c}/memory.reclaim" for c in config.cgroups
        }
        #: Pressure/current reads dropped as unreadable or malformed.
        self.skipped_reads = 0
        #: memory.reclaim writes the control surface rejected.
        self.failed_writes = 0

    def _state(self, cgroup: str) -> _DaemonCgroupState:
        return self._states.setdefault(cgroup, _DaemonCgroupState())

    def _back_off(self, state: _DaemonCgroupState, now: float) -> None:
        state.error_streak += 1
        backoff_s = min(
            self.config.error_backoff_max_s,
            self.config.error_backoff_s * (2.0 ** (state.error_streak - 1)),
        )
        state.skip_until_s = now + backoff_s

    def poll(self, host, now: float) -> None:
        if self._next_poll is None:
            self._next_poll = now + self.config.interval_s
            for cgroup in self.config.cgroups:
                state = self._state(cgroup)
                try:
                    text = host.controlfs.read(
                        self._pressure_path[cgroup], now
                    )
                    state.last_total_us = parse_some_total_us(text)
                    state.last_poll_at_s = now
                except (ControlFileError, ValueError):
                    self.skipped_reads += 1
            return
        if now + 1e-9 < self._next_poll:
            return
        self._next_poll = now + self.config.interval_s

        for cgroup in self.config.cgroups:
            self._poll_one(host, cgroup, now)

    def _poll_one(self, host, cgroup: str, now: float) -> None:
        state = self._state(cgroup)
        if now < state.skip_until_s:
            return
        fs = host.controlfs
        try:
            text = fs.read(self._pressure_path[cgroup], now)
            total_us = parse_some_total_us(text)
            current = int(fs.read(self._current_path[cgroup], now))
        except (ControlFileError, ValueError):
            # Unreadable cgroup or garbage pressure text: skip the
            # period and back off; never act on a partial sample.
            self.skipped_reads += 1
            self._back_off(state, now)
            return
        delta_us = total_us - state.last_total_us
        # Divide by the real time between successful samples, not the
        # nominal interval — backoff and skipped periods stretch it.
        elapsed_s = (
            now - state.last_poll_at_s
            if state.last_poll_at_s is not None
            else self.config.interval_s
        )
        elapsed_s = max(elapsed_s, 1e-9)
        state.last_total_us = total_us
        state.last_poll_at_s = now
        pressure = (delta_us / 1e6) / elapsed_s

        step = reclaim_amount(
            current_mem=current,
            psi_some=pressure,
            psi_threshold=self.config.psi_threshold,
            reclaim_ratio=self.config.reclaim_ratio,
            max_step_frac=self.config.max_step_frac,
        )
        if step > 0:
            try:
                fs.write(self._reclaim_path[cgroup], str(step), now)
            except ControlFileError:
                self.failed_writes += 1
                self._back_off(state, now)
                return
        state.error_streak = 0
        state.skip_until_s = 0.0
