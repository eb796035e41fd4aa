"""A cgroupfs-style control-file façade.

The real Senpai is a daemon that reads and writes files under
``/sys/fs/cgroup``. This module exposes the simulated kernel through
the same surface — string reads and writes against paths like
``workload.slice/app/memory.reclaim`` — so controllers can be written
exactly as their production counterparts are (see
:class:`repro.core.daemon.SenpaiDaemon`).

Supported files per cgroup:

* ``memory.current`` (r)  — hierarchical usage in bytes.
* ``memory.max`` (rw)     — ``max`` or a byte limit (K/M/G suffixes).
* ``memory.reclaim`` (w)  — proactive reclaim: ``<bytes> [swappiness=0]``;
  ``swappiness=0`` restricts reclaim to the file LRU.
* ``memory.stat`` (r)     — usage breakdown plus vmstat counters.
* ``memory.pressure`` / ``io.pressure`` / ``cpu.pressure`` (rw) —
  reads render the kernel format; writes register PSI triggers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.kernel.mm import MemoryManager
from repro.psi.group import format_pressure_file
from repro.psi.tracker import PsiSystem
from repro.psi.trigger import PsiTrigger, TriggerSpec
from repro.psi.types import Resource

_SUFFIXES = {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30,
             "T": 1 << 40}

_PRESSURE_FILES = {
    "memory.pressure": Resource.MEMORY,
    "io.pressure": Resource.IO,
    "cpu.pressure": Resource.CPU,
}


def parse_bytes(text: str) -> int:
    """Parse ``4096``, ``100M``, ``2G`` ... into bytes."""
    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([KMGT]?)i?B?\s*",
                         text, re.IGNORECASE)
    if not match:
        raise ValueError(f"cannot parse byte size {text!r}")
    value, suffix = match.groups()
    return int(float(value) * _SUFFIXES[suffix.upper()])


class ControlFileError(OSError):
    """Raised for unknown paths, bad values, or read/write mismatches."""


@dataclass
class ControlFsFaultState:
    """Telemetry-fault seam of the control-file surface.

    Mutated by a :class:`~repro.faults.injector.FaultInjector` (or a
    test) to model the failure modes a file-reading daemon actually
    sees in production: stuck pressure files, corrupted reads, and
    EIO/EBUSY on the control surface itself.

    Attributes:
        frozen_pressure: pressure-file reads return the last text each
            file served before the freeze (counters appear stuck).
        malformed_pressure: pressure-file reads return garbage that no
            parser should accept.
        error_on_read: every read raises :class:`ControlFileError`.
        error_on_write: every write raises :class:`ControlFileError`.
    """

    frozen_pressure: bool = False
    malformed_pressure: bool = False
    error_on_read: bool = False
    error_on_write: bool = False

    def clear(self) -> None:
        """Reset to the healthy defaults."""
        self.frozen_pressure = False
        self.malformed_pressure = False
        self.error_on_read = False
        self.error_on_write = False

    @property
    def healthy(self) -> bool:
        return not (
            self.frozen_pressure
            or self.malformed_pressure
            or self.error_on_read
            or self.error_on_write
        )


#: What a malformed pressure file serves: a truncated line with a bad
#: field, enough to defeat any reasonable parser.
_MALFORMED_PRESSURE_TEXT = "some avg10=NaN avg60= avg300=0.00 total=garbage"


class ControlFs:
    """String-level access to the cgroup control surface."""

    __state__ = ("_triggers", "_trigger_paths", "faults", "_pressure_cache")
    #: The host's memory manager and PSI system, fixed at construction.
    __transient__ = ("mm", "psi")
    _triggers: Dict[Tuple[str, str], PsiTrigger]
    _trigger_paths: Dict[Tuple[str, str], str]
    faults: ControlFsFaultState
    _pressure_cache: Dict[Tuple[str, str], str]

    def __init__(self, mm: MemoryManager, psi: PsiSystem) -> None:
        self.mm = mm
        self.psi = psi
        self._triggers = {}
        # (cgroup, file) -> "<cgroup>/<file>", formatted at trigger
        # registration so poll() never builds strings per tick (TMO018).
        self._trigger_paths = {}
        #: Telemetry-fault seam; healthy by default.
        self.faults = ControlFsFaultState()
        #: Last text served per pressure file, for the frozen mode.
        self._pressure_cache = {}

    # ------------------------------------------------------------------

    def _split(self, path: str) -> Tuple[str, str]:
        """Split ``<cgroup-path>/<file>`` and validate the cgroup."""
        path = path.strip("/")
        if "/" in path:
            cgroup_name, filename = path.rsplit("/", 1)
        else:
            cgroup_name, filename = "root", path
        # Accept both full slash paths and bare cgroup names: the
        # simulator's cgroup registry is flat, keyed by name.
        cgroup_name = cgroup_name.rsplit("/", 1)[-1]
        try:
            self.mm.cgroup(cgroup_name)
        except KeyError:
            raise ControlFileError(
                f"no such cgroup: {cgroup_name!r}"
            ) from None
        return cgroup_name, filename

    # ------------------------------------------------------------------

    def read(self, path: str, now: float) -> str:
        """Read one control file; returns its text content."""
        cgroup_name, filename = self._split(path)
        if self.faults.error_on_read:
            raise ControlFileError(
                f"read({path!r}): injected control-surface error"
            )
        cgroup = self.mm.cgroup(cgroup_name)

        if filename == "memory.current":
            return str(cgroup.current_bytes())
        if filename == "memory.max":
            return "max" if cgroup.memory_max is None else str(
                cgroup.memory_max
            )
        if filename == "memory.low":
            return str(cgroup.memory_low)
        if filename == "memory.swap.max":
            return "max" if cgroup.swap_max is None else str(cgroup.swap_max)
        if filename == "memory.stat":
            vm = cgroup.vmstat
            lines = [
                f"anon {cgroup.anon_bytes}",
                f"file {cgroup.file_bytes}",
                f"swapped {cgroup.swap_bytes}",
                f"zswapped {cgroup.zswap_bytes}",
                f"pgscan {vm.pgscan}",
                f"pgsteal {vm.pgsteal}",
                f"pswpin {vm.pswpin}",
                f"pswpout {vm.pswpout}",
                f"workingset_refault {vm.workingset_refault}",
                f"workingset_evict {vm.workingset_evict}",
                f"pgmajfault {vm.pgmajfault}",
            ]
            return "\n".join(lines)
        if filename in _PRESSURE_FILES:
            if self.faults.malformed_pressure:
                return _MALFORMED_PRESSURE_TEXT
            key = (cgroup_name, filename)
            if self.faults.frozen_pressure and key in self._pressure_cache:
                return self._pressure_cache[key]
            text = format_pressure_file(
                self.psi.group(cgroup_name), _PRESSURE_FILES[filename], now
            )
            self._pressure_cache[key] = text
            return text
        raise ControlFileError(f"unknown control file {filename!r}")

    # ------------------------------------------------------------------

    def write(self, path: str, value: str, now: float) -> None:
        """Write one control file."""
        cgroup_name, filename = self._split(path)
        if self.faults.error_on_write:
            raise ControlFileError(
                f"write({path!r}): injected control-surface error"
            )

        if filename == "memory.max":
            limit = None if value.strip() == "max" else parse_bytes(value)
            self.mm.set_memory_max(cgroup_name, limit, now)
            return
        if filename == "memory.low":
            value = value.strip()
            self.mm.cgroup(cgroup_name).memory_low = (
                0 if value in ("0", "") else parse_bytes(value)
            )
            return
        if filename == "memory.swap.max":
            value = value.strip()
            self.mm.cgroup(cgroup_name).swap_max = (
                None if value == "max" else parse_bytes(value)
            )
            return
        if filename == "memory.reclaim":
            parts = value.split()
            if not parts:
                raise ControlFileError("memory.reclaim needs a byte count")
            nr_bytes = parse_bytes(parts[0])
            file_only = False
            for option in parts[1:]:
                if option == "swappiness=0":
                    file_only = True
                elif option.startswith("swappiness="):
                    file_only = False
                else:
                    raise ControlFileError(
                        f"unknown memory.reclaim option {option!r}"
                    )
            self.mm.memory_reclaim(
                cgroup_name, nr_bytes, now, file_only=file_only
            )
            return
        if filename in _PRESSURE_FILES:
            spec = TriggerSpec.parse(_PRESSURE_FILES[filename], value)
            group = self.psi.group(cgroup_name)
            trigger = PsiTrigger(group, spec, now)
            self._triggers[(cgroup_name, filename)] = trigger
            self._trigger_paths[(cgroup_name, filename)] = (
                f"{cgroup_name}/{filename}"
            )
            return
        raise ControlFileError(
            f"control file {filename!r} is not writable"
        )

    # ------------------------------------------------------------------

    def trigger(self, path: str) -> PsiTrigger:
        """The trigger registered by the last write to a pressure file."""
        cgroup_name, filename = self._split(path)
        try:
            return self._triggers[(cgroup_name, filename)]
        except KeyError:
            raise ControlFileError(
                f"no trigger registered on {path!r}"
            ) from None

    def poll(self, now: float):
        """Update all registered triggers; return fired (path-keyed)."""
        fired = []
        for key, trigger in self._triggers.items():
            if trigger.update(now):
                fired.append(self._trigger_paths[key])
        return fired
