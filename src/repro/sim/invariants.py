"""Debug-mode runtime invariant checking.

The simulator maintains several redundant views of the same state —
byte counters on cgroups, the page table's columns, LRU lengths,
PSI stall integrals. In normal runs the redundancy is what makes the
experiments cheap to record; in debug runs it is an opportunity to
cross-check. :class:`InvariantChecker` walks those views after every
host tick and raises :class:`InvariantViolation` on the first
disagreement, pointing at the tick that corrupted state rather than
the (much later) metric that exposed it.

Enable it per host with ``HostConfig(check_invariants=True)`` or
globally with the ``TMO_CHECK_INVARIANTS`` environment variable
(``1``/``true``/``yes``/``on``). The checks cost a few passes over
the page table per tick, so they default to off.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import numpy as np

from repro.kernel.page import RESIDENT, PageKind, PageState
from repro.psi.types import Resource

#: Environment variable that switches checking on for every host whose
#: config leaves ``check_invariants`` unset.
ENV_FLAG = "TMO_CHECK_INVARIANTS"

_TRUTHY = ("1", "true", "yes", "on")

SWAPPED = int(PageState.SWAPPED)
ZSWAPPED = int(PageState.ZSWAPPED)

#: Slack for floating-point comparisons on PSI fractions and stall
#: integrals. Stall times accumulate as sums of tick segments, so exact
#: equality is not meaningful (see TMO006 in docs/LINTING.md).
EPS = 1e-9


def env_enabled(environ: Optional[Dict[str, str]] = None) -> bool:
    """Whether ``TMO_CHECK_INVARIANTS`` asks for checking."""
    env = os.environ if environ is None else environ
    return env.get(ENV_FLAG, "").strip().lower() in _TRUTHY


def checking_enabled(config_flag: Optional[bool]) -> bool:
    """Resolve a host's ``check_invariants`` setting against the env."""
    if config_flag is not None:
        return config_flag
    return env_enabled()


class InvariantViolation(AssertionError):
    """A redundant state view disagreed with the authoritative one."""


class InvariantChecker:
    """Cross-checks a host's state views after each tick.

    Stateless checks (page conservation, LRU accounting, DRAM budget,
    PSI bounds) inspect the current tick only; the monotonicity check
    keeps the previous tick's PSI stall totals, so one checker instance
    should stay attached to one host for its lifetime.
    """

    def __init__(self) -> None:
        # (group name, resource, kind) -> last observed stall total.
        self._psi_totals: Dict[Tuple[str, Resource, str], float] = {}

    # ------------------------------------------------------------------

    def check(self, host) -> None:
        """Run every invariant against ``host``; raise on the first failure."""
        now = host.clock.now
        self.check_page_conservation(host.mm)
        self.check_lru_accounting(host.mm)
        self.check_dram_budget(host.mm)
        self.check_psi(host.psi, now)

    # ------------------------------------------------------------------
    # memory accounting

    def check_page_conservation(self, mm) -> None:
        """Cgroup byte counters must equal page-population counts.

        Every live page is in exactly one state; multiplying the
        per-state population by the page size must reproduce the byte
        counters the charge/uncharge paths maintain incrementally.
        """
        psize = mm.page_size_bytes
        table = mm.table
        n = table.npages
        live = table.cgroup[:n] >= 0
        owner = table.cgroup[:n][live].astype(np.int64)
        state = table.state[:n][live]
        # Tally column per page: resident anon, resident file, swap,
        # zswap; EVICTED/ABSENT pages hold no charged bytes anywhere.
        tally = np.full(len(owner), 4, dtype=np.int64)
        resident = state == RESIDENT
        tally[resident] = table.kind[:n][live][resident]
        tally[state == SWAPPED] = 2
        tally[state == ZSWAPPED] = 3
        cgroups = mm.cgroups()
        counts = np.bincount(
            owner * 5 + tally, minlength=5 * len(cgroups)
        ).reshape(-1, 5)
        for cgroup in cgroups:
            for column, (key, actual) in enumerate((
                ("anon", cgroup.anon_bytes),
                ("file", cgroup.file_bytes),
                ("swap", cgroup.swap_bytes),
                ("zswap", cgroup.zswap_bytes),
            )):
                pages = int(counts[cgroup.index, column])
                expected = pages * psize
                if actual != expected:
                    raise InvariantViolation(
                        f"cgroup {cgroup.name!r}: {key}_bytes is "
                        f"{actual} but its page population implies "
                        f"{expected} ({pages} pages x {psize} B)"
                    )
                if actual < 0:
                    raise InvariantViolation(
                        f"cgroup {cgroup.name!r}: {key}_bytes is "
                        f"negative ({actual})"
                    )

    def check_lru_accounting(self, mm) -> None:
        """Each LRU must hold exactly the resident pages of its kind,
        and its kept length must match its members."""
        psize = mm.page_size_bytes
        table = mm.table
        n = table.npages
        on_list = table.stamp[:n] > 0
        if np.any(on_list != (
            (table.state[:n] == RESIDENT) & (table.cgroup[:n] >= 0)
        )):
            raise InvariantViolation(
                "the pages on LRU lists are not exactly the resident ones"
            )
        keys = (
            table.cgroup[:n][on_list].astype(np.int64) * 2
            + table.kind[:n][on_list]
        ) * 2 + table.active[:n][on_list]
        members = np.bincount(keys, minlength=len(table.lru_len))
        if members.tolist() != table.lru_len:
            raise InvariantViolation(
                f"the kept LRU list lengths {table.lru_len} do not match "
                f"the lists' members {members.tolist()}"
            )
        for cgroup in mm.cgroups():
            for kind in (PageKind.ANON, PageKind.FILE):
                pages = table.list_len(cgroup.index, kind)
                lru_bytes = pages * psize
                counter = (
                    cgroup.anon_bytes
                    if kind is PageKind.ANON
                    else cgroup.file_bytes
                )
                if lru_bytes != counter:
                    raise InvariantViolation(
                        f"cgroup {cgroup.name!r}: {kind.name} LRU holds "
                        f"{pages} pages ({lru_bytes} B) "
                        f"but the byte counter says {counter} B"
                    )

    def check_dram_budget(self, mm) -> None:
        """Used DRAM (resident + zswap pool) must fit in physical RAM."""
        if mm.zswap_pool_bytes < 0:
            raise InvariantViolation(
                f"zswap pool size is negative ({mm.zswap_pool_bytes} B)"
            )
        free = mm.free_bytes()
        if free < 0:
            raise InvariantViolation(
                f"DRAM overcommitted: used {mm.used_bytes()} B of "
                f"{mm.ram_bytes} B (free would be {free} B)"
            )

    # ------------------------------------------------------------------
    # pressure accounting

    def check_psi(self, psi, now_s: float) -> None:
        """PSI averages must be sane fractions and totals monotone.

        ``full`` counts instants when *every* task stalls, a subset of
        the instants ``some`` counts, so full <= some holds for both
        the running averages and the cumulative stall integrals.
        """
        for group in psi.groups():
            for resource in (Resource.MEMORY, Resource.IO):
                sample = group.sample(resource, now_s)
                pairs = (
                    ("avg10", sample.some_avg10, sample.full_avg10),
                    ("avg60", sample.some_avg60, sample.full_avg60),
                    ("avg300", sample.some_avg300, sample.full_avg300),
                )
                for window, some, full in pairs:
                    for label, value in (("some", some), ("full", full)):
                        if not (-EPS <= value <= 1.0 + EPS):
                            raise InvariantViolation(
                                f"psi {group.name}/{resource.name}: "
                                f"{label}_{window} = {value} is outside "
                                "[0, 1]"
                            )
                    if full > some + EPS:
                        raise InvariantViolation(
                            f"psi {group.name}/{resource.name}: "
                            f"full_{window} ({full}) exceeds "
                            f"some_{window} ({some})"
                        )
                if sample.full_total > sample.some_total + EPS:
                    raise InvariantViolation(
                        f"psi {group.name}/{resource.name}: full_total "
                        f"({sample.full_total}) exceeds some_total "
                        f"({sample.some_total})"
                    )
                for kind, total in (
                    ("some", sample.some_total),
                    ("full", sample.full_total),
                ):
                    key = (group.name, resource, kind)
                    prev = self._psi_totals.get(key, 0.0)
                    if total < prev - EPS:
                        raise InvariantViolation(
                            f"psi {group.name}/{resource.name}: "
                            f"{kind}_total went backwards "
                            f"({prev} -> {total})"
                        )
                    self._psi_totals[key] = total
