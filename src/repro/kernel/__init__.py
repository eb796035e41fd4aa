"""Simulated Linux memory-management substrate.

This package reproduces the kernel mechanisms TMO relies on (Section 3.4):
page LRU lists, the cgroup hierarchy with ``memory.max`` and the stateless
``memory.reclaim`` control files, non-resident (shadow-entry) cache
tracking with reuse-distance refault detection, and two reclaim balancing
algorithms — the legacy file-skewed heuristic and TMO's refault/swap-in
balanced rewrite that was upstreamed.
"""

from repro.kernel.cgroup import Cgroup
from repro.kernel.controlfs import ControlFileError, ControlFs, parse_bytes
from repro.kernel.mm import FaultResult, MemoryManager, OutOfMemoryError
from repro.kernel.page import PageKind, PageState, PageTable
from repro.kernel.reclaim import (
    LegacyReclaimPolicy,
    ReclaimOutcome,
    ReclaimPolicy,
    TmoReclaimPolicy,
)
from repro.kernel.shadow import ShadowMap
from repro.kernel.vmstat import VmStat

__all__ = [
    "Cgroup",
    "ControlFileError",
    "ControlFs",
    "parse_bytes",
    "FaultResult",
    "LegacyReclaimPolicy",
    "MemoryManager",
    "OutOfMemoryError",
    "PageKind",
    "PageState",
    "PageTable",
    "ReclaimOutcome",
    "ReclaimPolicy",
    "ShadowMap",
    "TmoReclaimPolicy",
    "VmStat",
]
