"""The batched-API registry behind the hot-path lint (TMO017/TMO021).

The columnar page core (``repro.kernel.page.PageTable``) keeps page
state in numpy columns and offers batched forms of the per-page calls;
this module is the single declared mapping between the two shapes. ``repro.lint.hotpath`` parses these literal tables statically
(phase A of ``tmo-lint --flow``), so editing them re-triggers the
scalar-loop checks on every cached file:

* ``BATCHED_EQUIVALENTS`` — scalar API -> its batched equivalent.
  Calling the scalar form per element inside a loop in the hot region
  is TMO017 (the batched form exists; use it).
* ``SUPERSEDED_SCALAR_APIS`` — scalar APIs the batched rewrite has
  fully replaced on hot paths. Any hot-region call is TMO021, even
  outside a loop. An API can be batched-equivalent without being
  superseded: ``MemoryManager.touch`` stays callable because
  ``touch_batch`` itself falls back to it for non-resident pages.

Keys are fully qualified (``module.Class.method`` / ``module.func``)
and must be literal strings: the lint reads the AST, not the import.
"""

from typing import Dict, Tuple

#: scalar API -> batched equivalent (loop-over-scalar is TMO017).
BATCHED_EQUIVALENTS: Dict[str, str] = {
    "repro.kernel.mm.MemoryManager.touch":
        "repro.kernel.mm.MemoryManager.touch_batch",
    "repro.kernel.page.PageTable.link":
        "repro.kernel.page.PageTable.link_new",
    "repro.kernel.idle.AgeHistogram.add":
        "repro.kernel.idle.IdlePageTracker.scan",
}

#: scalar APIs with no remaining hot-path caller (any call is TMO021).
#: ``AgeHistogram.add`` survives for tests and ad-hoc analysis only;
#: the idle scanner builds histograms vectorized via searchsorted.
SUPERSEDED_SCALAR_APIS: Tuple[str, ...] = (
    "repro.kernel.idle.AgeHistogram.add",
)
