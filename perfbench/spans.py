"""In-memory span tracing around the public entry points of each layer.

The wrappers are installed on classes and modules (never on instances),
so a host's ``__dict__`` and therefore its snapshots are untouched, and
removed again by :meth:`Tracer.uninstall`. Each span records its name,
start, end, parent span and the run id; spans are kept in per-thread
lists and written out once, when the traced run ends.

Self time of a span is its duration minus the durations of its direct
children. Spans nest strictly within one thread, so the children of a
span never overlap each other.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# A span: (name, start_s, end_s, parent index in the same thread, or -1).
Span = Tuple[str, float, float, int]
# A span row: (thread ordinal, index in thread, name, start_s, end_s, parent).
Row = Tuple[int, int, str, float, float, int]


class Tracer:
    """Records spans from wrapped functions; one instance per traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self._local = threading.local()
        self._threads: List[List[Optional[Span]]] = []
        self._threads_lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            with self._threads_lock:
                self._threads.append(local.spans)
        return local.spans, local.stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[..., str],
        on_exit: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a class or a module; the attribute must be a plain
        function defined on it directly. ``name`` is the span name, or a
        function of the call's arguments returning it. ``on_exit(args,
        kwargs, result)`` runs after a successful call, outside the span.
        """
        fn = owner.__dict__[attr]
        state = self._state
        perf = time.perf_counter
        dynamic = callable(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = state()
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            label = name(*args, **kwargs) if dynamic else name
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (label, start, end, stack[-1] if stack else -1)
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- analysis -------------------------------------------------------

    def rows(self) -> List[Row]:
        """Every finished span as ``(thread, index, name, start, end,
        parent)``."""
        with self._threads_lock:
            threads = [list(spans) for spans in self._threads]
        return [
            (tid, i, span[0], span[1], span[2], span[3])
            for tid, spans in enumerate(threads)
            for i, span in enumerate(spans)
            if span is not None
        ]

    def write(self, path: str) -> None:
        """Write every span as one JSON document (name table + rows)."""
        names: Dict[str, int] = {}
        rows = []
        for tid, idx, name, start, end, parent in self.rows():
            nid = names.setdefault(name, len(names))
            rows.append([tid, idx, nid, start, end, parent])
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "run_id": self.run_id,
                "columns": ["thread", "span", "name", "start_s",
                            "end_s", "parent"],
                "names": sorted(names, key=names.get),
                "spans": rows,
            }, fh, separators=(",", ":"))
            fh.write("\n")


def self_times(rows: List[Row]) -> Dict[str, Tuple[float, int]]:
    """Per span name: (total self seconds, call count)."""
    child: Dict[Tuple[int, int], float] = defaultdict(float)
    for tid, _, _, start, end, parent in rows:
        if parent >= 0:
            child[(tid, parent)] += end - start
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for tid, idx, name, start, end, _ in rows:
        entry = totals[name]
        entry[0] += (end - start) - child[(tid, idx)]
        entry[1] += 1
    return {k: (v[0], int(v[1])) for k, v in totals.items()}


def durations(rows: List[Row], name: str) -> List[float]:
    """Inclusive durations (seconds) of every span called ``name``."""
    return [end - start for _, _, n, start, end, _ in rows if n == name]
