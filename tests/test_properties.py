"""Property-based tests (hypothesis) on core invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import reclaim_amount
import numpy as np

from repro.kernel.page import PageKind, PageState, PageTable, lru_key
from repro.kernel.shadow import ShadowMap
from repro.psi.avgs import RunningAverages
from repro.psi.group import FULL, SOME, PsiGroup
from repro.psi.types import Resource, TaskFlags

# ----------------------------------------------------------------------
# Senpai formula


@given(
    current=st.integers(min_value=0, max_value=1 << 40),
    pressure=st.floats(min_value=0.0, max_value=1.0,
                       allow_nan=False),
    threshold=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    ratio=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_reclaim_amount_bounded(current, pressure, threshold, ratio):
    step = reclaim_amount(current, pressure, threshold, ratio)
    assert 0 <= step <= current * 0.01 + 1


@given(
    current=st.integers(min_value=1, max_value=1 << 40),
    threshold=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
)
def test_reclaim_amount_monotone_in_pressure(current, threshold):
    steps = [
        reclaim_amount(current, p * threshold, threshold, 0.0005)
        for p in (0.0, 0.25, 0.5, 0.75, 1.0, 2.0)
    ]
    assert steps == sorted(steps, reverse=True)
    assert steps[-1] == 0


# ----------------------------------------------------------------------
# LRU invariants


@st.composite
def lru_operations(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["touch", "scan", "deactivate"]),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=120,
        )
    )
    return n, ops


@given(lru_operations())
@settings(max_examples=60)
def test_lru_never_loses_or_duplicates_pages(case):
    n, ops = case
    kind = int(PageKind.FILE)
    table = PageTable()
    table.fit_cgroups(1)
    pages = table.add(n, 0, kind, int(PageState.RESIDENT), False, 3.0, 0.0)
    table.link_new(pages, 0, kind)
    inactive = lru_key(0, kind, False)
    alive = set(range(n))
    for op, idx in ops:
        if op == "touch" and idx in alive:
            table.hit(np.array([idx]), 1.0)
        elif op == "scan":
            victim, evictable = table.scan_tail(inactive)
            if victim is not None and evictable:
                alive.discard(victim)
        elif op == "deactivate":
            table.deactivate_one(inactive)
        # Invariant: resident pages are on exactly one list.
        assert table.list_len(0, kind) == len(alive)
        on_active = set(table.members(0, kind, True).tolist())
        on_inactive = set(table.members(0, kind, False).tolist())
        assert not (on_active & on_inactive)
        assert on_active | on_inactive == alive


# ----------------------------------------------------------------------
# shadow map


@given(
    evictions=st.lists(
        st.integers(min_value=0, max_value=50), min_size=1, max_size=200
    )
)
def test_shadow_distance_positive_and_bounded(evictions):
    shadow = ShadowMap()
    for pid in evictions:
        shadow.record_eviction(pid)
    for pid in set(evictions):
        distance = shadow.reuse_distance(pid)
        assert distance is not None
        assert 1 <= distance <= len(evictions)


@given(
    resident=st.integers(min_value=0, max_value=100),
    gap=st.integers(min_value=0, max_value=100),
)
def test_shadow_refault_iff_distance_within_resident(resident, gap):
    shadow = ShadowMap()
    shadow.record_eviction(0)
    for other in range(1, gap + 1):
        shadow.record_eviction(other)
    refault = shadow.consume(0, resident)
    assert refault == (gap + 1 <= resident)


# ----------------------------------------------------------------------
# PSI integrals


@st.composite
def psi_schedules(draw):
    n_tasks = draw(st.integers(min_value=1, max_value=4))
    events = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_tasks - 1),
                st.sampled_from(
                    [
                        TaskFlags.NONE,
                        TaskFlags.RUNNING,
                        TaskFlags.MEMSTALL,
                        TaskFlags.IOSTALL,
                        TaskFlags.RUNNING | TaskFlags.MEMSTALL,
                        TaskFlags.MEMSTALL | TaskFlags.IOSTALL,
                    ]
                ),
                st.floats(min_value=0.001, max_value=5.0,
                          allow_nan=False),
            ),
            min_size=1,
            max_size=50,
        )
    )
    return n_tasks, events


@given(psi_schedules())
@settings(max_examples=60)
def test_psi_invariants_under_arbitrary_schedules(case):
    n_tasks, events = case
    group = PsiGroup("g", ncpu=2)
    flags = [TaskFlags.NONE] * n_tasks
    now = 0.0
    for task, new_flags, dt in events:
        now += dt
        group.change_task_state(flags[task], new_flags, now)
        flags[task] = new_flags
    group.tick(now + 1.0)
    for resource in Resource:
        some = group.total(resource, SOME)
        full = group.total(resource, FULL)
        # some and full are bounded by wall time and ordered.
        assert 0.0 <= full <= some <= now + 1.0 + 1e-9


@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        min_size=1,
        max_size=100,
    )
)
def test_running_averages_stay_in_unit_interval(samples):
    avgs = RunningAverages()
    total = 0.0
    for s in samples:
        total += s
        avgs.update(total)
    for window, value in avgs.avgs.items():
        assert 0.0 <= value <= 1.0
