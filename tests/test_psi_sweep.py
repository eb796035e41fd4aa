"""Exactness of the batched PSI sweep against the per-event reference.

:class:`Reference` is the per-event arithmetic PSI used before the
sweep: every transition first advances time (period by period, folding
the running averages at each 2 s boundary), integrating over
``(resource, kind)``-keyed dicts, then moves the task counters. The
sweep must reproduce it bit for bit: the same float additions, in the
same order, per group. Any regrouping of the additions (one long
interval in place of two consecutive ones in the same state, say)
rounds differently and fails the exact ``==`` below.
"""

import math
import random

import pytest

from repro.psi.avgs import PSI_AVG_PERIOD, PSI_WINDOWS
from repro.psi.group import FULL, SOME
from repro.psi.tracker import PsiSystem
from repro.psi.types import N_FLAG_STATES, Resource, TaskFlags
from repro.sim.host import _SEGMENT_FLAGS, Host, HostConfig
from repro.sim.metrics import metrics_digest
from repro.workloads.apps import APP_CATALOG
from repro.workloads.base import Workload
from repro.workloads.web import WebWorkload

STATES = [(r, k) for r in Resource for k in (SOME, FULL)]


class Reference:
    """One PSI domain, one transition at a time, over enum-keyed dicts."""

    def __init__(self, now=0.0):
        self.stalled = {r: 0 for r in Resource}
        self.productive = {r: 0 for r in Resource}
        self.nonidle = 0
        self.totals = {state: 0.0 for state in STATES}
        self.avgs = {state: {w: 0.0 for w in PSI_WINDOWS} for state in STATES}
        self.folded = {state: 0.0 for state in STATES}
        self.last = now
        self.next_update = now + PSI_AVG_PERIOD

    def integrate(self, now):
        elapsed = now - self.last
        assert elapsed >= 0
        if elapsed > 0:
            for r in Resource:
                if self.stalled[r] > 0:
                    self.totals[(r, SOME)] += elapsed
                    if self.productive[r] == 0:
                        self.totals[(r, FULL)] += elapsed
            self.last = now

    def tick(self, now):
        while now >= self.next_update:
            self.integrate(self.next_update)
            for state in STATES:
                total = self.totals[state]
                delta = max(0.0, total - self.folded[state])
                self.folded[state] = total
                sample = min(1.0, delta / PSI_AVG_PERIOD)
                for w, avg in self.avgs[state].items():
                    alpha = 1.0 - math.exp(-PSI_AVG_PERIOD / w)
                    self.avgs[state][w] = avg + (sample - avg) * alpha
            self.next_update += PSI_AVG_PERIOD
        self.integrate(now)

    def change(self, old, new, now):
        self.tick(now)
        for r in Resource:
            self.stalled[r] += new.stalled_on(r) - old.stalled_on(r)
            self.productive[r] += new.productive_for(r) - old.productive_for(r)
        self.nonidle += new.nonidle - old.nonidle


def assert_matches(group, ref):
    for resource, kind in STATES:
        assert group.total(resource, kind) == ref.totals[(resource, kind)]
        sample = group.sample(resource, group._last_change)
        avgs = ref.avgs[(resource, kind)]
        got = (getattr(sample, f"{kind}_avg10"), getattr(sample, f"{kind}_avg60"),
               getattr(sample, f"{kind}_avg300"))
        assert got == (avgs[10.0], avgs[60.0], avgs[300.0])
    assert group.nr_stalled == [ref.stalled[r] for r in Resource]
    assert group.nr_productive == [ref.productive[r] for r in Resource]
    assert group.nr_nonidle == ref.nonidle
    assert group._last_change == ref.last
    assert group._next_avg_update == ref.next_update


#: Task -> its group; "a/b" nests in "a", and one task lives directly in
#: the machine-wide domain.
TASKS = {"b0": "a/b", "b1": "a/b", "b2": "a/b", "a0": "a", "a1": "a",
         "c0": "c", "c1": "c", "c2": "c", "s0": "system"}
FLAG_CHOICES = list(_SEGMENT_FLAGS) + [TaskFlags.RUNNING | TaskFlags.MEMSTALL]


def build_psi():
    psi = PsiSystem(ncpu=2)
    psi.add_group("a")
    psi.add_group("a/b", parent="a")
    psi.add_group("c")
    return psi


def random_batches(seed, nbatches=40):
    """Time-ordered batches of ("set", task, flags, when) and ("remove",
    task, None, when) events: ties, sub-period steps, multi-period gaps
    and landings exactly on a period boundary."""
    rng = random.Random(seed)
    now = 0.0
    live = set()
    batches = []
    for _ in range(nbatches):
        batch = []
        for _ in range(rng.randint(1, 25)):
            roll = rng.random()
            if roll < 0.25:
                pass  # same timestamp as the previous event
            elif roll < 0.85:
                now += rng.random() * 0.4
            elif roll < 0.95:
                now += rng.random() * 9.0  # crosses several periods
            else:
                now = (math.floor(now / PSI_AVG_PERIOD) + 1) * PSI_AVG_PERIOD
            task = rng.choice(sorted(TASKS))
            if task in live and rng.random() < 0.04:
                live.discard(task)
                batch.append(("remove", task, None, now))
            else:
                live.add(task)
                batch.append(("set", task, rng.choice(FLAG_CHOICES), now))
        now += rng.random() * 3.0
        batches.append((batch, now))
    return batches


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_sweep_matches_per_event_reference(seed):
    one_by_one = build_psi()   # PsiTask.set_flags / remove_task
    batched = build_psi()      # one PsiGroup.sweep per group per batch
    refs = {g.name: Reference() for g in one_by_one.groups()}
    lineage = {t: [g.name for g in one_by_one.lineage(grp)]
               for t, grp in TASKS.items()}
    flags = {t: TaskFlags.NONE for t in TASKS}
    registered = set()
    for batch, settle_at in random_batches(seed):
        per_group = {g.name: [] for g in batched.groups()}
        for verb, task, new, when in batch:
            if verb == "remove":
                new = TaskFlags.NONE
                one_by_one.remove_task(task, when)
                registered.discard(task)
            else:
                if task not in registered:
                    one_by_one.add_task(task, TASKS[task])
                    registered.add(task)
                one_by_one.task(task).set_flags(new, when)
            code = flags[task]._value_ * N_FLAG_STATES + new._value_
            for name in lineage[task]:
                refs[name].change(flags[task], new, when)
                per_group[name].append((when, code))
            flags[task] = new
        for group in batched.groups():
            group.sweep(per_group[group.name])
        for psi in (one_by_one, batched):
            psi.tick(settle_at)
        for ref in refs.values():
            ref.tick(settle_at)
        for psi in (one_by_one, batched):
            for group in psi.groups():
                assert_matches(group, refs[group.name])


def test_a_failed_batch_keeps_the_events_before_it():
    psi = build_psi()
    group = psi.group("c")
    run, mem = TaskFlags.RUNNING, TaskFlags.MEMSTALL
    events = [(1.0, run._value_), (5.0, run._value_ * N_FLAG_STATES
                                   + mem._value_), (4.0, 0)]
    with pytest.raises(ValueError, match="time went backwards"):
        group.sweep(events)
    ref = Reference()
    ref.change(TaskFlags.NONE, run, 1.0)
    ref.change(run, mem, 5.0)
    assert_matches(group, ref)


# ----------------------------------------------------------------------
# the host's feed: one boundary list per rotation == one event per segment


def per_event_feed(host, results, now0, dt):
    """The per-thread feed the rotation lists replace: every segment that
    changes a thread's flags is one ``set_flags`` call, in time order."""
    capacity = host.config.ncpu * dt
    demand = sum(r.cpu_seconds for r in results.values())
    cpu_share = 1.0 if demand <= capacity else capacity / demand
    events = []
    for name, hosted in host._hosted.items():
        tick = results[name]
        nthreads = max(1, len(hosted.psi_tasks))
        run = tick.cpu_seconds / nthreads * cpu_share
        durations = [run, tick.stall_mem_s / nthreads,
                     tick.stall_both_s / nthreads, tick.stall_io_s / nthreads,
                     tick.cpu_seconds / nthreads - run]
        busy = sum(durations)
        if busy > dt:
            durations = [d * (dt / busy) for d in durations]
            busy = dt
        durations.append(dt - busy)
        for t_idx, task in enumerate(hosted.psi_tasks):
            rotation = (t_idx + host._tick_index) % 6
            cursor, last_flags = now0, task.flags
            for step in range(6):
                seg = (rotation + step) % 6
                if durations[seg] <= 1e-12:
                    continue
                if _SEGMENT_FLAGS[seg] != last_flags:
                    events.append((cursor, len(events), task,
                                   _SEGMENT_FLAGS[seg]))
                    last_flags = _SEGMENT_FLAGS[seg]
                cursor += durations[seg]
    events.sort(key=lambda e: e[:2])
    for when, _, task, new in events:
        task.set_flags(new, when)


def psi_state(host):
    return [(g.name, g.totals, [a.avgs for a in g._avgs], g.nr_stalled,
             g.nr_productive, g.nr_nonidle, g._last_change)
            for g in host.psi.groups()]


@pytest.mark.parametrize("ncpu", [2, 16])
def test_rotation_feed_matches_per_event_feed(ncpu, monkeypatch):
    def build(seed=3):
        host = Host(HostConfig(ram_gb=0.5, ncpu=ncpu, page_size_bytes=1 << 20,
                               seed=seed))
        host.add_workload(WebWorkload, name="web", size_scale=0.01)
        host.add_workload(Workload, profile=APP_CATALOG["Feed"],
                          name="feed", size_scale=0.01)
        return host

    fast = build()
    slow = build()
    monkeypatch.setattr(slow, "_feed_psi",
                        lambda results, now0, dt: per_event_feed(
                            slow, results, now0, dt))
    for _ in range(90):
        fast.step()
        slow.step()
        assert psi_state(fast) == psi_state(slow)
    fast.kill_workload("feed")
    slow.kill_workload("feed")
    fast.run(30.0)
    slow.run(30.0)
    assert psi_state(fast) == psi_state(slow)
    assert metrics_digest(fast.metrics) == metrics_digest(slow.metrics)
