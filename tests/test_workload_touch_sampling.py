"""Superposed-Poisson touch selection against its reference model.

Above ``_SUPERPOSE_MIN_PAGES`` a workload picks its touches from the
events of the pages' superposed Poisson process instead of drawing one
uniform per page. The reference model is the per-page one: page ``i`` is
touched in a tick independently, with probability
``touch_probability(interval_i, dt)``. These tests drive a workload
above the crossover with synthetic intervals for thousands of ticks and
check the selection against that model: per-page counts, per-tick totals
(mean and variance), distinct indices, never-touched pages, the shuffled
order and a varying ``dt``. Then they check the alias table the events
are placed with (each page's implied share of the events, degenerate
rates), when it is kept and when rebuilt, the diurnal release paths,
and that a host whose workloads are above the crossover is still
crash-equivalent.
"""

import numpy as np
import pytest

from repro.checkpoint.snapshot import dump_envelope, parse_document
from repro.core.senpai import Senpai, SenpaiConfig
from repro.sim.host import Host
from repro.sim.metrics import metrics_digest
import warnings

from repro.workloads import diurnal
from repro.workloads.access import (
    _NEVER,
    HeatBands,
    alias_table,
    assign_reaccess_intervals,
    touch_probability,
)
from repro.workloads.apps import APP_CATALOG, AppProfile
from repro.workloads.base import _SUPERPOSE_MIN_PAGES, TickResult, Workload
from repro.workloads.diurnal import DiurnalWorkload
from repro.workloads.web import WebWorkload

from tests.helpers import make_mm, small_host

PAGE = 256 * 1024
_GB = 1 << 30
N_PAGES = 6000
TICKS = 3000

#: Synthetic re-access intervals (s): touch chances per 1 s tick from
#: ~0.39 down to ~0, plus pages that are never touched.
INTERVAL_CLASSES = (2.0, 5.0, 20.0, 100.0, 1000.0, _NEVER)


def synthetic_workload(seed: int = 3) -> Workload:
    """A started workload above the crossover whose intervals cycle
    through :data:`INTERVAL_CLASSES`, page 0 being a never page."""
    assert N_PAGES >= _SUPERPOSE_MIN_PAGES
    profile = AppProfile(
        name="synthetic", size_gb=N_PAGES * PAGE / _GB, anon_frac=0.5,
        bands=HeatBands(0.5, 0.1, 0.1), compress_ratio=3.0,
    )
    mm = make_mm(ram_mb=4096, page_kb=PAGE // 1024)
    mm.create_cgroup("app", compressibility=profile.compress_ratio)
    w = Workload(mm, profile, "app", seed=seed)
    w.start(0.0)
    assert len(w.pages) == N_PAGES
    order = np.roll(np.arange(N_PAGES) % len(INTERVAL_CLASSES), 1)
    w._intervals = np.array(INTERVAL_CLASSES)[order]
    return w


def drive(w: Workload, dts) -> tuple:
    """Select touches for each ``dt``; returns (per-page counts,
    per-tick totals, list of the ticks' selections)."""
    counts = np.zeros(len(w.pages), dtype=np.int64)
    totals = np.empty(len(dts), dtype=np.int64)
    picks = []
    for i, dt in enumerate(dts):
        touched = w._select_touches(dt)
        counts[touched] += 1
        totals[i] = len(touched)
        picks.append(touched)
    return counts, totals, picks


@pytest.fixture(scope="module")
def steady():
    w = synthetic_workload()
    return w, drive(w, [1.0] * TICKS)


def test_picks_are_distinct_page_indices(steady):
    w, (_, _, picks) = steady
    for touched in picks:
        assert len(np.unique(touched)) == len(touched)
        assert touched.min() >= 0 and touched.max() < len(w.pages)


def test_per_page_counts_match_touch_probability(steady):
    w, (counts, _, _) = steady
    p = touch_probability(w._intervals, 1.0)
    expected = TICKS * p
    sd = np.sqrt(TICKS * p * (1.0 - p))
    # Every page within 5 binomial standard deviations...
    touched_ever = p > 0
    z = (counts[touched_ever] - expected[touched_ever]) / sd[touched_ever]
    assert np.abs(z).max() < 5.0
    # ...and each interval class, pooled, within 4.
    for interval in INTERVAL_CLASSES[:-1]:
        members = w._intervals == interval
        got = counts[members].sum()
        mean = expected[members].sum()
        assert abs(got - mean) < 4.0 * np.sqrt((sd[members] ** 2).sum()), (
            interval, got, mean)


def test_never_pages_are_never_touched(steady):
    w, (counts, _, _) = steady
    never = w._intervals >= _NEVER
    assert never[0] and never.sum() == N_PAGES // len(INTERVAL_CLASSES)
    assert counts[never].sum() == 0
    # Exactly zero rate: no event can land on a never page, even as the
    # first page, where 1/_NEVER would not round away.
    prob, alias, _ = w._alias_plan(N_PAGES)
    assert (implied_cells(prob, alias)[never] == 0.0).all()


def test_per_tick_totals_have_the_model_mean_and_variance(steady):
    w, (_, totals, _) = steady
    p = touch_probability(w._intervals, 1.0)
    mean, var = p.sum(), (p * (1.0 - p)).sum()
    assert abs(totals.mean() - mean) < 5.0 * np.sqrt(var / TICKS)
    # The sample variance's relative sd is sqrt(2/TICKS), ~2.6%.
    assert totals.var(ddof=1) == pytest.approx(var, rel=0.15)


def test_order_has_no_position_bias(steady):
    _, (_, _, picks) = steady
    # Correlation of position and page index: mean 0 with sd
    # ~1/sqrt(len - 1) per tick under a uniform shuffle; 1 if sorted.
    corr = [
        np.corrcoef(np.arange(len(t)), t)[0, 1] for t in picks if len(t) > 2
    ]
    sd = np.sqrt(np.mean([1.0 / (len(t) - 1) for t in picks]) / len(corr))
    assert abs(np.mean(corr)) < 5.0 * sd
    # The first pick is as likely to be any touched page: its mean rank
    # among the tick's picks is the middle.
    ranks = [np.sum(t < t[0]) / (len(t) - 1) for t in picks if len(t) > 1]
    assert abs(np.mean(ranks) - 0.5) < 5.0 * np.sqrt(1 / 12 / len(ranks))


def test_varying_dt_keeps_the_per_tick_marginals():
    """The diurnal case: the quantum changes every tick."""
    w = synthetic_workload(seed=5)
    dts = [0.5 + 0.5 * (i % 4) for i in range(TICKS)]
    counts, totals, _ = drive(w, dts)
    probs = np.array([touch_probability(w._intervals, dt) for dt in (
        0.5, 1.0, 1.5, 2.0)])
    p_ticks = probs[np.arange(TICKS) % 4]  # (ticks, pages)
    expected = p_ticks.sum(axis=0)
    var = (p_ticks * (1.0 - p_ticks)).sum(axis=0)
    for interval in INTERVAL_CLASSES[:-1]:
        members = w._intervals == interval
        assert abs(counts[members].sum() - expected[members].sum()) < (
            4.0 * np.sqrt(var[members].sum()))
    tick_mean = p_ticks.sum(axis=1)
    tick_var = (p_ticks * (1.0 - p_ticks)).sum(axis=1)
    z = (totals - tick_mean) / np.sqrt(tick_var)
    assert abs(z.mean()) < 5.0 / np.sqrt(TICKS)
    assert z.var(ddof=1) == pytest.approx(1.0, rel=0.15)


def implied_cells(prob, alias) -> np.ndarray:
    """Each page's share of an alias table's events, in cells (the
    table's ``n`` cells hold one each)."""
    return prob + np.bincount(alias, weights=1.0 - prob, minlength=len(prob))


def assert_table_is(table, intervals) -> None:
    """``table`` is bit for bit the alias table built over ``intervals``."""
    for got, want in zip(table, alias_table(intervals)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [4096, 31_129, 130_000])
@pytest.mark.parametrize("app", ["Feed", "Web", "Cache B"])
def test_alias_table_gives_each_page_its_rate_share(app, n):
    profile = APP_CATALOG[app]
    intervals = assign_reaccess_intervals(
        n, profile.bands, np.random.default_rng(n),
        never_share=profile.cold_never_share,
    )
    prob, alias, total = alias_table(intervals)
    assert alias.dtype == np.int32  # 12 bytes a page with ``prob``
    never = intervals >= _NEVER
    rates = np.where(never, 0.0, 1.0 / intervals)
    assert total == rates.sum()
    assert ((prob >= 0.0) & (prob <= 1.0)).all()
    cells = implied_cells(prob, alias)
    # Shares relative to a total of 1.
    assert np.abs(cells / n - rates / total).max() <= 1e-12
    # A never page: no mass of its own and no cell aliased to it.
    assert never.any()
    assert (prob[never] == 0.0).all() and (cells[never] == 0.0).all()
    assert not np.isin(alias[prob < 1.0], np.flatnonzero(never)).any()


@pytest.mark.parametrize("intervals", [
    np.full(5000, 30.0),                       # all equal
    np.r_[10.0, np.full(4999, _NEVER)],        # a single nonzero rate
    np.r_[np.full(7, 3.0), np.full(3, _NEVER)],  # masses 10/7 and 0
    np.r_[np.full(4097, 1.0), np.full(3, 7.0)],  # cells left over
], ids=["equal", "single", "never-remainder", "leftover"])
def test_alias_table_builds_on_degenerate_rates(intervals):
    prob, alias, total = alias_table(intervals)
    n = len(intervals)
    rates = np.where(intervals >= _NEVER, 0.0, 1.0 / intervals)
    cells = implied_cells(prob, alias)
    assert np.abs(cells / n - rates / total).max() <= 1e-12
    assert (cells[rates == 0.0] == 0.0).all()


def test_all_never_population_draws_no_events():
    prob, alias, total = alias_table(np.full(10, _NEVER))
    assert total == 0.0 and len(prob) == len(alias) == 10
    assert alias.dtype == np.int32
    w = synthetic_workload(seed=11)
    w._intervals = np.full(N_PAGES, _NEVER)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for dt in (0.5, 1.0, 30.0):
            assert len(w._select_touches(dt)) == 0
    assert w._table[2] == 0.0


def test_alias_table_is_reused_across_dt_and_kept_until_the_prefix_moves():
    w = synthetic_workload(seed=7)
    w._select_touches(0.7)
    table = w._table
    w._select_touches(1.9)
    assert w._table is table  # dt enters at sampling, not in the table
    # 300 pages past the initial 6,000: the prefix stays, the new pages
    # are the per-page tail.
    w.request_spike(0.05)
    w.tick(1.0, 1.0)
    assert len(w._intervals) == N_PAGES + 300
    assert w._prefix_pages() == N_PAGES
    assert w._table_for is w._intervals  # carried over, not dropped
    w._select_touches(1.0)
    assert w._table is table
    # Past 8,192 pages the prefix moves to that multiple: one rebuild.
    w.request_spike(0.35)
    w.tick(2.0, 1.0)
    assert w._prefix_pages() == 2 * _SUPERPOSE_MIN_PAGES
    w._select_touches(1.0)
    assert w._table is not table
    assert_table_is(w._table, w._intervals[:2 * _SUPERPOSE_MIN_PAGES])


def test_shift_workingset_rebuilds_the_alias_table():
    w = synthetic_workload(seed=9)
    w._select_touches(1.0)
    w.shift_workingset(0.5, now=1.0)
    w._select_touches(1.0)
    assert_table_is(w._table, w._intervals)


def diurnal_feed(seed: int = 21) -> DiurnalWorkload:
    """A diurnal Feed above the crossover, its swing pool grown past
    the initial population."""
    mm = make_mm(ram_mb=8192, page_kb=1024)
    mm.create_cgroup("feed", compressibility=3.0)
    w = DiurnalWorkload(mm, APP_CATALOG["Feed"], "feed", seed=seed,
                        period_s=200.0, footprint_swing=0.5)
    w.start(0.0, size_scale=0.12)
    w._current_intensity = 1.0
    assert w._initial_pages >= _SUPERPOSE_MIN_PAGES
    w._breathe(50.0, TickResult(name="feed"))  # the peak: all swing
    assert len(w._swing_pages) > 0
    return w


def workload_state(w: DiurnalWorkload) -> tuple:
    """The workload's population and its memory manager's page table."""
    return (w._pages, w._intervals, w._swing_pages,
            np.array(w.mm.table.__snapshot__(), dtype=object))


class _NoTail:
    """numpy, except that no release looks like the population's tail."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def array_equal(a, b) -> bool:
        return False


def test_diurnal_tail_release_matches_the_isin_release(monkeypatch):
    tail, by_id = diurnal_feed(), diurnal_feed()
    tail._select_touches(1.0)
    by_id._select_touches(1.0)
    table, grown = tail._table, len(tail._swing_pages)
    tail._breathe(120.0, TickResult(name="feed"))  # toward the trough
    monkeypatch.setattr(diurnal, "np", _NoTail())
    by_id._breathe(120.0, TickResult(name="feed"))
    monkeypatch.undo()
    assert 0 < len(tail._swing_pages) < grown
    for a, b in zip(workload_state(tail), workload_state(by_id)):
        assert np.array_equal(a, b)
    assert tail._table_for is tail._intervals and tail._table is table
    for dt in (1.0, 0.8):
        assert np.array_equal(tail._select_touches(dt),
                              by_id._select_touches(dt))


def test_diurnal_release_after_a_spike_keeps_the_spike():
    w = diurnal_feed()
    w.request_spike(0.02)
    w.tick(60.0, 1.0)  # the spike lands after the swing pool
    spike = w._pages[-int(w._initial_pages * 0.02):]
    before = dict(zip(w._pages.tolist(), w._intervals.tolist()))
    grown = len(w._swing_pages)
    w._breathe(120.0, TickResult(name="feed"))
    released = set(before) - set(w._pages.tolist())
    assert len(released) == grown - len(w._swing_pages) > 0
    assert released.isdisjoint(w._swing_pages.tolist())
    assert np.array_equal(w._pages[-len(spike):], spike)
    assert w._intervals.tolist() == [before[p] for p in w._pages.tolist()]


def large_host(seed: int = 13) -> Host:
    """A host whose two workloads (a growing Web and a diurnal Feed)
    are both above the crossover."""
    host = small_host(ram_gb=8.0, seed=seed)
    host.add_workload(WebWorkload, name="web", size_scale=0.1)
    host.add_workload(
        DiurnalWorkload, profile=APP_CATALOG["Feed"], name="feed",
        size_scale=0.12, period_s=200.0,
    )
    host.add_controller(Senpai(SenpaiConfig(interval_s=30.0)))
    for hosted in host._hosted.values():
        assert len(hosted.workload.pages) >= _SUPERPOSE_MIN_PAGES
    return host


def test_crash_equivalence_above_the_crossover():
    control = large_host()
    control.run(240.0)

    victim = large_host()
    victim.run(120.0)
    text = dump_envelope(victim.snapshot())
    del victim  # only the serialized text survives
    restored = Host.restore(parse_document(text))
    restored.run(120.0)

    assert metrics_digest(restored.metrics) == metrics_digest(
        control.metrics
    )
    again = large_host()
    again.run(240.0)
    assert metrics_digest(again.metrics) == metrics_digest(control.metrics)
