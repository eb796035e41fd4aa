"""The read-only query surface: summaries, rollups, envelopes, waves.

Covers the fleetd phase-2 contract end to end:

* :class:`SignalSummary` is a fixed-size mergeable reduction — merge
  is associative (exactly for count/min/max/last, to float tolerance
  for the mean) with the empty summary as identity, so sharded
  aggregation can fold partial summaries in any grouping;
* host → region → fleet rollups through a live engine are
  **digest-neutral**: querying a fleet N times leaves every host's
  metrics byte-identical to never querying it (the foundational
  bugfix: reads must not register phantom series);
* envelopes are versioned, validated on read, and NaN-free on the
  wire;
* wave planning is region-aware: no region is ever all-canary.
"""

import json

import pytest

from repro.fleetd.engine import FleetdConfig, FleetdEngine
from repro.fleetd.health import evaluate_gate
from repro.fleetd.rollout import RolloutConfig, plan_waves
from repro.fleetd.rollup import (
    ROLLUP_SCHEMA_VERSION,
    ROLLUP_SIGNALS,
    RollupError,
    SignalSummary,
    encode_envelope,
    parse_fleet_rollup,
    parse_top_report,
    sample_host,
)
from repro.sim.host import HostConfig
from repro.sim.metrics import Series, metrics_digest
from tests.helpers import gate_rollup

MB = 1 << 20


def make_engine(regions=("east", "west", "east")) -> FleetdEngine:
    engine = FleetdEngine(FleetdConfig(
        seed=11,
        base_config=HostConfig(
            ram_gb=0.25, page_size_bytes=1 * MB, ncpu=4,
        ),
        rollout=RolloutConfig(
            canary_frac=0.34, wave_frac=1.0,
            baseline_s=20.0, soak_s=20.0,
        ),
        checkpoint_every_s=15.0,
    ))
    for i, region in enumerate(regions):
        engine.register(
            f"h{i}", "Feed" if i % 2 == 0 else "Web",
            size_scale=0.003, region=region,
        )
    return engine


def summary_of(samples) -> SignalSummary:
    series = Series("x")
    for t, v in samples:
        series.record(t, v)
    return SignalSummary.of(series)


# ----------------------------------------------------------------------
# SignalSummary: reduction and merge algebra


def test_summary_of_series_reduces_all_aggregates():
    s = summary_of([(0.0, 4.0), (1.0, 2.0), (2.0, 6.0)])
    assert s.count == 3
    assert s.mean == pytest.approx(4.0)
    assert s.min == 2.0
    assert s.max == 6.0
    assert s.last == 6.0
    assert s.last_t == 2.0


def test_empty_summary_is_merge_identity_and_serializes_null():
    empty = SignalSummary()
    full = summary_of([(0.0, 1.0), (1.0, 3.0)])
    assert empty.merge(full) == full
    assert full.merge(empty) == full
    assert empty.to_json() == {
        "samples": 0, "mean": None, "min": None,
        "max": None, "last": None,
    }


def test_merge_is_associative():
    """merge(a, merge(b, c)) == merge(merge(a, b), c): exactly for
    count/min/max/last, to float tolerance for the mean (float sums
    are not bitwise-associative)."""
    a = summary_of([(0.0, 5.0), (1.0, 0.3)])
    b = summary_of([(0.5, 2.7), (2.0, 9.1), (3.0, 1.1)])
    c = summary_of([(4.0, 7.7)])
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left.count == right.count == 6
    assert left.min == right.min == 0.3
    assert left.max == right.max == 9.1
    assert left.last == right.last == 7.7
    assert left.last_t == right.last_t == 4.0
    assert left.mean == pytest.approx(right.mean)


def test_merge_last_follows_the_latest_timestamp():
    early = summary_of([(0.0, 1.0)])
    late = summary_of([(5.0, 9.0)])
    assert early.merge(late).last == 9.0
    assert late.merge(early).last == 9.0
    # A timestamp tie deterministically picks the merged-in side.
    tie = summary_of([(5.0, 2.0)])
    assert late.merge(tie).last == 2.0


# ----------------------------------------------------------------------
# rollups through a live engine


def test_fleet_rollup_folds_host_region_fleet():
    with make_engine() as engine:
        engine.run_ticks(40)
        rollup = engine.fleet_rollup(window_s=30.0)
        assert {h.host_id for h in rollup.hosts} == {"h0", "h1", "h2"}
        assert set(rollup.regions) == {"east", "west"}
        assert rollup.regions["east"].hosts == 2
        assert rollup.regions["west"].hosts == 1
        for signal in ROLLUP_SIGNALS:
            fleet_count = rollup.signals[signal].count
            assert fleet_count == sum(
                r.signals[signal].count
                for r in rollup.regions.values()
            )
            assert fleet_count == sum(
                h.signals[signal].count for h in rollup.hosts
            )
        # Hosts ticked 40s with a 30s window: pressure samples exist.
        assert rollup.signals["psi_mem_some"].count > 0


def test_rollup_queries_are_digest_neutral():
    """Query-twice == query-never, at the engine level: the rollup
    engine must never register a series (e.g. ``senpai/degraded`` on
    a host whose controller never recorded it)."""
    with make_engine() as queried, make_engine() as quiet:
        queried.run_ticks(40)
        quiet.run_ticks(40)
        for _ in range(3):
            queried.fleet_rollup(window_s=30.0)
            queried.top_hosts("refault_rate", n=3, window_s=30.0)
        assert queried.fleet_digest() == quiet.fleet_digest()


def test_sampling_health_twice_keeps_digest_identical():
    """The regression the ISSUE names: ``sample_host`` used to
    register phantom series (a gswap host has no ``senpai/degraded``)
    and mutate the digest from a read path."""
    with make_engine() as sampled, make_engine() as untouched:
        sampled.run_ticks(30)
        untouched.run_ticks(30)
        entry = sampled.registry.get("h0")
        for _ in range(2):
            sample_host(entry, 0.0, 30.0)
        assert (
            metrics_digest(entry.host.metrics)
            == metrics_digest(untouched.registry.get("h0").host.metrics)
        )
        assert sampled.fleet_digest() == untouched.fleet_digest()


def test_top_ranks_by_window_mean_and_validates_signal():
    with make_engine() as engine:
        engine.run_ticks(40)
        report = engine.top_hosts("psi_mem_some", n=2, window_s=30.0)
        assert report["kind"] == "fleetd-top"
        assert len(report["hosts"]) == 2
        means = [h["mean"] for h in report["hosts"]]
        assert all(m is not None for m in means)
        assert means == sorted(means, reverse=True)
        with pytest.raises(RollupError, match="unknown signal"):
            engine.top_hosts("typo_signal")
        with pytest.raises(RollupError, match="at least 1"):
            engine.top_hosts("psi_mem_some", n=0)


def test_rollup_window_must_be_positive():
    with make_engine() as engine:
        with pytest.raises(RollupError, match="window_s"):
            engine.fleet_rollup(window_s=0.0)


@pytest.mark.parametrize("window_s", [-5.0, 0.0, float("nan")])
def test_empty_fleet_refuses_a_non_positive_window(window_s):
    # With no host registered there is no per-host read to reject the
    # window, so the fleet-level queries must refuse it themselves
    # rather than stamp it on an empty envelope.
    with FleetdEngine() as engine:
        with pytest.raises(RollupError, match="window_s"):
            engine.fleet_rollup(window_s)
        with pytest.raises(RollupError, match="window_s"):
            engine.top_hosts("psi_mem_some", 5, window_s)


# ----------------------------------------------------------------------
# envelopes: encode / validate-on-read


def test_fleet_rollup_envelope_round_trips():
    with make_engine() as engine:
        engine.run_ticks(40)
        doc = json.loads(
            encode_envelope(engine.fleet_rollup(30.0).to_json())
        )
        parsed = parse_fleet_rollup(doc)
        assert parsed["schema_version"] == ROLLUP_SCHEMA_VERSION
        assert parsed["fleet"]["hosts"] == 3
        top_doc = json.loads(encode_envelope(
            engine.top_hosts("swap_bytes", n=3, window_s=30.0)
        ))
        assert parse_top_report(top_doc)["signal"] == "swap_bytes"


def test_encode_envelope_rejects_non_finite_numbers():
    with pytest.raises(ValueError, match="non-finite"):
        encode_envelope({"mean": float("nan")})
    with pytest.raises(ValueError, match="non-finite"):
        encode_envelope({"deep": [{"x": float("inf")}]})


def test_parse_rejects_foreign_and_non_finite_documents():
    with pytest.raises(ValueError, match="JSON object"):
        parse_fleet_rollup("nope")
    with pytest.raises(ValueError, match="schema_version"):
        parse_fleet_rollup({"schema_version": 99})
    with pytest.raises(ValueError, match="kind"):
        parse_fleet_rollup({
            "schema_version": ROLLUP_SCHEMA_VERSION,
            "kind": "fleetd-rollout",
        })
    with pytest.raises(ValueError, match="host list"):
        parse_fleet_rollup({
            "schema_version": ROLLUP_SCHEMA_VERSION,
            "kind": "fleetd-rollup",
        })
    with pytest.raises(ValueError, match="non-finite"):
        parse_fleet_rollup({
            "schema_version": ROLLUP_SCHEMA_VERSION,
            "kind": "fleetd-rollup",
            "hosts": [{"mean": float("nan")}],
            "fleet": {},
        })
    with pytest.raises(ValueError, match="unknown signal"):
        parse_top_report({
            "schema_version": ROLLUP_SCHEMA_VERSION,
            "kind": "fleetd-top",
            "hosts": [],
            "signal": "bogus",
        })


def test_empty_fleet_rollup_is_valid_and_nan_free():
    with make_engine(regions=()) as engine:
        engine.run_ticks(5)
        doc = json.loads(
            encode_envelope(engine.fleet_rollup(30.0).to_json())
        )
        parsed = parse_fleet_rollup(doc)
        assert parsed["fleet"]["hosts"] == 0
        for summary in parsed["fleet"]["signals"].values():
            assert summary == {
                "samples": 0, "mean": None, "min": None,
                "max": None, "last": None,
            }


# ----------------------------------------------------------------------
# region-aware wave planning


def test_plan_waves_no_region_is_all_canary():
    regions = {"a": "east", "b": "east", "c": "west", "d": "west",
               "e": "west"}
    waves = plan_waves(("a", "b", "c", "d", "e"), 0.4, 0.5,
                       regions=regions)
    canary = set(waves[0])
    for region in ("east", "west"):
        members = {h for h, r in regions.items() if r == region}
        assert members - canary, f"region {region} went all-canary"
    assert sorted(h for w in waves for h in w) == list("abcde")


def test_plan_waves_canary_draws_round_robin_across_regions():
    regions = {"a": "east", "b": "east", "c": "east",
               "d": "west", "e": "west", "f": "west"}
    waves = plan_waves(("a", "b", "c", "d", "e", "f"), 0.34, 1.0,
                       regions=regions)
    # Target 2 canaries: one from each region, not two from east.
    assert waves[0] == ["a", "d"]


def test_plan_waves_single_host_regions_fall_back_to_first_host():
    regions = {"a": "r1", "b": "r2", "c": "r3"}
    waves = plan_waves(("a", "b", "c"), 0.5, 1.0, regions=regions)
    assert waves[0] == ["a"]
    assert sorted(h for w in waves for h in w) == ["a", "b", "c"]


def test_plan_waves_single_region_matches_legacy_plan():
    """One distinct region (or no region map) must keep the legacy
    order-preserving split byte-identical — existing fleets see no
    wave-shape change."""
    hosts = ("a", "b", "c", "d")
    legacy = plan_waves(hosts, 0.25, 0.5)
    assert plan_waves(hosts, 0.25, 0.5,
                      regions={h: "only" for h in hosts}) == legacy
    assert plan_waves(hosts, 0.25, 0.5, regions=None) == legacy


def test_region_aware_rollout_keeps_east_partially_on_incumbent():
    """End to end: a rollout over a two-region fleet canaries without
    putting either multi-host region fully on the candidate."""
    with make_engine(regions=("east", "east", "west", "west")) as engine:
        engine.run_ticks(25)
        from repro.fleetd.policy import PolicySpec
        engine.begin_rollout(PolicySpec.make("autotune"))
        engine.run_ticks(1)
        canary = engine.active.result.waves[0].host_ids
        regions = {
            h: engine.registry.get(h).region for h in canary
        }
        for region in ("east", "west"):
            in_region = [
                e for e in engine.registry.values()
                if e.region == region
            ]
            canaried = [h for h, r in regions.items() if r == region]
            assert len(canaried) < len(in_region)
        engine.run_ticks(60)
        assert engine.rollout_result(1).status == "succeeded"


# ----------------------------------------------------------------------
# the health gate names starved signals


def test_gate_names_the_signal_with_no_data():
    base = gate_rollup()
    observed = gate_rollup(
        {"psi_mem_some": 0, "psi_io_some": 2, "refault_rate": 1}
    )
    verdict = evaluate_gate("h0", base, observed)
    assert not verdict.passed
    assert any(
        "no psi_mem_some samples" in r for r in verdict.reasons
    )
    assert not any(
        "psi_io_some samples" in r for r in verdict.reasons
    )


def test_live_sample_host_tracks_per_signal_counts():
    with make_engine() as engine:
        engine.run_ticks(30)
        entry = engine.registry.get("h0")
        rollup = sample_host(entry, 0.0, 30.0)
        assert rollup.window_s == 30.0
        for signal in ("psi_mem_some", "psi_io_some", "refault_rate"):
            count = rollup.signals[signal].count
            assert count == len(entry.host.metrics.read_window(
                f"app/{ROLLUP_SIGNALS[signal]}", 0.0, 30.0
            ))
            assert count > 0
        # The metrics verb's host entry is the same read, reported
        # against the requested trailing window.
        served = engine.fleet_rollup(window_s=30.0).hosts[0]
        assert served.signals == rollup.signals
