"""Checkpoint/restore: round-trip fidelity and loud refusal of bad input.

Three families of guarantees, per docs/RESILIENCE.md "Recovery":

* **Crash equivalence** — snapshot → kill → restore → continue yields
  byte-identical metric series to never having crashed.
* **Refusal** — a truncated, version-skewed or bit-flipped snapshot
  raises :class:`SnapshotError` naming the offending field or byte
  offset, and never produces a half-restored host.
* **Restore fidelity** — the PR 3 hardening state (circuit-breaker
  phase, per-cgroup error backoff, device fault seams) survives the
  round trip field by field, not just "the digests happen to match".
"""

import copy

import pytest

import repro.checkpoint as checkpoint
from repro.checkpoint import (
    SCHEMA_VERSION,
    SnapshotError,
    load_snapshot,
    restore_host,
    save_snapshot,
    snapshot_host,
)
from repro.checkpoint.snapshot import (
    dump_envelope,
    parse_document,
    payload_digest,
)
from repro.checkpoint.state import decode_state, encode_state
from repro.core.senpai import Senpai, SenpaiConfig, _CgroupState
from repro.faults.chaos import ChaosConfig, build_chaos_host
from repro.sim.host import Host, HostConfig
from repro.sim.metrics import metrics_digest
from repro.workloads.web import WebWorkload

MB = 1 << 20


def small_host(backend: str = "ssd", seed: int = 11) -> Host:
    host = Host(HostConfig(
        ram_gb=1.0, page_size_bytes=1 * MB, ncpu=8,
        backend=backend, seed=seed,
    ))
    host.add_workload(WebWorkload, name="app", size_scale=0.01)
    host.add_controller(Senpai(SenpaiConfig(interval_s=30.0)))
    return host


# ----------------------------------------------------------------------
# round trip


def test_restore_then_resnapshot_is_byte_identical():
    host = small_host()
    host.run(120.0)
    envelope = host.snapshot()
    restored = Host.restore(envelope)
    again = restored.snapshot()
    assert dump_envelope(again) == dump_envelope(envelope)


@pytest.mark.parametrize("backend", ["zswap", "ssd", "tiered"])
def test_crash_equivalence_per_backend(backend):
    control = small_host(backend=backend)
    control.run(240.0)

    victim = small_host(backend=backend)
    victim.run(120.0)
    text = dump_envelope(victim.snapshot())
    del victim  # the kill: only the serialized text survives
    restored = Host.restore(parse_document(text))
    restored.run(120.0)

    assert metrics_digest(restored.metrics) == metrics_digest(
        control.metrics
    )


def test_crash_equivalence_under_chaos_with_supervisor():
    config = ChaosConfig(
        seed=5, duration_s=300.0, supervised=True, controller_faults=1,
    )
    control, _, _ = build_chaos_host(config)
    control.run(300.0)

    victim, _, _ = build_chaos_host(config)
    victim.run(150.0)
    text = dump_envelope(victim.snapshot())
    del victim
    restored = Host.restore(parse_document(text))
    restored.run(150.0)

    assert metrics_digest(restored.metrics) == metrics_digest(
        control.metrics
    )


def test_save_and_load_snapshot_file(tmp_path):
    host = small_host()
    host.run(90.0)
    path = tmp_path / "host.json"
    digest = save_snapshot(host, str(path))
    assert host.snapshot()["digest"] == digest
    restored = load_snapshot(str(path))
    assert restored.clock.now == host.clock.now
    assert metrics_digest(restored.metrics) == metrics_digest(
        host.metrics
    )


def test_failed_save_keeps_the_previous_snapshot(tmp_path, monkeypatch):
    host = small_host()
    host.run(60.0)
    path = tmp_path / "host.json"
    digest = save_snapshot(host, str(path))
    host.run(30.0)

    def broken_dump(envelope):
        raise OSError("killed mid-write")

    monkeypatch.setattr(checkpoint, "dump_envelope", broken_dump)
    with pytest.raises(OSError):
        save_snapshot(host, str(path))
    restored = load_snapshot(str(path))
    assert restored.clock.now == 60.0
    assert restored.snapshot()["digest"] == digest


# ----------------------------------------------------------------------
# refusing bad snapshots (loudly)


def test_truncated_snapshot_names_the_byte_offset(tmp_path):
    host = small_host()
    host.run(60.0)
    path = tmp_path / "host.json"
    save_snapshot(host, str(path))
    text = path.read_text(encoding="utf-8")
    cut = len(text) // 2
    path.write_text(text[:cut], encoding="utf-8")
    with pytest.raises(SnapshotError) as excinfo:
        load_snapshot(str(path))
    assert excinfo.value.offset is not None
    assert excinfo.value.offset <= cut
    assert "offset" in str(excinfo.value)


def test_schema_version_mismatch_names_the_field():
    host = small_host()
    host.run(60.0)
    envelope = host.snapshot()
    envelope["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(SnapshotError) as excinfo:
        restore_host(envelope)
    assert excinfo.value.field == "schema_version"
    assert str(SCHEMA_VERSION) in str(excinfo.value)


def test_digest_mismatch_names_the_field():
    host = small_host()
    host.run(60.0)
    envelope = copy.deepcopy(host.snapshot())
    envelope["payload"]["config"][0] += 1.0  # corrupt one field (ram_gb)
    with pytest.raises(SnapshotError) as excinfo:
        restore_host(envelope)
    assert excinfo.value.field == "digest"


def test_missing_envelope_key_names_the_field():
    host = small_host()
    host.run(60.0)
    envelope = host.snapshot()
    del envelope["digest"]
    with pytest.raises(SnapshotError) as excinfo:
        restore_host(envelope)
    assert excinfo.value.field == "digest"


def test_bad_snapshot_never_yields_a_half_restored_host():
    host = small_host()
    host.run(60.0)
    text = dump_envelope(host.snapshot())
    # Corruption deep in the payload (an unknown workload type) must be
    # caught by the digest check, before any construction begins.
    tag = "repro.workloads.web:WebWorkload"
    assert tag in text
    envelope = parse_document(text.replace(tag, "repro.workloads.web:Bogus"))
    result = None
    with pytest.raises(SnapshotError) as excinfo:
        result = restore_host(envelope)
    assert result is None
    assert excinfo.value.field == "digest"


def test_unknown_class_in_a_valid_document_is_refused():
    host = small_host()
    host.run(60.0)
    text = dump_envelope(host.snapshot()).replace(
        "repro.workloads.web:WebWorkload", "repro.workloads.web:Bogus"
    )
    envelope = parse_document(text)
    envelope["digest"] = payload_digest(envelope["payload"])
    with pytest.raises(SnapshotError, match="repro.workloads.web:Bogus"):
        restore_host(envelope)


# ----------------------------------------------------------------------
# restore fidelity of the PR 3 hardening state


def test_breaker_phase_survives_restore():
    host = small_host()
    host.run(60.0)
    senpai = host.controllers()[-1]
    assert isinstance(senpai, Senpai)
    senpai.breaker_state = "open"
    senpai.breaker_open_count = 2
    senpai.breaker_reclose_count = 1
    senpai._breaker_faulty_streak = 1
    senpai._breaker_opened_at_s = 55.0
    senpai.stale_skips = 3
    senpai.error_skips = 4

    restored = Host.restore(host.snapshot())
    twin = restored.controllers()[-1]
    assert twin.breaker_state == "open"
    assert twin.breaker_open_count == 2
    assert twin.breaker_reclose_count == 1
    assert twin._breaker_faulty_streak == 1
    assert twin._breaker_opened_at_s == 55.0
    assert twin.stale_skips == 3
    assert twin.error_skips == 4


def test_per_cgroup_backoff_timers_survive_restore():
    host = small_host()
    host.run(60.0)
    senpai = host.controllers()[-1]
    senpai._states["app"] = _CgroupState(
        last_mem_total=1.25, last_io_total=0.5, seen=True,
        error_streak=3, skip_until_s=420.0,
    )

    restored = Host.restore(host.snapshot())
    twin_state = restored.controllers()[-1]._states["app"]
    assert twin_state.last_mem_total == 1.25
    assert twin_state.last_io_total == 0.5
    assert twin_state.seen is True
    assert twin_state.error_streak == 3
    assert twin_state.skip_until_s == 420.0


def test_device_fault_state_survives_restore():
    # The SSD swap backend shares one queued device with the
    # filesystem backend, so there is exactly one fault seam to check.
    host = small_host(backend="ssd")
    host.run(60.0)
    assert host.fs.device is host.swap_backend.device
    faults = host.swap_backend.device.faults
    faults.latency_multiplier = 2.5
    faults.io_error_rate = 0.125
    faults.available = False

    restored = Host.restore(host.snapshot())
    assert restored.fs.device is restored.swap_backend.device
    twin = restored.swap_backend.device.faults
    assert twin.latency_multiplier == 2.5
    assert twin.io_error_rate == 0.125
    assert twin.available is False


def test_zswap_fault_state_survives_restore_independently():
    # zswap has its own seam, distinct from the filesystem device's.
    host = small_host(backend="zswap")
    host.run(60.0)
    host.swap_backend.faults.io_error_rate = 0.25
    host.fs.device.faults.latency_multiplier = 3.0

    restored = Host.restore(host.snapshot())
    assert restored.swap_backend.faults.io_error_rate == 0.25
    assert restored.swap_backend.faults.latency_multiplier == 1.0
    assert restored.fs.device.faults.latency_multiplier == 3.0
    assert restored.fs.device.faults.io_error_rate == 0.0


def test_fault_counts_keep_their_order_across_restore():
    # Canonical JSON sorts object keys; dicts are ordered pairs so a
    # resumed chaos run reports fault_counts in the original order.
    for seed in (1, 5):
        host, injector, _ = build_chaos_host(
            ChaosConfig(seed=seed, duration_s=600.0)
        )
        host.run(600.0)
        assert list(injector.injected) != sorted(injector.injected)
        text = dump_envelope(host.snapshot())
        restored = Host.restore(parse_document(text))
        (twin,) = [
            c for c in restored.controllers()
            if type(c) is type(injector)
        ]
        assert list(twin.injected) == list(injector.injected)


# ----------------------------------------------------------------------
# controller documents: gswap + the control-plane supervisor fields


def test_gswap_controller_codec_round_trips():
    from repro.core.gswap import GSwapConfig, GSwapController, _GswapState

    controller = GSwapController(GSwapConfig(
        target_promotion_rate=42.0, interval_s=7.0, cgroups=("app",),
    ))
    controller._states["app"] = _GswapState(
        step_frac=0.004, last_pswpin=123, seen=True,
    )
    controller._next_poll = 99.0
    doc = encode_state(controller)
    restored = decode_state(doc)
    assert isinstance(restored, GSwapController)
    assert restored.config == controller.config
    assert restored._states == controller._states
    assert restored._next_poll == 99.0
    # Round-tripping the restored instance is byte-stable.
    assert encode_state(restored) == doc


def test_supervisor_codec_carries_unquarantine_count():
    from repro.core.supervisor import Supervisor, SupervisorConfig

    sup = Supervisor(Senpai(SenpaiConfig()), SupervisorConfig())
    sup.unquarantine_count = 3
    restored = decode_state(encode_state(sup))
    assert isinstance(restored, Supervisor)
    assert restored.unquarantine_count == 3
