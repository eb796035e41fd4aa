"""Unit tests for the queued-device latency model and the latency
reservoir its operations feed."""

import numpy as np
import pytest

from repro.backends.base import IoKind, LatencyReservoir
from repro.backends.device import DeviceSpec, QueuedDevice
from repro.checkpoint.state import decode_state, encode_state


def make_device(read_iops=1000.0, seed=1, sigma=0.5):
    spec = DeviceSpec(
        name="d",
        read_iops=read_iops,
        write_iops=read_iops / 2,
        read_latency_p50_us=100.0,
        write_latency_p50_us=200.0,
        latency_sigma=sigma,
    )
    return QueuedDevice(spec, np.random.default_rng(seed))


def test_idle_device_has_zero_utilization():
    dev = make_device()
    assert dev.utilization == 0.0


def test_latency_positive_and_roughly_scaled():
    dev = make_device(sigma=0.01)  # nearly deterministic
    lat = dev.issue(IoKind.READ)
    assert lat == pytest.approx(100e-6, rel=0.1)
    lat_w = dev.issue(IoKind.WRITE)
    assert lat_w == pytest.approx(200e-6, rel=0.1)


def test_utilization_rises_with_load():
    dev = make_device(read_iops=100.0)
    for _ in range(50):
        dev.issue(IoKind.READ)
    dev.on_tick(1.0, dt=1.0)  # 50 ops in 1s vs 100 iops
    # Rate window smooths: utilisation is positive and below the cap.
    assert 0.0 < dev.utilization <= 0.95


def test_saturation_inflates_latency():
    calm = make_device(read_iops=100.0, seed=3, sigma=0.01)
    busy = make_device(read_iops=100.0, seed=3, sigma=0.01)
    for _ in range(10):
        for _ in range(500):
            busy.issue(IoKind.READ)
        busy.on_tick(0.0, dt=1.0)
    assert busy.utilization == pytest.approx(0.95)
    assert busy.issue(IoKind.READ) > 5 * calm.issue(IoKind.READ)


def test_weighted_ops_count_toward_utilization():
    dev = make_device(read_iops=100.0)
    dev.issue(IoKind.READ, weight=50.0)
    dev.on_tick(0.0, dt=1.0)
    assert dev.utilization > 0.05


def test_rates_decay_when_idle():
    dev = make_device(read_iops=100.0)
    for _ in range(100):
        dev.issue(IoKind.READ)
    dev.on_tick(0.0, dt=1.0)
    busy_util = dev.utilization
    for _ in range(100):
        dev.on_tick(0.0, dt=1.0)
    assert dev.utilization < busy_util / 10


# ----------------------------------------------------------------------
# latency reservoir percentiles


def window_percentile(samples, q):
    """The order statistic :meth:`LatencyReservoir.percentile` picks."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1,
                       int(round(q / 100.0 * (len(ordered) - 1))))]


def test_reservoir_percentile_is_memoized_until_the_next_write(monkeypatch):
    calls = []
    partition = np.partition

    def counting(*args, **kwargs):
        calls.append(1)
        return partition(*args, **kwargs)

    monkeypatch.setattr(np, "partition", counting)
    reservoir = LatencyReservoir(capacity_entries=8)
    assert reservoir.percentile(90.0) == 0.0
    rng = np.random.default_rng(3)
    window = []
    for value in rng.random(30).tolist():  # wraps the buffer
        reservoir.add(value)
        window = (window + [value])[-8:]
        for q in (90.0, 50.0, 90.0):
            assert reservoir.percentile(q) == window_percentile(window, q)
        before = len(calls)
        assert reservoir.percentile(90.0) == window_percentile(window, 90.0)
        assert len(calls) == before  # no write since: the memo answers
    # Each write invalidates the memo: every q switch recomputes too.
    assert len(calls) == 30 * 3


def test_restored_reservoir_answers_the_same_percentile():
    source = LatencyReservoir(capacity_entries=8)
    target = LatencyReservoir(capacity_entries=8)
    for value in (5.0, 1.0, 4.0, 2.0, 3.0):
        source.add(value)
        target.add(10.0 * value)  # the same write count, other samples
    expected = source.percentile(90.0)
    assert target.percentile(90.0) != expected
    twin = decode_state(encode_state(source))
    assert twin.percentile(90.0) == expected
    target.__restore__(source.__snapshot__())  # in place, over a memo
    assert target.percentile(90.0) == expected
