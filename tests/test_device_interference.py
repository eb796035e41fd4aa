"""Cross-container device interference (the Figure 6 shared-SSD layout).

Swap and the filesystem share one physical SSD, so one container's
offloading traffic inflates its neighbours' fault latencies — the
indirect channel Section 3.3 gives for monitoring IO PSI: "refaults
induced by Senpai might not impact the workload in the form of fault
latencies, but might slow down the storage device enough to impact the
workload's operation indirectly."
"""

import numpy as np
import pytest

from repro.backends.base import IoKind
from repro.backends.filesystem import FilesystemBackend
from repro.backends.ssd import SsdSwapBackend, make_ssd_device

PAGE = 4096
MB = 1 << 20


def shared_pair(seed=1):
    device = make_ssd_device("C", np.random.default_rng(seed))
    fs = FilesystemBackend("C", np.random.default_rng(seed + 1),
                           device=device)
    swap = SsdSwapBackend("C", np.random.default_rng(seed + 2),
                          capacity_bytes=1 << 30, device=device)
    return device, fs, swap


def hammer(device, kind=IoKind.READ, share=0.9, ticks=60):
    """Drive the device at ``share`` of its IOPS until the utilisation
    window converges (weighted ops: one sampled op stands for many)."""
    budget = (device.spec.read_iops if kind is IoKind.READ
              else device.spec.write_iops)
    for tick in range(ticks):
        device.issue(kind, weight=share * budget)
        device.on_tick(float(tick), dt=1.0)


def test_swap_traffic_inflates_fs_latency():
    device, fs, swap = shared_pair()
    calm = np.median([fs.load(PAGE, 3.0, now=0.0) for _ in range(200)])
    hammer(device)  # a neighbour's swap storm on the shared SSD
    busy = np.median([fs.load(PAGE, 3.0, now=61.0) for _ in range(200)])
    assert busy > 2.0 * calm


def test_dedicated_devices_do_not_interfere():
    _, fs, _ = shared_pair(seed=7)
    other_device, _, _ = shared_pair(seed=9)
    calm = np.median([fs.load(PAGE, 3.0, now=0.0) for _ in range(200)])
    hammer(other_device)  # the storm is on a different physical SSD
    after = np.median([fs.load(PAGE, 3.0, now=61.0) for _ in range(200)])
    assert after < 1.5 * calm


def test_interference_decays_when_neighbour_quiets():
    device, _, _ = shared_pair(seed=3)
    hammer(device)
    busy_util = device.utilization
    assert busy_util > 0.5
    for tick in range(200):
        device.on_tick(100.0 + tick, dt=1.0)
    assert device.utilization < busy_util / 5


def test_writes_and_reads_share_the_budget():
    device, _, _ = shared_pair(seed=5)
    hammer(device, kind=IoKind.WRITE, share=0.6)
    # Write pressure alone pushed utilisation up, which taxes reads.
    assert device.utilization > 0.3
    fresh = make_ssd_device("C", np.random.default_rng(11))
    busy = np.median([device.issue(IoKind.READ) for _ in range(200)])
    calm = np.median([fresh.issue(IoKind.READ) for _ in range(200)])
    assert busy > 1.3 * calm
