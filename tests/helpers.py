"""Shared construction helpers for tests (importable, unlike conftest)."""

from __future__ import annotations

import numpy as np

from repro.backends.filesystem import FilesystemBackend
from repro.backends.ssd import SsdSwapBackend
from repro.backends.zswap import ZswapBackend
from repro.kernel.mm import MemoryManager
from repro.sim.host import Host, HostConfig

MB = 1 << 20
GB = 1 << 30


def make_mm(
    ram_mb: int = 256,
    page_kb: int = 256,
    backend: str = "zswap",
    policy=None,
    seed: int = 42,
) -> MemoryManager:
    """A small MemoryManager with the requested backend."""
    rng_fs = np.random.default_rng(seed)
    rng_sw = np.random.default_rng(seed + 1)
    fs = FilesystemBackend("C", rng_fs)
    if backend == "zswap":
        swap = ZswapBackend(rng_sw)
    elif backend == "ssd":
        swap = SsdSwapBackend("C", rng_sw, capacity_bytes=ram_mb * MB)
    elif backend is None:
        swap = None
    else:
        raise ValueError(backend)
    return MemoryManager(
        ram_bytes=ram_mb * MB,
        page_size_bytes=page_kb * 1024,
        fs=fs,
        swap_backend=swap,
        policy=policy,
    )


def small_host(
    ram_gb: float = 2.0,
    backend="zswap",
    ncpu: int = 8,
    seed: int = 42,
    **kwargs,
) -> Host:
    """A small host for integration tests (1 MiB pages)."""
    config = HostConfig(
        ram_gb=ram_gb,
        ncpu=ncpu,
        page_size_bytes=1 * MB,
        seed=seed,
        backend=backend,
        **kwargs,
    )
    return Host(config)


def gate_rollup(counts=5, psi_mem_some=0.0, **fields):
    """A hand-built host rollup for judging by the rollout gate.

    ``counts`` is the sample count of every gated signal, or a dict of
    per-signal counts; memory pressure averages ``psi_mem_some`` and
    the other signals 0.0. ``fields`` override the flag fields
    (``oom_kills``, ``breaker_open``).
    """
    from repro.fleetd.rollup import ROLLUP_SIGNALS, HostRollup, SignalSummary

    if not isinstance(counts, dict):
        counts = dict.fromkeys(
            ("psi_mem_some", "psi_io_some", "refault_rate"), counts
        )
    means = {"psi_mem_some": psi_mem_some}
    signals = {
        name: SignalSummary(
            count=counts.get(name, 0),
            total=means.get(name, 0.0) * counts.get(name, 0),
        )
        for name in ROLLUP_SIGNALS
    }
    return HostRollup(
        host_id="h", region="default", app="Feed", window_s=30.0,
        signals=signals, **fields,
    )
