"""One simulated server.

A :class:`Host` assembles the substrate — memory manager, PSI, offload
backends, CPU model — hosts workload containers, and runs controllers
(Senpai, g-swap, ...) against them in a deterministic tick loop.

Per tick:

1. every workload runs one quantum, resolving faults through the MM and
   reporting stall time split by pressure kind;
2. the scheduler model apportions CPU and lays each thread's run/stall
   segments onto the PSI timeline as exact state transitions;
3. devices fold their utilisation windows, reclaim-balance rate EMAs
   update, controllers poll, metrics record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

from repro.backends.base import OffloadBackend
from repro.backends.filesystem import FilesystemBackend
from repro.backends.nvm import make_cxl, make_nvm
from repro.backends.ssd import SsdSwapBackend, make_ssd_device
from repro.backends.tiered import TieredBackend
from repro.backends.zswap import ZswapBackend
from repro.kernel.controlfs import ControlFs
from repro.kernel.mm import MemoryManager
from repro.kernel.reclaim import (
    LegacyReclaimPolicy,
    ReclaimPolicy,
    TmoReclaimPolicy,
)
from repro.psi.tracker import PsiSystem, PsiTask
from repro.psi.types import Resource, TaskFlags
from repro.sim.clock import Clock
from repro.sim.invariants import InvariantChecker, checking_enabled
from repro.sim.metrics import MetricsRecorder
from repro.sim.rng import derive_rng
from repro.workloads.apps import AppProfile
from repro.workloads.base import TickResult, Workload

_GB = 1 << 30
_MB = 1 << 20


class Controller(Protocol):
    """Anything that observes the host and drives offloading."""

    def poll(self, host: "Host", now: float) -> None:
        """Called once per tick; the controller keeps its own schedule."""
        ...


class UnknownWorkloadError(KeyError):
    """An operation named a workload the host does not currently run.

    Subclasses :class:`KeyError` so callers that treated the old
    dict-lookup failure as a KeyError keep working.
    """


@dataclass
class HostConfig:
    """Hardware and substrate configuration of one server.

    Defaults model the paper's experimental hosts: production Skylake
    with 64 GB of DRAM (Section 4.2), one NVMe SSD shared by the
    filesystem and swap.

    Attributes:
        ram_gb: physical DRAM.
        ncpu: logical CPUs.
        page_size_bytes: bytes per simulated page (granularity knob).
        seed: master seed; everything stochastic derives from it.
        backend: ``"ssd"``, ``"zswap"`` or ``None`` (file-only mode).
        ssd_model: catalog letter for the host's SSD (A..G).
        swap_gb: swap partition size when backend is ``"ssd"``.
        zswap_algorithm / zswap_allocator: pool configuration.
        zswap_max_frac: cap on the pool as a fraction of RAM.
        reclaim_policy: ``"tmo"`` or ``"legacy"`` balance algorithm.
        tick_s: simulation quantum.
        check_invariants: run :mod:`repro.sim.invariants` after every
            tick. ``None`` (the default) defers to the
            ``TMO_CHECK_INVARIANTS`` environment variable.
    """

    ram_gb: float = 64.0
    ncpu: int = 36
    page_size_bytes: int = 4 * _MB
    seed: int = 1234
    backend: Optional[str] = "zswap"
    ssd_model: str = "C"
    swap_gb: float = 32.0
    zswap_algorithm: str = "zstd"
    zswap_allocator: str = "zsmalloc"
    zswap_max_frac: float = 0.25
    reclaim_policy: str = "tmo"
    tick_s: float = 1.0
    check_invariants: Optional[bool] = None

    @property
    def ram_bytes(self) -> int:
        return int(self.ram_gb * _GB)


@dataclass
class HostedWorkload:
    """A workload container plus its PSI plumbing."""

    workload: Workload
    cgroup_name: str
    psi_tasks: List[PsiTask]


#: Segment kinds in the per-thread tick timeline, mapped to PSI flags.
_SEGMENT_FLAGS: Tuple[TaskFlags, ...] = (
    TaskFlags.RUNNING,
    TaskFlags.MEMSTALL,
    TaskFlags.MEMSTALL | TaskFlags.IOSTALL,
    TaskFlags.IOSTALL,
    TaskFlags.RUNNABLE,
    TaskFlags.NONE,
)


class Host:
    """A simulated server running containers under optional controllers."""

    # Snapshot state (repro.checkpoint.state), owners before borrowers:
    # workloads refer to the memory manager and PSI tasks.
    __state__ = (
        "clock", "psi", "metrics", "fs", "swap_backend", "mm",
        "controlfs", "_hosted", "_controllers", "_tick_index",
        "_prev_device_stats",
    )
    # The config is saved beside the host state and rebuilds the host
    # on restore, invariant checker included (its memory of the last
    # PSI totals starts afresh); the rest is per-tick scratch and
    # interned names.
    __transient__ = (
        "config", "invariants", "_psi_events", "_psi_durations",
        "_metric_names",
    )
    clock: Clock
    psi: PsiSystem
    metrics: MetricsRecorder
    fs: FilesystemBackend
    swap_backend: Optional[OffloadBackend]
    mm: MemoryManager
    controlfs: ControlFs
    _hosted: Dict[str, HostedWorkload]
    _controllers: List[Controller]
    _prev_device_stats: Dict[str, Tuple[int, int, int]]

    def __init__(self, config: HostConfig = HostConfig()) -> None:
        self.config = config
        self.clock = Clock()
        self.psi = PsiSystem(ncpu=config.ncpu)
        self.metrics = MetricsRecorder()
        self._controllers = []
        self._hosted = {}
        self._tick_index = 0
        self._prev_device_stats = {}
        # Scratch buffers reused by _feed_psi every tick, so the hot
        # path allocates no per-tick lists.
        self._psi_events: List[Tuple[float, int, PsiTask, TaskFlags]] = []
        self._psi_durations: List[float] = [0.0] * len(_SEGMENT_FLAGS)
        # Per-workload metric names, interned once instead of rebuilding
        # ~13 f-strings per workload every tick.
        self._metric_names: Dict[str, Tuple[str, ...]] = {}

        # --- devices: the filesystem SSD is always present; when the
        # backend is SSD swap, swap shares the same physical device.
        fs_device = make_ssd_device(
            config.ssd_model, derive_rng(config.seed, "device:fs")
        )
        self.fs = FilesystemBackend(
            config.ssd_model, derive_rng(config.seed, "backend:fs"),
            device=fs_device,
        )
        if config.backend == "ssd":
            swap_backend = SsdSwapBackend(
                config.ssd_model,
                derive_rng(config.seed, "backend:swap"),
                capacity_bytes=int(config.swap_gb * _GB),
                device=fs_device,  # shared physical SSD (Figure 6 layout)
            )
        elif config.backend == "zswap":
            swap_backend = ZswapBackend(
                derive_rng(config.seed, "backend:zswap"),
                algorithm=config.zswap_algorithm,
                allocator=config.zswap_allocator,
                max_pool_bytes=int(config.zswap_max_frac * config.ram_bytes),
            )
        elif config.backend == "tiered":
            # Section 5.2's hierarchy: zswap over SSD swap.
            swap_backend = TieredBackend(
                zswap=ZswapBackend(
                    derive_rng(config.seed, "backend:zswap"),
                    algorithm=config.zswap_algorithm,
                    allocator=config.zswap_allocator,
                    max_pool_bytes=int(
                        config.zswap_max_frac * config.ram_bytes
                    ),
                ),
                ssd=SsdSwapBackend(
                    config.ssd_model,
                    derive_rng(config.seed, "backend:swap"),
                    capacity_bytes=int(config.swap_gb * _GB),
                    device=fs_device,
                ),
            )
        elif config.backend == "nvm":
            swap_backend = make_nvm(
                derive_rng(config.seed, "backend:nvm"),
                capacity_bytes=int(config.swap_gb * _GB),
            )
        elif config.backend == "cxl":
            swap_backend = make_cxl(
                derive_rng(config.seed, "backend:cxl"),
                capacity_bytes=int(config.swap_gb * _GB),
            )
        elif config.backend is None:
            swap_backend = None
        else:
            raise ValueError(
                f"unknown backend {config.backend!r}; "
                "use 'ssd', 'zswap', 'tiered', 'nvm', 'cxl' or None"
            )
        self.swap_backend = swap_backend

        policy = self._make_policy(config.reclaim_policy)
        self.mm = MemoryManager(
            ram_bytes=config.ram_bytes,
            page_size_bytes=config.page_size_bytes,
            fs=self.fs,
            swap_backend=swap_backend,
            policy=policy,
        )
        #: The cgroupfs-style control surface (for file-based daemons).
        self.controlfs = ControlFs(self.mm, self.psi)
        #: Debug-mode state cross-checker; None unless enabled via
        #: config or TMO_CHECK_INVARIANTS.
        self.invariants: Optional[InvariantChecker] = (
            InvariantChecker()
            if checking_enabled(config.check_invariants)
            else None
        )

    @staticmethod
    def _make_policy(name: str) -> ReclaimPolicy:
        if name == "tmo":
            return TmoReclaimPolicy()
        if name == "legacy":
            return LegacyReclaimPolicy()
        raise ValueError(
            f"unknown reclaim policy {name!r}; use 'tmo' or 'legacy'"
        )

    # ------------------------------------------------------------------
    # assembly

    def add_workload(
        self,
        workload_cls,
        profile: Optional[AppProfile] = None,
        name: Optional[str] = None,
        size_scale: float = 1.0,
        **workload_kwargs,
    ) -> Workload:
        """Create a container, its PSI domain and its workload.

        Args:
            workload_cls: :class:`Workload` or a subclass; subclasses that
                bake in their own profile (e.g. WebWorkload) may be passed
                with ``profile=None``.
            profile: app profile for plain workloads.
            name: cgroup name; defaults to a slug of the profile name.
            size_scale: footprint multiplier (lets small hosts run the
                production profiles).
        """
        if profile is not None:
            workload_kwargs.setdefault("profile", profile)
        cgroup_name = name or self._slug(
            profile.name if profile is not None else workload_cls.__name__
        )
        comp = profile.compress_ratio if profile is not None else 3.0
        self.mm.create_cgroup(cgroup_name, compressibility=comp)
        self.psi.add_group(cgroup_name, now=self.clock.now)
        workload = workload_cls(
            self.mm, cgroup_name=cgroup_name, seed=self.config.seed,
            **workload_kwargs,
        )
        workload.start(self.clock.now, size_scale=size_scale)
        tasks = [
            self.psi.add_task(f"{cgroup_name}/t{i}", cgroup_name)
            for i in range(workload.profile.nthreads)
        ]
        self._hosted[cgroup_name] = HostedWorkload(
            workload=workload, cgroup_name=cgroup_name, psi_tasks=tasks
        )
        return workload

    @staticmethod
    def _slug(name: str) -> str:
        return name.lower().replace(" ", "-")

    def add_controller(self, controller: Controller) -> Controller:
        self._controllers.append(controller)
        return controller

    def controllers(self) -> List[Controller]:
        """The attached controllers, in polling order.

        The public view — the fault injector uses it to find controller
        fault seams without reaching into host internals.
        """
        return list(self._controllers)

    # ------------------------------------------------------------------
    # checkpoint/restore (repro.checkpoint)

    def snapshot(self) -> Dict[str, object]:
        """Snapshot the full host state into a versioned envelope.

        The envelope is a JSON-clean dict (schema version, SHA-256
        payload digest, payload); see :mod:`repro.checkpoint`. A host
        restored from it continues bit-identically to this one.
        """
        from repro.checkpoint import snapshot_host

        return snapshot_host(self)

    @classmethod
    def restore(cls, envelope: Dict[str, object]) -> "Host":
        """Rebuild a host from a :meth:`snapshot` envelope.

        Raises :class:`repro.checkpoint.SnapshotError` on a schema
        version mismatch, digest mismatch, or malformed document —
        before any construction, never yielding a half-restored host.
        """
        from repro.checkpoint import restore_host

        return restore_host(envelope)

    def workload(self, name: str) -> Workload:
        return self._hosted[name].workload

    def hosted(self) -> List[HostedWorkload]:
        return list(self._hosted.values())

    def has_workload(self, name: str) -> bool:
        """Whether a container of this name is currently running.

        The public membership test — controllers must use this (or
        :meth:`hosted`) instead of reaching into host internals.
        """
        return name in self._hosted

    def kill_workload(self, name: str, missing_ok: bool = False) -> int:
        """Terminate a container (a userspace OOM-killer action).

        Releases every page the container holds (resident and
        offloaded), settles its PSI tasks to idle, and stops ticking its
        workload. The cgroup itself remains, like a dead but not yet
        removed container. Returns the number of pages released.

        Args:
            missing_ok: when True, killing an already-dead container is
                a no-op returning 0; when False (the default) it raises
                :class:`UnknownWorkloadError` (a ``KeyError``), so a
                racing killer gets a clean, documented signal.
        """
        hosted = self._hosted.pop(name, None)
        if hosted is None:
            if missing_ok:
                return 0
            raise UnknownWorkloadError(name)
        for task in hosted.psi_tasks:
            self.psi.remove_task(task.name, self.clock.now)
        return self.mm.release_cgroup_pages(name)

    # ------------------------------------------------------------------
    # workload-event hooks (used by repro.faults and tests)

    def restart_workload(self, name: str) -> None:
        """Restart a container in place (code push / crash loop).

        The workload drops its entire page population and rebuilds it
        at its current footprint — the restart-storm primitive of the
        fault injector.
        """
        try:
            hosted = self._hosted[name]
        except KeyError:
            raise UnknownWorkloadError(name) from None
        hosted.workload.restart(self.clock.now)

    def spike_workload(self, name: str, grow_frac: float) -> int:
        """Queue a sudden footprint spike on a container.

        The extra anonymous pages (``grow_frac`` of the current
        population) are allocated during the workload's next tick, so
        the resulting allocation stalls and possible OOM land in its
        tick accounting like organic growth. Returns the queued count.
        """
        try:
            hosted = self._hosted[name]
        except KeyError:
            raise UnknownWorkloadError(name) from None
        return hosted.workload.request_spike(grow_frac)

    # ------------------------------------------------------------------
    # the tick loop

    def step(self) -> None:
        """Advance the host by one tick."""
        dt = self.config.tick_s
        now0 = self.clock.now
        results: Dict[str, TickResult] = {}
        for name, hosted in self._hosted.items():
            results[name] = hosted.workload.tick(now0, dt)

        self._feed_psi(results, now0, dt)
        self.clock.advance(dt)
        now1 = self.clock.now
        self.psi.tick(now1)
        self.mm.on_tick(now1, dt)
        for controller in self._controllers:
            controller.poll(self, now1)
        self._record(results, now1, dt)
        self._tick_index += 1
        if self.invariants is not None:
            self.invariants.check(self)

    def run(self, duration_s: float) -> None:
        """Run the host loop for ``duration_s`` of virtual time.

        The loop is driven by an integer tick count derived once from
        the duration, never by float comparisons against the
        accumulating clock: with a tick like 0.1 s (not exactly
        representable) the sum drifts, and an epsilon compare
        eventually executes one tick too many or too few on long runs.
        """
        dt = self.config.tick_s
        ratio = duration_s / dt
        nticks = int(ratio)
        # A genuine fractional remainder gets one more (partial-period)
        # tick, exactly like the old loop; division noise does not.
        if ratio - nticks > 1e-9 * max(1.0, ratio):
            nticks += 1
        for _ in range(nticks):
            self.step()

    @property
    def tick_count(self) -> int:
        """Ticks executed since construction (exact, integer)."""
        return self._tick_index

    # ------------------------------------------------------------------
    # scheduler model -> PSI transitions

    def _feed_psi(
        self, results: Dict[str, TickResult], now0: float, dt: float
    ) -> None:
        """Lay each thread's run/stall segments onto the PSI timeline.

        Hot path: the event and duration buffers are reused across
        ticks, segments that would not change a task's flags are not
        emitted (``set_flags`` would be a no-op), and events carry a
        sequence number so plain tuple sorting reproduces the stable
        time order without a key function.
        """
        capacity = self.config.ncpu * dt
        demand = sum(r.cpu_seconds for r in results.values())
        cpu_share = 1.0 if demand <= capacity else capacity / demand

        events = self._psi_events
        events.clear()
        durations = self._psi_durations
        nseg = len(durations)
        seq = 0
        for name, hosted in self._hosted.items():
            tick = results[name]
            nthreads = max(1, len(hosted.psi_tasks))
            run_demand = tick.cpu_seconds / nthreads
            run = run_demand * cpu_share
            wait = run_demand - run
            durations[0] = run
            durations[1] = tick.stall_mem_s / nthreads
            durations[2] = tick.stall_both_s / nthreads
            durations[3] = tick.stall_io_s / nthreads
            durations[4] = wait
            busy = (
                durations[0] + durations[1] + durations[2]
                + durations[3] + durations[4]
            )
            if busy > dt:
                scale = dt / busy
                for i in range(5):
                    durations[i] *= scale
                busy = dt
            durations[5] = dt - busy  # idle remainder

            for t_idx, task in enumerate(hosted.psi_tasks):
                rotation = (t_idx + self._tick_index) % nseg
                cursor = now0
                last_flags = task.flags
                for step in range(nseg):
                    seg = rotation + step
                    if seg >= nseg:
                        seg -= nseg
                    dur = durations[seg]
                    if dur <= 1e-12:
                        continue
                    flags = _SEGMENT_FLAGS[seg]
                    if flags != last_flags:
                        events.append((cursor, seq, task, flags))
                        seq += 1
                        last_flags = flags
                    cursor += dur

        events.sort()
        for when, _, task, flags in events:
            task.set_flags(flags, when)

    # ------------------------------------------------------------------
    # metrics

    def _device_delta(self, label: str, stats) -> Tuple[int, int, int]:
        """Reads/writes/bytes-written deltas since the last tick."""
        prev = self._prev_device_stats.get(label, (0, 0, 0))
        current = (stats.reads, stats.writes, stats.bytes_written)
        self._prev_device_stats[label] = current
        return (
            current[0] - prev[0],
            current[1] - prev[1],
            current[2] - prev[2],
        )

    def _intern_metric_names(self, name: str) -> Tuple[str, ...]:
        """Build and memoize one workload's metric-series names.

        Out-of-line from :meth:`_record`'s per-workload loop so the
        string formatting happens once per workload lifetime, not once
        per tick, and recording allocates no names in the tick loop.
        """
        names = tuple(
            f"{name}/{suffix}" for suffix in (
                "resident_bytes", "anon_bytes", "file_bytes",
                "swap_bytes", "zswap_bytes", "promotion_rate",
                "refaults", "rps", "oom",
                "psi_mem_some_avg10", "psi_io_some_avg10",
                "psi_mem_some_total", "psi_io_some_total",
            )
        )
        self._metric_names[name] = names
        return names

    def _record(
        self, results: Dict[str, TickResult], now: float, dt: float
    ) -> None:
        rec = self.metrics.record
        rec("host/free_bytes", now, self.mm.free_bytes())
        rec("host/used_bytes", now, self.mm.used_bytes())
        rec("host/zswap_pool_bytes", now, self.mm.zswap_pool_bytes)

        fs_reads, _, _ = self._device_delta("fs", self.fs.stats)
        rec("fs/read_rate", now, fs_reads / dt)
        rec(
            "fs/read_latency_p90",
            now,
            self.fs.stats.latencies.percentile(90.0),
        )
        if self.swap_backend is not None:
            _, _, wbytes = self._device_delta(
                "swap", self.swap_backend.stats
            )
            rec("swap/out_rate_mb_s", now, wbytes / dt / _MB)
            rec("swap/stored_bytes", now, self.swap_backend.stored_bytes)

        for name, hosted in self._hosted.items():
            cg = self.mm.cgroup(name)
            tick = results[name]
            names = self._metric_names.get(name)
            if names is None:
                names = self._intern_metric_names(name)
            (n_resident, n_anon, n_file, n_swap, n_zswap, n_promo,
             n_refaults, n_rps, n_oom, n_mem10, n_io10, n_memtot,
             n_iotot) = names
            rec(n_resident, now, cg.resident_bytes)
            rec(n_anon, now, cg.anon_bytes)
            rec(n_file, now, cg.file_bytes)
            rec(n_swap, now, cg.swap_bytes)
            rec(n_zswap, now, cg.zswap_bytes)
            promotions = tick.count("swapin") + tick.count("zswapin")
            rec(n_promo, now, promotions / dt)
            rec(n_refaults, now, tick.count("refault") / dt)
            rec(n_rps, now, tick.work_done / dt)
            rec(n_oom, now, 1.0 if tick.oom else 0.0)
            group = self.psi.group(name)
            mem_avg10, mem_total = group.quick_read(Resource.MEMORY, now)
            io_avg10, io_total = group.quick_read(Resource.IO, now)
            rec(n_mem10, now, mem_avg10)
            rec(n_io10, now, io_avg10)
            rec(n_memtot, now, mem_total)
            rec(n_iotot, now, io_total)
