"""Serving backends: identical batch semantics on AGILE, BaM, and naive.

A backend owns the simulated machine and turns one :class:`Batch` into one
kernel launch — one GPU thread per request, each thread reading its
request's pages and reporting its own finish time (so per-request latency
is exact, not batch-granular).  The application-side logic is the same in
all three kernels; only the I/O discipline differs, mirroring the paper's
"identical kernel implementations" methodology:

- **agile** — ``ctrl.raw_read`` issues every page asynchronously, then the
  thread waits on the transactions; completions are retired by the AGILE
  service SM (paper §3.2).  Multi-GPU hosts reuse ``core.multigpu``: one
  dispatch worker per GPU node, SSDs genuinely shared.
- **bam** — ``ctrl.read_page`` (``acquire_sync``): every thread polls the
  CQ inline and pays BaM's heavier cache critical sections.
- **naive** — the Figure 1 strawman via
  :class:`~repro.baselines.naive_async.NaiveAsyncEngine`: threads hold SQE
  locks across their own issues and retire their own completions; the
  backend caps batch size so one batch cannot exceed the SQ slots (a
  production-shaped guard against the design's native deadlock).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence

import numpy as np

from repro.baselines.harness import BamHost
from repro.baselines.naive_async import NaiveAsyncEngine
from repro.config import SystemConfig
from repro.core import AgileHost, AgileLockChain
from repro.core.issue import AgileIoError
from repro.core.locks import DeadlockError
from repro.core.multigpu import MultiGpuAgileHost
from repro.gpu.kernel import KernelSpec, LaunchConfig
from repro.nvme.command import Opcode
from repro.serve.batcher import Batch
from repro.serve.request import Request
from repro.sim.engine import SimStallError

#: Registers per serving-kernel thread (raw-read loop + wait, no cache walk).
SERVE_KERNEL_REGISTERS = 48

#: How long a naive-async thread may see zero completion progress before
#: its wait is declared lost (a sibling consumed-and-dropped its CQE) and
#: the request aborts.  Generous against honest queueing delay, small
#: enough to keep saturation sweeps finite.
NAIVE_STALL_NS = 200_000.0


class ServeBackend:
    """Common machinery: scratch buffers, launch plumbing, batch kernels."""

    system = "base"

    def __init__(self) -> None:
        self._scratch: Dict[int, List[Any]] = {}

    # -- interface the engine drives ---------------------------------------

    def _host(self):
        """The simulated host object driving this backend."""
        raise NotImplementedError

    @property
    def sim(self):
        raise NotImplementedError

    @property
    def trace(self):
        """The host's metric registry (serve instruments register here)."""
        raise NotImplementedError

    @property
    def telemetry(self):
        return None

    @property
    def num_workers(self) -> int:
        return 1

    @property
    def max_batch(self) -> int:
        """Backend-imposed ceiling on requests per batch (0 = none)."""
        return 0

    @property
    def supports_writes(self) -> bool:
        """Whether this backend can serve ``op="write"``/``"modify"``
        request classes (the AGILE write path; BaM and naive are read-only
        baselines here)."""
        return False

    @property
    def supports_paged(self) -> bool:
        """Whether this backend can serve ``op="paged"`` classes — reads
        routed through the four-state cache + Share Table so residency and
        eviction are simulated (KV-cache paging needs this)."""
        return False

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def drain(self) -> None:
        pass

    # -- placement ----------------------------------------------------------

    @property
    def placement(self):
        """The host's :class:`~repro.placement.PlacementPolicy`."""
        return self._host().placement

    def place(self, lba: int, tenant: Optional[str] = None) -> tuple:
        """Resolve one logical LBA to physical ``(ssd_idx, device_lba)``.

        The engine resolves every request's pages through this exactly once
        at arrival; sticky policies memoise, so a later in-kernel logical
        read resolves to the same coordinates.
        """
        return self.placement.place(lba, tenant=tenant)

    def device_read_counts(self) -> List[int]:
        """Completed reads per device index (joins on ``index``, not list
        position, so reports survive array regrowth)."""
        stats = self._host().driver.device_stats()
        counts = [0] * len(stats)
        for entry in stats:
            counts[int(entry["index"])] = int(entry["completed_reads"])
        return counts

    def device_write_stats(self) -> List[Dict[str, float]]:
        """Per-device write-path counters (joined on ``index``): the FTL's
        WAF ledger plus completed write count, for the serve report's
        write-amplification and GC-stall columns."""
        stats = self._host().driver.device_stats()
        rows: List[Dict[str, float]] = [{} for _ in stats]
        keys = (
            "completed_writes", "host_programs", "gc_programs", "erases",
            "invalidations", "waf", "gc_runs", "gc_busy_ns",
            "host_gc_stall_ns", "host_gc_stalls", "free_blocks",
            "bad_blocks",
        )
        for entry in stats:
            rows[int(entry["index"])] = {
                k: float(entry[k]) for k in keys if k in entry
            }
        return rows

    def _caches(self) -> List[Any]:
        """Software caches whose eviction write-backs this backend owns."""
        return []

    def writeback_stats(self) -> Dict[str, int]:
        """Eviction write-back ledger summed over the backend's caches:
        snapshots taken, durably acked, and declared lost (terminal write
        failure after recovery retries)."""
        totals = {"writebacks": 0, "writebacks_acked": 0, "writebacks_lost": 0}
        for cache in self._caches():
            for key in totals:
                totals[key] += int(cache.stats.get(key))
        return totals

    def load_pattern(self, classes: Sequence, page_size: int = 4096) -> None:
        """Stage a recognisable pattern under each class's logical region,
        placed through the backend's placement policy with the class name
        as the tenant key (what tenant-affine placement pivots on)."""
        for cls in classes:
            data = np.arange(cls.lba_space * page_size, dtype=np.uint8)
            self._host().load_logical(cls.lba_base, data, tenant=cls.name)

    def run_batch(
        self, worker_idx: int, batch: Batch, finish
    ) -> Generator[Any, Any, None]:
        """Serve one batch on one worker; ``finish(req, ok)`` must be called
        exactly once per request at that request's own completion time."""
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------------

    def _scratch_views(self, worker_idx: int, count: int, alloc) -> List[Any]:
        """Per-(worker, thread) 4 KiB destination buffers, grown on demand
        and reused across batches (host-side allocation, no simulated time)."""
        pool = self._scratch.setdefault(worker_idx, [])
        while len(pool) < count:
            view = alloc(4096)
            view[:] = 0
            pool.append(view)
        return pool

    @staticmethod
    def _launch_geometry(n_threads: int) -> LaunchConfig:
        block = min(n_threads, 128)
        grid = (n_threads + block - 1) // block
        return LaunchConfig(grid, block)


class AgileServeBackend(ServeBackend):
    """AGILE host(s); ``num_gpus > 1`` builds a ``MultiGpuAgileHost``."""

    system = "agile"

    def __init__(
        self,
        cfg: Optional[SystemConfig] = None,
        num_gpus: int = 1,
        telemetry: Optional[bool] = None,
    ):
        super().__init__()
        self.num_gpus = num_gpus
        if num_gpus == 1:
            self.host = AgileHost(cfg, telemetry=telemetry)
            self._multi: Optional[MultiGpuAgileHost] = None
        else:
            self._multi = MultiGpuAgileHost(cfg, num_gpus=num_gpus)
            self.host = None

    def _host(self):
        return self.host if self.host is not None else self._multi

    @property
    def sim(self):
        return self.host.sim if self.host is not None else self._multi.sim

    @property
    def trace(self):
        return self.host.trace if self.host is not None else self._multi.trace

    @property
    def telemetry(self):
        return self.host.telemetry if self.host is not None else None

    @property
    def cfg(self) -> SystemConfig:
        return self.host.cfg if self.host is not None else self._multi.cfg

    @property
    def num_workers(self) -> int:
        return self.num_gpus

    @property
    def supports_writes(self) -> bool:
        return True

    @property
    def supports_paged(self) -> bool:
        # Cache-routed reads need the single-host AGILE cache; the
        # multi-GPU host shards its caches per node and the serve engine
        # does not yet route paged classes node-affinely.
        return self.host is not None

    def _caches(self) -> List[Any]:
        if self.host is not None:
            return [self.host.cache]
        return [node.cache for node in self._multi.nodes]

    def start(self) -> None:
        (self.host or self._multi).start()

    def stop(self) -> None:
        (self.host or self._multi).stop()

    def drain(self) -> None:
        if self.host is not None:
            self.host.drain()

    def run_batch(
        self, worker_idx: int, batch: Batch, finish
    ) -> Generator[Any, Any, None]:
        if self.host is not None:
            alloc = self.host.alloc_view
        else:
            node = self._multi.nodes[worker_idx]
            alloc = lambda n: node.gpu.hbm.alloc(n, label="serve").view  # noqa: E731
        scratch = self._scratch_views(worker_idx, len(batch), alloc)
        requests = batch.requests
        cfg = self._launch_geometry(len(batch))
        n_threads = cfg.grid_dim * cfg.block_dim

        def body(tc, ctrl, _batch_args):
            # Global tids are contiguous within one launch, so modulo the
            # launch width recovers the in-grid index (the repo idiom).
            tid = tc.tid % n_threads
            if tid >= len(requests):
                return
            req: Request = requests[tid]
            chain = AgileLockChain(f"serve.b{batch.bid}.t{tid}")
            dest = scratch[tid]
            op = req.cls.op
            ok = True
            try:
                if op == "modify":
                    # Read-modify-write through the software cache: each
                    # page becomes a MODIFIED line whose device program is
                    # deferred to eviction write-back.
                    for lba in req.logical:
                        yield from ctrl.write_page_logical(
                            tc, chain, lba, dest, tenant=req.cls.name
                        )
                    finish(req, ok)
                    return
                if op == "paged":
                    # Cache-routed reads: hits ride the Share Table, misses
                    # fault the page in and may evict a cold line — the
                    # KV-cache paging residency model runs live here.
                    for lba in req.logical:
                        line = yield from ctrl.read_page_logical(
                            tc, chain, lba, tenant=req.cls.name
                        )
                        ctrl.cache.unpin(line)
                    for ssd, lba in req.pages[len(req.logical):]:
                        line = yield from ctrl.read_page(
                            tc, chain, ssd, lba
                        )
                        ctrl.cache.unpin(line)
                    finish(req, ok)
                    return
                txns = []
                if req.logical:
                    # Logical issue path: the controller re-resolves each
                    # LBA through the same (memoised) placement policy the
                    # engine used at arrival, so coordinates agree.
                    for lba in req.logical:
                        if op == "write":
                            txn = yield from ctrl.raw_write_logical(
                                tc, chain, lba, dest, tenant=req.cls.name
                            )
                        else:
                            txn = yield from ctrl.raw_read_logical(
                                tc, chain, lba, dest, tenant=req.cls.name
                            )
                        txns.append(txn)
                else:
                    # Trace replay hands us physical coordinates directly.
                    for ssd, lba in req.pages:
                        if op == "write":
                            txn = yield from ctrl.raw_write(
                                tc, chain, ssd, lba, dest
                            )
                        else:
                            txn = yield from ctrl.raw_read(
                                tc, chain, ssd, lba, dest
                            )
                        txns.append(txn)
                for txn in txns:
                    completion = yield from txn.wait()
                    if completion is None or not completion.ok:
                        ok = False
            except AgileIoError:
                ok = False
            finish(req, ok)

        kernel = KernelSpec(
            name=f"serve_agile_b{batch.bid}",
            body=body,
            registers_per_thread=SERVE_KERNEL_REGISTERS,
        )
        if self.host is not None:
            launch = self.host.launch_kernel(kernel, cfg, args=(None,))
        else:
            launch = self._multi.launch_kernel(
                worker_idx, kernel, cfg, args=(None,)
            )
        yield launch.done


class BamServeBackend(ServeBackend):
    """BaM host: synchronous cached reads, inline CQ polling."""

    system = "bam"

    def __init__(
        self,
        cfg: Optional[SystemConfig] = None,
        telemetry: Optional[bool] = None,
    ):
        super().__init__()
        self.host = BamHost(cfg, telemetry=telemetry)

    def _host(self):
        return self.host

    @property
    def sim(self):
        return self.host.sim

    @property
    def trace(self):
        return self.host.trace

    @property
    def telemetry(self):
        return self.host.telemetry

    @property
    def cfg(self) -> SystemConfig:
        return self.host.cfg

    def run_batch(
        self, worker_idx: int, batch: Batch, finish
    ) -> Generator[Any, Any, None]:
        requests = batch.requests
        cfg = self._launch_geometry(len(batch))
        n_threads = cfg.grid_dim * cfg.block_dim

        def body(tc, ctrl, _batch_args):
            tid = tc.tid % n_threads
            if tid >= len(requests):
                return
            req: Request = requests[tid]
            chain = AgileLockChain(f"serve.b{batch.bid}.t{tid}")
            for ssd, lba in req.pages:
                line = yield from ctrl.read_page(tc, chain, ssd, lba)
                ctrl.cache.unpin(line)
            finish(req, True)

        kernel = KernelSpec(
            name=f"serve_bam_b{batch.bid}",
            body=body,
            registers_per_thread=SERVE_KERNEL_REGISTERS,
        )
        launch = self.host.launch_kernel(kernel, cfg, args=(None,))
        yield launch.done


class NaiveServeBackend(ServeBackend):
    """Figure 1 naive-async on the BaM machine: per-thread SQE-lock issue
    plus self-polling completion, one :class:`NaiveAsyncEngine` per SSD so
    commands reach the right device."""

    system = "naive"

    def __init__(self, cfg: Optional[SystemConfig] = None):
        super().__init__()
        self.host = BamHost(cfg)
        self.engines = [
            NaiveAsyncEngine(
                self.host.sim, qps, debugger=self.host.debugger
            )
            for qps in self.host.queue_pairs
        ]
        #: Total SQ slots per SSD bounds safe concurrent outstanding I/O.
        self._slots_per_ssd = min(
            sum(qp.sq.depth for qp in qps) for qps in self.host.queue_pairs
        )

    def _host(self):
        return self.host

    @property
    def sim(self):
        return self.host.sim

    @property
    def trace(self):
        return self.host.trace

    @property
    def cfg(self) -> SystemConfig:
        return self.host.cfg

    @property
    def max_batch(self) -> int:
        # Worst case every request in the batch targets the same SSD and
        # holds all its page slots at once; staying under the slot count
        # keeps the strawman live instead of deadlocking mid-sweep.
        return max(1, self._slots_per_ssd // 2)

    def run_batch(
        self, worker_idx: int, batch: Batch, finish
    ) -> Generator[Any, Any, None]:
        scratch = self._scratch_views(
            worker_idx, len(batch), self.host.alloc_view
        )
        requests = batch.requests
        engines = self.engines
        cfg = self._launch_geometry(len(batch))
        n_threads = cfg.grid_dim * cfg.block_dim

        def body(tc, _ctrl, _batch_args):
            tid = tc.tid % n_threads
            if tid >= len(requests):
                return
            req: Request = requests[tid]
            chain = AgileLockChain(f"serve.b{batch.bid}.t{tid}")
            dest = scratch[tid]
            tokens = []
            ok = True
            try:
                for ssd, lba in req.pages:
                    token = yield from engines[ssd].async_issue(
                        tc, chain, Opcode.READ, lba, dest
                    )
                    tokens.append((ssd, token))
                for ssd in sorted({s for s, _ in tokens}):
                    group = [t for s, t in tokens if s == ssd]
                    yield from engines[ssd].wait_all(
                        tc, chain, group, stall_after_ns=NAIVE_STALL_NS
                    )
                ok = all(
                    t.completion is not None and t.completion.ok
                    for _, t in tokens
                )
            except (DeadlockError, SimStallError):
                # The Figure 1 defect biting: this thread's completion was
                # consumed and dropped by a sibling's poll loop (or its next
                # issue closed a lock cycle).  A real deployment would reset
                # the queue pair; here the thread releases every slot and
                # lock it still holds so the rest of the system stays live,
                # and the request surfaces as ABORTED — the naive curve's
                # collapse under concurrency is exactly these events.
                ok = False
                for _ssd, token in tokens:
                    if token.completion is None:
                        token.qp.sq.release(token.slot)
                for lock in list(chain.held):
                    lock.release(chain)
            finish(req, ok)

        kernel = KernelSpec(
            name=f"serve_naive_b{batch.bid}",
            body=body,
            registers_per_thread=SERVE_KERNEL_REGISTERS,
        )
        launch = self.host.launch_kernel(kernel, cfg, args=(None,))
        yield launch.done


#: Serve systems, in the order sweeps report them.
SYSTEMS = ("agile", "bam", "naive")


def build_backend(
    system: str, cfg: Optional[SystemConfig] = None, num_gpus: int = 1
) -> ServeBackend:
    if system == "agile":
        return AgileServeBackend(cfg, num_gpus=num_gpus)
    if system == "bam":
        return BamServeBackend(cfg)
    if system == "naive":
        return NaiveServeBackend(cfg)
    raise ValueError(f"unknown serve system {system!r} (want one of {SYSTEMS})")
