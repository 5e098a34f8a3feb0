"""The lightweight AGILE service (paper §3.2): a background GPU kernel that
polls completion queues and releases shared resources on behalf of user
threads.

Algorithm 1 (warp-centric CQ polling) maps onto the simulator as follows:
each polling warp is one daemon process; it rotates round-robin over its
partition of the registered CQs; per visit it examines a 32-entry window
(offset + mask + phase bit).  The warp's 32 lanes check the window's CQEs
in parallel, so one visit costs a single ``poll_iteration_cycles`` charge on
the service SM regardless of how many of the 32 entries are valid — that
intra-CQ parallelism is exactly why few service warps keep up with many
application threads.

For every completion found the service:

1. releases the matching SQE via the CID -> slot mapping (Fig. 3, step 2),
   letting threads stuck on a full SQ proceed — the deadlock-elimination
   mechanism;
2. runs the transaction's completion action (cache-line READY, user-buffer
   ready, eviction bookkeeping);
3. clears the transaction barrier (Fig. 3, step 3).

The CQ head doorbell is rung whenever a full 32-entry window has been
consumed (Algorithm 1 lines 9-10), with a safety valve that also rings when
more than half the queue is pending release, so low-traffic phases cannot
stall the SSD.

Quiescent parking: when every CQ is empty, no CQE post is in flight and the
service SM serves nothing but poll visits, the polling warps' future is a
closed, deterministic loop of empty visits and back-offs.  The service then
*parks*: it records each warp's position, stops the warp processes and
lets :class:`~repro.sim.resources.ParkedPollers` recompute the skipped
visits on demand.  It wakes exactly — replaying the visits up to ``sim.now``
and re-creating every pending event at its absolute time — when a CQE post
starts on one of its queues, on :meth:`AgileService.stop`, when another job
reaches the service SM, or when the engine would otherwise end a run or
fire its watchdog (:meth:`~repro.sim.engine.Simulator.park`).
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.config import ServiceConfig
from repro.core.issue import IssueEngine
from repro.gpu.device import Gpu
from repro.nvme.queue import CompletionQueue
from repro.sim.engine import Event, Process, Simulator, Timeout
from repro.sim.resources import ParkedPollers
from repro.telemetry import Counter

#: Lanes in a polling warp == CQEs examined per visit (Algorithm 1).
WINDOW = 32


class _WarpState:
    """Where one polling warp is, for parking: its next CQ and the visits
    left in its round, and — while backing off — when the back-off ends
    and the server version and sleep number when it began (the order the
    engine scheduled it in)."""

    __slots__ = ("idx", "left", "wake_at", "wake_version", "wake_order")

    def __init__(self) -> None:
        self.idx = 0
        self.left = 0
        self.wake_at = 0.0
        self.wake_version = 0
        self.wake_order = 0


class AgileService:
    """Manager for the polling-warp daemons."""

    #: Step every empty poll as an event instead of parking quiescent warps
    #: (the full-fidelity oracle the parked mode is tested against).
    exact_poll = False

    def __init__(
        self,
        sim: Simulator,
        gpu: Gpu,
        issue: IssueEngine,
        cfg: ServiceConfig,
        stats: Optional[Counter] = None,
    ):
        self.sim = sim
        self.gpu = gpu
        self.issue = issue
        self.cfg = cfg
        self.stats = stats if stats is not None else Counter()
        #: (ssd_idx, CompletionQueue) in registration order.
        self.cqs: List[tuple[int, CompletionQueue]] = [
            (si, qp.cq)
            for si, qps in enumerate(issue.queue_pairs)
            for qp in qps
        ]
        #: Monotonic position up to which each CQ's head doorbell was rung.
        self._doorbelled = {id(cq): 0 for _, cq in self.cqs}
        self._procs: list[Process] = []
        #: The service runs on the last SM (reserved by the host when
        #: launching application kernels).
        self.service_sm = gpu.sms[-1]
        #: Optional :class:`repro.telemetry.Telemetry` session (per-command
        #: I/O spans); None — the default — costs one check per completion.
        self.tel = None
        self._warps = [_WarpState() for _ in range(cfg.polling_warps)]
        #: Back-offs begun so far (orders them for parking).
        self._sleeps = 0
        #: Warps inside :meth:`_poll_cq` (never parked mid-window).
        self._busy = 0
        #: Stepped poll visits (replayed ones live in ``_parked`` until the
        #: service wakes).
        self._visits = 0
        self._parked: Optional[ParkedPollers] = None
        #: Set when the engine woke the service (a drained queue or the
        #: watchdog): stay stepped until a completion shows progress.
        self._hold = False

    # -- lifecycle --------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._parked is not None or any(p.alive for p in self._procs)

    @property
    def poll_visits(self) -> int:
        """CQ visits made so far, stepped or replayed while parked."""
        if self._parked is None:
            return self._visits
        self._parked.advance(self.sim.now)
        return self._visits + self._parked.visits

    def start(self) -> None:
        """``host.startAgile()``: spawn the polling warps (and the recovery
        daemon, when one is attached to the issue engine)."""
        if self.running:
            return
        self._hold = False
        self._procs = [
            self._spawn_warp(w, 0, 0, None, None)
            for w in range(self.cfg.polling_warps)
        ]
        if self.issue.recovery is not None:
            self.issue.recovery.start()

    def stop(self) -> None:
        """``host.stopAgile()``: terminate the polling warps."""
        self._unpark()
        for p in self._procs:
            p.kill()
        self._procs = []
        self._busy = 0  # a warp killed inside _poll_cq never left it
        if self.issue.recovery is not None:
            self.issue.recovery.stop()

    def _spawn_warp(
        self,
        warp_idx: int,
        idx: int,
        left: int,
        at: Optional[float],
        job: Optional[Event],
    ) -> Process:
        return self.sim.spawn(
            self._polling_warp(warp_idx, idx, left, job),
            name=f"agile.service.w{warp_idx}",
            daemon=True,
            at=at,
        )

    # -- quiescent parking -----------------------------------------------------

    def _try_park(self, warp_idx: int) -> bool:
        """Park the whole service if it is quiescent; called by a warp whose
        round just found nothing, in place of its idle back-off."""
        if self.exact_poll or self._hold or self._busy:
            return False
        for _, cq in self.cqs:
            if cq.posts_in_flight or cq.peek(cq.host_head) is not None:
                return False
        server = self.service_sm.issue
        owners: dict[int, int] = {}
        sleepers = []
        for w, proc in enumerate(self._procs):
            if w == warp_idx or not proc.alive:
                continue
            target = proc.waiting_on
            if target is None:
                return False  # runnable: its window check is still to come
            if type(target) is Timeout:
                st = self._warps[w]
                sleepers.append((st.wake_at, st.wake_version, st.wake_order, w))
            else:
                owners[id(target)] = w
        jobs = server.job_events()
        if len(jobs) != len(owners) or any(id(ev) not in owners for ev in jobs):
            return False  # the SM is serving something besides poll visits
        self._sleeps += 1
        sleepers.append(
            (self.sim.now + self.cfg.idle_poll_ns, server.version,
             self._sleeps, warp_idx)
        )
        clients = [
            (st.idx, st.left, len(self._partition(w)))
            for w, st in enumerate(self._warps)
        ]
        self._parked = ParkedPollers(
            server, self.cfg.poll_iteration_cycles, self.cfg.idle_poll_ns,
            clients, owners, sleepers, self._unpark,
        )
        for w, proc in enumerate(self._procs):
            if w != warp_idx:
                proc.kill()
        for _, cq in self.cqs:
            cq.post_watcher = self._unpark
        self.sim.park(self._engine_wake)
        return True

    def _unpark(self, until: Optional[float] = None) -> None:
        """Replay the parked visits up to ``until`` (default ``sim.now``)
        and resume stepping."""
        parked = self._parked
        if parked is None:
            return
        self._parked = None
        self.sim.unpark(self._engine_wake)
        for _, cq in self.cqs:
            cq.post_watcher = None
        procs = list(self._procs)

        def respawn(w, idx, left, at, job):
            self._warps[w].idx = idx
            self._warps[w].left = left
            procs[w] = self._spawn_warp(w, idx, left, at, job)

        parked.unpark(respawn, self.sim.now if until is None else until)
        self._visits += parked.visits
        self._procs = procs

    def _engine_wake(self, until: float) -> None:
        self._hold = True
        self._unpark(until)

    # -- Algorithm 1 -----------------------------------------------------------------

    def _partition(self, warp_idx: int) -> List[tuple[int, CompletionQueue]]:
        """CQs assigned to one polling warp (round-robin split)."""
        return self.cqs[warp_idx :: self.cfg.polling_warps]

    def _polling_warp(
        self,
        warp_idx: int,
        idx: int = 0,
        left: int = 0,
        job: Optional[Event] = None,
    ) -> Generator[Any, Any, None]:
        """One polling warp: ``idx`` is the next CQ of its partition to visit
        and ``left`` the visits left in the current round; a warp re-spawned
        mid-visit first waits out that visit's ``job``."""
        my_cqs = self._partition(warp_idx)
        if not my_cqs:
            return
        # The poll loop runs once per visit for the whole simulation; hoist
        # the per-visit attribute chain out of the hot loop.
        compute = self.service_sm.compute
        poll_cycles = self.cfg.poll_iteration_cycles
        idle_ns = self.cfg.idle_poll_ns
        n_cqs = len(my_cqs)
        st = self._warps[warp_idx]
        while True:
            if job is None:
                if not left:
                    left = n_cqs  # a new round
                ssd_idx, cq = my_cqs[idx]
                idx = (idx + 1) % n_cqs
                left -= 1
                st.idx = idx
                st.left = left
                self._visits += 1
                yield from compute(poll_cycles)
            else:
                yield job
                job = None
                ssd_idx, cq = my_cqs[idx - 1]
            # Only a visible completion is worth the window walk: an empty
            # window does zero simulated work and never rings the doorbell
            # (host_head is unchanged since the last visit).
            if cq.peek(cq.host_head) is not None:
                self._busy += 1
                yield from self._poll_cq(ssd_idx, cq)
                self._busy -= 1
                self._hold = False
                left = 0  # revisit queues promptly while traffic flows
            elif not left:
                # A whole round found nothing: back off, or park.
                if self._try_park(warp_idx):
                    return
                self._sleeps += 1
                st.wake_at = self.sim.now + idle_ns
                st.wake_version = self.service_sm.issue.version
                st.wake_order = self._sleeps
                yield Timeout(idle_ns)

    def _poll_cq(
        self, ssd_idx: int, cq: CompletionQueue
    ) -> Generator[Any, Any, int]:
        """Process the current 32-entry window of one CQ; returns the number
        of completions handled."""
        window_start = cq.host_head - (cq.host_head % WINDOW)
        window_end = window_start + WINDOW
        processed = 0
        pos = cq.host_head
        # All 32 lanes probe their CQE concurrently; the simulator walks the
        # same window sequentially but charges only the single warp-wide
        # iteration cost (already paid by the caller).
        recovery = self.issue.recovery
        while pos < window_end:
            completion = cq.peek(pos)
            if completion is None:
                break
            record = self.issue.complete(
                ssd_idx, completion.sq_id, completion.cid,
                token=completion.context,
            )
            if record is not None:
                if recovery is not None and recovery.on_completion(
                    record, completion
                ):
                    # Recovery took the command over (failed WRITE being
                    # abort-and-resubmitted): the transaction stays open
                    # until the retry — or a terminal ABORT — finishes it.
                    self.stats.add("retried_completions")
                    processed += 1
                    pos += 1
                    continue
                if not completion.ok:
                    self.stats.add("error_completions")
                record.txn.finish(completion)
                if self.tel is not None:
                    self.tel.spans.complete(
                        f"io.{record.opcode.name.lower()}", "core",
                        record.label, record.issued_at, ssd=record.ssd_idx,
                        lba=record.lba, cid=completion.cid,
                        ok=completion.ok, retries=record.retries,
                    )
            else:
                # Stale: the late/duplicate CQE of an aborted or already
                # retired incarnation (recovery mode only) — consume it.
                self.stats.add("stale_completions")
            processed += 1
            pos += 1
        if processed:
            cq.consume_to(pos)
            self.stats.add("completions_processed", processed)
            yield from self.service_sm.compute(2.0 * processed)
        if pos == window_end or (
            cq.host_head - self._doorbelled[id(cq)] > cq.depth // 2
        ):
            # Window fully consumed (Algorithm 1 lines 9-10) or the safety
            # valve tripped: notify the SSD so it can reuse CQEs.
            if cq.host_head > self._doorbelled[id(cq)]:
                self._doorbelled[id(cq)] = cq.host_head
                yield from cq.doorbell.ring(cq.host_head)
                self.stats.add("cq_doorbell_rings")
        return processed
