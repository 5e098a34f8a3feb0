"""Shared-resource models: semaphores, FIFO servers, bandwidth pipes, and a
capped processor-sharing server.

All ``acquire``/``process``/``transfer`` methods are generators intended to
be driven with ``yield from`` inside a simulation process.  A call that can
be satisfied immediately completes without yielding, so the uncontended fast
path costs zero simulated time and zero events.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Optional, Sequence

from repro.sim.engine import Event, SimError, Simulator, Timeout


class Semaphore:
    """Counting semaphore with FIFO wakeup order."""

    __slots__ = ("sim", "name", "capacity", "_in_use", "_waiters", "_ev_name")

    def __init__(self, sim: Simulator, capacity: int, name: str = "sem"):
        if capacity < 1:
            raise ValueError("semaphore capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: list[Event] = []
        # Precomputed once: blocked acquires are hot and the name is debug-only.
        self._ev_name = f"{name}.acquire"

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def try_acquire(self) -> bool:
        """Non-blocking acquire; returns whether a token was taken."""
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return True
        return False

    def acquire(self) -> Generator[Any, Any, None]:
        """Blocking acquire (``yield from sem.acquire()``)."""
        if self.try_acquire():
            return
        ev = Event(self.sim, name=self._ev_name)
        self._waiters.append(ev)
        yield ev

    def acquire_or_event(self) -> Optional[Event]:
        """Non-generator acquire: take a token now (returns ``None``) or
        register and return the :class:`Event` the caller must yield.

        Lets hot callers avoid a generator frame per uncontended acquire
        while producing the exact same event sequence as :meth:`acquire`.
        """
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return None
        ev = Event(self.sim, name=self._ev_name)
        self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimError(f"semaphore {self.name!r} released too many times")
        if self._waiters:
            # Hand the token straight to the oldest waiter; _in_use unchanged.
            self._waiters.pop(0).trigger()
        else:
            self._in_use -= 1


class FifoServer:
    """Single server processing jobs one at a time in arrival order.

    ``process(service_ns)`` holds the server for exactly ``service_ns``.
    Used for strictly serialized hardware such as an SSD's command fetch
    engine or a DMA engine.
    """

    __slots__ = ("sim", "name", "_sem", "busy_time")

    def __init__(self, sim: Simulator, name: str = "server"):
        self.sim = sim
        self.name = name
        self._sem = Semaphore(sim, 1, name=f"{name}.sem")
        #: Total simulated time the server has been busy (for utilization).
        self.busy_time = 0.0

    def process(self, service_ns: float) -> Generator[Any, Any, None]:
        ev = self._sem.acquire_or_event()
        if ev is not None:
            yield ev
        try:
            if service_ns > 0:
                yield Timeout(service_ns)
            self.busy_time += service_ns
        finally:
            self._sem.release()

    def utilization(self) -> float:
        """Fraction of elapsed simulated time the server was busy."""
        if self.sim.now <= 0:
            return 0.0
        return self.busy_time / self.sim.now


class BandwidthPipe:
    """A link with finite bandwidth and fixed propagation latency.

    Transfers serialize on the wire (store-and-forward at message
    granularity) and then experience propagation latency concurrently, the
    standard first-order PCIe/DMA model.
    """

    __slots__ = ("sim", "name", "bytes_per_ns", "latency_ns", "_server",
                 "bytes_moved")

    def __init__(
        self,
        sim: Simulator,
        bytes_per_ns: float,
        latency_ns: float = 0.0,
        name: str = "pipe",
    ):
        if bytes_per_ns <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.bytes_per_ns = bytes_per_ns
        self.latency_ns = latency_ns
        self._server = FifoServer(sim, name=f"{name}.wire")
        self.bytes_moved = 0

    def transfer(self, nbytes: int) -> Generator[Any, Any, None]:
        if nbytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        # Inlined FifoServer.process: transfers happen once per DMA burst,
        # so the delegating generator frame is measurable overhead.
        server = self._server
        service_ns = nbytes / self.bytes_per_ns
        ev = server._sem.acquire_or_event()
        if ev is not None:
            yield ev
        try:
            if service_ns > 0:
                yield Timeout(service_ns)
            server.busy_time += service_ns
        finally:
            server._sem.release()
        self.bytes_moved += nbytes
        if self.latency_ns > 0:
            yield Timeout(self.latency_ns)

    def utilization(self) -> float:
        return self._server.utilization()


class FairShareServer:
    """Capped processor-sharing server (models an SM's issue bandwidth).

    ``total_rate`` work units per ns are divided equally among the ``n``
    active jobs, but no job ever progresses faster than ``per_job_cap``
    units/ns (a single warp cannot use more than one issue slot per cycle).
    Because the cap is uniform, every active job always runs at the same
    instantaneous rate ``r(n) = min(per_job_cap, total_rate / n)``, so the
    classic virtual-time formulation applies: virtual time ``V`` advances at
    ``r(n)`` and a job with ``w`` units of work departs when ``V`` has grown
    by ``w`` since its arrival.

    Jobs live on a heap of plain ``(vfinish, seq, event)`` tuples so heap
    sifting compares in C, and the arrival/departure paths inline the
    virtual-time advance and departure rescheduling: every GPU instruction
    issue passes through here, making this the hottest model code in the
    simulator.  The inlined arithmetic is kept expression-for-expression
    identical to the readable helpers (:meth:`_rate`, :meth:`_advance`,
    :meth:`_reschedule`) so results stay bit-exact.
    """

    _EPS = 1e-9

    def __init__(
        self,
        sim: Simulator,
        total_rate: float,
        per_job_cap: Optional[float] = None,
        name: str = "ps",
    ):
        if total_rate <= 0:
            raise ValueError("total_rate must be positive")
        self.sim = sim
        self.name = name
        self.total_rate = total_rate
        self.per_job_cap = per_job_cap if per_job_cap is not None else total_rate
        self._V = 0.0
        self._last_t = 0.0
        self._jobs: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._version = 0
        self.work_done = 0.0
        self._job_name = f"{name}.job"
        #: The :class:`ParkedPollers` replaying this server while its only
        #: clients are parked polling loops; None while stepped normally.
        self.parked: Optional[ParkedPollers] = None

    @property
    def active_jobs(self) -> int:
        self.sync()
        return len(self._jobs)

    @property
    def version(self) -> int:
        """Bumped by every arrival and departure; the pending departure
        callback carries the version current when it was scheduled."""
        return self._version

    def job_events(self) -> list[Event]:
        """The events of the jobs in service (each triggers at departure)."""
        return [job[2] for job in self._jobs]

    def sync(self) -> None:
        """Bring a parked server's state (``work_done``, jobs, virtual
        time) up to ``sim.now``; a no-op while it is stepped normally."""
        if self.parked is not None:
            self.parked.advance(self.sim.now)

    def _rate(self) -> float:
        n = len(self._jobs)
        if n == 0:
            return 0.0
        return min(self.per_job_cap, self.total_rate / n)

    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_t
        if dt > 0:
            rate = self._rate()
            if rate > 0:
                self._V += dt * rate
                self.work_done += dt * rate * len(self._jobs)
        self._last_t = now

    def _reschedule(self) -> None:
        self._version += 1
        if not self._jobs:
            return
        rate = self._rate()
        dt = max(0.0, (self._jobs[0][0] - self._V) / rate)
        # Narrow scheduler API: no per-departure lambda closure.
        self.sim.schedule_at(self.sim.now + dt, self._on_departure, self._version)

    def _on_departure(self, version: int) -> None:
        if version != self._version:
            return  # superseded by a later arrival/departure
        jobs = self._jobs
        now = self.sim.now
        # _advance(), inlined.
        dt = now - self._last_t
        if dt > 0:
            n = len(jobs)
            if n:
                rate = self.total_rate / n
                cap = self.per_job_cap
                if cap < rate:
                    rate = cap
                self._V += dt * rate
                self.work_done += dt * rate * n
        self._last_t = now
        # This callback fires exactly at the head job's scheduled departure
        # (any arrival in between would have bumped the version), so if the
        # head still appears un-finished it is pure floating-point residue:
        # the real-time delay rounded down and _advance under-shot vfinish.
        # Snap virtual time forward to guarantee progress (otherwise the
        # same zero-delay callback re-fires forever).
        V = self._V
        if jobs and V < jobs[0][0]:
            V = self._V = jobs[0][0]
        lim = V + self._EPS
        ready: list[tuple[float, int, Event]] = []
        heappop = heapq.heappop
        while jobs and jobs[0][0] <= lim:
            ready.append(heappop(jobs))
        # _reschedule(), inlined.
        self._version += 1
        if jobs:
            n = len(jobs)
            rate = self.total_rate / n
            cap = self.per_job_cap
            if cap < rate:
                rate = cap
            dt = (jobs[0][0] - V) / rate
            if dt < 0.0:
                dt = 0.0
            self.sim.schedule_at(now + dt, self._on_departure, self._version)
        for job in ready:
            job[2].trigger()

    def process(self, work: float) -> Generator[Any, Any, None]:
        """Receive ``work`` units of fair-shared service."""
        if work < 0:
            raise ValueError("work must be non-negative")
        if work == 0:
            return
        if self.parked is not None:
            # A job from outside the parked polling loops: resume exact
            # stepping before it arrives.
            self.parked.wake()
        sim = self.sim
        now = sim.now
        jobs = self._jobs
        # _advance(), inlined.
        dt = now - self._last_t
        if dt > 0:
            n = len(jobs)
            if n:
                rate = self.total_rate / n
                cap = self.per_job_cap
                if cap < rate:
                    rate = cap
                self._V += dt * rate
                self.work_done += dt * rate * n
        self._last_t = now
        self._seq += 1
        ev = Event(sim, name=self._job_name)
        heapq.heappush(jobs, (self._V + work, self._seq, ev))
        # _reschedule(), inlined.
        self._version += 1
        n = len(jobs)
        rate = self.total_rate / n
        cap = self.per_job_cap
        if cap < rate:
            rate = cap
        dt = (jobs[0][0] - self._V) / rate
        if dt < 0.0:
            dt = 0.0
        sim.schedule_at(now + dt, self._on_departure, self._version)
        yield ev


#: Kinds of a :class:`ParkedPollers` queue item ``(time, seq, kind, arg)``.
_DEPART = 0  # arg: the departure callback's version
_RESUME = 1  # arg: client whose job just departed (an immediate item)
_WAKE = 2  # arg: client whose idle back-off ends


class ParkedPollers:
    """Exact stand-in for polling loops that find nothing to do.

    A polling client of a :class:`FairShareServer` runs rounds of ``n``
    visits; each visit is one job of ``work`` units, and a round that finds
    nothing ends in an ``idle_ns`` back-off.  While every client's queues
    stay empty and the server serves nothing else, that loop is a closed
    system, so its owner may stop dispatching it as events (*park*) and this
    object recomputes it on demand: :meth:`advance` replays every arrival,
    departure, resume and wake-up up to a time, in the engine's
    ``(time, seq)`` order, with the same float expressions as
    :meth:`FairShareServer.process` and :meth:`FairShareServer._on_departure`
    and the same immediate/heap scheduling rules as the engine.
    :meth:`unpark` then re-creates every pending departure callback (stale
    ones included) and client wake-up at its absolute time, in replay
    order, so stepping resumes exactly where it would have been.

    ``clients`` holds ``(idx, left, n)`` per client: the next queue to
    visit, visits left in the current round, and queues per round.
    ``owners`` maps each job event in the server to its client; ``sleepers``
    lists ``(wake_at, version, order, client)`` for clients in their idle
    back-off, where ``version`` is the server's :attr:`FairShareServer.version`
    and ``order`` a counter, both read when the back-off was scheduled.
    """

    def __init__(
        self,
        server: FairShareServer,
        work: float,
        idle_ns: float,
        clients: Sequence[tuple[int, int, int]],
        owners: dict[int, int],
        sleepers: Sequence[tuple[float, int, int, int]],
        wake: Callable[[], None],
    ):
        self.server = server
        self.work = work
        self.idle_ns = idle_ns
        self.idx = [c[0] for c in clients]
        self.left = [c[1] for c in clients]
        self.n = [c[2] for c in clients]
        #: Called to end the park (by an outside job arrival).
        self.wake = wake
        #: Client visits (jobs started) replayed so far.
        self.visits = 0
        self.now = server.sim.now
        cap = server.per_job_cap
        total = server.total_rate
        #: ``min(per_job_cap, total_rate / k)`` exactly as the server
        #: computes it, for every job count the clients can reach.
        self.rates = [0.0] + [
            cap if cap < total / k else total / k
            for k in range(1, len(clients) + 1)
        ]
        jobs = server._jobs
        # Jobs keep their heap positions; the payload becomes the client.
        for i, (vfinish, seq, ev) in enumerate(jobs):
            jobs[i] = (vfinish, seq, owners[id(ev)])
        # The pending departure (if any) and every back-off, numbered in
        # the order the engine scheduled them.  The departure was scheduled
        # when the server's version last changed, so it precedes every
        # back-off scheduled at that version or later.
        pending: list[tuple[tuple[int, int, int], float, int, int]] = [
            ((version, 1, order), wake_at, _WAKE, client)
            for wake_at, version, order, client in sleepers
        ]
        # Supersede the callback already in the engine's queue; the replay
        # owns departures from here on.
        server._version += 1
        if jobs:
            dt = (jobs[0][0] - server._V) / self.rates[len(jobs)]
            if dt < 0.0:
                dt = 0.0
            pending.append(
                ((server._version - 1, 0, 0), server._last_t + dt, _DEPART,
                 server._version)
            )
        pending.sort()
        self.heap: list[tuple[float, int, int, int]] = [
            (when, seq, kind, arg)
            for seq, (_, when, kind, arg) in enumerate(pending, 1)
        ]
        heapq.heapify(self.heap)
        self.seq = len(pending)
        self.imm: deque[tuple[float, int, int, int]] = deque()
        server.parked = self

    def advance(self, until: float) -> None:
        """Replay every item due at or before ``until``."""
        heap = self.heap
        if not heap or heap[0][0] > until:
            return
        server = self.server
        jobs = server._jobs
        V = server._V
        last_t = server._last_t
        done = server.work_done
        jseq = server._seq
        version = server._version
        eps = server._EPS
        rates = self.rates
        work = self.work
        idle_ns = self.idle_ns
        idx = self.idx
        left = self.left
        n_of = self.n
        imm = self.imm
        seq = self.seq
        now = self.now
        visits = 0
        heappush = heapq.heappush
        heappop = heapq.heappop
        while True:
            if imm:
                item = imm[0]
                if heap and heap[0][0] <= now and heap[0][1] < item[1]:
                    item = heappop(heap)
                else:
                    imm.popleft()
            elif heap and heap[0][0] <= until:
                item = heappop(heap)
                now = item[0]
            else:
                break
            kind = item[2]
            client = item[3]
            if kind == _DEPART:
                if client != version:
                    continue  # superseded, as in _on_departure
                # FairShareServer._on_departure, expression for expression.
                dt = now - last_t
                if dt > 0:
                    k = len(jobs)
                    if k:
                        rate = rates[k]
                        V += dt * rate
                        done += dt * rate * k
                last_t = now
                if jobs and V < jobs[0][0]:
                    V = jobs[0][0]
                lim = V + eps
                ready = [heappop(jobs)]
                while jobs and jobs[0][0] <= lim:
                    ready.append(heappop(jobs))
                version += 1
                if jobs:
                    dt = (jobs[0][0] - V) / rates[len(jobs)]
                    if dt < 0.0:
                        dt = 0.0
                    seq += 1
                    when = now + dt
                    if when == now:
                        imm.append((now, seq, _DEPART, version))
                    else:
                        heappush(heap, (when, seq, _DEPART, version))
                if len(ready) > 1 or imm or (heap and heap[0][0] <= now):
                    # Something else is due first or alongside: queue the
                    # resumes behind it, as Event.trigger does.
                    for job in ready:
                        seq += 1
                        imm.append((now, seq, _RESUME, job[2]))
                    continue
                # The lone resume is next in line: run it right away.
                client = ready[0][2]
                kind = _RESUME
            if kind == _RESUME:
                # The client's window was empty (parking requires it).
                if not left[client]:
                    # Timeout(idle_ns), scheduled as the engine does.
                    seq += 1
                    if idle_ns == 0.0:
                        imm.append((now, seq, _WAKE, client))
                    else:
                        heappush(heap, (now + idle_ns, seq, _WAKE, client))
                    continue
            else:
                left[client] = n_of[client]
            # One visit: FairShareServer.process(work), expression for
            # expression.
            i = idx[client] + 1
            idx[client] = i if i < n_of[client] else 0
            left[client] -= 1
            visits += 1
            dt = now - last_t
            if dt > 0:
                k = len(jobs)
                if k:
                    rate = rates[k]
                    V += dt * rate
                    done += dt * rate * k
            last_t = now
            jseq += 1
            heappush(jobs, (V + work, jseq, client))
            version += 1
            dt = (jobs[0][0] - V) / rates[len(jobs)]
            if dt < 0.0:
                dt = 0.0
            seq += 1
            when = now + dt
            if when == now:
                imm.append((now, seq, _DEPART, version))
            else:
                heappush(heap, (when, seq, _DEPART, version))
        server._V = V
        server._last_t = last_t
        server.work_done = done
        server._seq = jseq
        server._version = version
        self.seq = seq
        self.now = now
        self.visits += visits

    def unpark(
        self,
        respawn: Callable[[int, int, int, Optional[float], Optional[Event]], None],
        until: float,
    ) -> None:
        """Replay up to ``until`` and hand the loop back to the engine.

        Pending departures are re-scheduled and idle clients re-spawned
        (``respawn(client, idx, left, wake_at, None)``) at their absolute
        times in replay order; clients waiting on a job get a fresh job
        event (``respawn(client, idx, left, None, event)``).  ``until`` may
        lie just below ``sim.now`` (see :meth:`Simulator.park`); items due
        at ``sim.now`` are then re-created rather than replayed.
        """
        server = self.server
        sim = server.sim
        self.advance(until)
        server.parked = None
        for when, _, kind, arg in sorted(self.heap):
            if kind == _DEPART:
                sim.schedule_at(when, server._on_departure, arg)
            else:
                respawn(arg, self.idx[arg], self.left[arg], when, None)
        jobs = server._jobs
        for i, (vfinish, seq, client) in enumerate(jobs):
            ev = Event(sim, name=server._job_name)
            jobs[i] = (vfinish, seq, ev)
            respawn(client, self.idx[client], self.left[client], None, ev)
