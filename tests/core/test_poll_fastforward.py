"""Differential oracle for quiescent-poller parking.

While every CQ is empty, no CQE post is in flight and the service SM runs
nothing but poll visits, :class:`AgileService` parks its polling warps and
replays the skipped visits on demand instead of dispatching them.  Parking
must be invisible: each scenario here runs twice — once with the test-only
``AgileService.exact_poll = True`` (every empty poll stepped as events) and
once parked — and every observable must match exactly, while the parked run
dispatches strictly fewer events.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import asdict, replace
from typing import Any, Callable, Dict, List

import numpy as np
import pytest

from repro.config import (
    CacheConfig,
    FaultConfig,
    ServiceConfig,
    SsdConfig,
    SystemConfig,
)
from repro.core import AgileHost, AgileLockChain
from repro.core.issue import IssueEngine
from repro.core.multigpu import MultiGpuAgileHost
from repro.core.service import AgileService
from repro.faults.__main__ import main as faults_main
from repro.gpu import KernelSpec, LaunchConfig
from repro.nvme.command import NvmeCompletion
from repro.nvme.device import SsdController
from repro.nvme.driver import NvmeDriver
from repro.serve import tenancy, writepath
from repro.sim.engine import SimError, SimStallError, Simulator, Timeout
from repro.sim.resources import FairShareServer
from repro.sim.trace import EventLog
from repro.workloads import dlrm
from repro.workloads.criteo import make_criteo_trace
from repro.workloads.io_sweep import run_bandwidth_sweep

from tests.helpers import make_host, small_config, trace_signature


@contextlib.contextmanager
def _patched(cls: Any, name: str, wrapper: Callable[[Any], Any]):
    original = cls.__dict__[name]
    setattr(cls, name, wrapper(original))
    try:
        yield
    finally:
        setattr(cls, name, original)


class _Observer:
    """Records every observable of the runs made inside :meth:`watch`."""

    def __init__(self) -> None:
        self.hosts: List[Any] = []
        self.services: List[AgileService] = []
        self.logs: Dict[int, EventLog] = {}
        self.sims: List[Simulator] = []
        self.engines: Dict[int, int] = {}
        self.completions: List[tuple] = []
        self.runs: List[tuple] = []

    @contextlib.contextmanager
    def watch(self):
        obs = self

        def host_init(orig):
            def init(self, *args, **kwargs):
                orig(self, *args, **kwargs)
                obs.hosts.append(self)
            return init

        def service_init(orig):
            def init(self, *args, **kwargs):
                orig(self, *args, **kwargs)
                obs.services.append(self)
            return init

        def create_io_queues(orig):
            def create(self, *args, **kwargs):
                pairs = orig(self, *args, **kwargs)
                log = obs.logs.get(id(self.sim))
                if log is None:
                    log = obs.logs[id(self.sim)] = EventLog(self.sim, None)
                    obs.sims.append(self.sim)
                for qp in pairs:
                    qp.sq.log = qp.cq.log = log
                    qp.sq.doorbell.log = qp.cq.doorbell.log = log
                return pairs
            return create

        def complete(orig):
            def done(self, ssd_idx, qid, cid, token=None):
                engine = obs.engines.setdefault(id(self), len(obs.engines))
                obs.completions.append(
                    (engine, ssd_idx, qid, cid, self.sim.now)
                )
                return orig(self, ssd_idx, qid, cid, token)
            return done

        def run(orig):
            def drive(self, *args, **kwargs):
                try:
                    orig(self, *args, **kwargs)
                except SimError as exc:
                    obs.runs.append((type(exc).__name__, self.now))
                    raise
                obs.runs.append(("ok", self.now))
            return drive

        with contextlib.ExitStack() as stack:
            stack.enter_context(_patched(AgileHost, "__init__", host_init))
            stack.enter_context(
                _patched(MultiGpuAgileHost, "__init__", host_init)
            )
            stack.enter_context(
                _patched(AgileService, "__init__", service_init)
            )
            stack.enter_context(
                _patched(NvmeDriver, "create_io_queues", create_io_queues)
            )
            stack.enter_context(_patched(IssueEngine, "complete", complete))
            stack.enter_context(_patched(Simulator, "run", run))
            yield self

    def signature(self) -> Dict[str, Any]:
        return {
            "runs": self.runs,
            "completions": self.completions,
            "traces": [trace_signature(self.logs[id(s)]) for s in self.sims],
            "stats": [host.stats() for host in self.hosts],
            "devices": [host.driver.device_stats() for host in self.hosts],
            "sm_cycles": [
                [sm.issued_thread_cycles() for sm in svc.gpu.sms]
                for svc in self.services
            ],
            "poll_visits": [svc.poll_visits for svc in self.services],
        }

    def events(self) -> int:
        return sum(sim.event_count for sim in self.sims)


def _observe(scenario: Callable[[], Any], exact: bool):
    obs = _Observer()
    saved = AgileService.exact_poll
    AgileService.exact_poll = exact
    try:
        with obs.watch():
            result = scenario()
    finally:
        AgileService.exact_poll = saved
    return result, obs


def _assert_parking_is_exact(scenario: Callable[[], Any]) -> None:
    want, exact = _observe(scenario, exact=True)
    got, parked = _observe(scenario, exact=False)
    assert got == want
    want_sig = exact.signature()
    got_sig = parked.signature()
    assert want_sig["runs"], "scenario made no simulation run"
    assert want_sig["completions"], "scenario completed no command"
    for key in want_sig:
        assert got_sig[key] == want_sig[key], key
    assert parked.events() < exact.events()


# -- scenarios ------------------------------------------------------------------


def _sweep_point(op: str, num_ssds: int, requests: int, threads: int):
    point = run_bandwidth_sweep(op, num_ssds, requests, num_threads=threads)
    return {k: v for k, v in asdict(point).items() if k != "sim_events"}


def _serve_dict(report: Any) -> Dict[str, Any]:
    out = report.as_dict()
    out.pop("sim_events", None)
    return out


def _tenancy_cell():
    spec = replace(tenancy.quick_spec(seed=7), duration_ns=600_000.0)
    return _serve_dict(
        tenancy.run_tenancy_arm(spec, "inference_heavy", "none", "striped", "wfq")
    )


def _write_path_window():
    # A shrunk device so the flash wraps, and GC relocates, within 3 ms.
    spec = replace(
        writepath.quick_spec((30_000.0,), seed=7),
        duration_ns=3_000_000.0,
        device_pages=96,
        table_pages=48,
        modify_space=32,
        read_space=48,
    )
    point = writepath.run_write_path_point(30_000.0, spec)
    assert point.report.gc_busy_ns > 0 and point.report.mean_waf > 1.0
    return _serve_dict(point.report)


def _tiny_dlrm():
    trace = make_criteo_trace(64, seed=3)
    res = dlrm.run_dlrm(
        "agile_async", dlrm.config1(), batch=32, epochs=2, features=8,
        cache_lines=256, queue_pairs=4, queue_depth=16, trace=trace, seed=3,
    )
    return (res.total_ns, res.checksum, res.stats)


def _faults_cli(*argv: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = faults_main(list(argv))
    # The duration line also prints the event count, which parking lowers.
    lines = [
        line for line in out.getvalue().splitlines()
        if "events)" not in line
    ]
    return rc, lines


def _multi_gpu():
    cfg = SystemConfig(
        cache=CacheConfig(num_lines=64, ways=8, share_table=False),
        ssds=(SsdConfig(name="ssd0", capacity_bytes=1 << 26, channels=8),),
        queue_pairs=2,
        queue_depth=16,
    )
    host = MultiGpuAgileHost(cfg, num_gpus=2)
    host.load_data(0, 0, np.arange(10_000, dtype=np.int64))
    results: dict = {}

    def body(tc, ctrl, gpu_idx, n_threads):
        chain = AgileLockChain(f"g{gpu_idx}.t{tc.tid}")
        arr = ctrl.get_array_wrap(np.int64)
        tid = tc.tid % n_threads
        for i in range(3):
            v = yield from arr.get(
                tc, chain, 0, (gpu_idx * 64 + tid) * 7 + i * 997,
                coalesce=False,
            )
            results[(gpu_idx, tid, i)] = int(v)
            yield from tc.compute(400.0 * (1 + tid % 5))

    kernel = KernelSpec(name="mg", body=body, registers_per_thread=40)
    with host:
        host.run_kernels(
            kernel, LaunchConfig(1, 32), per_gpu_args=[(0, 32), (1, 32)]
        )
    return sorted(results.items())


SCENARIOS = {
    "fig5-perf-point": lambda: _sweep_point("read", 1, 1024, 64),
    "fig6-point": lambda: _sweep_point("write", 2, 256, 256),
    "tenancy-calm-striped-wfq": _tenancy_cell,
    "write-path-30k-gc": _write_path_window,
    "dlrm": _tiny_dlrm,
    "storm": lambda: _faults_cli(
        "storm", "--seed", "1", "--threads", "8", "--requests", "3"
    ),
    "pe-storm": lambda: _faults_cli(
        "pe-storm", "--seed", "1", "--threads", "8", "--requests", "4"
    ),
    "multi-gpu": _multi_gpu,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_parking_is_invisible(name):
    _assert_parking_is_exact(SCENARIOS[name])


@pytest.mark.parametrize(
    "warps,queue_pairs,idle_ns,cycles",
    [
        (1, 1, 200.0, 24.0),
        (3, 5, 50.0, 24.0),
        (4, 2, 0.0, 7.5),  # two warps without CQs; zero back-off
        (4, 6, 130.0, 40.0),
    ],
)
def test_parking_is_invisible_across_service_shapes(
    warps, queue_pairs, idle_ns, cycles
):
    def scenario():
        host = make_host(
            queue_pairs=queue_pairs,
            service=ServiceConfig(
                polling_warps=warps,
                idle_poll_ns=idle_ns,
                poll_iteration_cycles=cycles,
            ),
        )
        kernel = KernelSpec(name="shape", body=_read_kernel(3))
        with host:
            host.run_kernel(kernel, LaunchConfig(2, 16))
            host.drain()
        return host.sim.now

    _assert_parking_is_exact(scenario)


# -- edge cases -------------------------------------------------------------------


def _sleeper(ns: float):
    yield Timeout(ns)


def _read_kernel(reads: int):
    def body(tc, ctrl):
        chain = AgileLockChain(f"t{tc.tid}")
        arr = ctrl.get_array_wrap(np.int64)
        for i in range(reads):
            yield from arr.get(tc, chain, 0, (tc.tid * 131 + i * 509) * 8)
            yield Timeout(3_000.0)
    return body


def _boundary_scenario(land_at, probe: dict):
    """A small read kernel whose first CQE post is re-timed: the chain
    reserves its slot and wakes the poller exactly as ``_post_one`` does,
    then lands the CQE at the absolute time ``land_at`` (at its natural
    time when ``land_at`` is None).  ``probe`` receives the post's start
    time, whether the service was parked then, and the service SM's
    poll-visit departure times."""
    host = make_host(queue_pairs=2, queue_depth=16)
    server = host.service.service_sm.issue
    departures = probe.setdefault("departures", [])
    original_departure = FairShareServer._on_departure
    original_post = SsdController._post_one

    def on_departure(self, version):
        if self is server and version == self.version:
            departures.append(self.sim.now)
        return original_departure(self, version)

    def post_one(self, qp, cmd, status):
        if "start" in probe or land_at is None:
            if "start" not in probe:
                probe["start"] = self.sim.now
                probe["parked"] = qp.cq.post_watcher is not None
            yield from original_post(self, qp, cmd, status)
            return
        cq = qp.cq
        assert cq.device_try_reserve()
        probe["start"] = self.sim.now
        probe["parked"] = cq.post_watcher is not None
        if cq.post_watcher is not None:
            cq.post_watcher()
        landed = self.sim.event("land")
        self.sim.schedule_at(land_at, landed.trigger)
        yield landed
        cq.device_post(NvmeCompletion(
            cid=cmd.cid, sq_id=qp.qid, sq_head=qp.sq.fetch_head,
            status=status, context=cmd.context,
        ))

    with _patched(FairShareServer, "_on_departure", lambda o: on_departure):
        with _patched(SsdController, "_post_one", lambda o: post_one):
            kernel = KernelSpec(name="edge", body=_read_kernel(2))
            with host:
                host.run_kernel(kernel, LaunchConfig(1, 4))
                host.drain()
    return probe["start"]


def test_post_landing_on_a_replayed_visit_boundary():
    # Probe (exact): when does the first post start, and which poll-visit
    # boundaries fall before its CQE could land?
    probe: dict = {}
    _observe(lambda: _boundary_scenario(None, probe), exact=True)
    start = probe["start"]
    post_ns = SsdConfig().cqe_post_ns
    land = max(d for d in probe["departures"] if start < d <= start + post_ns)

    seen: Dict[bool, dict] = {True: {}, False: {}}
    want, exact = _observe(
        lambda: _boundary_scenario(land, seen[True]), exact=True
    )
    got, parked = _observe(
        lambda: _boundary_scenario(land, seen[False]), exact=False
    )
    assert got == want == start
    # The post chain started while parked, and the CQE landed exactly on a
    # poll-visit boundary — one the parked run re-created from its replay.
    assert seen[False]["parked"] and not seen[True]["parked"]
    assert land in seen[True]["departures"]
    assert land in seen[False]["departures"]
    want_sig, got_sig = exact.signature(), parked.signature()
    for key in want_sig:
        assert got_sig[key] == want_sig[key], key
    assert parked.events() < exact.events()


def _stop_while_parked(parked: List[bool]):
    host = make_host()
    host.start()
    sim = host.sim
    sim.run(until_procs=[sim.spawn(_sleeper(40_000.0), name="idle")])
    parked.append(host.queue_pairs[0][0].cq.post_watcher is not None)
    host.stop()
    # The stopped warps' last visits still drain through the SM.
    sim.run(until_procs=[sim.spawn(_sleeper(5_000.0), name="after")])
    host.start()
    kernel = KernelSpec(name="again", body=_read_kernel(2))
    host.run_kernel(kernel, LaunchConfig(1, 8))
    host.drain()
    host.stop()
    return sim.now


def test_stop_while_parked_then_start():
    parked: List[bool] = []
    _assert_parking_is_exact(lambda: _stop_while_parked(parked))
    assert parked == [False, True]  # exact run, then the parked run


def _return_mid_park_then_plain_run(parked: List[bool]):
    host = make_host()
    host.start()
    sim = host.sim
    sim.run(until_procs=[sim.spawn(_sleeper(30_000.0), name="first")])
    parked.append(host.queue_pairs[0][0].cq.post_watcher is not None)
    visits = host.service.poll_visits
    cycles = host.service.service_sm.issued_thread_cycles()
    sim.spawn(_sleeper(12_345.0), name="second")
    host.launch_kernel(
        KernelSpec(name="tail", body=_read_kernel(2)), LaunchConfig(1, 4)
    )
    # A plain run() ends once no non-daemon and no raw callback is left —
    # including the poll departures a parked service no longer schedules.
    sim.run()
    after = sim.now
    host.stop()
    return visits, cycles, after


def test_run_returning_mid_park_then_plain_run():
    parked: List[bool] = []
    _assert_parking_is_exact(lambda: _return_mid_park_then_plain_run(parked))
    assert parked == [False, True]


def _finish():
    return
    yield


def _drain_on_a_poll_boundary(queue_pairs: int, at, probe: dict):
    """One polling warp on ``queue_pairs`` CQs; after a small kernel, a
    non-daemon process spawned to run (and end) exactly at ``at`` — or a
    plain 60 µs sleep when ``at`` is None — is the last thing a plain
    ``run()`` waits for.  ``probe`` receives the service SM's live
    departure times, when the quiet stretch began, and whether the service
    was parked midway through it."""
    host = make_host(
        queue_pairs=queue_pairs, service=ServiceConfig(polling_warps=1)
    )
    sim = host.sim
    server = host.service.service_sm.issue
    departures = probe.setdefault("departures", [])
    original_departure = FairShareServer._on_departure

    def on_departure(self, version):
        if self is server and version == self.version:
            departures.append(self.sim.now)
        return original_departure(self, version)

    with _patched(FairShareServer, "_on_departure", lambda o: on_departure):
        host.start()
        kernel = KernelSpec(name="drain", body=_read_kernel(1))
        host.run_kernel(kernel, LaunchConfig(1, 4))
        host.drain()
        probe["quiet"] = sim.now
        if at is None:
            sim.spawn(_sleeper(60_000.0), name="last")
        else:
            sim.spawn(_finish(), name="last", at=at)
        sim.run(until=sim.now + 20_000.0)
        probe["parked"] = host.queue_pairs[0][0].cq.post_watcher is not None
        sim.run()
        end = sim.now
        host.stop()
    return end


@pytest.mark.parametrize("boundary", ["back-off end", "mid-round departure"])
def test_plain_run_draining_on_a_replayed_poll_boundary(boundary):
    # Probe (exact): the poll-visit departures of the quiet stretch.
    queue_pairs = 1 if boundary == "back-off end" else 2
    idle_ns = ServiceConfig().idle_poll_ns
    probe: dict = {}
    _observe(
        lambda: _drain_on_a_poll_boundary(queue_pairs, None, probe),
        exact=True,
    )
    quiet = [d for d in probe["departures"] if d > probe["quiet"] + 30_000.0]
    if boundary == "back-off end":
        # One CQ: every visit ends a round, so a back-off ends idle_ns
        # after each departure.
        at = quiet[0] + idle_ns
    else:
        # Two CQs: a departure followed by the next visit's, with no
        # back-off between, ends the first visit of a round.
        at = next(d for d, e in zip(quiet, quiet[1:]) if e - d < idle_ns)

    seen: Dict[bool, dict] = {True: {}, False: {}}
    want, exact = _observe(
        lambda: _drain_on_a_poll_boundary(queue_pairs, at, seen[True]),
        exact=True,
    )
    got, parked = _observe(
        lambda: _drain_on_a_poll_boundary(queue_pairs, at, seen[False]),
        exact=False,
    )
    # The run drained exactly on a poll boundary the parked service had
    # skipped; stepped, the boundary's event sorts after the drain.
    assert seen[False]["parked"] and not seen[True]["parked"]
    assert got == want == at
    want_sig, got_sig = exact.signature(), parked.signature()
    for key in want_sig:
        assert got_sig[key] == want_sig[key], key
    assert parked.events() < exact.events()


def _hung_agile_run():
    cfg = small_config(faults=FaultConfig(cqe_drop_first=1))
    host = AgileHost(cfg, watchdog_ns=200_000.0)
    kernel = KernelSpec(name="hang", body=_read_kernel(1))
    with pytest.raises(SimStallError):
        with host:
            host.run_kernel(kernel, LaunchConfig(1, 1))
    assert host.ssds[0].dropped_cqes == 1
    return host.sim.now


def test_hung_run_stalls_at_the_same_instant():
    want, exact = _observe(_hung_agile_run, exact=True)
    got, parked = _observe(_hung_agile_run, exact=False)
    assert exact.runs[-1] == ("SimStallError", want)
    assert parked.runs == exact.runs and got == want
    assert parked.signature() == exact.signature()
    assert parked.events() < exact.events()
