"""The benchmark's workloads, driven through the simulator's public entry points.

Each workload splits into the phases the benchmark times separately:
``build`` (the simulated machine), ``load`` (data or access pattern),
``inputs`` (arrivals or the click trace), ``run`` (simulate until the
workload drains), then ``report`` and ``check``.  ``report`` returns the
simulated results as plain numbers; ``check`` returns a list of problems
(empty when every output check passes).

- ``write-path``: the GC-on point of ``python -m repro.serve write-path``
  at one offered load (three tenants on the shrunk 2-SSD geometry).
- ``tenancy``: the wfq arm of the calm ``inference_heavy``/striped cell of
  ``python -m repro.serve tenancy --quick``.
- ``dlrm``: ``run_dlrm("agile_async", config1())`` over a seeded Zipf
  Criteo trace (closed loop: each epoch batch waits for the previous one).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List

from repro.serve import tenancy, writepath
from repro.serve.arrival import Poisson
from repro.serve.backends import AgileServeBackend
from repro.serve.batcher import BatchPolicy
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.registry import CKPT, HOT, POINT
from repro.workloads import dlrm
from repro.workloads.checkpoint import CheckpointSpec, checkpoint_trace
from repro.workloads.criteo import make_criteo_trace

#: Offered load of the write-path point (rps).  At 10k rps GC never fires;
#: at 30k the flash wraps inside the window and GC relocates live pages.
WRITE_PATH_RATE_RPS = 30_000.0

#: DLRM job shape: Config-1, batch 256 over all 26 Criteo features,
#: 2,048 cache lines, 4 queue pairs of depth 16.
DLRM_BATCH = 256
DLRM_FEATURES = 26
DLRM_CACHE_LINES = 2048
DLRM_QUEUE_PAIRS = 4
DLRM_QUEUE_DEPTH = 16
DLRM_EPOCHS = 4

#: Reduced sizes for the benchmark's self-tests (same code paths).
TINY_WRITE_PATH_NS = 2_000_000.0
TINY_TENANCY_NS = 1_000_000.0
TINY_DLRM_BATCH = 64
TINY_DLRM_EPOCHS = 2


class Workload:
    """One simulated run, split into separately timed phases."""

    name = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def build(self) -> None:
        raise NotImplementedError

    def load(self) -> None:
        raise NotImplementedError

    def inputs(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def operations(self) -> int:
        """Operations the run attempts (known once inputs exist)."""
        raise NotImplementedError

    def report(self) -> Dict[str, Any]:
        """Simulated results: ``sim`` (named scalars), ``detail`` (the
        full per-class or per-job record the digest covers) and ``ops``
        (attempted / failed operations)."""
        raise NotImplementedError

    def check(self) -> List[str]:
        raise NotImplementedError

    def model_counters(self) -> Dict[str, float]:
        """Layer counters the model keeps whether or not tracing is on."""
        raise NotImplementedError


class _ServeWorkload(Workload):
    """Shared report and checks of the two serve workloads."""

    #: The class whose latency and SLO attainment the report quotes.
    latency_class = ""

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.backend: Any = None
        self.classes: Any = None
        self.engine: Any = None
        self.result: Any = None
        self.makespan_ns = 0.0

    def run(self) -> None:
        # ServeEngine.run simulates the window, waits for every request to
        # reach a terminal state, then drains the write-backs.
        self.result = self.engine.run()
        self.makespan_ns = float(self.backend.sim.now)

    def operations(self) -> int:
        return len(self.engine.requests) if self.engine is not None else 0

    def report(self) -> Dict[str, Any]:
        rep = self.result
        lc = rep.classes[self.latency_class]
        detail = rep.as_dict()
        # Event counts are the simulator's cost, not its answer: a
        # simulator-speed change may lower them without changing results.
        detail.pop("sim_events", None)
        detail["makespan_ns"] = self.makespan_ns
        return {
            "sim": {
                "sim_makespan_us": self.makespan_ns / 1e3,
                "sim_goodput_rps": rep.goodput_rps,
                "sim_waf": rep.mean_waf,
                "sim_p50_us": lc.p50_ns / 1e3,
                "sim_p95_us": lc.p95_ns / 1e3,
                "sim_slo_attainment": lc.slo_attainment,
            },
            "latency_samples": lc.completed,
            "detail": detail,
            "ops": {
                "attempted": rep.offered,
                "failed": sum(c.aborted for c in rep.classes.values()),
            },
        }

    def check(self) -> List[str]:
        problems = []
        rep = self.result
        for name, cls in sorted(rep.classes.items()):
            settled = cls.completed + cls.shed + cls.queue_timeout + cls.aborted
            if cls.offered != settled:
                problems.append(
                    f"{name}: offered {cls.offered} != completed+shed+"
                    f"queue_timeout+aborted {settled}"
                )
        if rep.writebacks_lost:
            problems.append(f"{rep.writebacks_lost} write-back(s) lost")
        for ssd in self.backend.host.ssds:
            try:
                ssd.flash.ftl.check_conservation()
            except Exception as exc:  # the FTL raises SimError on drift
                problems.append(f"ssd{ssd.index}: {exc}")
        return problems

    def model_counters(self) -> Dict[str, float]:
        rep = self.result
        return {
            "serve.shed": float(rep.shed),
            "serve.queue_timeout": float(
                sum(c.queue_timeout for c in rep.classes.values())
            ),
            "serve.batches": float(rep.batches),
            "serve.mean_batch_size": float(rep.mean_batch_size),
            "placement.skew_ratio": float(rep.skew_ratio),
            "core.writebacks": float(rep.writebacks),
        }


class WritePath(_ServeWorkload):
    name = "write-path"
    latency_class = "point"

    def build(self) -> None:
        spec = writepath.quick_spec((WRITE_PATH_RATE_RPS,), seed=self.seed)
        if self.tiny:
            spec = replace(spec, duration_ns=TINY_WRITE_PATH_NS)
        self.spec = spec
        # The GC-on machine exactly as run_write_path_point builds it.
        self.backend = AgileServeBackend(writepath._system_config(spec, True))

    def load(self) -> None:
        self.classes = writepath.write_path_classes(self.spec)
        self.backend.load_pattern(self.classes)

    def inputs(self) -> None:
        spec, rate = self.spec, WRITE_PATH_RATE_RPS
        ckpt = CheckpointSpec(
            table_pages=spec.table_pages, shard_pages=spec.shard_pages
        )
        arrivals = {
            CKPT: checkpoint_trace(
                ckpt, rate * writepath.CKPT_FRACTION, self.backend.place,
                lba_base=0, tenant=CKPT,
            ),
            HOT: Poisson(rate * writepath.MODIFY_FRACTION),
            POINT: Poisson(rate * writepath.READ_FRACTION),
        }
        cfg = ServeConfig(
            duration_ns=spec.duration_ns,
            admission_capacity=spec.admission_capacity,
            batch=BatchPolicy(
                max_batch=spec.max_batch, max_wait_ns=spec.max_wait_ns
            ),
        )
        self.engine = ServeEngine(
            self.backend, self.classes, arrivals, cfg, seed=spec.seed
        )


class Tenancy(_ServeWorkload):
    name = "tenancy"
    latency_class = "infer"
    MIX = "inference_heavy"
    STORM = "none"
    PLACEMENT = "striped"

    def build(self) -> None:
        spec = tenancy.quick_spec(seed=self.seed)
        if self.tiny:
            spec = replace(spec, duration_ns=TINY_TENANCY_NS)
        self.spec = spec
        # The cell's machine exactly as run_tenancy_arm builds it.
        cfg = tenancy._system_config(spec, self.STORM, self.PLACEMENT)
        self.backend = AgileServeBackend(cfg)

    def load(self) -> None:
        self.classes = tenancy.tenancy_classes(self.spec)
        self.backend.load_pattern(self.classes)

    def inputs(self) -> None:
        spec = self.spec
        cfg = ServeConfig(
            duration_ns=spec.duration_ns,
            admission_capacity=spec.admission_capacity,
            batch=BatchPolicy(
                max_batch=spec.max_batch, max_wait_ns=spec.max_wait_ns
            ),
            tenancy=tenancy.tenancy_shares(),
        )
        arrivals = tenancy.tenancy_arrivals(spec, self.MIX, self.backend)
        self.engine = ServeEngine(
            self.backend, self.classes, arrivals, cfg, seed=spec.seed
        )


class Dlrm(Workload):
    """``run_dlrm`` builds its machine and loads the tables itself, so on
    this workload ``build`` and ``load`` are empty and ``run`` covers them."""

    name = "dlrm"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.batch = TINY_DLRM_BATCH if tiny else DLRM_BATCH
        self.epochs = TINY_DLRM_EPOCHS if tiny else DLRM_EPOCHS
        self.trace: Any = None
        self.result: Any = None

    def build(self) -> None:
        pass

    def load(self) -> None:
        pass

    def inputs(self) -> None:
        self.trace = make_criteo_trace(
            self.batch * self.epochs, seed=self.seed
        )

    def run(self) -> None:
        self.result = dlrm.run_dlrm(
            "agile_async",
            dlrm.config1(),
            batch=self.batch,
            epochs=self.epochs,
            features=DLRM_FEATURES,
            cache_lines=DLRM_CACHE_LINES,
            queue_pairs=DLRM_QUEUE_PAIRS,
            queue_depth=DLRM_QUEUE_DEPTH,
            trace=self.trace,
            seed=self.seed,
        )

    def operations(self) -> int:
        return self.epochs

    def report(self) -> Dict[str, Any]:
        res = self.result
        epoch_ns = res.total_ns / res.epochs
        samples = res.batch * res.epochs
        return {
            "sim": {
                "sim_makespan_us": res.total_ns / 1e3,
                "sim_goodput_rps": samples / (res.total_ns / 1e9),
                # No writes reach the devices: the inert-FTL baseline.
                "sim_waf": 1.0,
                # run_dlrm reports only the job's total, so the mean epoch
                # time stands in for both epoch-latency quantiles.
                "sim_p50_us": epoch_ns / 1e3,
                "sim_p95_us": epoch_ns / 1e3,
                "sim_slo_attainment": 1.0,
            },
            "latency_samples": res.epochs,
            "detail": {
                "total_ns": res.total_ns,
                "checksum": res.checksum,
                "batch": res.batch,
                "epochs": res.epochs,
            },
            "ops": {"attempted": res.epochs, "failed": 0},
        }

    def check(self) -> List[str]:
        want = dlrm.expected_checksum(
            dlrm.config1(),
            self.trace,
            batch=self.batch,
            epochs=self.epochs,
            features=DLRM_FEATURES,
        )
        if self.result.checksum != want:
            return [f"checksum {self.result.checksum!r} != expected {want!r}"]
        return []

    def model_counters(self) -> Dict[str, float]:
        return {
            "serve.shed": 0.0,
            "serve.queue_timeout": 0.0,
            "serve.batches": 0.0,
            "serve.mean_batch_size": 0.0,
            "placement.skew_ratio": 1.0,
            "core.writebacks": float(
                self.result.stats.get("cache", {}).get("writebacks", 0.0)
            ),
        }


WORKLOADS = {cls.name: cls for cls in (WritePath, Tenancy, Dlrm)}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r} (want one of {sorted(WORKLOADS)})"
        ) from None
    return cls(seed, tiny)
