"""Write-heavy serving: GC pauses bend the tail, and the sweep shows it.

The read-only saturation sweep holds the device's write path idle; this
module turns it on.  Three tenants share a deliberately small machine:

- ``ckpt`` — DLRM-checkpoint-style streaming writes
  (:mod:`repro.workloads.checkpoint`): sequential shard sweeps over an
  embedding-table region with cycling hot-head rewrites, issued as
  cache-bypassing device writes (``op="write"``);
- ``hot`` — read-modify-write traffic (``op="modify"``) over a compact
  region through the software cache, so eviction pressure turns dirty
  lines into device programs on the write-back path;
- ``point`` — latency-sensitive 1-page reads, the tenant whose p99 the
  experiment watches.

The device geometry is shrunk (few hundred pages per device, small erase
blocks, modest over-provisioning) so sustained writes wrap the flash
within a simulated window of tens of milliseconds: the FTL runs out of
free blocks, garbage-collects, and GC's relocation reads, programs, and
erases contend with ``point``'s reads on the same flash channels.  The
headline comparison runs the identical offered timeline twice — GC
enabled vs disabled (in-place updates, no erases) — and the delta in
read p99 *is* the GC pause tail.  The scenario (:data:`WRITE_PATH`)
fails its headline check if any eviction write-back is lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import (
    CacheConfig,
    PlacementConfig,
    SsdConfig,
    SystemConfig,
    stable_hash,
)
from repro.serve.arrival import ArrivalProcess, Poisson
from repro.serve.backends import ServeBackend
from repro.serve.registry import CKPT, HOT, POINT, tenant_class
from repro.serve.request import RequestClass
from repro.serve.scenario import Cell, Scenario, cell, serve_cell
from repro.serve.sweep import ServePoint, curve_cells, knee_rps
from repro.workloads.checkpoint import CheckpointSpec, checkpoint_trace

#: Tenant mix (fractions of the offered request rate; sum to 1).
READ_FRACTION = 0.5
MODIFY_FRACTION = 0.3
CKPT_FRACTION = 0.2


@dataclass(frozen=True)
class WritePathSpec:
    """One write-path experiment's fixed parameters.

    The device geometry is the experiment: small enough that the offered
    write stream wraps the flash inside ``duration_ns``, realistic enough
    (block erase >> page program) that GC pauses are visible.
    """

    loads_rps: Sequence[float]
    duration_ns: float = 20_000_000.0
    seed: int = 7
    num_ssds: int = 2
    #: Logical pages per device (the shrunk geometry).
    device_pages: int = 256
    pages_per_block: int = 8
    op_ratio: float = 0.25
    gc_policy: str = "greedy"
    gc_low_water_blocks: int = 6
    gc_high_water_blocks: int = 10
    #: Software-cache lines — far below ``modify_space``, so nearly every
    #: read-modify-write misses, evicts a dirty line, and the write-back
    #: lands a live hot page amid the checkpoint churn (mixed-validity
    #: blocks are what make GC relocate instead of just erasing).
    cache_lines: int = 16
    #: Logical regions (disjoint; must fit ``num_ssds * device_pages``).
    table_pages: int = 128
    modify_space: int = 96
    read_space: int = 128
    shard_pages: int = 4
    admission_capacity: int = 256
    max_batch: int = 32
    max_wait_ns: float = 50_000.0
    read_slo_ns: float = 2_000_000.0
    modify_slo_ns: float = 5_000_000.0
    ckpt_slo_ns: float = 20_000_000.0

    def __post_init__(self) -> None:
        span = self.table_pages + self.modify_space + self.read_space
        if span > self.num_ssds * self.device_pages:
            raise ValueError(
                f"logical regions ({span} pages) exceed the array "
                f"({self.num_ssds} x {self.device_pages} pages)"
            )


def write_path_classes(spec: WritePathSpec) -> List[RequestClass]:
    """The three-tenant mix on disjoint logical regions (ckpt at the
    bottom, then the modify region, then the read region)."""
    return [
        tenant_class(
            CKPT,
            pages=spec.shard_pages,
            slo_ns=spec.ckpt_slo_ns,
            weight=CKPT_FRACTION,
            lba_space=spec.table_pages,
            lba_base=0,
        ),
        tenant_class(
            HOT,
            pages=1,
            slo_ns=spec.modify_slo_ns,
            weight=MODIFY_FRACTION,
            queue_timeout_ns=spec.modify_slo_ns,
            lba_space=spec.modify_space,
            lba_base=spec.table_pages,
        ),
        tenant_class(
            POINT,
            pages=1,
            slo_ns=spec.read_slo_ns,
            weight=READ_FRACTION,
            queue_timeout_ns=spec.read_slo_ns,
            lba_space=spec.read_space,
            lba_base=spec.table_pages + spec.modify_space,
        ),
    ]


def _system_config(spec: WritePathSpec, gc_enabled: bool) -> SystemConfig:
    page_size = 4096
    ssd = SsdConfig(
        capacity_bytes=spec.device_pages * page_size,
        page_size=page_size,
        pages_per_block=spec.pages_per_block,
        op_ratio=spec.op_ratio,
        gc_policy=spec.gc_policy,
        gc_low_water_blocks=spec.gc_low_water_blocks,
        gc_high_water_blocks=spec.gc_high_water_blocks,
        gc_enabled=gc_enabled,
    )
    return SystemConfig(
        seed=spec.seed,
        ssds=(ssd,),
        cache=CacheConfig(num_lines=spec.cache_lines),
        placement=PlacementConfig(policy="striped", stripe_pages=1),
    ).with_ssds(spec.num_ssds)


def run_write_path_point(
    rate_rps: float, spec: WritePathSpec, gc_enabled: bool = True
) -> ServePoint:
    """Serve one offered-load point on a fresh machine; ``gc_enabled``
    toggles the FTL between out-of-place-with-GC and in-place updates on
    the *identical* arrival timeline (same seed, same rng streams)."""
    ckpt_spec = CheckpointSpec(
        table_pages=spec.table_pages, shard_pages=spec.shard_pages
    )

    def arrivals(backend: ServeBackend) -> Dict[str, ArrivalProcess]:
        return {
            CKPT: checkpoint_trace(
                ckpt_spec,
                rate_rps * CKPT_FRACTION,
                backend.place,
                lba_base=0,
                tenant=CKPT,
            ),
            HOT: Poisson(rate_rps * MODIFY_FRACTION),
            POINT: Poisson(rate_rps * READ_FRACTION),
        }

    report = serve_cell(
        "agile",
        _system_config(spec, gc_enabled),
        write_path_classes(spec),
        arrivals,
        spec,
    )
    system = "agile" if gc_enabled else "agile-gc-off"
    return ServePoint(system=system, offered_rps=rate_rps, report=report)


def _read_p99(pt: ServePoint) -> float:
    cls = pt.report.classes.get(POINT)
    return cls.p99_ns if cls is not None else pt.report.p99_ns


def write_path_cells(spec: WritePathSpec) -> List[Cell]:
    """GC-on vs GC-off across the load axis (the toggle is the ``system``
    axis: ``gc_on``/``gc_off``), plus a ``section=summary`` cell with the
    scalars the store gate watches (``mean_waf``, ``gc_stall_ns``, read-p99
    inflation)."""
    gc_on = [run_write_path_point(r, spec, True) for r in spec.loads_rps]
    gc_off = [run_write_path_point(r, spec, False) for r in spec.loads_rps]
    waf_points = [pt.report.mean_waf for pt in gc_on]
    stall_points = [pt.report.gc_stall_ns for pt in gc_on]
    inflation = [
        (_read_p99(on) / _read_p99(off)) if _read_p99(off) > 0 else 1.0
        for on, off in zip(gc_on, gc_off)
    ]
    summary = {
        "mean_waf": max(waf_points) if waf_points else 1.0,
        "gc_stall_ns": max(stall_points) if stall_points else 0.0,
        "read_p99_inflation": max(inflation) if inflation else 1.0,
        "knee_rps_gc_on": knee_rps(gc_on),
        "knee_rps_gc_off": knee_rps(gc_off),
        "writebacks_lost": sum(pt.report.writebacks_lost for pt in gc_on),
    }
    return [
        *curve_cells({"system": "gc_on"}, gc_on),
        *curve_cells({"system": "gc_off"}, gc_off),
        cell({"section": "summary"}, summary),
    ]


def no_lost_writebacks(cells: Sequence[Cell]) -> List[str]:
    """Without a fault plan, every eviction write-back must be acked."""
    return [
        f"{c['axes']['system']} at {c['axes']['target_rps']:g} rps: "
        f"{lost} eviction write-back(s) lost without a fault plan"
        for c in cells
        if (lost := c["metrics"].get("write_path", {}).get("writebacks_lost"))
    ]


def quick_spec(
    loads: Optional[Sequence[float]] = None, seed: int = 7
) -> WritePathSpec:
    """The CI-sized experiment: three loads straddling the write knee."""
    return WritePathSpec(
        loads_rps=tuple(loads) if loads else (10_000.0, 30_000.0, 60_000.0),
        seed=seed,
    )


WRITE_PATH = Scenario(
    name="write-path",
    family="agile-write-path",
    quick=lambda seed: quick_spec(seed=seed),
    default=lambda seed: quick_spec(seed=seed),
    cells=write_path_cells,
    config_hash=lambda spec: stable_hash(
        {"family": "agile-write-path", "spec": spec}
    ),
    check=no_lost_writebacks,
)
