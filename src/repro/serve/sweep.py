"""Saturation sweeps: offered load vs goodput and tail latency.

The serving-layer headline experiment: fix the machine, sweep the offered
request rate across a range that straddles capacity, and plot goodput and
p99 against offered load for AGILE, BaM, and the naive-async strawman.
Below the knee all systems track the offered line; past it the curves
separate — AGILE's asynchronous issue keeps the GPU threads cheap per I/O
and the knee arrives later, while the shed/abort counters show exactly
where each system starts refusing work instead of silently queueing.

Workload: two tenant classes sharing the machine — ``point`` (1-page
lookups, tight SLO, 80 % of traffic) and ``scan`` (4-page reads, looser
SLO, 20 %) — both Poisson.  Identical seeds produce identical arrival
timelines on every system, so curves are directly comparable point by
point and bit-identical across runs.

Two scenarios live here: :data:`SWEEP` (systems × loads on each
(array size, placement) machine) and :data:`PLACEMENT`, the
striped-vs-shard head-to-head on a hotspot trace whose headline check
fails unless striping spreads the hot head better than static sharding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.config import PlacementConfig, SystemConfig, stable_hash
from repro.serve.arrival import ArrivalProcess, Poisson
from repro.serve.backends import SYSTEMS
from repro.serve.registry import POINT, SCAN, tenant_class
from repro.serve.request import RequestClass
from repro.serve.scenario import Cell, Scenario, cell, prefixed, serve_cell
from repro.serve.slo import ServeReport

#: Placement policies the sweep's ``placements`` axis accepts (identity is
#: reachable too, but only on a 1-SSD machine).
PLACEMENTS = ("shard", "striped", "load_aware", "tenant_affine")

#: Tenant mix used by the standard sweep (fractions sum to 1).
POINT_FRACTION = 0.8
SCAN_FRACTION = 0.2

#: Default offered loads (requests/s) — chosen to straddle every system's
#: knee at the default 2-SSD machine and 10 ms window.
DEFAULT_LOADS = (10_000.0, 20_000.0, 40_000.0, 80_000.0, 160_000.0, 320_000.0)
QUICK_LOADS = (20_000.0, 80_000.0)


@dataclass(frozen=True)
class SweepSpec:
    """One saturation curve's fixed parameters."""

    loads_rps: Sequence[float]
    duration_ns: float = 10_000_000.0
    seed: int = 7
    num_ssds: int = 2
    lba_space: int = 2048
    admission_capacity: int = 256
    max_batch: int = 64
    max_wait_ns: float = 50_000.0
    point_slo_ns: float = 2_000_000.0
    scan_slo_ns: float = 5_000_000.0
    #: Placement policy for the SSD array (1-SSD machines use identity so
    #: existing single-device traces stay bit-exact).
    placement: str = "striped"
    stripe_pages: int = 1
    #: Hotspot skew applied to both tenant classes (0.0 = uniform draws,
    #: which also keeps the pre-placement rng streams unchanged).
    skew: float = 0.0
    hot_fraction: float = 0.125


@dataclass(frozen=True)
class ServePoint:
    """One (system, offered-load) sample on the saturation curve."""

    system: str
    offered_rps: float
    report: ServeReport


def standard_classes(spec: SweepSpec) -> List[RequestClass]:
    """The two-tenant mix on disjoint logical regions: ``point`` at the
    bottom of the space, ``scan`` directly above it (disjoint regions are
    what make tenant-affine placement meaningful)."""
    return [
        tenant_class(
            POINT,
            pages=1,
            slo_ns=spec.point_slo_ns,
            weight=POINT_FRACTION,
            queue_timeout_ns=spec.point_slo_ns,
            lba_space=spec.lba_space,
            lba_base=0,
            skew=spec.skew,
            hot_fraction=spec.hot_fraction,
        ),
        tenant_class(
            SCAN,
            pages=4,
            slo_ns=spec.scan_slo_ns,
            weight=SCAN_FRACTION,
            queue_timeout_ns=spec.scan_slo_ns,
            lba_space=spec.lba_space,
            lba_base=spec.lba_space,
            skew=spec.skew,
            hot_fraction=spec.hot_fraction,
        ),
    ]


def standard_arrivals(
    spec: SweepSpec, rate_rps: float
) -> Dict[str, ArrivalProcess]:
    return {
        POINT: Poisson(rate_rps * POINT_FRACTION),
        SCAN: Poisson(rate_rps * SCAN_FRACTION),
    }


def _system_config(spec: SweepSpec) -> SystemConfig:
    """The simulated machine: ``num_ssds`` devices behind the spec's
    placement policy.  A shard policy spans exactly the two class regions
    (``2 * lba_space``), so contiguous regions land on contiguous devices —
    the layout striping is supposed to beat under a hotspot."""
    policy = spec.placement if spec.num_ssds > 1 else "identity"
    return SystemConfig(
        seed=spec.seed,
        placement=PlacementConfig(
            policy=policy,
            stripe_pages=spec.stripe_pages,
            shard_span=2 * spec.lba_space,
        ),
    ).with_ssds(spec.num_ssds)


def run_serve_point(
    system: str, rate_rps: float, spec: SweepSpec, num_gpus: int = 1
) -> ServePoint:
    """Serve one offered-load point on one system (a fresh machine)."""
    report = serve_cell(
        system,
        _system_config(spec),
        standard_classes(spec),
        lambda _backend: standard_arrivals(spec, rate_rps),
        spec,
        num_gpus=num_gpus,
    )
    return ServePoint(system=system, offered_rps=rate_rps, report=report)


def knee_rps(points: Sequence[ServePoint]) -> float:
    """The saturation knee: the highest offered load whose goodput still
    tracks the offered line (>= 90 %).  Past the knee, goodput flattens or
    collapses while tail latency climbs."""
    knee = 0.0
    for pt in points:
        if pt.offered_rps <= 0:
            continue
        if pt.report.goodput_rps >= 0.9 * pt.report.offered_rps:
            knee = max(knee, pt.offered_rps)
    return knee


def curve_cells(
    axes: Mapping[str, object], points: Sequence[ServePoint]
) -> List[Cell]:
    """One curve: a cell per offered load (``target_rps`` axis) plus the
    knee as a cell on the curve's own axes."""
    cells = [
        cell({**axes, "target_rps": pt.offered_rps}, pt.report.as_dict())
        for pt in points
    ]
    cells.append(cell(axes, {"knee_rps": knee_rps(points)}))
    return cells


def saturation_cells(
    spec: SweepSpec, systems: Sequence[str] = SYSTEMS, num_gpus: int = 1
) -> List[Cell]:
    """Every system at every offered load of ``spec``."""
    cells: List[Cell] = []
    for system in systems:
        points = [
            run_serve_point(system, rate, spec, num_gpus=num_gpus)
            for rate in spec.loads_rps
        ]
        cells.extend(curve_cells({"system": system}, points))
    return cells


# -- the sweep scenario -------------------------------------------------------


def _check_placements(placements: Sequence[str]) -> None:
    for placement in placements:
        if placement not in PLACEMENTS + ("identity",):
            raise ValueError(
                f"unknown placement {placement!r}; want one of {PLACEMENTS}"
            )


@dataclass(frozen=True)
class SweepGrid:
    """The saturation-sweep grid: one curve per system on each
    (array size, placement policy) machine."""

    loads_rps: Tuple[float, ...] = DEFAULT_LOADS
    systems: Tuple[str, ...] = SYSTEMS
    ssds: Tuple[int, ...] = (2,)
    placements: Tuple[str, ...] = ("striped",)
    duration_ns: float = 10_000_000.0
    seed: int = 7
    #: Fraction of page draws redirected to the hot head of each class
    #: region (0 = uniform).
    skew: float = 0.0
    #: Stripe chunk size in pages (striped placement).
    stripe_pages: int = 1
    num_gpus: int = 1

    def __post_init__(self) -> None:
        for system in self.systems:
            if system not in SYSTEMS:
                raise ValueError(
                    f"unknown system {system!r}; want one of {SYSTEMS}"
                )
        _check_placements(self.placements)

    def curve_spec(self) -> SweepSpec:
        return SweepSpec(
            loads_rps=self.loads_rps,
            duration_ns=self.duration_ns,
            seed=self.seed,
            stripe_pages=self.stripe_pages,
            skew=self.skew,
        )


def sweep_cells(grid: SweepGrid) -> List[Cell]:
    base = grid.curve_spec()
    cells: List[Cell] = []
    for count in grid.ssds:
        for placement in grid.placements:
            spec = replace(base, num_ssds=count, placement=placement)
            cells.extend(
                prefixed(
                    {"ssds": count, "placement": placement},
                    saturation_cells(spec, grid.systems, grid.num_gpus),
                )
            )
    return cells


def sweep_config_hash(grid: SweepGrid) -> str:
    return stable_hash(
        {
            "family": "agile-serve-sweep",
            "spec": grid.curve_spec(),
            "ssd_counts": list(grid.ssds),
            "placements": list(grid.placements),
            "systems": list(grid.systems),
            "num_gpus": grid.num_gpus,
        }
    )


SWEEP = Scenario(
    name="sweep",
    family="agile-serve-sweep",
    quick=lambda seed: SweepGrid(loads_rps=QUICK_LOADS, seed=seed),
    default=lambda seed: SweepGrid(seed=seed),
    cells=sweep_cells,
    config_hash=sweep_config_hash,
)


# -- the placement scenario ---------------------------------------------------


@dataclass(frozen=True)
class PlacementSpec:
    """Placement policies head to head on AGILE at one offered load on one
    machine size, under a hotspot: striping should spread the hot head across
    devices (low ``skew_ratio``) while static sharding funnels it onto
    one device."""

    placements: Tuple[str, ...] = ("shard", "striped")
    #: Past the sharded machine's knee under the hotspot, inside the
    #: striped one's.
    rate_rps: float = 80_000.0
    num_ssds: int = 4
    skew: float = 0.8
    duration_ns: float = 5_000_000.0
    seed: int = 7

    def __post_init__(self) -> None:
        _check_placements(self.placements)

    def curve_spec(self) -> SweepSpec:
        return SweepSpec(
            loads_rps=(self.rate_rps,),
            duration_ns=self.duration_ns,
            seed=self.seed,
            num_ssds=self.num_ssds,
            skew=self.skew,
        )


def placement_cells(spec: PlacementSpec) -> List[Cell]:
    base = spec.curve_spec()
    cells = []
    for placement in spec.placements:
        rep = run_serve_point(
            "agile", spec.rate_rps, replace(base, placement=placement)
        ).report
        cells.append(
            cell(
                {"policy": placement},
                {
                    "goodput_rps": rep.goodput_rps,
                    "p99_ns": rep.p99_ns,
                    "completed": rep.completed,
                    "skew_ratio": rep.skew_ratio,
                    "device_reads": list(rep.device_reads),
                },
            )
        )
    return cells


def placement_config_hash(spec: PlacementSpec) -> str:
    return stable_hash(
        {
            "family": "agile-placement-smoke",
            "spec": spec.curve_spec(),
            "rate_rps": spec.rate_rps,
            "placements": list(spec.placements),
            "system": "agile",
        }
    )


def striping_beats_sharding(cells: Sequence[Cell]) -> List[str]:
    skew = {c["axes"]["policy"]: c["metrics"]["skew_ratio"] for c in cells}
    if "striped" not in skew or "shard" not in skew:
        return []
    if skew["striped"] >= skew["shard"]:
        return [
            "striped placement did not reduce per-device skew "
            f"(striped {skew['striped']:.3f} >= shard {skew['shard']:.3f})"
        ]
    return []


PLACEMENT = Scenario(
    name="placement",
    family="agile-placement-smoke",
    quick=lambda seed: PlacementSpec(seed=seed),
    default=lambda seed: PlacementSpec(seed=seed),
    cells=placement_cells,
    config_hash=placement_config_hash,
    check=striping_beats_sharding,
)
