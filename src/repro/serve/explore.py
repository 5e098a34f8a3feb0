"""Design-space exploration: parameter grids over the machine.

EagleTree's thesis — the design space, not a single point, is the object
of study — made runnable: the :data:`EXPLORE` scenario crosses cache size
x SQ depth x SSD count x arrival process and serves the standard
two-tenant mix on a fresh simulated machine per cell (axes = the grid
coordinates, metrics = the serve report).  Everything is
seed-deterministic: same spec, same document.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

from repro.config import CacheConfig, PlacementConfig, SystemConfig, stable_hash
from repro.serve.arrival import ArrivalProcess, Mmpp, Poisson
from repro.serve.scenario import Scenario, cell, serve_cell
from repro.serve.sweep import SweepSpec, standard_classes

#: Arrival-process kinds the ``arrivals`` axis accepts.
ARRIVALS = ("poisson", "mmpp")


@dataclass(frozen=True)
class ExploreSpec:
    """One exploration's grid axes and fixed serving parameters."""

    cache_lines: Tuple[int, ...] = (256, 1024)
    queue_depths: Tuple[int, ...] = (32, 64)
    ssd_counts: Tuple[int, ...] = (1, 2)
    arrivals: Tuple[str, ...] = ("poisson",)
    rate_rps: float = 40_000.0
    duration_ns: float = 1_000_000.0
    seed: int = 7
    system: str = "agile"
    placement: str = "striped"

    def __post_init__(self) -> None:
        for kind in self.arrivals:
            if kind not in ARRIVALS:
                raise ValueError(
                    f"unknown arrival kind {kind!r}; want one of {ARRIVALS}"
                )
        if not (
            self.cache_lines and self.queue_depths
            and self.ssd_counts and self.arrivals
        ):
            raise ValueError("every grid axis needs at least one value")

    def config_hash(self) -> str:
        return stable_hash({"explore": asdict(self)})

    @property
    def grid(self) -> List[Dict[str, object]]:
        """The full cross product's axes, in deterministic axis order."""
        return [
            {
                "cache_lines": cache,
                "queue_depth": depth,
                "ssds": ssds,
                "arrival": arrival,
            }
            for cache in self.cache_lines
            for depth in self.queue_depths
            for ssds in self.ssd_counts
            for arrival in self.arrivals
        ]


def _arrival_for(kind: str, rate_rps: float) -> ArrivalProcess:
    """A per-class arrival process offering ``rate_rps`` on average.

    The MMPP variant keeps the same mean rate as the Poisson one (calm at
    half rate, bursting at 3x over the default 2 ms / 0.5 ms dwells), so
    cells differ in burstiness, never in offered volume.
    """
    if kind == "poisson":
        return Poisson(rate_rps)
    return Mmpp(calm_rps=0.5 * rate_rps, burst_rps=3.0 * rate_rps)


def _cell_config(spec: ExploreSpec, axes: Dict[str, object]) -> SystemConfig:
    ssds = int(axes["ssds"])  # type: ignore[arg-type]
    policy = spec.placement if ssds > 1 else "identity"
    cfg = SystemConfig(
        seed=spec.seed,
        cache=CacheConfig(num_lines=int(axes["cache_lines"])),  # type: ignore[arg-type]
        queue_depth=int(axes["queue_depth"]),  # type: ignore[arg-type]
        placement=PlacementConfig(policy=policy),
    )
    return cfg.with_ssds(ssds)


def run_explore_cell(
    spec: ExploreSpec, axes: Dict[str, object]
) -> Dict[str, object]:
    """Serve one grid cell on a fresh machine; return its metric dict."""
    sweep = SweepSpec(
        loads_rps=(spec.rate_rps,),
        duration_ns=spec.duration_ns,
        seed=spec.seed,
        num_ssds=int(axes["ssds"]),  # type: ignore[arg-type]
    )
    classes = standard_classes(sweep)
    arrivals = {
        cls.name: _arrival_for(str(axes["arrival"]), spec.rate_rps * cls.weight)
        for cls in classes
    }
    report = serve_cell(
        spec.system,
        _cell_config(spec, axes),
        classes,
        lambda _backend: arrivals,
        sweep,
    )
    return {
        "goodput_rps": report.goodput_rps,
        "p99_ns": report.p99_ns,
        "offered": report.offered,
        "completed": report.completed,
        "shed": report.shed,
        "aborted": report.aborted,
        "mean_batch_size": report.mean_batch_size,
        "skew_ratio": report.skew_ratio,
        "sim_events": report.sim_events,
    }


EXPLORE = Scenario(
    name="explore",
    family="agile-explore",
    quick=lambda seed: ExploreSpec(seed=seed),
    default=lambda seed: ExploreSpec(seed=seed),
    cells=lambda spec: [
        cell(axes, run_explore_cell(spec, axes)) for axes in spec.grid
    ],
    config_hash=ExploreSpec.config_hash,
)
