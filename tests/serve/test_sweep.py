"""Saturation sweep: determinism, AGILE-vs-BaM ordering, knee detection."""

from __future__ import annotations

import pytest

from repro.serve.backends import build_backend
from repro.serve.slo import ClassReport, ServeReport
from repro.serve.sweep import (
    ServePoint,
    SweepSpec,
    knee_rps,
    run_serve_point,
    saturation_cells,
)

# One modest load on a small window: enough traffic to batch and complete,
# cheap enough that the sweep tests stay inside the tier-1 budget.
SPEC = SweepSpec(loads_rps=(20_000.0,), duration_ns=1_000_000.0, seed=7)


def _point_report(offered_rps: float, goodput_rps: float) -> ServePoint:
    cls = ClassReport(
        name="point", offered=10, completed=10, shed=0, queue_timeout=0,
        aborted=0, slo_ok=10, p50_ns=1.0, p95_ns=2.0, p99_ns=3.0,
        mean_latency_ns=1.5, goodput_rps=goodput_rps,
    )
    return ServePoint(
        system="x",
        offered_rps=offered_rps,
        report=ServeReport(
            system="x",
            duration_ns=1e6,
            offered_rps=offered_rps,
            classes={"point": cls},
        ),
    )


class TestKnee:
    def test_knee_is_last_tracking_point(self):
        points = [
            _point_report(10_000.0, 10_000.0),   # tracks
            _point_report(20_000.0, 19_000.0),   # tracks (95 %)
            _point_report(40_000.0, 21_000.0),   # collapsed
        ]
        assert knee_rps(points) == 20_000.0

    def test_knee_zero_when_nothing_tracks(self):
        assert knee_rps([_point_report(10_000.0, 100.0)]) == 0.0


class TestBuildBackend:
    def test_known_systems(self):
        for system in ("agile", "bam", "naive"):
            assert build_backend(system).system == system

    def test_unknown_system_raises(self):
        with pytest.raises(ValueError, match="unknown serve system"):
            build_backend("mystery")


class TestSweepPoints:
    def test_point_is_bit_deterministic(self):
        a = run_serve_point("agile", 20_000.0, SPEC)
        b = run_serve_point("agile", 20_000.0, SPEC)
        assert a == b

    def test_agile_goodput_at_least_bam(self):
        agile = run_serve_point("agile", 20_000.0, SPEC)
        bam = run_serve_point("bam", 20_000.0, SPEC)
        assert agile.report.goodput_rps >= bam.report.goodput_rps

    def test_identical_arrival_timelines_across_systems(self):
        """The seed contract: every system serves the *same* offered
        traffic, so curves are comparable point by point."""
        reports = {
            system: run_serve_point(system, 20_000.0, SPEC).report
            for system in ("agile", "bam")
        }
        offered = {s: r.offered for s, r in reports.items()}
        assert offered["agile"] == offered["bam"]

    def test_curves_as_dict_shape(self):
        point, knee = saturation_cells(SPEC, systems=("agile",))
        assert point["axes"] == {"system": "agile", "target_rps": 20_000.0}
        assert isinstance(point["axes"]["target_rps"], float)
        metrics = point["metrics"]
        assert {"goodput_rps", "p99_ns", "completed", "shed", "aborted",
                "classes"} <= set(metrics)
        assert set(metrics["classes"]) == {"point", "scan"}
        # The knee is a derived cell on the curve's own (fewer) axes.
        assert knee == {
            "axes": {"system": "agile"},
            "metrics": {"knee_rps": knee["metrics"]["knee_rps"]},
        }
