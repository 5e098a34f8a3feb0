"""Placement-aware serve sweep: determinism, the report's placement
section, the striped-vs-shard hotspot separation, grid plumbing, and the
CLI surfaces (``run sweep --set ssds=/placements=`` and ``run
placement``)."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.serve.__main__ import main
from repro.serve.scenario import run_scenario
from repro.serve.sweep import (
    PLACEMENT,
    PLACEMENTS,
    SWEEP,
    PlacementSpec,
    SweepGrid,
    SweepSpec,
    run_serve_point,
    striping_beats_sharding,
)

#: Small enough to keep every test under a few seconds, hot enough that
#: the shard-vs-stripe separation is unambiguous.
SKEWED = SweepSpec(
    loads_rps=(400_000.0,),
    duration_ns=2_000_000.0,
    num_ssds=4,
    lba_space=256,
    skew=0.8,
)
QUIET = SweepSpec(
    loads_rps=(100_000.0,),
    duration_ns=1_000_000.0,
    num_ssds=2,
    lba_space=256,
)


class TestDeterminism:
    def test_same_spec_same_point_bit_for_bit(self):
        a = run_serve_point("agile", 100_000.0, QUIET)
        b = run_serve_point("agile", 100_000.0, QUIET)
        assert a == b

    def test_skew_zero_leaves_placement_out_of_the_rng(self):
        """With skew=0 the hotspot draw never happens, so two policies see
        the identical logical arrival timeline — only the physical spread
        differs."""
        striped = run_serve_point("agile", 100_000.0, QUIET)
        shard = run_serve_point(
            "agile", 100_000.0, replace(QUIET, placement="shard")
        )
        assert striped.report.completed == shard.report.completed
        assert sum(striped.report.device_pages) == sum(
            shard.report.device_pages
        )


class TestPlacementSection:
    def test_report_carries_placement_block(self):
        pt = run_serve_point("agile", 100_000.0, QUIET)
        block = pt.report.as_dict()["placement"]
        assert block["policy"] == "striped"
        assert block["num_ssds"] == 2
        assert len(block["device_pages"]) == 2
        assert len(block["device_reads"]) == 2
        assert block["skew_ratio"] >= 1.0

    def test_single_ssd_runs_identity(self):
        spec = SweepSpec(
            loads_rps=(100_000.0,),
            duration_ns=1_000_000.0,
            num_ssds=1,
            lba_space=256,
        )
        pt = run_serve_point("agile", 100_000.0, spec)
        block = pt.report.as_dict()["placement"]
        assert block["policy"] == "identity"
        assert block["skew_ratio"] == 1.0


class TestHotspotSeparation:
    def test_striping_spreads_the_hotspot_sharding_funnels_it(self):
        doc = run_scenario(
            PLACEMENT,
            PlacementSpec(rate_rps=400_000.0, duration_ns=2_000_000.0),
        )
        by_policy = {c["axes"]["policy"]: c["metrics"] for c in doc["cells"]}
        shard, striped = by_policy["shard"], by_policy["striped"]
        assert striped["skew_ratio"] < shard["skew_ratio"]
        # The shard layout leaves whole devices nearly idle under the
        # hotspot; striping keeps every lane busy.
        assert min(striped["device_reads"]) > min(shard["device_reads"])
        assert doc["spec"]["skew"] == 0.8 and doc["spec"]["num_ssds"] == 4
        assert PLACEMENT.failures(doc) == []

    def test_check_fails_when_striping_does_not_win(self):
        cells = [
            {"axes": {"policy": "shard"}, "metrics": {"skew_ratio": 1.2}},
            {"axes": {"policy": "striped"}, "metrics": {"skew_ratio": 1.2}},
        ]
        (msg,) = striping_beats_sharding(cells)
        assert "did not reduce per-device skew" in msg


class TestGrid:
    def test_grid_labels_and_shape(self):
        grid = SweepGrid(
            loads_rps=(100_000.0,), systems=("agile",), ssds=(1, 2),
            duration_ns=1_000_000.0,
        )
        cells = SWEEP.cells(grid)
        points = [c for c in cells if "target_rps" in c["axes"]]
        assert [c["axes"] for c in points] == [
            {"ssds": n, "placement": "striped", "system": "agile",
             "target_rps": 100_000.0}
            for n in (1, 2)
        ]
        for c in points:
            assert c["metrics"]["placement"]["num_ssds"] == c["axes"]["ssds"]
        knees = [c for c in cells if "knee_rps" in c["metrics"]]
        assert len(knees) == 2


class TestCli:
    def test_sweep_writes_cells_json(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc = main([
            "run", "sweep", "--set", "loads_rps=50000",
            "--set", "duration_ns=1e6", "--set", "ssds=1,2",
            "--set", "placements=striped", "--set", "systems=agile",
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "agile-serve-sweep/4"
        assert doc["spec"]["ssds"] == [1, 2]
        assert doc["spec"]["placements"] == ["striped"]
        assert {
            (c["axes"]["ssds"], c["axes"]["placement"]) for c in doc["cells"]
        } == {(1, "striped"), (2, "striped")}
        assert "knee_rps=" in capsys.readouterr().out

    def test_sweep_rejects_unknown_placement(self, capsys):
        assert main(["run", "sweep", "--set", "placements=raid6"]) == 2
        assert "unknown placement" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "assignment, message",
        [
            ("mystery=1", "unknown field 'mystery'"),
            ("ssds=two", "ssds: bad value 'two'"),
            ("seed=", "seed: bad value ''"),
            ("loads_rps=", "loads_rps: needs at least one value"),
            ("systems=agile,quantum", "unknown system 'quantum'"),
        ],
    )
    def test_bad_overrides_exit_2(self, capsys, assignment, message):
        assert main(["run", "sweep", "--set", assignment]) == 2
        assert message in capsys.readouterr().err

    def test_placement_smoke_passes_and_writes_doc(self, tmp_path, capsys):
        out = tmp_path / "smoke.json"
        rc = main([
            "run", "placement", "--set", "duration_ns=2000000",
            "--set", "rate_rps=400000", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "OK: placement" in captured.out
        doc = json.loads(out.read_text())
        assert doc["schema"] == "agile-placement-smoke/2"
        assert [c["axes"]["policy"] for c in doc["cells"]] == [
            "shard", "striped"
        ]

    def test_placement_check_failure_exits_1(self, monkeypatch, capsys):
        # A machine on which striping loses: the headline check bites.
        from repro.serve import sweep

        def losing(spec):
            return [
                {"axes": {"policy": p}, "metrics": {"skew_ratio": 1.5}}
                for p in spec.placements
            ]

        monkeypatch.setattr(
            "repro.serve.__main__.SCENARIOS",
            {"placement": replace(sweep.PLACEMENT, cells=losing)},
        )
        assert main(["run", "placement"]) == 1
        assert "FAIL: striped placement" in capsys.readouterr().err

    def test_placements_constant_covers_all_policies(self):
        assert set(PLACEMENTS) == {
            "shard", "striped", "load_aware", "tenant_affine"
        }
