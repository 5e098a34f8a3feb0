"""Explore: grid determinism and store population."""

import pytest

from repro.serve.__main__ import main
from repro.serve.explore import EXPLORE, ExploreSpec
from repro.serve.scenario import run_scenario
from repro.store import ResultStore, ingest_document
from repro.store.__main__ import main as store_main
from repro.store.meta import EXPLORE_SCHEMA, stamp

#: One tiny grid: 2 cells, sub-second total, still crossing two axes.
TINY = ExploreSpec(
    cache_lines=(256,),
    queue_depths=(32,),
    ssd_counts=(1, 2),
    arrivals=("poisson",),
    rate_rps=20_000.0,
    duration_ns=300_000.0,
    seed=11,
)


class TestSpec:
    def test_cells_cross_every_axis_in_order(self):
        spec = ExploreSpec(
            cache_lines=(128, 256),
            queue_depths=(32,),
            ssd_counts=(1, 2),
            arrivals=("poisson", "mmpp"),
        )
        grid = spec.grid
        assert len(grid) == 8
        assert grid[0] == {
            "cache_lines": 128, "queue_depth": 32,
            "ssds": 1, "arrival": "poisson",
        }

    def test_unknown_arrival_rejected(self):
        with pytest.raises(ValueError):
            ExploreSpec(arrivals=("pareto",))

    def test_spec_hash_tracks_axes(self):
        assert TINY.config_hash() != ExploreSpec(
            cache_lines=(256,),
            queue_depths=(32,),
            ssd_counts=(1, 2),
            arrivals=("poisson",),
            rate_rps=20_000.0,
            duration_ns=300_000.0,
            seed=12,  # only the seed differs
        ).config_hash()


class TestDeterminism:
    def test_same_spec_same_document_bit_for_bit(self):
        # The property the store's trend analysis rests on: explore output
        # has no wall-clock or ordering noise, so two runs of the same
        # grid are byte-identical (provenance is stamped by the CLI, not
        # here).
        assert run_scenario(EXPLORE, TINY) == run_scenario(EXPLORE, TINY)

    def test_mmpp_cells_differ_from_poisson_cells(self):
        doc = run_scenario(
            EXPLORE,
            ExploreSpec(
                cache_lines=(256,),
                queue_depths=(32,),
                ssd_counts=(1,),
                arrivals=("poisson", "mmpp"),
                rate_rps=20_000.0,
                duration_ns=300_000.0,
                seed=11,
            ),
        )
        by_arrival = {
            c["axes"]["arrival"]: c["metrics"] for c in doc["cells"]
        }
        assert by_arrival["poisson"] != by_arrival["mmpp"]


class TestStorePopulation:
    def test_explore_document_ingests(self, tmp_path):
        doc = stamp(run_scenario(EXPLORE, TINY), EXPLORE_SCHEMA)
        record, points = ingest_document(doc)
        assert record.schema == "agile-explore/2"
        assert record.config_hash == TINY.config_hash()
        # Every cell contributes its metric set, keyed by grid axes.
        goodput = [p for p in points if p.metric == "goodput_rps"]
        assert len(goodput) == len(doc["cells"])
        assert {p.axes["ssds"] for p in goodput} == {1, 2}
        with ResultStore(tmp_path / "s.db") as store:
            store.put_run(record, points)
            assert store.raw(record.run_id) == doc

    def test_cli_explore_populates_the_store(self, tmp_path, capsys):
        db = tmp_path / "explore.db"
        out = tmp_path / "grid.json"
        rc = main([
            "run", "explore", "--seed", "11",
            "--set", "cache_lines=256", "--set", "queue_depths=32",
            "--set", "ssd_counts=1", "--set", "arrivals=poisson",
            "--set", "rate_rps=20000", "--set", "duration_ns=300000",
            "--out", str(out),
        ])
        assert rc == 0
        assert store_main(["--db", str(db), "ingest", str(out)]) == 0
        assert "ingested grid.json" in capsys.readouterr().out
        with ResultStore(db) as store:
            runs = store.runs(schema="agile-explore/2")
            assert len(runs) == 1
            assert store.points(runs[0].run_id)

    def test_cli_rejects_bad_arrival(self, capsys):
        rc = main(["run", "explore", "--set", "arrivals=pareto"])
        assert rc == 2
        assert "pareto" in capsys.readouterr().err
