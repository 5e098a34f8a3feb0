"""Ingest: every artifact family flattens through the one cell reader and
round-trips losslessly into the store."""

import pytest

from repro.store import (
    ResultStore,
    RunRecord,
    UnknownSchemaError,
    best_baseline,
    detect_schema,
    ingest_document,
)

from tests.store.helpers import (
    bench_trend_doc,
    placement_smoke_doc,
    serve_sweep_doc,
    tenancy_doc,
    write_path_doc,
)

ALL_DOCS = {
    "serve-sweep": serve_sweep_doc(),
    "placement-smoke": placement_smoke_doc(),
    "write-path": write_path_doc(),
    "tenancy": tenancy_doc(),
    "bench-trend": bench_trend_doc(),
}


@pytest.fixture()
def store(tmp_path):
    with ResultStore(tmp_path / "store.db") as s:
        yield s


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(ALL_DOCS))
    def test_raw_document_survives_byte_for_byte(self, store, name):
        doc = ALL_DOCS[name]
        record, points = ingest_document(doc, source=f"{name}.json")
        store.put_run(record, points)
        assert store.raw(record.run_id) == doc  # lossless: nothing dropped
        assert points, "every schema must project at least one point"

    @pytest.mark.parametrize("name", sorted(ALL_DOCS))
    def test_reingest_is_idempotent(self, store, name):
        doc = ALL_DOCS[name]
        record, points = ingest_document(doc)
        store.put_run(record, points)
        store.put_run(*ingest_document(doc))
        assert len(store.runs()) == 1
        assert len(store.points(record.run_id)) == len(points)


class TestSchemaDetection:
    def test_explicit_tags_win(self):
        assert detect_schema(serve_sweep_doc()) == "agile-serve-sweep/4"
        assert detect_schema(placement_smoke_doc()) == "agile-placement-smoke/2"
        assert detect_schema(write_path_doc()) == "agile-write-path/2"
        assert detect_schema(tenancy_doc()) == "agile-tenancy/2"
        assert detect_schema(bench_trend_doc()) == "agile-bench-trend/3"

    def test_unknown_shape_raises(self):
        with pytest.raises(UnknownSchemaError):
            detect_schema({"mystery": 1})

    def test_superseded_versions_are_not_read(self):
        doc = dict(serve_sweep_doc(), schema="agile-serve-sweep/3")
        with pytest.raises(UnknownSchemaError):
            ingest_document(doc)

    def test_document_without_config_hash_is_rejected(self):
        doc = serve_sweep_doc()
        del doc["config_hash"]
        with pytest.raises(UnknownSchemaError, match="config_hash"):
            ingest_document(doc)


class TestConfigFingerprint:
    def test_producer_stamp_is_authoritative(self):
        record, _ = ingest_document(serve_sweep_doc())
        assert record.config_hash == "feedbeeffeedbeef"

    def test_v1_and_v2_of_same_config_share_a_baseline_key(self, store):
        # Baselines match on the version-less family: a run stored under
        # agile-tenancy/1 still gates an agile-tenancy/2 candidate with the
        # same config hash.
        doc = tenancy_doc()
        record, points = ingest_document(doc)
        old = RunRecord(
            run_id="0" * 16,
            schema="agile-tenancy/1",
            config_hash=record.config_hash,
            created_at=1.0,
            raw={"schema": "agile-tenancy/1"},
        )
        store.put_run(old, points)
        best = best_baseline(store, record.schema, record.config_hash)
        assert best is not None and best.schema == "agile-tenancy/1"


class TestProjection:
    def test_serve_points_carry_grid_axes(self, store):
        record, points = ingest_document(serve_sweep_doc())
        goodput = [
            p for p in points
            if p.metric == "goodput_rps" and "target_rps" in p.axes
        ]
        assert len(goodput) == 1
        assert goodput[0].axes == {
            "ssds": 2,
            "placement": "striped",
            "system": "agile",
            "target_rps": 20_000.0,
        }
        knees = [p for p in points if p.metric == "knee_rps"]
        assert len(knees) == 1
        assert knees[0].axes == {
            "ssds": 2, "placement": "striped", "system": "agile"
        }
        # Nested class reports flatten with dotted names.
        assert any(p.metric == "classes.point.p99_ns" for p in points)
        # Device lists index element-wise.
        assert any(
            p.metric == "placement.device_reads.1" for p in points
        )
        # String labels are never metrics.
        assert not any(p.metric.endswith(("name", "policy")) for p in points)

    def test_bench_points_cover_every_section(self):
        _, points = ingest_document(bench_trend_doc())
        sections = {p.axes.get("section") for p in points}
        assert sections == {"fig5", "perf", "serve", "placement"}
        fig5 = [
            p for p in points
            if p.axes.get("section") == "fig5"
            and p.metric == "bandwidth_gbps"
        ]
        assert {p.axes["num_ssds"] for p in fig5} == {1, 2}

    def test_telemetry_blobs_stay_in_raw_not_points(self):
        _, points = ingest_document(bench_trend_doc())
        assert not any("telemetry" in p.metric for p in points)
        assert not any("stall" in p.metric for p in points
                       if p.axes.get("section") == "fig5")

    def test_placement_points_keyed_by_policy(self):
        _, points = ingest_document(placement_smoke_doc())
        skews = {
            p.axes["policy"]: p.value
            for p in points
            if p.metric == "skew_ratio"
        }
        assert skews == {"shard": 1.9, "striped": 1.1}

    def test_sweep3_points_flatten_the_write_path_section(self):
        _, points = ingest_document(serve_sweep_doc())
        waf = [p for p in points if p.metric == "write_path.mean_waf"]
        assert len(waf) == 1
        assert waf[0].value == 1.2
        assert waf[0].axes["system"] == "agile"
        assert any(
            p.metric == "write_path.device_waf.1" for p in points
        )

    def test_write_path_curves_and_summary_project(self):
        _, points = ingest_document(write_path_doc())
        # The GC toggle plays the system-axis role for the two curves.
        knees = {
            p.axes["system"]: p.value for p in points if p.metric == "knee_rps"
        }
        assert knees == {"gc_on": 10_000.0, "gc_off": 30_000.0}
        summary = {
            p.metric: p.value
            for p in points
            if p.axes.get("section") == "summary"
        }
        assert summary["mean_waf"] == 1.3
        assert summary["read_p99_inflation"] == 4.0
        assert summary["writebacks_lost"] == 0

    def test_tenancy_points_carry_arm_and_section(self):
        _, points = ingest_document(tenancy_doc())
        arms = {p.axes.get("arm") for p in points} - {None}
        assert arms == {"wfq", "fifo"}
        headline = [p for p in points if p.axes.get("section") == "headline"]
        assert {p.axes["storm"] for p in headline} == {"storm"}
        # The starved-class list holds labels, not numbers.
        assert not any("starved" in p.metric for p in points)

    def test_metadata_lands_on_the_run_row(self):
        record, _ = ingest_document(
            serve_sweep_doc(), source="serve_smoke.json", created_at=123.0
        )
        assert record.git_sha.startswith("c0ffee")
        assert record.source == "serve_smoke.json"
        assert record.created_at == 123.0
        assert record.schema == "agile-serve-sweep/4"
