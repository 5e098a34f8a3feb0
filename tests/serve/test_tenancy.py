"""The tenancy scenario matrix: registry discipline, bit-determinism,
headline logic, the CLI's headline exit code, and store ingest."""

from __future__ import annotations

import json

import pytest

from repro.serve.registry import (
    CKPT,
    INFER,
    KNOWN_TENANTS,
    KV_APPEND,
    TRAIN,
    VSEARCH,
    tenant_class,
)
from repro.serve.scenario import run_scenario
from repro.serve.tenancy import (
    TENANCY,
    TenancySpec,
    _headline_ok,
    headline_failures,
    run_tenancy_cell,
    tenancy_shares,
)
from repro.store.ingest import ingest_document
from repro.store.meta import TENANCY_SCHEMA, stamp
from repro.workloads.checkpoint import CheckpointSpec
from repro.workloads.kvcache import KvCacheSpec
from repro.workloads.vsearch import VsearchSpec


def mini_spec(**overrides) -> TenancySpec:
    """A seconds-not-minutes matrix: tiny traces, short window."""
    defaults = dict(
        rate_rps=150_000.0,
        duration_ns=1_200_000.0,
        num_ssds=2,
        cache_lines=32,
        admission_capacity=64,
        kv=KvCacheSpec(num_slots=4, blocks_per_seq=8, events=64),
        ckpt=CheckpointSpec(table_pages=32, shard_pages=2),
        vsearch=VsearchSpec(num_nodes=64, num_queries=8),
        train_space=256,
        mixes=("inference_heavy",),
        storms=("storm",),
        placements=("striped",),
    )
    defaults.update(overrides)
    return TenancySpec(**defaults)


class TestRegistry:
    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            tenant_class("mystery_tenant")

    def test_name_override_rejected(self):
        with pytest.raises(ValueError):
            tenant_class(INFER, name="sneaky")

    def test_op_override_rejected(self):
        with pytest.raises(ValueError):
            tenant_class(TRAIN, op="write")

    def test_quantity_overrides_apply(self):
        cls = tenant_class(TRAIN, pages=16, lba_space=512)
        assert cls.name == TRAIN
        assert cls.pages == 16
        assert cls.lba_space == 512

    def test_shares_cover_the_tenancy_classes(self):
        names = {s.name for s in tenancy_shares().shares}
        assert names == {INFER, KV_APPEND, TRAIN, CKPT, VSEARCH}
        assert names <= set(KNOWN_TENANTS)


def by_arm(cells):
    return {
        c["axes"].get("arm", c["axes"].get("section")): c for c in cells
    }


class TestCellDeterminism:
    def test_same_spec_same_cell_bit_for_bit(self):
        spec = mini_spec()
        a = run_tenancy_cell(spec, "inference_heavy", "none", "striped")
        b = run_tenancy_cell(spec, "inference_heavy", "none", "striped")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_arms_actually_differ(self):
        # wfq and fifo are different schedulers on the same arrivals: the
        # cell must not accidentally run the same arm twice.
        spec = mini_spec(admission_capacity=8)
        cells = by_arm(
            run_tenancy_cell(spec, "inference_heavy", "none", "striped")
        )
        assert cells["wfq"]["metrics"] != cells["fifo"]["metrics"]
        assert cells["headline"]["axes"] == {
            "mix": "inference_heavy", "storm": "none",
            "placement": "striped", "section": "headline",
        }

    def test_every_tenant_is_offered_traffic(self):
        spec = mini_spec()
        wfq = by_arm(
            run_tenancy_cell(spec, "inference_heavy", "none", "striped")
        )["wfq"]["metrics"]
        for name in (INFER, KV_APPEND, TRAIN, CKPT, VSEARCH):
            assert wfq["classes"][name]["offered"] > 0


class TestMatrix:
    def test_matrix_document_shape_and_ingest(self):
        doc = run_scenario(TENANCY, mini_spec(storms=("none", "storm")))
        stamp(doc, TENANCY_SCHEMA)
        assert doc["schema"] == "agile-tenancy/2"
        assert doc["config_hash"]
        assert set(doc["shares"]) == {INFER, KV_APPEND, TRAIN, CKPT, VSEARCH}
        axes = [c["axes"] for c in doc["cells"]]
        assert {
            "mix": "inference_heavy", "storm": "none",
            "placement": "striped", "arm": "wfq",
        } in axes
        (summary,) = [
            c for c in doc["cells"] if c["axes"] == {"section": "summary"}
        ]
        assert "headline_ok" in summary["metrics"]
        record, points = ingest_document(doc, source="test")
        assert record.schema == "agile-tenancy/2"
        axes_seen = {p.axes.get("storm") for p in points}
        assert {"none", "storm"} <= axes_seen
        assert any(p.axes.get("section") == "summary" for p in points)

    def test_matrix_without_a_storm_cell_is_rejected(self, capsys):
        from repro.serve.__main__ import main

        with pytest.raises(ValueError, match="at least one storm cell"):
            mini_spec(storms=("none",))
        assert main(["run", "tenancy", "--set", "storms=none"]) == 2
        assert "at least one storm cell" in capsys.readouterr().err

    def test_config_hash_tracks_the_spec(self):
        a = mini_spec(storms=("storm",), duration_ns=800_000.0)
        b = mini_spec(
            storms=("storm",), duration_ns=800_000.0, rate_rps=140_000.0
        )
        assert TENANCY.config_hash(a) != TENANCY.config_hash(b)


class TestHeadline:
    BASE = {
        "infer_slo_budget_ns": 3e6,
        "wfq_infer_p99_ns": 1e6,
        "fifo_infer_p99_ns": 9e6,
        "wfq_infer_shed_frac": 0.0,
        "wfq_train_shed_frac": 0.4,
        "starved_classes": [],
    }

    def test_good_cell_passes(self):
        assert _headline_ok(dict(self.BASE))

    def test_wfq_over_budget_fails(self):
        assert not _headline_ok({**self.BASE, "wfq_infer_p99_ns": 4e6})

    def test_fifo_inside_budget_fails(self):
        assert not _headline_ok({**self.BASE, "fifo_infer_p99_ns": 2e6})

    def test_starvation_fails(self):
        assert not _headline_ok({**self.BASE, "starved_classes": ["train"]})

    def test_sheds_landing_on_inference_fail(self):
        assert not _headline_ok(
            {**self.BASE, "wfq_infer_shed_frac": 0.5}
        )


class TestHeadlineCheck:
    """``run tenancy`` exits 1 when any cell fails its headline."""

    def headline_cell(self, **overrides):
        return {
            "axes": {
                "mix": "inference_heavy", "storm": "storm",
                "placement": "striped", "section": "headline",
            },
            "metrics": {**TestHeadline.BASE, **overrides},
        }

    def test_failing_cell_is_named(self):
        cells = [self.headline_cell(), self.headline_cell(
            wfq_infer_p99_ns=4e6
        )]
        (msg,) = headline_failures(cells)
        assert "mix=inference_heavy,storm=storm,placement=striped" in msg

    def test_wfq_over_budget_exits_1(self, monkeypatch, capsys):
        from dataclasses import replace

        from repro.serve.__main__ import main

        over = replace(
            TENANCY,
            cells=lambda spec: [self.headline_cell(wfq_infer_p99_ns=4e6)],
        )
        monkeypatch.setattr(
            "repro.serve.__main__.SCENARIOS", {"tenancy": over}
        )
        assert main(["run", "tenancy", "--quick"]) == 1
        assert "lost the interference headline" in capsys.readouterr().err
