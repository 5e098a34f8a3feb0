"""The write-path experiment: tenant mix, backend guard, GC on/off runs."""

from __future__ import annotations

import pytest

from repro.serve.arrival import Poisson
from repro.serve.backends import BamServeBackend
from repro.serve.engine import ServeEngine
from repro.serve.request import RequestClass
from repro.serve.scenario import run_scenario
from repro.serve.writepath import (
    WRITE_PATH,
    WritePathSpec,
    no_lost_writebacks,
    quick_spec,
    run_write_path_point,
    write_path_classes,
)

from tests.helpers import small_config

#: A sub-second experiment: small array, short window, one offered load.
TINY = WritePathSpec(
    loads_rps=(20_000.0,),
    duration_ns=4_000_000.0,
    num_ssds=2,
    device_pages=128,
    table_pages=64,
    modify_space=48,
    read_space=64,
    cache_lines=8,
)


class TestRequestClassOps:
    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError, match="op must be"):
            RequestClass(name="bad", op="erase", pages=1, slo_ns=1e6)

    @pytest.mark.parametrize("op", ["read", "write", "modify"])
    def test_valid_ops_accepted(self, op):
        assert RequestClass(name="t", op=op, pages=1, slo_ns=1e6).op == op


class TestSpecAndClasses:
    def test_regions_must_fit_the_array(self):
        with pytest.raises(ValueError, match="exceed the array"):
            WritePathSpec(
                loads_rps=(1000.0,), num_ssds=2, device_pages=128,
                table_pages=200, modify_space=96, read_space=128,
            )

    def test_three_tenants_on_disjoint_regions(self):
        classes = write_path_classes(TINY)
        assert [c.op for c in classes] == ["write", "modify", "read"]
        assert sum(c.weight for c in classes) == pytest.approx(1.0)
        spans = sorted(
            (c.lba_base, c.lba_base + c.lba_space) for c in classes
        )
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi <= lo  # no tenant writes into another's region
        assert spans[-1][1] <= TINY.num_ssds * TINY.device_pages

    def test_quick_spec_straddles_the_knee(self):
        spec = quick_spec()
        assert len(spec.loads_rps) == 3
        assert list(spec.loads_rps) == sorted(spec.loads_rps)


class TestReadOnlyBackendGuard:
    def test_write_classes_rejected_on_bam(self):
        backend = BamServeBackend(small_config())
        classes = write_path_classes(TINY)
        backend.load_pattern(classes)
        arrivals = {c.name: Poisson(1000.0) for c in classes}
        with pytest.raises(ValueError, match="read-only"):
            ServeEngine(backend, classes, arrivals, seed=7)


class TestWritePathPoint:
    def test_gc_on_point_serves_and_loses_nothing(self):
        pt = run_write_path_point(TINY.loads_rps[0], TINY, gc_enabled=True)
        rep = pt.report
        assert pt.system == "agile"
        assert sum(rep.device_writes) > 0  # the write path actually ran
        assert rep.mean_waf >= 1.0
        assert rep.writebacks == rep.writebacks_acked
        assert rep.writebacks_lost == 0
        # All three tenants completed work within the window.
        for name in ("ckpt", "hot", "point"):
            assert rep.classes[name].completed > 0

    def test_gc_off_runs_the_same_timeline_in_place(self):
        pt = run_write_path_point(TINY.loads_rps[0], TINY, gc_enabled=False)
        rep = pt.report
        assert pt.system == "agile-gc-off"
        assert sum(rep.device_gc_busy_ns) == 0.0
        assert rep.mean_waf == 1.0  # in-place updates never relocate
        assert rep.writebacks_lost == 0

    def test_point_is_deterministic(self):
        a = run_write_path_point(TINY.loads_rps[0], TINY)
        b = run_write_path_point(TINY.loads_rps[0], TINY)
        assert a == b


class TestComparison:
    def test_comparison_document_shape(self):
        doc = run_scenario(WRITE_PATH, TINY)
        assert isinstance(doc["config_hash"], str) and doc["config_hash"]
        cells = doc["cells"]
        for curve in ("gc_on", "gc_off"):
            points = [
                c for c in cells
                if c["axes"].get("system") == curve
                and "target_rps" in c["axes"]
            ]
            assert len(points) == len(TINY.loads_rps)
            knees = [
                c for c in cells if c["axes"] == {"system": curve}
            ]
            assert "knee_rps" in knees[0]["metrics"]
        (summary,) = [
            c["metrics"] for c in cells if c["axes"] == {"section": "summary"}
        ]
        assert summary["writebacks_lost"] == 0
        assert summary["mean_waf"] >= 1.0
        assert summary["read_p99_inflation"] > 0.0
        assert WRITE_PATH.failures(doc) == []


class TestLostWritebackCheck:
    def lossy(self, lost):
        return {
            "axes": {"system": "gc_on", "target_rps": 30_000.0},
            "metrics": {"write_path": {"writebacks_lost": lost}},
        }

    def test_a_lost_writeback_fails(self):
        (msg,) = no_lost_writebacks([self.lossy(0), self.lossy(2)])
        assert "gc_on at 30000 rps: 2 eviction write-back(s) lost" in msg

    def test_lost_writeback_exits_1(self, monkeypatch, capsys):
        from dataclasses import replace

        from repro.serve.__main__ import main

        lossy = replace(WRITE_PATH, cells=lambda spec: [self.lossy(1)])
        monkeypatch.setattr(
            "repro.serve.__main__.SCENARIOS", {"write-path": lossy}
        )
        assert main(["run", "write-path"]) == 1
        assert "lost without a fault plan" in capsys.readouterr().err
