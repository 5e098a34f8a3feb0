"""Diff and gate: the regression semantics the CI job relies on."""

import copy
import json

import pytest

from repro.store import (
    ResultStore,
    best_baseline,
    diff_runs,
    ingest_document,
    metric_direction,
    run_score,
)
from repro.store.__main__ import main

from tests.store.helpers import (
    bench_trend_doc,
    scale_metric,
    serve_sweep_doc,
    write_path_doc,
)


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def store_path(tmp_path):
    return tmp_path / "store.db"


class TestDirections:
    def test_conventions(self):
        assert metric_direction("goodput_rps") == +1
        assert metric_direction("classes.point.goodput_rps") == +1
        assert metric_direction("bandwidth_gbps") == +1
        assert metric_direction("knee_rps") == +1
        assert metric_direction("p99_ns") == -1
        assert metric_direction("classes.scan.mean_latency_ns") == -1
        assert metric_direction("placement.skew_ratio") == -1
        assert metric_direction("shed") == -1
        assert metric_direction("device_errors") == -1
        # Write-path health: amplification, stalls, and losses are all
        # lower-is-better; ack counts are volume, not quality.
        assert metric_direction("mean_waf") == -1
        assert metric_direction("write_path.mean_waf") == -1
        assert metric_direction("gc_stall_ns") == -1
        assert metric_direction("read_p99_inflation") == -1
        assert metric_direction("writebacks_lost") == -1
        assert metric_direction("writebacks_acked") == 0
        # Wall-clock and volume metrics never gate.
        assert metric_direction("events_per_sec") == 0
        assert metric_direction("wall_s") == 0
        assert metric_direction("sim_events") == 0
        assert metric_direction("offered") == 0


class TestDiff:
    def test_ten_percent_goodput_regression_exits_nonzero(
        self, store_path, tmp_path, capsys
    ):
        good = serve_sweep_doc()
        bad = scale_metric(good, "goodput_rps", 0.9)
        assert main([
            "--db", str(store_path), "ingest",
            _write(tmp_path / "a.json", good),
            _write(tmp_path / "b.json", bad),
        ]) == 0
        with ResultStore(store_path) as store:
            id_a, id_b = [r.run_id for r in store.runs()]
        capsys.readouterr()
        rc = main([
            "--db", str(store_path), "diff", id_a, id_b,
            "--tolerance", "0.05",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "goodput_rps" in captured.out  # names the offending metric
        assert "REGRESSED" in captured.out
        assert "FAIL" in captured.err

    def test_regression_within_tolerance_passes(self, store_path, tmp_path):
        good = serve_sweep_doc()
        bad = scale_metric(good, "goodput_rps", 0.97)
        main([
            "--db", str(store_path), "ingest",
            _write(tmp_path / "a.json", good),
            _write(tmp_path / "b.json", bad),
        ])
        with ResultStore(store_path) as store:
            id_a, id_b = [r.run_id for r in store.runs()]
            rc = main([
                "--db", str(store_path), "diff", id_a, id_b,
                "--tolerance", "0.05",
            ])
        assert rc == 0

    def test_p99_increase_is_a_regression(self, store_path):
        good = serve_sweep_doc()
        bad = scale_metric(good, "p99_ns", 1.5)
        with ResultStore(store_path) as store:
            rec_a, pts_a = ingest_document(good)
            store.put_run(rec_a, pts_a)
            rec_b, pts_b = ingest_document(bad)
            store.put_run(rec_b, pts_b)
            result = diff_runs(
                store, rec_a.run_id, rec_b.run_id, tolerance=0.05
            )
        assert not result.ok
        assert all("p99_ns" in d.metric for d in result.regressions)

    def test_improvement_is_not_a_regression(self, store_path):
        good = serve_sweep_doc()
        better = scale_metric(good, "goodput_rps", 1.2)
        with ResultStore(store_path) as store:
            rec_a, pts_a = ingest_document(good)
            rec_b, pts_b = ingest_document(better)
            store.put_run(rec_a, pts_a)
            store.put_run(rec_b, pts_b)
            result = diff_runs(
                store, rec_a.run_id, rec_b.run_id, tolerance=0.05
            )
        assert result.ok
        assert result.improvements

    def test_wall_clock_noise_never_gates(self, store_path):
        # events_per_sec halving is runner noise, not a regression.
        doc = bench_trend_doc()
        slow = scale_metric(doc, "events_per_sec", 0.5)
        with ResultStore(store_path) as store:
            rec_a, pts_a = ingest_document(doc)
            rec_b, pts_b = ingest_document(slow)
            store.put_run(rec_a, pts_a)
            store.put_run(rec_b, pts_b)
            result = diff_runs(
                store, rec_a.run_id, rec_b.run_id, tolerance=0.05
            )
        assert result.ok

    def test_waf_increase_is_a_regression(self, store_path):
        good = write_path_doc()
        bad = scale_metric(good, "mean_waf", 1.25)
        with ResultStore(store_path) as store:
            rec_a, pts_a = ingest_document(good)
            store.put_run(rec_a, pts_a)
            rec_b, pts_b = ingest_document(bad)
            store.put_run(rec_b, pts_b)
            result = diff_runs(
                store, rec_a.run_id, rec_b.run_id, tolerance=0.05
            )
        assert not result.ok
        assert any("mean_waf" in d.metric for d in result.regressions)

    def test_prefix_resolution(self, store_path):
        with ResultStore(store_path) as store:
            rec, pts = ingest_document(serve_sweep_doc())
            store.put_run(rec, pts)
            assert store.resolve(rec.run_id[:8]) == rec.run_id
            with pytest.raises(KeyError):
                store.resolve("zzzz")


class TestGate:
    def test_seed_then_pass_then_fail(self, tmp_path, capsys):
        baseline = tmp_path / "base.db"
        good = _write(tmp_path / "good.json", serve_sweep_doc())
        bad = _write(
            tmp_path / "bad.json",
            scale_metric(serve_sweep_doc(), "goodput_rps", 0.9),
        )
        # First run seeds the baseline and passes.
        assert main(["gate", good, "--baseline", str(baseline)]) == 0
        assert "seeded" in capsys.readouterr().out
        # Re-gating the identical artifact passes trivially.
        assert main(["gate", good, "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        # A 10% goodput drop against the stored baseline fails the gate.
        rc = main([
            "gate", bad, "--baseline", str(baseline), "--tolerance", "0.05",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "goodput_rps" in captured.out

    def test_vanished_metric_fails_the_gate(self, tmp_path, capsys):
        baseline = tmp_path / "base.db"
        good = serve_sweep_doc()
        assert main([
            "gate", _write(tmp_path / "good.json", good),
            "--baseline", str(baseline),
        ]) == 0
        capsys.readouterr()
        # The candidate stops reporting one baseline metric: a fail that
        # names the missing (axes, metric) pair.
        thin = copy.deepcopy(good)
        del thin["cells"][0]["metrics"]["classes"]["point"]["p99_ns"]
        rc = main([
            "gate", _write(tmp_path / "thin.json", thin),
            "--baseline", str(baseline),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "MISSING    classes.point.p99_ns @ " in captured.out
        assert '"target_rps":20000.0' in captured.out
        assert "1 missing" in captured.err

    def test_extra_metric_is_informational(self, tmp_path, capsys):
        baseline = tmp_path / "base.db"
        good = serve_sweep_doc()
        main([
            "gate", _write(tmp_path / "good.json", good),
            "--baseline", str(baseline),
        ])
        wider = copy.deepcopy(good)
        wider["cells"][1]["metrics"]["extra_rps"] = 1.0
        rc = main([
            "gate", _write(tmp_path / "wide.json", wider),
            "--baseline", str(baseline),
        ])
        assert rc == 0
        assert "only in B: 1 metrics" in capsys.readouterr().out

    def test_gate_compares_against_best_stored_run(self, tmp_path):
        baseline = tmp_path / "base.db"
        ok = serve_sweep_doc()
        better = scale_metric(ok, "goodput_rps", 1.2)
        main([
            "gate",
            _write(tmp_path / "ok.json", ok),
            _write(tmp_path / "better.json", better),
            "--baseline", str(baseline),
        ])
        with ResultStore(baseline) as store:
            rec_better, _ = ingest_document(better)
            best = best_baseline(
                store, rec_better.schema, rec_better.config_hash
            )
            assert best is not None
            assert best.run_id == rec_better.run_id
            # And re-presenting the merely-ok run now fails the gate.
        rc = main([
            "gate", _write(tmp_path / "ok2.json", ok),
            "--baseline", str(baseline), "--tolerance", "0.05",
        ])
        assert rc == 1

    def test_run_score_prefers_goodput_then_bandwidth(self):
        _, serve_pts = ingest_document(serve_sweep_doc())
        serve_metrics = {p.key: p.value for p in serve_pts}
        assert run_score(serve_metrics) > 0
        bench = bench_trend_doc()
        bench["cells"] = [
            c for c in bench["cells"]
            if c["axes"]["section"] in ("fig5", "perf")
        ]
        _, bench_pts = ingest_document(bench)
        bench_metrics = {p.key: p.value for p in bench_pts}
        assert run_score(bench_metrics) == pytest.approx(3.64 + 6.9 + 2.39)


class TestCliSmoke:
    def test_ls_and_show(self, store_path, tmp_path, capsys):
        main([
            "--db", str(store_path), "ingest",
            _write(tmp_path / "a.json", serve_sweep_doc()),
        ])
        assert main(["--db", str(store_path), "ls"]) == 0
        out = capsys.readouterr().out
        assert "agile-serve-sweep/4" in out
        with ResultStore(store_path) as store:
            run_id = store.runs()[0].run_id
        assert main(["--db", str(store_path), "show", run_id[:10]]) == 0
        out = capsys.readouterr().out
        assert "goodput_rps" in out
        # --raw prints the stored artifact itself, byte-losslessly.
        assert main([
            "--db", str(store_path), "show", run_id[:10], "--raw",
        ]) == 0
        assert json.loads(capsys.readouterr().out) == serve_sweep_doc()

    def test_ingest_rejects_unknown_schema(self, store_path, tmp_path, capsys):
        bogus = _write(tmp_path / "x.json", {"mystery": 1})
        assert main(["--db", str(store_path), "ingest", bogus]) == 2
        assert "x.json" in capsys.readouterr().err
