"""Self-tests of the benchmark (tiny sizes; run with ``pytest perfbench``)."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, env=None, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
        env={**os.environ, **(env or {})},
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def timed(spec):
    return bench("--workload", "all", "--tiny", "--seed", "7")


@pytest.fixture(scope="module")
def traced(spec):
    return bench("--workload", "all", "--tiny", "--seed", "7", "--trace", "1")


@pytest.mark.parametrize("mode", ["timed", "traced"])
def test_every_declared_metric_is_printed_with_its_unit(
    spec, timed, traced, mode
):
    proc = timed if mode == "timed" else traced
    declared = spec["end_to_end"] if mode == "timed" else spec["per_layer"]
    result = last_json(proc)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for wl in run.WORKLOADS:
        for m in declared:
            got = result["metrics"][f"{wl}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
            assert re.search(
                rf"^  {re.escape(m['name'])} +\S+ {re.escape(m['unit'])}$",
                proc.stdout, re.M,
            ), m["name"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_names_and_units_are_well_formed(spec, timed, traced):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
    for proc in (timed, traced):
        for key in last_json(proc)["metrics"]:
            assert NAME.match(key), key
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    metric = {m["name"]: m for m in spec["end_to_end"]}
    assert metric["setup_s"]["bound"] == max(
        m["bound"] for m in spec["end_to_end"]
    )


def test_a_raising_workload_is_counted_failed_and_others_still_run():
    proc = bench(
        "--workload", "all", "--tiny",
        env={worker.RAISE_ENV: "tenancy"},
    )
    result = last_json(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "tenancy.host_s" not in result["metrics"]
    for wl in ("write-path", "dlrm"):
        assert f"{wl}.sim_makespan_us" in result["metrics"]
    assert "CHECK FAILED" in proc.stdout
    with open(os.path.join(run.OUT_DIR, "tenancy-seed7-trace0.json")) as fh:
        rec = json.load(fh)
    assert rec["failed"] == rec["attempted"] >= 1


def test_same_seed_gives_identical_digests(timed):
    first = re.findall(r"digest (sha256:\w+)", timed.stdout)
    again = bench("--workload", "all", "--tiny", "--seed", "7")
    assert first and first == re.findall(r"digest (sha256:\w+)", again.stdout)
    other = bench("--workload", "tenancy", "--tiny", "--seed", "8")
    assert re.findall(r"digest (sha256:\w+)", other.stdout)[0] not in first


def test_repetitions_that_disagree_fail_the_run(monkeypatch):
    reps = iter([
        {"seed": 7, "digest": "a", "sim": {"sim_waf": 1.0}, "detail": {},
         "attempted": 3, "failed": 0, "host_s": 2.0, "setup_s": 0.5,
         "peak_rss_mb": 60.0, "problems": []},
        {"seed": 7, "digest": "b", "sim": {"sim_waf": 1.5}, "detail": {},
         "attempted": 3, "failed": 0, "host_s": 1.0, "setup_s": 0.5,
         "peak_rss_mb": 60.0, "problems": []},
    ])
    monkeypatch.setattr(run, "spawn_worker", lambda *a, **k: next(reps))
    summary = run.measure("dlrm", 7, 0.0, False, False, time.monotonic())
    assert len(summary["reps"]) == run.MIN_REPS == 2
    assert summary["problems"] == [
        "repetitions of seed 7 disagree: sim.sim_waf: 1.0 -> 1.5"
    ]
    assert summary["failed"] == summary["attempted"] == 6
    assert summary["values"]["host_s"] == 1.0


def test_traced_run_keeps_simulated_results(traced):
    # The traced run compares its two repetitions' digests itself.
    assert "tracing changed" not in traced.stdout
    result = last_json(traced)
    m = result["metrics"]
    assert m["dlrm.serve.batches"]["value"] == 0
    assert m["write-path.core.poll_visits"]["value"] > 0
    assert m["dlrm.gpu.thread_resumes"]["value"] > 0


def test_diff_names_the_moved_metrics(tmp_path):
    base = {"seed": 7, "digest": "a", "sim": {"sim_p95_us": 1.0},
            "detail": {"classes": {"point": {"p50_ns": 5.0}}}}
    moved = json.loads(json.dumps(base))
    moved["digest"] = "b"
    moved["detail"]["classes"]["point"]["p50_ns"] = 6.0
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"reps": [base]}))
    new.write_text(json.dumps({"reps": [moved]}))
    proc = bench("--diff", str(old), str(new))
    assert proc.returncode == 1
    assert "detail.classes.point.p50_ns: 5.0 -> 6.0" in proc.stdout
    assert "sim_p95_us" not in proc.stdout


def _detail(report):
    doc = report.as_dict()
    doc.pop("sim_events")
    return doc


def test_write_path_matches_the_serve_command():
    from repro.serve import writepath

    wl = workloads.make("write-path", 7, tiny=True)
    for phase in (wl.build, wl.load, wl.inputs, wl.run):
        phase()
    spec = replace(
        writepath.quick_spec((workloads.WRITE_PATH_RATE_RPS,), seed=7),
        duration_ns=workloads.TINY_WRITE_PATH_NS,
    )
    point = writepath.run_write_path_point(
        workloads.WRITE_PATH_RATE_RPS, spec, gc_enabled=True
    )
    got = wl.report()["detail"]
    got.pop("makespan_ns")
    assert got == _detail(point.report)


def test_tenancy_matches_the_wfq_arm_of_the_quick_matrix():
    from repro.serve import tenancy

    wl = workloads.make("tenancy", 7, tiny=True)
    for phase in (wl.build, wl.load, wl.inputs, wl.run):
        phase()
    spec = replace(
        tenancy.quick_spec(seed=7), duration_ns=workloads.TINY_TENANCY_NS
    )
    arm = tenancy.run_tenancy_arm(
        spec, "inference_heavy", "none", "striped", "wfq"
    )
    got = wl.report()["detail"]
    got.pop("makespan_ns")
    assert got == _detail(arm)


def test_dlrm_checksum_check_catches_wrong_bytes():
    wl = workloads.make("dlrm", 7, tiny=True)
    for phase in (wl.build, wl.load, wl.inputs, wl.run):
        phase()
    assert wl.check() == []
    wl.result.checksum += 1.0
    assert wl.check()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = bench(
        "--workload", "tenancy", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert not [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
