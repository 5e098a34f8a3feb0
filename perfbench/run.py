"""The repository benchmark: host time and simulated results per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload write-path --seed 7 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --tiny
    python3 perfbench/run.py --diff OLD.json NEW.json

Each repetition runs in a fresh interpreter (``worker.py``), so set-up
time covers interpreter start and imports.  Every repetition of a run
simulates the same inputs (those of ``--seed``), so all of them do the
same work and must print the same digest; the number of repetitions is a
fixed function of the workload and ``--seconds`` (a run on a host too
slow for it stops early).  ``host_s`` is the fastest repetition: on a
shared host, interference only ever adds time to a fixed amount of work,
and the minimum over many repetitions is far steadier from run to run
than their median.  ``setup_s`` and ``peak_rss_mb`` are medians over the
repetitions.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs one
untraced and one traced repetition and prints the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record (every repetition's results,
digest and spans) is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("write-path", "tenancy", "dlrm")
DEFAULT_SEED = 7
#: Host seconds one repetition takes (simulation plus set-up), measured on
#: a 2-vCPU x86-64 container; sets how many repetitions fill --seconds.
NOMINAL_REP_S = {"write-path": 20.0, "tenancy": 7.0, "dlrm": 5.5}
MIN_REPS = 2
#: A run on a slow host stops early once it has taken this many times
#: --seconds (it always makes MIN_REPS repetitions).
OVERRUN = 1.1
#: Each run must end within 180 s.
RUN_DEADLINE_S = 170.0


def reps_for(workload: str, seconds: float, tiny: bool) -> int:
    if tiny:
        return 1
    return max(MIN_REPS, int(seconds // NOMINAL_REP_S[workload]))


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spawn_worker(
    workload: str, seed: int, trace: bool, tiny: bool, timeout: float
) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; a crash becomes a failed
    record instead of an exception."""
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--spawned-at", repr(spawned_at),
    ]
    if trace:
        cmd.append("--trace")
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        return _crashed(workload, seed, f"worker timed out after {timeout:.0f} s")
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
        return _crashed(
            workload, seed,
            f"worker exited {proc.returncode}: " + " | ".join(tail),
        )
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec["ready_at"] - spawned_at if "ready_at" in rec else None
    return rec


def _crashed(workload: str, seed: int, why: str) -> Dict[str, Any]:
    return {
        "workload": workload, "seed": seed, "problems": [why],
        "attempted": 1, "failed": 1, "host_s": None, "setup_s": None,
        "peak_rss_mb": None, "spans": [],
    }


def measure(
    workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
    started: float,
) -> Dict[str, Any]:
    """All repetitions of one workload, summarised."""
    recs: List[Dict[str, Any]] = []
    if trace:
        for traced in (False, True):
            left = RUN_DEADLINE_S - (time.monotonic() - started)
            recs.append(spawn_worker(workload, seed, traced, tiny, left))
    else:
        # A fixed number of repetitions, so that the minimum is taken over
        # the same count on every run, unless the host is too slow for it.
        reps = reps_for(workload, seconds, tiny)
        begun = time.monotonic()
        while len(recs) < reps:
            spent = time.monotonic() - begun
            if len(recs) >= MIN_REPS and (
                spent + spent / len(recs) > OVERRUN * seconds
            ):
                break
            left = RUN_DEADLINE_S - (time.monotonic() - started)
            recs.append(spawn_worker(workload, seed, False, tiny, left))
    problems = [
        f"rep {i}: {p}" for i, r in enumerate(recs)
        for p in r.get("problems", [])
    ]
    # Every repetition simulates the same inputs, so all must agree.
    digested = [r for r in recs if "digest" in r]
    odd = [r for r in digested if r["digest"] != digested[0]["digest"]]
    if odd:
        what = (
            "tracing changed the simulated results" if trace
            else f"repetitions of seed {seed} disagree"
        )
        problems.append(
            what + ": " + ", ".join(moved_metrics(digested[0], odd[0]))
        )
    attempted = sum(int(r.get("attempted", 1)) for r in recs)
    summary: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "reps": recs,
        "problems": problems,
        "attempted": attempted,
        # Disagreeing repetitions fail every operation of the run.
        "failed": attempted if odd else sum(
            int(r.get("failed", 1)) for r in recs
        ),
        "digest": digested[0]["digest"] if digested else None,
    }
    # Figures come only from repetitions that passed their checks.
    good = [r for r in recs if not r.get("problems")]
    if trace:
        layers = dict(recs[1].get("layers", {})) if len(good) == 2 else {}
        if layers:
            layers.update(recs[1]["sim"])
            layers["sim_lc_completed"] = recs[1]["latency_samples"]
            spans = recs[1]["spans"]
            for phase in ("import", "build", "load", "inputs"):
                layers[f"setup.{phase}_s"] = sum(
                    s["end"] - s["start"] for s in spans if s["name"] == phase
                )
            layers["trace.overhead_s"] = recs[1]["host_s"] - recs[0]["host_s"]
        summary["values"] = layers
    elif good:
        values = {
            "host_s": min(r["host_s"] for r in good),
            "setup_s": statistics.median(r["setup_s"] for r in good),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        }
        values.update(good[0]["sim"])
        summary["values"] = values
    else:
        summary["values"] = {}
    return summary


def moved_metrics(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Simulated figures that differ between two records (flattened)."""
    flat_a = _flatten({"sim": a.get("sim", {}), "detail": a.get("detail", {})})
    flat_b = _flatten({"sim": b.get("sim", {}), "detail": b.get("detail", {})})
    return [
        f"{k}: {flat_a.get(k)!r} -> {flat_b.get(k)!r}"
        for k in sorted(set(flat_a) | set(flat_b))
        if flat_a.get(k) != flat_b.get(k)
    ]


def _flatten(obj: Any, prefix: str = "") -> Dict[str, Any]:
    if isinstance(obj, dict):
        out: Dict[str, Any] = {}
        for k, v in obj.items():
            out.update(_flatten(v, f"{prefix}{k}."))
        return out
    if isinstance(obj, list):
        return _flatten({str(i): v for i, v in enumerate(obj)}, prefix)
    return {prefix.rstrip("."): obj}


def print_summary(summary: Dict[str, Any], declared: Sequence[Dict[str, Any]]) -> None:
    recs = summary["reps"]
    kind = "traced" if summary["trace"] else "timed"
    print(
        f"perfbench {summary['workload']} seed={summary['seed']} {kind} "
        f"repetitions={len(recs)}"
    )
    values = summary["values"]
    for m in declared:
        value = values.get(m["name"])
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {m['name']:<28} {shown:>14} {m['unit']}")
    hosts = [r["host_s"] for r in recs if r.get("host_s") is not None]
    print("  host seconds per repetition: "
          + ", ".join(f"{h:.3f}" for h in hosts))
    first = next((r for r in recs if "sim" in r), None)
    if first is not None:
        sim = ", ".join(f"{k}={v:.6g}" for k, v in sorted(first["sim"].items()))
        print(f"  simulated: {sim}")
        print(f"  latency-critical completions: {first['latency_samples']}")
    print(f"  digest {summary['digest']}")
    print(f"  operations: {summary['attempted']} attempted, "
          f"{summary['failed']} failed")
    if summary["problems"]:
        for p in summary["problems"]:
            print(f"  CHECK FAILED: {p.strip()}")
    else:
        print("  checks: ok")


def write_record(summary: Dict[str, Any], tag: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{tag}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return path


def cmd_diff(old_path: str, new_path: str) -> int:
    """Name the simulated figures that moved between two run records."""
    reps = []
    for path in (old_path, new_path):
        with open(path) as fh:
            doc = json.load(fh)
        reps.append(next((r for r in doc["reps"] if "digest" in r), None))
    base, rep = reps
    if base is None or rep is None or base["seed"] != rep["seed"]:
        print("the records hold no simulated results of one seed to compare")
        return 2
    if base["digest"] == rep["digest"]:
        print(f"seed {rep['seed']}: identical ({rep['digest']})")
        return 0
    print(f"seed {rep['seed']}: digest {base['digest']} -> {rep['digest']}")
    for line in moved_metrics(base, rep):
        print(f"  moved {line}")
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(
        description="AGILE simulator benchmark",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__,
    )
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="input seed (default %(default)s; 1009 is held out for "
        "confirming later claims)",
    )
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--tiny", action="store_true",
        help="reduced sizes and one repetition (self-tests)",
    )
    ap.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.diff:
        return cmd_diff(*args.diff)
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: the simulator sources (src/repro) are missing "
              f"under {ROOT}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    summaries = []
    for name in names:
        summary = measure(
            name, args.seed, seconds, bool(args.trace), args.tiny, started
        )
        print_summary(summary, declared)
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        print(f"  record: {os.path.relpath(write_record(summary, tag), ROOT)}")
        summaries.append(summary)

    metrics: Dict[str, Dict[str, Any]] = {}
    correct = True
    for summary in summaries:
        prefix = "" if len(summaries) == 1 else f"{summary['workload']}."
        if summary["problems"]:
            correct = False
        for m in declared:
            value = summary["values"].get(m["name"])
            if value is None:
                correct = False
                continue
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    result = {
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
