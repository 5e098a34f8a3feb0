"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py`` with the monotonic time at which it spawned this
process (``--spawned-at``), so set-up time counts interpreter start and
imports.  Prints one JSON record as its last line of standard output:
phase spans, host seconds of the run, peak resident memory, the
simulated results and their digest, the output checks, and, with
``--trace``, the per-layer figures.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402 - the start stamp must come first
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import ExitStack, contextmanager  # noqa: E402
from typing import Any, Dict, Iterator, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Set to a workload name to make that workload raise inside its run
#: (the self-tests use it to prove a failing workload is counted).
RAISE_ENV = "PERFBENCH_RAISE_IN"


class Spans:
    """Benchmark-side spans (name, start, end, parent), kept in memory.

    Times are seconds since the process was spawned."""

    def __init__(self, origin: float):
        self.origin = origin
        self.rows: List[Dict[str, Any]] = []

    def add(self, name: str, start: float, end: float, parent: str) -> None:
        self.rows.append({
            "name": name,
            "start": start - self.origin,
            "end": end - self.origin,
            "parent": parent,
        })

    @contextmanager
    def span(self, name: str, parent: str) -> Iterator[None]:
        start = time.monotonic()
        try:
            yield
        finally:
            self.add(name, start, time.monotonic(), parent)

    def seconds(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.rows if r["name"] == name)


def digest(sim: Dict[str, float], detail: Dict[str, Any]) -> str:
    """Hash of every simulated result (floats at full precision)."""
    blob = json.dumps({"sim": sim, "detail": detail}, sort_keys=True)
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()[:32]


def run_once(
    name: str, seed: int, spawned_at: float, trace: bool, tiny: bool
) -> Dict[str, Any]:
    spans = Spans(spawned_at)
    spans.add("interpreter", spawned_at, _STARTED, parent="setup")
    rec: Dict[str, Any] = {
        "workload": name, "seed": seed, "trace": trace, "problems": [],
    }
    wl: Optional[Any] = None
    try:
        with spans.span("import", parent="setup"):
            sys.path[:0] = [SRC, HERE]
            import workloads
            from repro import telemetry

            if trace:
                import cProfile
                import pstats

                import layers
        wl = workloads.make(name, seed, tiny)
        with ExitStack() as stack:
            cap = stack.enter_context(telemetry.capture()) if trace else None
            with spans.span("build", parent="setup"):
                wl.build()
            with spans.span("load", parent="setup"):
                wl.load()
            with spans.span("inputs", parent="setup"):
                wl.inputs()
            rec["ready_at"] = time.monotonic()
            profiler = cProfile.Profile() if trace else None
            with spans.span("run", parent="measure"):
                if os.environ.get(RAISE_ENV) == name:
                    raise RuntimeError(f"{RAISE_ENV} set: {name} raises")
                if profiler is not None:
                    profiler.enable()
                try:
                    wl.run()
                finally:
                    if profiler is not None:
                        profiler.disable()
        with spans.span("report", parent="measure"):
            rep = wl.report()
        with spans.span("check", parent="measure"):
            rec["problems"] = wl.check()
        rec["sim"] = rep["sim"]
        rec["detail"] = rep["detail"]
        rec["latency_samples"] = rep["latency_samples"]
        rec["digest"] = digest(rep["sim"], rep["detail"])
        rec["attempted"] = rep["ops"]["attempted"]
        rec["failed"] = rep["ops"]["failed"]
        if trace:
            layer = layers.profile_metrics(pstats.Stats(profiler))
            layer.update(layers.telemetry_metrics(cap.last.snapshot()))
            layer.update(wl.model_counters())
            layer["sim.events_per_op"] = (
                layer["sim.events"] / rec["attempted"]
                if rec["attempted"] else 0.0
            )
            rec["layers"] = layer
    except Exception:
        rec["problems"].append(traceback.format_exc(limit=8))
    if rec["problems"]:
        # A run that raises or fails a check fails all its operations.
        attempted = rec.get("attempted") or (wl.operations() if wl else 0)
        rec["attempted"] = max(1, int(attempted))
        rec["failed"] = rec["attempted"]
    rec["host_s"] = spans.seconds("run")
    rec["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    rec["spans"] = spans.rows
    return rec


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    rec = run_once(
        args.workload, args.seed, args.spawned_at, args.trace, args.tiny
    )
    sys.stdout.write(json.dumps(rec) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
