"""Synthetic artifact documents for every schema the store ingests.

Hand-built miniatures of the one cell-grid shape the real exporters
emit — small enough that every test constructs, mutates, and round-trips
them in microseconds, complete enough that the flattener sees every
branch (per-class nests, device-read lists, string labels, telemetry
blobs beside the metrics).
"""

from __future__ import annotations

import copy
from typing import Dict


GIT_SHA = "c0ffee" * 6 + "c0ff"


def serve_point(goodput: float, p99: float, target: float) -> Dict:
    """One serve report's metrics (``ServeReport.as_dict`` shape)."""
    return {
        "system": "agile",
        "duration_ns": 2_000_000.0,
        "offered_rps": target,
        "offered": 40,
        "completed": 38,
        "shed": 1,
        "aborted": 1,
        "goodput_rps": goodput,
        "p99_ns": p99,
        "sim_events": 12_345,
        "batches": 6,
        "mean_batch_size": 6.3,
        "placement": {
            "policy": "striped",
            "num_ssds": 2,
            "device_pages": [20, 21],
            "device_reads": [19, 19],
            "skew_ratio": 1.0,
        },
        "write_path": {
            "device_writes": [30, 31],
            "device_waf": [1.2, 1.2],
            "mean_waf": 1.2,
            "gc_busy_ns": 800_000.0,
            "gc_stall_ns": 120_000.0,
            "writebacks": 40,
            "writebacks_acked": 40,
            "writebacks_lost": 0,
        },
        "classes": {
            "point": {
                "name": "point",
                "offered": 32,
                "completed": 31,
                "shed": 1,
                "queue_timeout": 0,
                "aborted": 0,
                "slo_ok": 30,
                "slo_attainment": 0.94,
                "p50_ns": 90_000.0,
                "p95_ns": 220_000.0,
                "p99_ns": p99,
                "mean_latency_ns": 110_000.0,
                "goodput_rps": goodput * 0.8,
            },
        },
    }


def write_path_point(
    goodput: float, p99: float, target: float, waf: float = 1.2
) -> Dict:
    pt = serve_point(goodput, p99, target)
    pt["write_path"]["device_waf"] = [waf, waf]
    pt["write_path"]["mean_waf"] = waf
    return pt


def _cell(axes: Dict, metrics: Dict) -> Dict:
    return {"axes": axes, "metrics": metrics}


def serve_sweep_doc(goodput: float = 20_000.0) -> Dict:
    """An ``agile-serve-sweep/4`` miniature (one machine, one system, one
    load, plus the curve's knee cell)."""
    axes = {"ssds": 2, "placement": "striped", "system": "agile"}
    return {
        "schema": "agile-serve-sweep/4",
        "git_sha": GIT_SHA,
        "config_hash": "feedbeeffeedbeef",
        "seed": 7,
        "spec": {"loads_rps": [20_000.0], "ssds": [2], "seed": 7},
        "cells": [
            _cell(
                {**axes, "target_rps": 20_000.0},
                serve_point(goodput, p99=300_000.0, target=20_000.0),
            ),
            _cell(axes, {"knee_rps": 20_000.0}),
        ],
    }


def write_path_doc(waf: float = 1.3, inflation: float = 4.0) -> Dict:
    """An ``agile-write-path/2`` miniature (GC on/off, one load each)."""
    return {
        "schema": "agile-write-path/2",
        "git_sha": GIT_SHA,
        "config_hash": "deadc0dedeadc0de",
        "seed": 7,
        "spec": {"loads_rps": [10_000.0], "num_ssds": 2, "seed": 7},
        "cells": [
            _cell(
                {"system": "gc_on", "target_rps": 10_000.0},
                write_path_point(
                    9_500.0, p99=1_200_000.0, target=10_000.0, waf=waf
                ),
            ),
            _cell({"system": "gc_on"}, {"knee_rps": 10_000.0}),
            _cell(
                {"system": "gc_off", "target_rps": 10_000.0},
                write_path_point(
                    9_900.0, p99=300_000.0, target=10_000.0, waf=1.0
                ),
            ),
            _cell({"system": "gc_off"}, {"knee_rps": 30_000.0}),
            _cell(
                {"section": "summary"},
                {
                    "mean_waf": waf,
                    "gc_stall_ns": 2_000_000.0,
                    "read_p99_inflation": inflation,
                    "knee_rps_gc_on": 10_000.0,
                    "knee_rps_gc_off": 30_000.0,
                    "writebacks_lost": 0,
                },
            ),
        ],
    }


def placement_cells(striped_skew: float = 1.1) -> list:
    return [
        _cell(
            {"policy": "shard"},
            {
                "goodput_rps": 70_000.0,
                "p99_ns": 450_000.0,
                "completed": 350,
                "skew_ratio": 1.9,
                "device_reads": [270, 29, 307, 33],
            },
        ),
        _cell(
            {"policy": "striped"},
            {
                "goodput_rps": 76_000.0,
                "p99_ns": 380_000.0,
                "completed": 380,
                "skew_ratio": striped_skew,
                "device_reads": [156, 177, 137, 169],
            },
        ),
    ]


def placement_smoke_doc(striped_skew: float = 1.1) -> Dict:
    """An ``agile-placement-smoke/2`` miniature (two policies)."""
    return {
        "schema": "agile-placement-smoke/2",
        "git_sha": GIT_SHA,
        "config_hash": "0123456789abcdef",
        "seed": 7,
        "spec": {"num_ssds": 4, "rate_rps": 80_000.0, "skew": 0.8},
        "cells": placement_cells(striped_skew),
    }


def tenancy_doc() -> Dict:
    """An ``agile-tenancy/2`` miniature (one cell: two arms + headline,
    and the matrix summary)."""
    axes = {"mix": "inference_heavy", "storm": "storm", "placement": "striped"}
    report = serve_point(50_000.0, p99=900_000.0, target=250_000.0)
    return {
        "schema": "agile-tenancy/2",
        "git_sha": GIT_SHA,
        "config_hash": "0d89a1d8cf28cc48",
        "seed": 7,
        "spec": {"rate_rps": 250_000.0, "storms": ["storm"]},
        "shares": {"infer": {"weight": 6.0, "priority": 3}},
        "cells": [
            _cell({**axes, "arm": "wfq"}, report),
            _cell({**axes, "arm": "fifo"}, report),
            _cell(
                {**axes, "section": "headline"},
                {
                    "infer_slo_budget_ns": 9e6,
                    "wfq_infer_p99_ns": 2e6,
                    "fifo_infer_p99_ns": 2e7,
                    "starved_classes": [],
                },
            ),
            _cell({"section": "summary"}, {"headline_ok": 1}),
        ],
    }


def bench_trend_doc() -> Dict:
    """An ``agile-bench-trend/3`` miniature: every export section."""

    def fig5(num_ssds: int, duration: float, bandwidth: float) -> Dict:
        row = _cell(
            {
                "section": "fig5",
                "op": "read",
                "num_ssds": num_ssds,
                "total_requests": 512,
            },
            {
                "duration_ns": duration,
                "bandwidth_gbps": bandwidth,
                "sim_events": 123_456,
                "device_errors": 0,
            },
        )
        row["telemetry"] = {"metrics": {"gpu.stall_ns": 42}, "spans": []}
        return row

    return {
        "schema": "agile-bench-trend/3",
        "git_sha": GIT_SHA,
        "config_hash": "cafebabecafebabe",
        "generated_unix": 1_700_000_000.0,
        "python": "3.12.0",
        "quick": True,
        "cells": [
            fig5(1, 7.5e6, 3.64),
            fig5(2, 4.1e6, 6.9),
            _cell(
                {"section": "perf"},
                {
                    "sim_events": 246_244,
                    "wall_s": 0.61,
                    "events_per_sec": 401_682.9,
                    "total_requests": 1024,
                    "bandwidth_gbps": 2.39,
                    "device_errors": 0,
                },
            ),
            _cell(
                {"section": "serve", "system": "agile", "target_rps": 20_000.0},
                serve_point(19_700.0, p99=250_000.0, target=20_000.0),
            ),
            _cell(
                {"section": "serve", "system": "agile"},
                {"knee_rps": 20_000.0},
            ),
            *(
                _cell({"section": "placement", **c["axes"]}, c["metrics"])
                for c in placement_cells()
            ),
        ],
    }


def scale_metric(doc: Dict, metric: str, factor: float) -> Dict:
    """A deep copy of ``doc`` with every ``metric`` leaf scaled."""
    out = copy.deepcopy(doc)

    def walk(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == metric and isinstance(value, (int, float)):
                    node[key] = value * factor
                else:
                    walk(value)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(out)
    return out
