"""CLI: ``python -m repro.serve run <scenario>`` — serve one cell grid.

Scenarios (:mod:`repro.serve.scenario`): ``sweep`` (offered load across
AGILE / BaM / naive-async, one saturation curve per (array size,
placement) machine), ``placement`` (policies head to head on a hotspot
trace), ``write-path`` (GC on vs off), ``tenancy`` (mixes × fault storms
× placements, wfq vs fifo per cell) and ``explore`` (cache size × queue
depth × SSD count × arrival process).

``--quick`` selects the CI-sized configuration and ``--set
field=v[,v...]`` (repeatable) overrides any field of the scenario's spec;
tuple fields take comma lists and are grid axes.  An unknown field or a
bad value exits 2; a cell failing the scenario's headline check exits 1.
``--out`` writes the stamped artifact for ``python -m repro.store``.

Examples::

    python -m repro.serve run sweep --quick --set systems=agile,bam
    python -m repro.serve run sweep --set ssds=1,2,4 --set placements=shard,striped
    python -m repro.serve run placement --out placement_smoke.json
    python -m repro.serve run write-path --set loads_rps=10000,30000
    python -m repro.serve run tenancy --quick --out tenancy.json
    python -m repro.serve run explore --set ssd_counts=1,2 --set arrivals=poisson,mmpp
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.serve.explore import EXPLORE
from repro.serve.scenario import (
    Cell,
    OverrideError,
    Scenario,
    apply_overrides,
    run_scenario,
)
from repro.serve.sweep import PLACEMENT, SWEEP
from repro.serve.tenancy import TENANCY
from repro.serve.writepath import WRITE_PATH

SCENARIOS: Dict[str, Scenario] = {
    sc.name: sc for sc in (SWEEP, PLACEMENT, WRITE_PATH, TENANCY, EXPLORE)
}

#: Metrics echoed per cell on the console (the artifact holds them all).
_SHOWN = (
    "goodput_rps", "p99_ns", "completed", "shed", "skew_ratio", "knee_rps",
    "mean_waf", "read_p99_inflation", "wfq_infer_p99_ns",
    "fifo_infer_p99_ns", "infer_slo_budget_ns", "headline_ok",
)


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Open-loop serving scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="serve one scenario's cell grid")
    run.add_argument("scenario", choices=sorted(SCENARIOS))
    run.add_argument(
        "--quick", action="store_true", help="the CI-sized configuration"
    )
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--out", default="", help="write the artifact JSON here")
    run.add_argument(
        "--set", action="append", default=[], dest="overrides",
        metavar="FIELD=V[,V...]", help="override one spec field (repeatable)",
    )
    return parser.parse_args(argv)


def _describe(c: Cell) -> str:
    axes = " ".join(f"{k}={v}" for k, v in c["axes"].items())
    shown = " ".join(
        f"{k}={c['metrics'][k]:g}" for k in _SHOWN if k in c["metrics"]
    )
    return f"  [{axes}] {shown}"


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    scenario = SCENARIOS[args.scenario]
    base = (scenario.quick if args.quick else scenario.default)(args.seed)
    try:
        spec = apply_overrides(base, args.overrides)
    except OverrideError as exc:
        print(f"{scenario.name}: {exc}", file=sys.stderr)
        return 2
    doc = run_scenario(scenario, spec)
    print(
        f"scenario {scenario.name}: {len(doc['cells'])} cells, "
        f"seed {spec.seed}, config {doc['config_hash']}"
    )
    for c in doc["cells"]:
        print(_describe(c))
    if args.out:
        from repro.store.meta import SCHEMAS, stamp

        stamp(doc, SCHEMAS[scenario.family])
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    failures = scenario.failures(doc)
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if failures:
        return 1
    print(f"OK: {scenario.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
