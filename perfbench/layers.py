"""Per-layer figures of a traced run.

Two sources, both switched on only in the traced run:

- a ``cProfile`` profile around the simulation, summed by owning package
  of ``repro`` (``repro/nvme/ftl.py`` is split out as ``nvme.ftl``) into
  ``<layer>.self_s``, plus exact call counts at named entry points (a
  generator frame counts one call per resume);
- the program's telemetry snapshot (``repro.telemetry.capture()``), for
  the model's own counters, gauges and histograms.
"""

from __future__ import annotations

import pstats
from typing import Any, Dict, Iterable, Mapping, Tuple

#: Layers whose self time is reported, in ``repro.<package>`` terms.
SELF_TIME_LAYERS = (
    "sim", "core", "gpu", "nvme", "nvme.ftl", "mem", "placement", "serve",
    "workloads",
)

#: (file name, function name) of the entry points whose calls are counted.
ENTRY_POINTS = {
    "core.poll_visits": ("service.py", "_polling_warp"),
    "core.poll_hits": ("service.py", "_poll_cq"),
    "gpu.thread_resumes": ("device.py", "_thread_main"),
    "sim.fairshare_departures": ("resources.py", "_on_departure"),
}


def layer_of(path: str) -> str:
    """``repro`` package owning a source file; ``other`` outside it."""
    norm = path.replace("\\", "/")
    marker = "/repro/"
    idx = norm.rfind(marker)
    if idx < 0:
        return "other"
    rest = norm[idx + len(marker):]
    if "/" not in rest:
        return "repro"
    package = rest.split("/", 1)[0]
    if package == "nvme" and rest.endswith("/ftl.py"):
        return "nvme.ftl"
    return package


def profile_metrics(stats: pstats.Stats) -> Dict[str, float]:
    """Self seconds per layer and entry-point call counts."""
    self_s: Dict[str, float] = {}
    calls = {name: 0.0 for name in ENTRY_POINTS}
    total = 0.0
    for (path, _line, func), row in stats.stats.items():  # type: ignore[attr-defined]
        ncalls, tottime = row[1], row[2]
        layer = layer_of(path)
        self_s[layer] = self_s.get(layer, 0.0) + tottime
        total += tottime
        for name, (fname, fn) in ENTRY_POINTS.items():
            if func == fn and path.replace("\\", "/").endswith("/" + fname):
                calls[name] += ncalls
    out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in SELF_TIME_LAYERS}
    out["sim.self_share"] = self_s.get("sim", 0.0) / total if total else 0.0
    out.update(calls)
    visits = calls["core.poll_visits"]
    out["core.poll_hit_ratio"] = (
        calls["core.poll_hits"] / visits if visits else 0.0
    )
    return out


def _items(group: Mapping[str, Any], prefix: str) -> Iterable[Tuple[str, Any]]:
    return ((k, v) for k, v in group.items() if k.startswith(prefix))


def _mean(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def telemetry_metrics(snapshot: Mapping[str, Any]) -> Dict[str, float]:
    """Model counters of one host's telemetry snapshot, by layer name."""
    m = snapshot["metrics"]
    counters = m.get("counters", {})
    gauges = m.get("gauges", {})
    hists = m.get("histograms", {})
    col = m.get("collected", {})

    io = counters.get("io", {})
    cache = counters.get("cache", {})
    ctrl = counters.get("ctrl", {})
    service = counters.get("service", {})
    stall = counters.get("gpu.stall_ns", {})
    devices = list(col.get("devices", {}).values())
    now = float(col.get("sim", {}).get("now", 0.0))

    def dev_sum(key: str) -> float:
        return float(sum(float(d.get(key, 0)) for d in devices))

    commands = float(io.get("commands_submitted", 0.0))
    retries = float(io.get("sq_full_retries", 0.0))
    hits = float(cache.get("hits", 0.0))
    misses = float(cache.get("misses", 0.0))
    writing = [d for d in devices if float(d.get("host_programs", 0))]
    channels = col.get("flash_channel_busy_ns", {})
    fetch = [h for _, h in _items(hists, "nvme.ssd")]
    dma = [c for _, c in _items(counters, "mem.ssd")]

    return {
        "sim.events": float(col.get("sim", {}).get("event_count", 0)),
        "core.service.completions": float(
            service.get("completions_processed", 0.0)
        ),
        "core.io.commands": commands,
        "core.io.sq_full_retries": retries,
        "core.io.sq_full_backoffs": float(io.get("sq_full_backoffs", 0.0)),
        "core.io.doorbell_contended": float(
            io.get("doorbell_contended", 0.0)
        ),
        "core.io.doorbell_rings": float(io.get("doorbell_rings", 0.0)),
        # Submissions that went through over submission attempts.
        "core.io.submit_ratio": _ratio(commands, commands + retries),
        "core.cache.hits": hits,
        "core.cache.misses": misses,
        "core.cache.busy_hits": float(cache.get("busy_hits", 0.0)),
        "core.cache.hit_ratio": _ratio(hits, hits + misses),
        "core.ctrl.reads_coalesced": float(ctrl.get("reads_coalesced", 0.0)),
        "core.ctrl.prefetch_issued": float(ctrl.get("prefetch_issued", 0.0)),
        "gpu.stall_ns.sq_full": float(stall.get("sq_full", 0.0)),
        "gpu.stall_ns.doorbell": float(stall.get("doorbell", 0.0)),
        "gpu.stall_ns.fill_wait": float(stall.get("fill_wait", 0.0)),
        "gpu.stall_ns.victim_wait": float(stall.get("victim_wait", 0.0)),
        "gpu.stall_ns.warp_converge": float(stall.get("warp_converge", 0.0)),
        "gpu.sm_thread_cycles": float(
            sum(col.get("sm_thread_cycles", {}).values())
        ),
        "nvme.sq_occupancy_mean": _mean(
            float(g["mean"]) for k, g in gauges.items()
            if ".sq" in k and k.endswith(".occupancy")
        ),
        "nvme.cq_occupancy_mean": _mean(
            float(g["mean"]) for k, g in gauges.items()
            if ".cq" in k and k.endswith(".occupancy")
        ),
        "nvme.fetch_batch_mean": _ratio(
            sum(float(h.get("sum", 0)) for h in fetch),
            sum(float(h.get("count", 0)) for h in fetch),
        ),
        "nvme.flash.channel_util": _ratio(
            sum(float(v) for v in channels.values()), len(channels) * now
        ),
        "nvme.completed_reads": dev_sum("completed_reads"),
        "nvme.completed_writes": dev_sum("completed_writes"),
        "nvme.errors": dev_sum("errors"),
        "nvme.ftl.host_programs": dev_sum("host_programs"),
        "nvme.ftl.gc_programs": dev_sum("gc_programs"),
        "nvme.ftl.gc_reads": dev_sum("gc_reads"),
        "nvme.ftl.erases": dev_sum("erases"),
        "nvme.ftl.gc_runs": dev_sum("gc_runs"),
        "nvme.ftl.gc_busy_ns": dev_sum("gc_busy_ns"),
        "nvme.ftl.host_gc_stall_ns": dev_sum("host_gc_stall_ns"),
        # Mean over devices that saw host programs, as the serve report
        # computes it; 1.0 when nothing was written.
        "nvme.ftl.waf": _mean(float(d["waf"]) for d in writing)
        if writing else 1.0,
        "mem.pcie.dma_bytes": float(
            sum(float(v) for c in dma for v in c.values())
        ),
        "mem.hbm.utilization": float(
            col.get("hbm", {}).get("utilization", 0.0)
        ),
    }
