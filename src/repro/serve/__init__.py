"""repro.serve — online request serving on top of the AGILE/BaM hosts.

Open-loop load generation (Poisson / MMPP / trace replay), bounded
admission with explicit load shedding — FIFO or weighted-fair with
per-class shed guards (:mod:`repro.serve.wfq`) — dynamic batching into
kernel launches, fair-share dispatch across one or more simulated GPUs,
per-class SLO accounting on the telemetry spine, and the experiments
built on them: every one is a cell-grid :class:`Scenario`
(:mod:`repro.serve.scenario`) — the saturation sweep and placement
comparison (:mod:`repro.serve.sweep`), the write path
(:mod:`repro.serve.writepath`), the multi-tenant matrix
(:mod:`repro.serve.tenancy`) and design-space exploration
(:mod:`repro.serve.explore`).  Tenant classes come from the registry
(:mod:`repro.serve.registry`): construct them with :func:`tenant_class`,
never ad hoc.

Entirely additive: nothing here runs unless a :class:`ServeEngine` is
constructed, so closed-loop benchmarks and golden traces are untouched.
"""

from repro.serve.admission import AdmissionQueue
from repro.serve.arrival import (
    ArrivalProcess,
    Mmpp,
    Poisson,
    TraceReplay,
    trace_from_access_stream,
)
from repro.serve.backends import (
    AgileServeBackend,
    BamServeBackend,
    NaiveServeBackend,
    ServeBackend,
    build_backend,
)
from repro.serve.batcher import Batch, BatchPolicy, DynamicBatcher
from repro.serve.dispatch import Dispatcher
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.registry import KNOWN_TENANTS, tenant_class
from repro.serve.request import (
    LEGAL_TRANSITIONS,
    Request,
    RequestClass,
    RequestState,
    ServeStateError,
    TERMINAL_STATES,
)
from repro.serve.slo import ClassReport, ServeReport, SloAccountant
from repro.serve.scenario import Scenario, run_scenario, serve_cell
from repro.serve.sweep import (
    ServePoint,
    SweepSpec,
    knee_rps,
    run_serve_point,
)
from repro.serve.wfq import TenancyConfig, TenantShare, WeightedFairAdmission

__all__ = [
    "AdmissionQueue",
    "AgileServeBackend",
    "ArrivalProcess",
    "BamServeBackend",
    "Batch",
    "BatchPolicy",
    "ClassReport",
    "Dispatcher",
    "DynamicBatcher",
    "KNOWN_TENANTS",
    "LEGAL_TRANSITIONS",
    "Mmpp",
    "NaiveServeBackend",
    "Poisson",
    "Request",
    "RequestClass",
    "RequestState",
    "ServeBackend",
    "ServeConfig",
    "ServeEngine",
    "ServePoint",
    "ServeReport",
    "ServeStateError",
    "Scenario",
    "SloAccountant",
    "SweepSpec",
    "TERMINAL_STATES",
    "TenancyConfig",
    "TenantShare",
    "TraceReplay",
    "WeightedFairAdmission",
    "build_backend",
    "knee_rps",
    "run_scenario",
    "run_serve_point",
    "serve_cell",
    "tenant_class",
    "trace_from_access_stream",
]
