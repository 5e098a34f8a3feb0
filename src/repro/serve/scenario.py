"""Scenarios: declared cell grids, served by one engine setup.

A :class:`Scenario` is a frozen spec dataclass whose tuple fields are its
axes, one cell function that serves the grid, and an optional headline
check over the cells.  Every cell runs through :func:`serve_cell`, the
one place a backend, its access pattern, the admission/batching policy
and a :class:`ServeEngine` are wired together.  :func:`run_scenario`
wraps the cells in the one artifact shape every family shares::

    {schema, config_hash, seed, spec, ...header, cells: [{axes, metrics}]}

Derived results (a curve's knee, a matrix summary) are cells with fewer
axes.  The caller stamps ``schema`` from :mod:`repro.store.meta`, the
only home of the schema literals.  :func:`apply_overrides` is the CLI's
``--set field=v[,v...]``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.config import SystemConfig, canonical_payload
from repro.serve.arrival import ArrivalProcess
from repro.serve.backends import ServeBackend, build_backend
from repro.serve.batcher import BatchPolicy
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.request import RequestClass
from repro.serve.slo import ServeReport
from repro.serve.wfq import TenancyConfig

#: One grid cell: ``{"axes": {...}, "metrics": {...}}``.
Cell = Dict[str, Any]


def cell(axes: Mapping[str, object], metrics: Mapping[str, object]) -> Cell:
    return {"axes": dict(axes), "metrics": dict(metrics)}


def prefixed(axes: Mapping[str, object], cells: Sequence[Cell]) -> List[Cell]:
    """``cells`` with ``axes`` prepended to each cell's own axes."""
    return [cell({**axes, **c["axes"]}, c["metrics"]) for c in cells]


@dataclass(frozen=True)
class Scenario:
    """One named experiment family.

    ``quick``/``default`` build the spec for a seed (``quick`` is the CI
    configuration); ``cells`` serves the grid; ``config_hash`` is the
    store's baseline key; ``header`` adds family-specific context to the
    document; ``check`` returns one message per failed headline claim.
    """

    name: str
    family: str
    quick: Callable[[int], Any]
    default: Callable[[int], Any]
    cells: Callable[[Any], List[Cell]]
    config_hash: Callable[[Any], str]
    header: Optional[Callable[[Any], Dict[str, object]]] = None
    check: Optional[Callable[[Sequence[Cell]], List[str]]] = None

    def failures(self, doc: Mapping[str, Any]) -> List[str]:
        return self.check(doc["cells"]) if self.check is not None else []


def serve_cell(
    system: str,
    cfg: SystemConfig,
    classes: Sequence[RequestClass],
    arrivals: Callable[[ServeBackend], Dict[str, ArrivalProcess]],
    spec: Any,
    tenancy: Optional[TenancyConfig] = None,
    num_gpus: int = 1,
) -> ServeReport:
    """Serve one cell on a fresh machine.

    ``arrivals`` receives the loaded backend (checkpoint traces route
    through its placement); ``spec`` supplies the serving window and
    policy: ``duration_ns``, ``admission_capacity``, ``max_batch``,
    ``max_wait_ns`` and ``seed``.
    """
    backend = build_backend(system, cfg, num_gpus=num_gpus)
    backend.load_pattern(classes)
    serve_cfg = ServeConfig(
        duration_ns=spec.duration_ns,
        admission_capacity=spec.admission_capacity,
        batch=BatchPolicy(
            max_batch=spec.max_batch, max_wait_ns=spec.max_wait_ns
        ),
        tenancy=tenancy,
    )
    engine = ServeEngine(
        backend, classes, arrivals(backend), serve_cfg, seed=spec.seed
    )
    return engine.run()


def run_scenario(scenario: Scenario, spec: Any) -> Dict[str, Any]:
    """The whole grid as one document (unstamped: no ``schema`` yet).

    Pure with respect to wall clock and provenance, so identical specs
    give identical documents.
    """
    header = scenario.header(spec) if scenario.header is not None else {}
    return {
        "config_hash": scenario.config_hash(spec),
        "seed": spec.seed,
        "spec": canonical_payload(spec),
        **header,
        "cells": scenario.cells(spec),
    }


# -- --set overrides ----------------------------------------------------------


class OverrideError(ValueError):
    """A ``--set`` assignment names no settable field or has a bad value."""


def _scalar(name: str, text: str, kind: type) -> object:
    try:
        return kind(text)
    except ValueError:
        raise OverrideError(
            f"{name}: bad value {text!r} (want {kind.__name__})"
        ) from None


def _parse(name: str, text: str, current: object) -> object:
    if isinstance(current, tuple):
        kind = type(current[0]) if current else str
        values = tuple(
            _scalar(name, tok.strip(), kind) for tok in text.split(",") if tok
        )
        if not values:
            raise OverrideError(f"{name}: needs at least one value")
        return values
    if dataclasses.is_dataclass(current) or isinstance(current, bool):
        raise OverrideError(f"{name} cannot be set from the command line")
    return _scalar(name, text, type(current))


def apply_overrides(spec: Any, assignments: Sequence[str]) -> Any:
    """``spec`` with each ``field=value`` assignment applied.

    Values parse to the field's current type; tuple fields take comma
    lists.  The spec's own validation runs on the result, and any failure
    surfaces as :class:`OverrideError`.
    """
    names = [f.name for f in dataclasses.fields(spec)]
    changes: Dict[str, object] = {}
    for item in assignments:
        name, sep, text = item.partition("=")
        name = name.strip()
        if not sep or name not in names:
            raise OverrideError(
                f"unknown field {name!r}; settable: {', '.join(names)}"
            )
        changes[name] = _parse(name, text, getattr(spec, name))
    try:
        return dataclasses.replace(spec, **changes)
    except (TypeError, ValueError) as exc:
        raise OverrideError(str(exc)) from None
