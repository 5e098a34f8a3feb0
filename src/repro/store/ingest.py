"""Artifact → store: one flattener over the one artifact shape.

Every artifact family (the serve scenarios and the bench export) is a
cell grid, ``{schema, config_hash, ..., cells: [{axes, metrics}]}``, so
ingest is one function: each cell's ``axes`` become the points' axes and
every numeric leaf of its ``metrics`` becomes one :class:`Point`.
Nested dicts gain a dotted prefix (``classes.point.goodput_rps``),
numeric lists index element-wise (``placement.device_reads.2``), and
strings and bools are coordinates or labels, never metrics.

Ingestion is **lossless** by construction: the full document is kept
verbatim in ``run.raw`` (anything outside a cell's ``metrics`` — the
spec, telemetry blobs, provenance — round-trips untouched), while the
points are a queryable projection.

Only the current schema tags (:data:`repro.store.meta.SCHEMAS`) are
read; anything else raises :class:`UnknownSchemaError` rather than
guessing.
"""

from __future__ import annotations

import numbers
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.config import stable_hash
from repro.store.db import Point, RunRecord
from repro.store.meta import SCHEMAS


class UnknownSchemaError(ValueError):
    """The document matches no schema this store knows how to ingest."""


def detect_schema(doc: Mapping[str, object]) -> str:
    """The document's schema tag, when it is a current one."""
    tag = doc.get("schema")
    if tag not in SCHEMAS.values():
        raise UnknownSchemaError(
            f"unknown schema {tag!r} (want one of {sorted(SCHEMAS.values())})"
        )
    return str(tag)


def _numeric(value: object) -> Optional[float]:
    """The value as a float when it is a real number (bools excluded)."""
    if isinstance(value, bool):
        return None
    if isinstance(value, numbers.Real):
        return float(value)
    return None


def _flatten_metrics(
    record: Mapping[str, object]
) -> Iterator[Tuple[str, float]]:
    """Every numeric leaf of ``record`` as dotted ``(metric, value)``."""
    for key in sorted(record, key=str):
        value = record[key]
        num = _numeric(value)
        if num is not None:
            yield str(key), num
        elif isinstance(value, Mapping):
            for sub, subval in _flatten_metrics(value):
                yield f"{key}.{sub}", subval
        elif isinstance(value, Sequence) and not isinstance(value, str):
            for i, item in enumerate(value):
                num = _numeric(item)
                if num is not None:
                    yield f"{key}.{i}", num


def ingest_document(
    doc: Mapping[str, object],
    source: str = "",
    created_at: Optional[float] = None,
) -> Tuple[RunRecord, List[Point]]:
    """One artifact document → its run row and flattened points.

    ``run_id`` is the stable hash of the whole document, so re-ingesting
    the same artifact replaces rather than duplicates.  ``created_at``
    defaults to the artifact's own ``generated_unix`` stamp when present.
    """
    schema = detect_schema(doc)
    config_hash = doc.get("config_hash")
    cells = doc.get("cells")
    if not (isinstance(config_hash, str) and config_hash):
        raise UnknownSchemaError(f"{schema} document has no config_hash")
    if not isinstance(cells, Sequence):
        raise UnknownSchemaError(f"{schema} document has no cells list")
    points = [
        Point(axes=dict(c["axes"]), metric=metric, value=value)
        for c in cells
        for metric, value in _flatten_metrics(c["metrics"])
    ]
    if created_at is None:
        created_at = _numeric(doc.get("generated_unix")) or 0.0
    record = RunRecord(
        run_id=stable_hash(doc),
        schema=schema,
        config_hash=config_hash,
        created_at=created_at,
        git_sha=str(doc.get("git_sha", "") or ""),
        source=source,
        raw=dict(doc),
    )
    return record, points
