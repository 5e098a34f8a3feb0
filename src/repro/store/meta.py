"""Uniform artifact metadata: schema tags and commit stamping.

Every JSON artifact the repo emits (the serve scenarios and the bench
export) has the one cell-grid shape ``{schema, config_hash, ..., cells:
[{axes, metrics}]}`` and passes through :func:`stamp`, so the fields the
experiment store keys on are always present and always spelled the same
way:

- ``schema``   — the artifact family and version, e.g.
  ``agile-bench-trend/3``;
- ``git_sha``  — the commit that produced the run (CI's ``GITHUB_SHA``
  when set, else ``git rev-parse HEAD``, else ``""`` outside a repo);
- ``config_hash`` — the :func:`~repro.config.stable_hash` fingerprint of
  the knobs that make two runs comparable (baseline lookup key).
"""

from __future__ import annotations

import os
import subprocess
from typing import Dict, MutableMapping, Optional

#: Current schema tags, one per artifact family — the only place these
#: literals live.  Every family moved to the cell-grid shape in one
#: version bump; ingest reads only these versions.  Baselines match on
#: the version-less family, so runs stored under an older version keep
#: gating candidates with the same config hash.
BENCH_TREND_SCHEMA = "agile-bench-trend/3"
SERVE_SWEEP_SCHEMA = "agile-serve-sweep/4"
PLACEMENT_SMOKE_SCHEMA = "agile-placement-smoke/2"
EXPLORE_SCHEMA = "agile-explore/2"
WRITE_PATH_SCHEMA = "agile-write-path/2"
TENANCY_SCHEMA = "agile-tenancy/2"

#: Family (version-less) -> current schema tag.
SCHEMAS: Dict[str, str] = {
    tag.rsplit("/", 1)[0]: tag
    for tag in (
        BENCH_TREND_SCHEMA,
        SERVE_SWEEP_SCHEMA,
        PLACEMENT_SMOKE_SCHEMA,
        EXPLORE_SCHEMA,
        WRITE_PATH_SCHEMA,
        TENANCY_SCHEMA,
    )
}


def git_sha() -> str:
    """The producing commit, or ``""`` when unknowable.

    Prefers CI's ``GITHUB_SHA`` (checkouts may be detached or shallow),
    falls back to asking git, and degrades to empty rather than raising —
    an artifact without provenance is still worth storing.
    """
    sha = os.environ.get("GITHUB_SHA", "")
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def stamp(
    doc: MutableMapping[str, object],
    schema: str,
    config_hash: Optional[str] = None,
) -> Dict[str, object]:
    """Stamp ``schema`` / ``git_sha`` / ``config_hash`` into ``doc``.

    Mutates and returns the document.  ``config_hash`` is left untouched
    when already present and no override is given (the producer computed
    it from its own spec).
    """
    doc["schema"] = schema
    doc["git_sha"] = git_sha()
    if config_hash is not None:
        doc["config_hash"] = config_hash
    return dict(doc)
