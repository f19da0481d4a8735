"""repro.provenance — content-addressed experiment lineage.

The subsystem records, at experiment time, the full derivation graph
behind every published number: spec → machine description → handler
stream → execution → trial/table/frontier, each node named by the
digest the engine already uses for cache addressing and annotated with
the measurement context (schema/code version, engine path, fallback
reason, request id).  See ``docs/PROVENANCE.md`` for the model and
``repro lineage --help`` for the CLI.

Recording is on by default.  The lineage gate of ``scripts/gates.py``
holds its cost on cold table renders under 2%, taking the best of up
to five attempts (``docs/PROVENANCE.md``, "Cost", gives the measured
spread).
``REPRO_PROVENANCE=0`` or :func:`set_provenance_enabled` turns it off,
which also skips the staleness check on cache hits.
"""

from __future__ import annotations

import os

from repro.provenance.context import (
    clean_request_id,
    get_request_id,
    new_request_id,
    reset_request_id,
    set_request_id,
)
from repro.provenance.graph import (
    LINEAGE_SCHEMA_VERSION,
    UNKNOWN_KIND,
    LineageGraph,
    LineageRecord,
    block_status,
    canonical,
    digest_of,
)
from repro.provenance.store import (
    PROVENANCE,
    LineageStore,
    Recorder,
    lineage_payload,
    merge_lineage_payload,
)


class _ProvState:
    """Mutable switchboard the hot paths check (attribute read, no call)."""

    __slots__ = ("enabled",)

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled


PROV_STATE = _ProvState(
    os.environ.get("REPRO_PROVENANCE", "1").strip().lower()
    not in ("0", "false", "no", "off"))


def provenance_enabled() -> bool:
    return PROV_STATE.enabled


def set_provenance_enabled(on: bool) -> None:
    PROV_STATE.enabled = bool(on)


__all__ = [
    "LINEAGE_SCHEMA_VERSION",
    "UNKNOWN_KIND",
    "LineageGraph",
    "LineageRecord",
    "LineageStore",
    "PROVENANCE",
    "PROV_STATE",
    "Recorder",
    "block_status",
    "canonical",
    "clean_request_id",
    "digest_of",
    "get_request_id",
    "lineage_payload",
    "merge_lineage_payload",
    "new_request_id",
    "provenance_enabled",
    "reset_request_id",
    "set_request_id",
    "set_provenance_enabled",
]
