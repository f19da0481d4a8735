"""Request-id propagation for end-to-end trace correlation.

The serve layer assigns each HTTP request an id (honoring a client
``X-Request-Id`` when it is well-formed) and sets it here; every layer
below — coalescing, batching, the engine, the compiled executor's
fallback accounting — reads it back when stamping spans and lineage
records, so one id links the HTTP response, its chrome-trace spans,
its cache entries, and its provenance chain.

A :mod:`contextvars` variable covers the asyncio side, but
``loop.run_in_executor`` does *not* propagate context into pool
threads — so the id also rides explicitly on batch items, and pool
threads re-enter it with :func:`set_request_id` before touching the
engine.
"""

from __future__ import annotations

import contextvars
import uuid
from typing import Optional

_REQUEST_ID: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "repro_request_id", default=None)

#: characters a client-supplied request id may contain.
_ALLOWED = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.:")
_MAX_LEN = 120


def new_request_id() -> str:
    """A fresh, collision-resistant id (16 hex chars)."""
    return uuid.uuid4().hex[:16]


def get_request_id() -> Optional[str]:
    return _REQUEST_ID.get()


def set_request_id(request_id: Optional[str]) -> "contextvars.Token":
    return _REQUEST_ID.set(request_id)


def reset_request_id(token: "contextvars.Token") -> None:
    try:
        _REQUEST_ID.reset(token)
    except ValueError:
        # Token from another context (executor hop); clearing is the
        # correct degradation — never leak an id across requests.
        _REQUEST_ID.set(None)


def clean_request_id(raw: object) -> Optional[str]:
    """Validate a client-supplied id; ``None`` means "generate one".

    Ill-formed ids (wrong type, empty, oversized, characters outside a
    conservative header-safe set) are rejected rather than echoed, so
    a hostile header can never smuggle bytes into logs or traces.
    """
    if not isinstance(raw, str):
        return None
    candidate = raw.strip()
    if not candidate or len(candidate) > _MAX_LEN:
        return None
    if not set(candidate) <= _ALLOWED:
        return None
    return candidate
