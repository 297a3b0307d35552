"""The gateway's client-facing wire protocol.

Gateway traffic rides the exact framing the super-peer transport uses
(:func:`repro.p2p.transport.encode_frame` / :class:`FrameDecoder` /
:func:`read_frame`): a 4-byte little-endian length prefix followed by
the payload.  The payload itself is *canonical JSON* — sorted keys, no
whitespace — so a given response has exactly one byte representation.
That canonicity is load-bearing: the serving test-suite asserts that a
coalesced gateway answer is **byte-identical** to the answer a serial,
uncoalesced execution would have produced, and byte-identity is only a
meaningful claim when the encoder is deterministic.

Requests
--------
``{"op": "query", "id": <int>, "subspace": [<dims>], "variant": "FTPM"}``
    Execute one subspace skyline query.  ``id`` is an opaque client
    token echoed on the response (connections may pipeline many
    requests).  The gateway always executes with its canonical
    initiator super-peer — the subspace skyline is initiator-
    independent, which is also what makes requests coalescable.
``{"op": "ping", "id": ...}`` / ``{"op": "stats", "id": ...}``
    Liveness probe / gateway statistics snapshot.
``{"op": "update", "id": ..., "kind": "insert", "peer_id": 3,
"points": {"random": 4, "seed": 7}}``
    Admin op: apply one live mutation (``insert``/``delete``/``join``/
    ``fail``/``fail-superpeer``) to the served network.  Points for
    insert/join are either explicit rows (``[[...], ...]`` or
    ``{"values": ..., "ids": ...}``) or a server-side draw
    (``{"random": n, "seed": s}``).  The response's ``update`` object
    is the engine's :class:`~repro.parallel.UpdateReport` — touched
    super-peers, republished delta bytes, new epoch.

Responses
---------
``{"id": ..., "status": "ok", "coalesced": ..., "result": {...}}``
    ``result`` holds the skyline store verbatim: point ``values``,
    ``ids`` and the monotone ``f`` ordering, exactly as
    :class:`repro.core.store.SortedByF` carries them.
``{"id": ..., "status": "shed", "reason": ...}``
    Load shedding: ``rate_limited`` (token bucket), ``queue_full``
    (bounded admission queue), ``shutdown`` (gateway closing or the
    request was abandoned before dispatch).
``{"id": ..., "status": "error", "code": ..., "error": ...}``
    ``code`` says whose fault it was: ``request`` (an undecodable
    frame, an unknown op, a malformed query or update — sending it
    again gets the same answer) or ``backend`` (the execution failed,
    e.g. a dead worker pool — a retry may succeed).  ``error`` is the
    human-readable message.  The connection stays usable.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

__all__ = [
    "ERROR_BACKEND",
    "ERROR_REQUEST",
    "SHED_QUEUE_FULL",
    "SHED_RATE_LIMITED",
    "SHED_SHUTDOWN",
    "ProtocolError",
    "decode_payload",
    "encode_payload",
    "error_payload",
    "ok_payload",
    "result_payload",
    "shed_payload",
]

SHED_RATE_LIMITED = "rate_limited"
SHED_QUEUE_FULL = "queue_full"
SHED_SHUTDOWN = "shutdown"

ERROR_REQUEST = "request"
ERROR_BACKEND = "backend"


class ProtocolError(ValueError):
    """A frame was not a well-formed gateway payload."""


def encode_payload(payload: Mapping[str, Any]) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace, UTF-8."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_payload(blob: bytes) -> dict[str, Any]:
    """Parse one frame; raise :class:`ProtocolError` on anything else."""
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(f"expected a JSON object, got {type(payload).__name__}")
    return payload


def result_payload(store: Any) -> dict[str, Any]:
    """A :class:`~repro.core.store.SortedByF` as JSON-ready arrays.

    ``f`` is the key the answer is ordered by: for a merged answer the
    subspace key ``min_{i in U} p[i]`` Algorithm 2 merges on, not the
    full-space ``f(p)``.

    ``tolist()`` yields native Python floats/ints whose ``repr`` is the
    shortest round-trip form, so the encoding is deterministic for a
    given store — two executions that produce the same store produce
    the same bytes.
    """
    return {
        "ids": store.points.ids.tolist(),
        "values": store.points.values.tolist(),
        "f": store.f.tolist(),
    }


def ok_payload(store: Any, elapsed_seconds: float) -> dict[str, Any]:
    return {
        "status": "ok",
        "result": result_payload(store),
        "elapsed_seconds": elapsed_seconds,
    }


def shed_payload(reason: str) -> dict[str, Any]:
    return {"status": "shed", "reason": reason}


def error_payload(message: str, code: str) -> dict[str, Any]:
    return {"status": "error", "code": code, "error": message}
