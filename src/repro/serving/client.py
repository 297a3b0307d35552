"""A pipelining asyncio client for the query gateway.

One :class:`GatewayClient` holds one TCP connection and may have any
number of requests in flight; a background reader task matches response
frames to waiters by the echoed ``id`` token.  The raw response bytes
are retained alongside the decoded payload because the serving property
suite compares gateway answers **byte-for-byte** against serial
re-execution — handing back only the parsed dict would launder exactly
the differences the test exists to catch.
"""

from __future__ import annotations

import asyncio
import itertools
import numbers
from dataclasses import dataclass
from typing import Any, Sequence

from ..p2p.transport import TransportError, encode_frame, read_frame
from .proto import decode_payload, encode_payload

__all__ = ["GatewayClient", "GatewayResponse"]


@dataclass(frozen=True)
class GatewayResponse:
    """One response frame: the parsed payload plus its exact bytes."""

    payload: dict[str, Any]
    raw: bytes

    @property
    def status(self) -> str:
        return str(self.payload.get("status", "error"))

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def shed_reason(self) -> str | None:
        reason = self.payload.get("reason")
        return str(reason) if self.status == "shed" else None


class GatewayClient:
    """Connect, pipeline requests, await id-matched responses."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._waiters: dict[int, asyncio.Future] = {}
        self._lock = asyncio.Lock()
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "GatewayClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        error: Exception | None = None
        try:
            while True:
                blob = await read_frame(self._reader)
                if blob is None:
                    break
                payload = decode_payload(blob)
                waiter = self._waiters.pop(payload.get("id"), None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(GatewayResponse(payload=payload, raw=blob))
        except (TransportError, ConnectionError, OSError) as exc:
            error = exc
        except asyncio.CancelledError:
            error = ConnectionError("client closed")
        finally:
            fail = error if error is not None else ConnectionError("gateway closed connection")
            for waiter in self._waiters.values():
                if not waiter.done():
                    waiter.set_exception(fail)
            self._waiters.clear()

    async def request(self, payload: dict[str, Any]) -> GatewayResponse:
        """Send one op and await its response (safe to call concurrently)."""
        if self._closed:
            raise ConnectionError("client closed")
        request_id = next(self._ids)
        message = dict(payload)
        message["id"] = request_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters[request_id] = future
        async with self._lock:
            self._writer.write(encode_frame(encode_payload(message)))
            await self._writer.drain()
        try:
            return await future
        finally:
            self._waiters.pop(request_id, None)

    async def query(self, subspace: Sequence[int], variant: str = "FTPM") -> GatewayResponse:
        """Ask for the skyline on ``subspace``.  An integer dimension
        (numpy's included) travels as an ``int``; anything else — a
        float, a bool, a string — travels as it is, for the gateway to
        refuse, never truncated into another dimension."""
        return await self.request({
            "op": "query",
            "subspace": [
                int(d) if isinstance(d, numbers.Integral) and not isinstance(d, bool) else d
                for d in subspace
            ],
            "variant": variant,
        })

    async def update(self, kind: str, **fields: Any) -> GatewayResponse:
        """Send one live-update admin op (insert/delete/join/fail)."""
        return await self.request({"op": "update", "kind": kind, **fields})

    async def ping(self) -> GatewayResponse:
        return await self.request({"op": "ping"})

    async def stats(self) -> dict[str, Any]:
        response = await self.request({"op": "stats"})
        return dict(response.payload.get("stats", {}))

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "GatewayClient":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()
