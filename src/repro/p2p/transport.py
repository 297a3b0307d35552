"""Asyncio socket transport: SKYPEER messages over real TCP.

The discrete-event carrier (:mod:`repro.p2p.engine`) *models*
communication; this module actually moves the
:mod:`repro.p2p.wire` byte stream between endpoints, so the cost
model's byte estimates can be checked against measured wire traffic.

Layering, bottom up:

* **Framing** — TCP is a byte stream, so each wire message travels as
  one length-delimited frame: a 4-byte little-endian length prefix
  followed by the encoded message (whose own header carries a second,
  interior length — the frame makes short reads detectable *before*
  the wire codec runs).  :class:`FrameDecoder` is the sans-IO
  incremental decoder; :func:`read_frame` is its asyncio-streams twin.
* **Endpoints** — :class:`SocketEndpoint` gives one participant a
  listening server plus lazily-created, per-destination outbound
  connections.  Each destination has its own FIFO queue drained by a
  sender task, which preserves the per-``(src, dst)`` message order
  the protocol's termination argument needs.  Connects retry with
  exponential backoff; writes carry timeouts; ``close()`` flushes and
  tears everything down.
* **Configuration** — :class:`TransportConfig` holds every setting as a
  validated field with a default (see ``docs/TRANSPORT.md``); a caller
  that wants others passes its own instance.

The endpoint is deliberately protocol-agnostic: it moves opaque frames
and counts bytes.  :mod:`repro.skypeer.netexec` wires
:class:`repro.skypeer.protocol.ProtocolNode` state machines to
endpoints, all in one event loop, and owns the wire codec boundary.
"""

from __future__ import annotations

import asyncio
import struct
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Mapping

__all__ = [
    "FRAME_HEAD_BYTES",
    "EndpointStats",
    "FrameDecoder",
    "SocketEndpoint",
    "TransportConfig",
    "TransportError",
    "encode_frame",
    "read_frame",
]

_FRAME_HEAD = struct.Struct("<I")
_HELLO = struct.Struct("<q")

FRAME_HEAD_BYTES = _FRAME_HEAD.size

#: Sentinel closing an outbound queue.
_CLOSE = object()


class TransportError(RuntimeError):
    """A connection could not be established or a frame not delivered."""


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TransportConfig:
    """Socket-transport settings; ``__post_init__`` validates them."""

    host: str = "127.0.0.1"
    connect_timeout: float = 5.0
    io_timeout: float = 30.0
    retries: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    max_frame_bytes: int = 64 << 20

    def __post_init__(self) -> None:
        if self.connect_timeout <= 0 or self.io_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be non-negative and non-shrinking")
        if self.max_frame_bytes < FRAME_HEAD_BYTES:
            raise ValueError("max_frame_bytes too small")

    def backoff_delay(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (0-based, exponential)."""
        return self.backoff_base * (self.backoff_factor**attempt)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(blob: bytes) -> bytes:
    """Length-prefix one message for the stream."""
    return _FRAME_HEAD.pack(len(blob)) + blob


class FrameDecoder:
    """Incremental (sans-IO) frame decoder: feed chunks, get frames.

    Chunk boundaries are arbitrary — a frame may arrive one byte at a
    time or many frames in one read; ``feed`` returns every frame
    completed by the chunk, in order.
    """

    def __init__(self, max_frame_bytes: int = TransportConfig.max_frame_bytes):
        self._buffer = bytearray()
        self._max = max_frame_bytes

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards an incomplete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        self._buffer.extend(data)
        frames: list[bytes] = []
        while len(self._buffer) >= FRAME_HEAD_BYTES:
            (length,) = _FRAME_HEAD.unpack_from(self._buffer, 0)
            if length > self._max:
                raise TransportError(f"frame of {length} bytes exceeds limit {self._max}")
            end = FRAME_HEAD_BYTES + length
            if len(self._buffer) < end:
                break
            frames.append(bytes(self._buffer[FRAME_HEAD_BYTES:end]))
            del self._buffer[:end]
        return frames


async def read_frame(
    reader: asyncio.StreamReader,
    max_frame_bytes: int = TransportConfig.max_frame_bytes,
) -> bytes | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    EOF in the middle of a frame — the TCP short read the wire codec's
    truncation guards exist for — raises :class:`TransportError`.
    """
    try:
        head = await reader.readexactly(FRAME_HEAD_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise TransportError("connection closed inside a frame header") from exc
    (length,) = _FRAME_HEAD.unpack(head)
    if length > max_frame_bytes:
        raise TransportError(f"frame of {length} bytes exceeds limit {max_frame_bytes}")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TransportError(
            f"connection closed after {len(exc.partial)} of {length} payload bytes"
        ) from exc


# ----------------------------------------------------------------------
# endpoint
# ----------------------------------------------------------------------
@dataclass
class EndpointStats:
    """Measured traffic of one endpoint.

    ``payload``  — wire-message bytes (exactly what the cost model is
    estimating); ``frame`` adds the 4-byte length prefixes and the
    one-off hello frames, i.e. bytes actually written to / read from
    the sockets.
    """

    payload_bytes_sent: int = 0
    payload_bytes_received: int = 0
    frame_bytes_sent: int = 0
    frame_bytes_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    connects: int = 0
    retries: int = 0
    reconnects: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class _Outbound:
    """One destination's FIFO queue plus the sender task draining it."""

    def __init__(self) -> None:
        self.queue: asyncio.Queue = asyncio.Queue()
        self.task: asyncio.Task | None = None
        self.closed = False


class SocketEndpoint:
    """One transport participant: a server plus outbound connections.

    ``handler(src, blob)`` runs in the event loop for every received
    message, in per-connection arrival order.  ``send`` never blocks:
    it enqueues onto the destination's FIFO queue, whose sender task
    owns the (lazily established, retried, reconnected) connection.
    """

    def __init__(
        self,
        endpoint_id: int,
        handler: Callable[[int, bytes], None],
        config: TransportConfig | None = None,
        *,
        connector: Callable[[str, int], Awaitable] | None = None,
        sleep: Callable[[float], Awaitable[None]] | None = None,
    ):
        self.endpoint_id = endpoint_id
        self.stats = EndpointStats()
        self._handler = handler
        self._config = config if config is not None else TransportConfig()
        self._connector: Callable[[str, int], Awaitable[Any]] = (
            connector if connector is not None else asyncio.open_connection
        )
        self._sleep: Callable[[float], Awaitable[None]] = (
            sleep if sleep is not None else asyncio.sleep
        )
        self._peers: dict[int, tuple[str, int]] = {}
        self._outbound: dict[int, _Outbound] = {}
        self._server: asyncio.Server | None = None
        self._serving: set[asyncio.Task] = set()
        self.address: tuple[str, int] | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(self._serve, self._config.host, 0)
        bound = self._server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        return self.address

    def set_peers(self, peers: Mapping[int, tuple[str, int]]) -> None:
        """Install the endpoint-id → address map (the "routing table")."""
        self._peers = dict(peers)

    async def flush(self) -> None:
        """Wait until every queued outbound frame has been written."""
        for dst, channel in list(self._outbound.items()):
            if channel.task is not None and channel.task.done():
                self._reraise(dst, channel)
            await channel.queue.join()
            if channel.task is not None and channel.task.done():
                self._reraise(dst, channel)

    async def close_outbound(self) -> None:
        """Close every outbound connection (peers' readers see EOF).

        Cluster teardown closes *all* endpoints' outbound sides first,
        so every server-side reader task ends on a clean EOF instead of
        being cancelled mid-read.  Idempotent.
        """
        for channel in self._outbound.values():
            if not channel.closed:
                channel.closed = True
                channel.queue.put_nowait(_CLOSE)
        for channel in list(self._outbound.values()):
            if channel.task is not None:
                try:
                    await channel.task
                except asyncio.CancelledError:  # pragma: no cover - teardown
                    pass
                except Exception:
                    # Close must not mask the first failure: sender-task
                    # errors were already surfaced by flush()/send().
                    pass

    async def close(self) -> None:
        """Graceful shutdown: flush queues, close connections, stop
        listening.  Safe to call more than once."""
        await self.close_outbound()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._serving:
            # Give readers a moment to drain the EOFs, then cancel.
            await asyncio.wait(list(self._serving), timeout=1.0)
        for task in list(self._serving):
            task.cancel()
        for task in list(self._serving):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._serving.clear()

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, dst: int, blob: bytes) -> None:
        """Queue one message for ``dst`` (FIFO per destination)."""
        channel = self._outbound.get(dst)
        if channel is None:
            channel = _Outbound()
            channel.task = asyncio.ensure_future(self._sender(dst, channel))
            self._outbound[dst] = channel
        if channel.task is not None and channel.task.done():
            self._reraise(dst, channel)
        if channel.closed:
            raise TransportError(f"endpoint {self.endpoint_id} is closing")
        channel.queue.put_nowait(blob)

    def _reraise(self, dst: int, channel: _Outbound) -> None:
        exc = channel.task.exception() if channel.task is not None else None
        if exc is not None:
            raise TransportError(f"sender {self.endpoint_id}->{dst} failed: {exc}") from exc

    async def _sender(self, dst: int, channel: _Outbound) -> None:
        writer = None
        try:
            while True:
                blob = await channel.queue.get()
                if blob is _CLOSE:
                    channel.queue.task_done()
                    break
                try:
                    if writer is None:
                        writer = await self._open(dst)
                    writer = await self._write(dst, writer, blob)
                finally:
                    channel.queue.task_done()
        except Exception:
            # The channel is dead: mark it closed and unblock any
            # flush() waiting on queue.join() — the frames still queued
            # will never leave, and flush()/send() re-raise our failure.
            channel.closed = True
            while not channel.queue.empty():
                channel.queue.get_nowait()
                channel.queue.task_done()
            raise
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):  # pragma: no cover
                    pass

    async def _open(self, dst: int):
        """Connect to ``dst`` with retry + exponential backoff, then
        introduce ourselves with a hello frame."""
        if dst not in self._peers:
            raise TransportError(f"no address known for endpoint {dst}")
        host, port = self._peers[dst]
        attempt = 0
        while True:
            try:
                _, writer = await asyncio.wait_for(
                    self._connector(host, port), self._config.connect_timeout
                )
                break
            except (OSError, asyncio.TimeoutError) as exc:
                if attempt >= self._config.retries:
                    raise TransportError(
                        f"connect {self.endpoint_id}->{dst} ({host}:{port}) "
                        f"failed after {attempt + 1} attempts: {exc!r}"
                    ) from exc
                self.stats.retries += 1
                await self._sleep(self._config.backoff_delay(attempt))
                attempt += 1
        self.stats.connects += 1
        hello = encode_frame(_HELLO.pack(self.endpoint_id))
        writer.write(hello)
        await asyncio.wait_for(writer.drain(), self._config.io_timeout)
        self.stats.frame_bytes_sent += len(hello)
        return writer

    async def _write(self, dst: int, writer, blob: bytes):
        """Write one frame; on a broken connection, reconnect once's
        worth of retry budget and resend the frame."""
        frame = encode_frame(blob)
        try:
            writer.write(frame)
            await asyncio.wait_for(writer.drain(), self._config.io_timeout)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            writer.close()
            self.stats.reconnects += 1
            writer = await self._open(dst)
            writer.write(frame)
            await asyncio.wait_for(writer.drain(), self._config.io_timeout)
        self.stats.messages_sent += 1
        self.stats.payload_bytes_sent += len(blob)
        self.stats.frame_bytes_sent += len(frame)
        return writer

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    async def _serve(self, reader: asyncio.StreamReader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._serving.add(task)
        try:
            hello = await read_frame(reader, self._config.max_frame_bytes)
            if hello is None:
                return
            if len(hello) != _HELLO.size:
                raise TransportError(f"malformed hello frame ({len(hello)} bytes)")
            (src,) = _HELLO.unpack(hello)
            self.stats.frame_bytes_received += FRAME_HEAD_BYTES + len(hello)
            while True:
                blob = await read_frame(reader, self._config.max_frame_bytes)
                if blob is None:
                    return
                self.stats.messages_received += 1
                self.stats.payload_bytes_received += len(blob)
                self.stats.frame_bytes_received += FRAME_HEAD_BYTES + len(blob)
                self._handler(src, blob)
        except asyncio.CancelledError:
            # Teardown cancellation.  Swallowing it here (instead of
            # re-raising) keeps asyncio's StreamReaderProtocol callback
            # from logging a spurious "Exception in callback".
            pass
        except TransportError:
            # A peer vanished mid-frame; drop the connection.  The
            # protocol layer notices through its own completion logic.
            pass
        finally:
            if task is not None:
                self._serving.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
