"""The asyncio query gateway: many clients, one warm backend.

Everything below the protocol layer already exists — the persistent
:class:`~repro.parallel.ParallelEngine` keeps a warm worker pool with
zero-copy shared-memory data, and every network's scan memo replays
repeated scans — but the system still executed one query at a time
end-to-end.
:class:`QueryGateway` is the multi-tenant serving loop in front of it:

* **Framing reuse** — clients speak the same length-prefixed frames as
  the super-peer transport (:mod:`repro.p2p.transport`); payloads are
  the canonical-JSON messages of :mod:`repro.serving.proto`.
* **Coalescing** — in-flight identical ``(epoch, subspace, variant,
  k)`` requests share one backend execution whose result fans out to
  every waiter.  SKYPEER's answer for a subspace is initiator-
  independent, so the dedup is exact, not approximate; the property
  suite asserts coalesced responses are byte-identical to serial
  uncoalesced execution.
* **Admission control** — a bounded job queue (``max_pending``)
  sheds excess arrivals with ``queue_full``.  Shedding is an explicit
  response frame, never a silent drop or a hang.
* **Dispatch** — admitted jobs run on an executor thread through
  :func:`repro.skypeer.netexec.gateway_dispatch` (warm engine or
  serial).  A job whose waiters all disconnect before
  dispatch is abandoned, not executed.
* **Live updates** — the ``update`` admin op applies point
  inserts/deletes and peer joins/failures to the *served* network
  without a restart: with the engine backend it routes through
  :meth:`~repro.parallel.ParallelEngine.apply_update`, so the shm
  publication syncs only the touched super-peers' slots.  On every
  backend an update waits for the dispatches in flight and the next
  ones wait for it (an :class:`~repro.p2p.network.EpochGate`), so a
  query never sees some super-peers before an update and some after.
* **Shutdown** — ``close()`` is idempotent: queued jobs are shed,
  running dispatches get ``shutdown_timeout`` to finish, every future
  is resolved, and connections are drained then closed.  No request
  ever hangs across a shutdown.

The knobs are :class:`GatewayConfig` fields, set by the embedding
code (``skypeer serve`` sets ``host`` and ``port`` from its flags);
counters surface through :class:`GatewayStats`,
the ``serving.*`` metrics of :mod:`repro.obs`, and — when an engine is
attached — the engine's :class:`~repro.parallel.EngineStats`.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..data.workload import Query
from ..obs.runtime import active_metrics, active_tracer
from ..p2p.network import EpochGate
from ..p2p.transport import FrameDecoder, TransportError, encode_frame
from ..p2p.updates import UpdateRejected, check_incoming
from ..p2p.workload import apply_mutation, fresh_points, next_point_id
from ..skypeer.netexec import QueryAbandoned
from ..skypeer.variants import Variant
from .proto import (
    ERROR_BACKEND,
    ERROR_REQUEST,
    SHED_QUEUE_FULL,
    SHED_SHUTDOWN,
    ProtocolError,
    decode_payload,
    encode_payload,
    error_payload,
    ok_payload,
    shed_payload,
)

__all__ = [
    "GatewayConfig",
    "GatewayStats",
    "QueryGateway",
]

_READ_CHUNK = 1 << 16


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GatewayConfig:
    """Gateway knobs; no environment variable sets them.

    ``max_pending`` bounds the number of *distinct* jobs awaiting
    dispatch (coalesced waiters do not count — they add no backend
    work).  ``request_timeout`` is the per-connection read deadline: a
    client stalled mid-frame (the slow-loris shape) or idle with nothing
    in flight is dropped when it expires; a client merely waiting on its
    responses is not.  ``max_frame_bytes`` bounds one frame, and with it
    the coordinate bytes of a server-drawn ``random`` batch.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_pending: int = 64
    dispatchers: int = 4
    request_timeout: float = 30.0
    shutdown_timeout: float = 5.0
    max_frame_bytes: int = 8 << 20

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError("max_pending must be positive")
        if self.dispatchers < 1:
            raise ValueError("dispatchers must be positive")
        if self.request_timeout <= 0 or self.shutdown_timeout < 0:
            raise ValueError("timeouts must be positive")
        if self.max_frame_bytes < 64:
            raise ValueError("max_frame_bytes too small")


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------
@dataclass
class GatewayStats:
    """Everything the gateway counted (the ``stats`` op's ``stats``).

    ``executed + coalesce_hits + shed_total + errors + cancelled``
    accounts for every query request; ``queue_depth_peak`` is the
    deepest the admission queue ever got (its bound is
    ``max_pending``).
    """

    requests: int = 0
    queries: int = 0
    updates: int = 0
    updates_applied: int = 0
    ok: int = 0
    executed: int = 0
    coalesce_hits: int = 0
    shed_queue_full: int = 0
    shed_shutdown: int = 0
    cancelled_jobs: int = 0
    backend_errors: int = 0
    protocol_errors: int = 0
    midframe_disconnects: int = 0
    slow_client_drops: int = 0
    idle_drops: int = 0
    connections: int = 0
    queue_depth_peak: int = 0
    inflight_keys_peak: int = 0

    @property
    def shed_total(self) -> int:
        return self.shed_queue_full + self.shed_shutdown

    def shed_rate(self) -> float:
        return self.shed_total / self.queries if self.queries else 0.0

    def coalesce_hit_rate(self) -> float:
        served = self.executed + self.coalesce_hits
        return self.coalesce_hits / served if served else 0.0

    def as_dict(self) -> dict[str, Any]:
        out = dict(self.__dict__)
        out["shed_total"] = self.shed_total
        out["shed_rate"] = self.shed_rate()
        out["coalesce_hit_rate"] = self.coalesce_hit_rate()
        return out


class _Job:
    """One distinct admitted execution; waiters share its future."""

    __slots__ = ("key", "query", "variant", "future", "waiters", "started", "enqueued_at")

    def __init__(self, key: tuple, query: Query, variant: Variant, enqueued_at: float):
        self.key = key
        self.query = query
        self.variant = variant
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.waiters = 0
        self.started = False
        self.enqueued_at = enqueued_at

    @property
    def abandoned(self) -> bool:
        return self.waiters <= 0


class _Connection:
    """Per-client state: the writer, its lock, and request tasks."""

    __slots__ = ("reader", "writer", "lock", "tasks")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.lock = asyncio.Lock()
        self.tasks: set[asyncio.Task] = set()


def _integer(value: Any, field: str) -> int:
    """A request's integer field: a JSON integer, or a float whose value
    is whole.  A bool, a string or a fractional or non-finite number is
    refused, so ``3.9`` never reads as ``3``."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{field} must be an integer, got {value!r}")


# ----------------------------------------------------------------------
# the gateway
# ----------------------------------------------------------------------
class QueryGateway:
    """Accept, admit, coalesce, dispatch, fan out, shed — one loop.

    ``backend`` picks the execution path (``engine`` needs an attached
    :class:`~repro.parallel.ParallelEngine`; ``serial`` runs
    :func:`~repro.skypeer.executor.execute_query` on an executor
    thread).  ``dispatch`` overrides the whole backend call
    — the fault-injection suite substitutes failing/blocking fakes
    through this seam, exactly like the transport tests inject
    connectors and writers.
    """

    def __init__(
        self,
        network: Any,
        *,
        config: GatewayConfig | None = None,
        engine: Any = None,
        backend: str | None = None,
        dispatch: Callable[[Any, Query, Variant], Any] | None = None,
        executor: ThreadPoolExecutor | None = None,
        initiator: int | None = None,
    ):
        self.network = network
        self.config = config if config is not None else GatewayConfig()
        self.engine = engine
        self.backend = backend or ("engine" if engine is not None else "serial")
        if self.backend == "engine" and engine is None:
            raise ValueError("backend 'engine' needs an attached ParallelEngine")
        self.stats = GatewayStats()
        self.initiator = (
            initiator if initiator is not None else network.topology.superpeer_ids[0]
        )
        if self.initiator not in network.superpeers:
            raise KeyError(f"unknown initiator super-peer {self.initiator}")
        if dispatch is not None:
            self._dispatch = dispatch
        else:
            from ..skypeer.netexec import gateway_dispatch

            backend_name, attached = self.backend, engine

            def _default_dispatch(network: Any, query: Query, variant: Variant) -> Any:
                return gateway_dispatch(
                    network, query, variant, backend=backend_name, engine=attached
                )

            self._dispatch = _default_dispatch
        self._owns_executor = executor is None
        self._executor = executor
        self._server: asyncio.Server | None = None
        self._queue: asyncio.Queue = asyncio.Queue()
        self._inflight: dict[tuple, _Job] = {}
        self._dispatcher_tasks: list[asyncio.Task] = []
        self._connections: set[_Connection] = set()
        self._closing = False
        self._closed = False
        self.address: tuple[str, int] | None = None
        # Dispatches read the network and updates write it, on every
        # backend: a query sees the network before an update or after it.
        self._gate = EpochGate()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind, listen, and spin up the dispatcher tasks."""
        if self._server is not None:
            raise RuntimeError("gateway already started")
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.dispatchers,
                thread_name_prefix="repro-serve",
            )
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )
        bound = self._server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        self._dispatcher_tasks = [
            asyncio.ensure_future(self._dispatch_loop())
            for _ in range(self.config.dispatchers)
        ]
        return self.address

    async def close(self) -> None:
        """Shed queued work, drain running work, resolve every waiter.

        Idempotent and hang-free by construction: every job future is
        resolved before connections are torn down, dispatchers that
        outlive ``shutdown_timeout`` are cancelled (their job resolves
        to a ``shutdown`` shed), and a second ``close()`` returns
        immediately.
        """
        if self._closed or self._closing:
            self._closed = True
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Shed every job still queued (never started), then let running
        # dispatchers finish — or cancel them past the deadline.
        while True:
            try:
                job = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if job is not None:
                self._finish(job, shed_payload(SHED_SHUTDOWN), shed=SHED_SHUTDOWN)
        for _ in self._dispatcher_tasks:
            self._queue.put_nowait(None)
        if self._dispatcher_tasks:
            _, pending = await asyncio.wait(
                self._dispatcher_tasks, timeout=self.config.shutdown_timeout
            )
            for task in pending:
                task.cancel()
            for task in pending:
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        for job in list(self._inflight.values()):
            self._finish(job, shed_payload(SHED_SHUTDOWN), shed=SHED_SHUTDOWN)
        # Waiters now all hold resolved futures; give them a moment to
        # write their response frames before connections close.
        deadline = time.monotonic() + min(1.0, self.config.shutdown_timeout or 1.0)
        while time.monotonic() < deadline:
            tasks = [t for c in self._connections for t in c.tasks if not t.done()]
            if not tasks:
                break
            await asyncio.wait(tasks, timeout=max(0.01, deadline - time.monotonic()))
        for conn in list(self._connections):
            for task in list(conn.tasks):
                task.cancel()
            conn.writer.close()
        for conn in list(self._connections):
            for task in list(conn.tasks):
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._connections.clear()
        if self._owns_executor and self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self._closed = True

    async def __aenter__(self) -> "QueryGateway":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def queue_depth(self) -> int:
        """Distinct jobs awaiting dispatch right now."""
        return sum(1 for item in self._queue._queue if item is not None)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        self.stats.connections += 1
        decoder = FrameDecoder(self.config.max_frame_bytes)
        try:
            while not self._closing:
                try:
                    chunk = await asyncio.wait_for(
                        reader.read(_READ_CHUNK), self.config.request_timeout
                    )
                except asyncio.TimeoutError:
                    if decoder.pending_bytes:
                        # Slow-loris: a frame has been dangling past the
                        # whole read deadline.  Drop the client.
                        self.stats.slow_client_drops += 1
                        self._count("serving.slow_client_drops")
                        break
                    if any(not t.done() for t in conn.tasks):
                        continue  # quietly waiting on its responses
                    self.stats.idle_drops += 1
                    break
                if not chunk:
                    if decoder.pending_bytes:
                        self.stats.midframe_disconnects += 1
                        self._count("serving.midframe_disconnects")
                    break
                for blob in decoder.feed(chunk):
                    self._start_request(conn, blob)
        except (TransportError, ConnectionError, OSError):
            self.stats.protocol_errors += 1
        except asyncio.CancelledError:
            pass
        finally:
            self._connections.discard(conn)
            for task in list(conn.tasks):
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _start_request(self, conn: _Connection, blob: bytes) -> None:
        task = asyncio.ensure_future(self._serve_request(conn, blob))
        conn.tasks.add(task)
        task.add_done_callback(conn.tasks.discard)

    async def _serve_request(self, conn: _Connection, blob: bytes) -> None:
        self.stats.requests += 1
        try:
            payload = decode_payload(blob)
        except ProtocolError as exc:
            self.stats.protocol_errors += 1
            await self._write(
                conn, {**error_payload(str(exc), ERROR_REQUEST), "id": None}
            )
            return
        request_id = payload.get("id")
        op = payload.get("op", "query")
        if op == "ping":
            await self._write(conn, {"id": request_id, "status": "ok", "op": "pong"})
            return
        if op == "stats":
            reply = {"id": request_id, "status": "ok", "stats": self.stats.as_dict()}
            if self.engine is not None:
                reply["engine"] = self.engine.stats.as_dict()
            await self._write(conn, reply)
            return
        if op == "update":
            await self._serve_update(conn, payload, request_id)
            return
        if op != "query":
            self.stats.protocol_errors += 1
            await self._write(
                conn,
                {**error_payload(f"unknown op {op!r}", ERROR_REQUEST), "id": request_id},
            )
            return
        await self._serve_query(conn, payload, request_id)

    # ------------------------------------------------------------------
    # live updates (admin op)
    # ------------------------------------------------------------------
    async def _serve_update(self, conn: _Connection, payload: dict, request_id: Any) -> None:
        """Apply one insert/delete/join/fail to the *served* network.

        With the engine backend the mutation routes through
        :meth:`~repro.parallel.ParallelEngine.apply_update`, so live shm
        publications refresh incrementally (only the touched super-peer
        slots republish) and the report carries the delta bytes.  The
        serial backend applies the mutation directly — there is no
        publication to refresh.  On every backend it runs under
        the write side of the gateway's gate, so it waits for the
        dispatches in flight and the next ones wait for it.  The network
        epoch bumps, so queries admitted after this response never
        coalesce with pre-update jobs.
        """
        self.stats.updates += 1
        self._count("serving.updates")
        if self._closing:
            self._note_shed(SHED_SHUTDOWN)
            await self._write(conn, {**shed_payload(SHED_SHUTDOWN), "id": request_id})
            return
        try:
            kind, kwargs = self._parse_update(payload)
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            await self._reject_update(conn, exc, request_id)
            return
        except Exception as exc:
            # Anything else (a MemoryError, say) is the server's failure;
            # it still gets a reply, so no update request goes unanswered.
            await self._fail_update(conn, exc, request_id)
            return
        loop = asyncio.get_running_loop()
        try:
            report = await loop.run_in_executor(
                self._executor, self._run_update, kind, kwargs
            )
        except UpdateRejected as exc:
            # The network refused the target (an unknown peer or
            # super-peer, ids not or already held): what the client
            # sent, not a backend failure.
            await self._reject_update(conn, exc, request_id)
            return
        except Exception as exc:
            await self._fail_update(conn, exc, request_id)
            return
        self.stats.updates_applied += 1
        self._count("serving.updates_applied", kind=kind)
        await self._write(
            conn, {"id": request_id, "status": "ok", "op": "update", "update": report}
        )

    async def _reject_update(self, conn: _Connection, exc: Exception, request_id: Any) -> None:
        self.stats.protocol_errors += 1
        await self._write(
            conn, {**error_payload(f"bad update: {exc}", ERROR_REQUEST), "id": request_id}
        )

    async def _fail_update(self, conn: _Connection, exc: Exception, request_id: Any) -> None:
        self.stats.backend_errors += 1
        self._count("serving.backend_errors")
        await self._write(
            conn,
            {**error_payload(f"{type(exc).__name__}: {exc}", ERROR_BACKEND), "id": request_id},
        )

    def _parse_update(self, payload: dict) -> tuple[str, dict[str, Any]]:
        """Resolve an update payload to ``apply_update`` keyword args."""
        kind = payload.get("kind")
        if kind not in {"insert", "delete", "join", "fail", "fail-superpeer"}:
            raise ValueError(f"unknown update kind {kind!r}")
        kwargs: dict[str, Any] = {}
        if kind in ("insert", "delete", "fail"):
            kwargs["peer_id"] = _integer(payload["peer_id"], "peer_id")
        if kind == "insert":
            kwargs["points"] = self._parse_points(payload.get("points"))
        elif kind == "delete":
            raw_ids = payload.get("point_ids")
            if not isinstance(raw_ids, (list, tuple)) or not raw_ids:
                raise ValueError("point_ids must be a non-empty list")
            kwargs["point_ids"] = [_integer(pid, "point_ids") for pid in raw_ids]
        elif kind == "join":
            kwargs["superpeer_id"] = _integer(payload["superpeer_id"], "superpeer_id")
            kwargs["data"] = self._parse_points(
                payload.get("points", payload.get("data"))
            )
            if payload.get("peer_id") is not None:
                kwargs["peer_id"] = _integer(payload["peer_id"], "peer_id")
        elif kind == "fail-superpeer":
            kwargs["superpeer_id"] = _integer(payload["superpeer_id"], "superpeer_id")
        return kind, kwargs

    def _parse_points(self, raw: Any) -> Any:
        """Points for insert/join: explicit coordinates or server-drawn.

        ``{"random": n, "seed": s, "dataset": ...}`` asks the server to
        generate ``n`` fresh points (ids allocated past the network's
        current maximum); ``n`` may draw no more coordinate bytes than
        one frame (``max_frame_bytes``) can carry explicitly.  A list of
        coordinate rows — optionally wrapped as ``{"values": [...],
        "ids": [...]}`` — ships them explicitly.  Explicit rows are
        checked here (the network's dimensionality, finite, ids unique
        within the batch) so a bad batch is a ``bad update`` protocol
        error that never reaches the backend; ids another peer already
        holds are refused by the write itself (``UpdateRejected``).
        """
        import numpy as np

        from ..core.dataset import PointSet

        if isinstance(raw, Mapping) and "random" in raw:
            count = _integer(raw["random"], "random")
            if count < 1:
                raise ValueError("random point count must be positive")
            if count * self.network.dimensionality * 8 > self.config.max_frame_bytes:
                raise ValueError(
                    f"random point count {count} exceeds one frame's "
                    f"{self.config.max_frame_bytes} coordinate bytes"
                )
            return fresh_points(
                self.network,
                count,
                dataset=str(raw.get("dataset", "uniform")),
                seed=_integer(raw.get("seed", 0), "seed"),
            )
        if isinstance(raw, Mapping) and "values" in raw:
            values = np.asarray(raw["values"], dtype=np.float64)
            if "ids" in raw and raw["ids"] is not None:
                ids = np.asarray([_integer(i, "ids") for i in raw["ids"]], dtype=np.int64)
            else:
                start = next_point_id(self.network)
                ids = np.arange(start, start + values.shape[0], dtype=np.int64)
            points = PointSet(values, ids)
            check_incoming(self.network, points)
            return points
        if isinstance(raw, (list, tuple)) and raw:
            return self._parse_points({"values": raw})
        raise ValueError(f"points must be rows or a random spec, got {raw!r}")

    def _run_update(self, kind: str, kwargs: dict[str, Any]) -> dict[str, Any]:
        """Executor-thread entry: once in-flight dispatches drain, mutate
        through the backend's path."""
        with self._gate.write():
            if self.backend == "engine" and self.engine is not None:
                report = self.engine.apply_update(self.network, kind, **kwargs)
            else:
                report = apply_mutation(self.network, kind, **kwargs)
        return report.as_dict()

    # ------------------------------------------------------------------
    # admission + fan-out
    # ------------------------------------------------------------------
    async def _serve_query(self, conn: _Connection, payload: dict, request_id: Any) -> None:
        self.stats.queries += 1
        self._count("serving.requests")
        arrived = time.monotonic()
        admitted = self._admit(payload)
        if isinstance(admitted, dict):  # shed or error, already counted
            await self._write(conn, {**admitted, "id": request_id})
            return
        job, coalesced = admitted
        job.waiters += 1
        try:
            response = await job.future
        except asyncio.CancelledError:
            job.waiters -= 1
            raise
        resp = dict(response)
        resp["id"] = request_id
        resp["coalesced"] = coalesced
        await self._write(conn, resp)
        if resp.get("status") == "ok":
            self.stats.ok += 1
            latency = time.monotonic() - arrived
            metrics = active_metrics()
            if metrics is not None:
                metrics.histogram(
                    "serving.latency_seconds", variant=job.variant.value
                ).observe(latency)

    def _admit(self, payload: dict) -> dict | tuple[_Job, bool]:
        """Shed / reject / attach / enqueue one query request."""
        if self._closing:
            self._note_shed(SHED_SHUTDOWN)
            return shed_payload(SHED_SHUTDOWN)
        try:
            query, variant = self._parse_query(payload)
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            self.stats.protocol_errors += 1
            return error_payload(f"bad query: {exc}", ERROR_REQUEST)
        key = (
            self.network.epoch,
            tuple(query.subspace),
            variant.value,
            len(query.subspace),
        )
        job = self._inflight.get(key)
        if job is not None and not job.future.done():
            self.stats.coalesce_hits += 1
            self._count("serving.coalesce_hits")
            return job, True
        if self.queue_depth() >= self.config.max_pending:
            self._note_shed(SHED_QUEUE_FULL)
            return shed_payload(SHED_QUEUE_FULL)
        job = _Job(key, query, variant, time.monotonic())
        self._inflight[key] = job
        self.stats.inflight_keys_peak = max(
            self.stats.inflight_keys_peak, len(self._inflight)
        )
        self._queue.put_nowait(job)
        self.stats.queue_depth_peak = max(
            self.stats.queue_depth_peak, self.queue_depth()
        )
        return job, False

    def _parse_query(self, payload: dict) -> tuple[Query, Variant]:
        from ..core.subspace import normalize_subspace

        raw = payload.get("subspace")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ValueError(f"subspace must be a non-empty list, got {raw!r}")
        subspace = normalize_subspace(
            tuple(_integer(dim, "subspace") for dim in raw), self.network.dimensionality
        )
        variant = Variant.parse(payload.get("variant", "FTPM"))
        return Query(subspace=tuple(subspace), initiator=self.initiator), variant

    def _note_shed(self, reason: str) -> None:
        if reason == SHED_QUEUE_FULL:
            self.stats.shed_queue_full += 1
        else:
            self.stats.shed_shutdown += 1
        self._count("serving.shed", reason=reason)

    def _count(self, name: str, **labels: Any) -> None:
        metrics = active_metrics()
        if metrics is not None:
            metrics.counter(name, **labels).inc()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            if job is None:
                return
            if job.abandoned:
                self._reap_abandoned(job)
                continue
            job.started = True
            started = time.monotonic()
            wall_started = time.perf_counter()
            try:
                store = await loop.run_in_executor(self._executor, self._run_job, job)
            except asyncio.CancelledError:
                self._finish(job, shed_payload(SHED_SHUTDOWN), shed=SHED_SHUTDOWN)
                raise
            except QueryAbandoned:
                # The last waiter left while the job sat in the executor's
                # queue: a cancellation, like the check above.
                self._reap_abandoned(job)
                continue
            except Exception as exc:
                self.stats.backend_errors += 1
                self._count("serving.backend_errors")
                self._finish(
                    job,
                    error_payload(f"{type(exc).__name__}: {exc}", ERROR_BACKEND),
                    shed=None,
                )
                continue
            elapsed = time.monotonic() - started
            self.stats.executed += 1
            self._count("serving.executed", variant=job.variant.value)
            tracer = active_tracer()
            if tracer is not None:
                tracer.interval(
                    "gateway dispatch", category="serving", track="gateway",
                    start=wall_started, end=time.perf_counter(), clock="wall",
                    variant=job.variant.value,
                    subspace=str(tuple(job.query.subspace)),
                    waiters=job.waiters,
                )
            self._finish(job, ok_payload(store, elapsed), shed=None)

    def _reap_abandoned(self, job: _Job) -> None:
        """Retire a job nobody waits for: counted cancelled, never an error."""
        self.stats.cancelled_jobs += 1
        self._count("serving.cancelled_jobs")
        self._finish(job, shed_payload(SHED_SHUTDOWN), shed=None)

    def _run_job(self, job: _Job) -> Any:
        """Executor-thread entry: last-moment abandon check, then run."""
        if job.abandoned:
            raise QueryAbandoned(f"all waiters left before dispatch of {job.key}")
        with self._gate.read():
            return self._dispatch(self.network, job.query, job.variant)

    def _finish(self, job: _Job, payload: dict, shed: str | None) -> None:
        """Resolve a job's future and retire its coalescing key."""
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        if not job.future.done():
            job.future.set_result(payload)
        if shed is not None:
            self._note_shed(shed)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    async def _write(self, conn: _Connection, payload: dict) -> None:
        frame = encode_frame(encode_payload(payload))
        try:
            async with conn.lock:
                conn.writer.write(frame)
                await conn.writer.drain()
        except (ConnectionError, OSError):
            pass  # the waiter vanished; its job already ran or shed
