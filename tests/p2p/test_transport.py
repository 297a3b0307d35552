"""Unit tests for the asyncio socket transport (framing, retries, timeouts)."""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p2p.transport import (
    FRAME_HEAD_BYTES,
    FrameDecoder,
    SocketEndpoint,
    TransportConfig,
    TransportError,
    encode_frame,
    read_frame,
)


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_encode_prefixes_length(self):
        frame = encode_frame(b"hello")
        assert len(frame) == FRAME_HEAD_BYTES + 5
        assert frame[FRAME_HEAD_BYTES:] == b"hello"

    def test_decoder_single_frame(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(b"abc")) == [b"abc"]
        assert decoder.pending_bytes == 0

    def test_decoder_handles_split_and_coalesced_frames(self):
        blobs = [b"first", b"", b"x" * 1000]
        stream = b"".join(encode_frame(b) for b in blobs)
        # feed one byte at a time: worst-case fragmentation
        decoder = FrameDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert out == blobs
        assert decoder.pending_bytes == 0
        # feed everything at once: maximal coalescing
        decoder = FrameDecoder()
        assert decoder.feed(stream) == blobs

    def test_decoder_rejects_oversized_frame(self):
        decoder = FrameDecoder(max_frame_bytes=16)
        with pytest.raises(TransportError, match="exceeds"):
            decoder.feed(encode_frame(b"y" * 17))

    @settings(max_examples=60, deadline=None)
    @given(
        blobs=st.lists(st.binary(max_size=200), max_size=8),
        chunk=st.integers(min_value=1, max_value=64),
    )
    def test_roundtrip_any_fragmentation(self, blobs, chunk):
        """Frames survive arbitrary payloads cut at arbitrary boundaries."""
        stream = b"".join(encode_frame(b) for b in blobs)
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(stream), chunk):
            out.extend(decoder.feed(stream[i : i + chunk]))
        assert out == blobs
        assert decoder.pending_bytes == 0

    def test_read_frame_roundtrip_and_eof(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(b"payload"))
            reader.feed_eof()
            first = await read_frame(reader)
            second = await read_frame(reader)
            return first, second

        first, second = run(scenario())
        assert first == b"payload"
        assert second is None  # clean EOF at a frame boundary

    def test_read_frame_mid_frame_eof_is_an_error(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(b"payload")[:-2])
            reader.feed_eof()
            await read_frame(reader)

        with pytest.raises(TransportError, match="connection closed"):
            run(scenario())

    def test_read_frame_enforces_max_size(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(b"z" * 100))
            await read_frame(reader, max_frame_bytes=50)

        with pytest.raises(TransportError, match="exceeds"):
            run(scenario())


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
class TestTransportConfig:
    def test_defaults_are_sane(self):
        config = TransportConfig()
        assert config.retries >= 1
        assert config.connect_timeout > 0
        assert config.io_timeout > 0

    def test_backoff_is_exponential(self):
        config = TransportConfig(backoff_base=0.1, backoff_factor=2.0)
        delays = [config.backoff_delay(a) for a in range(4)]
        assert delays == [0.1, 0.2, 0.4, 0.8]

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            TransportConfig(retries=-1)
        with pytest.raises(ValueError):
            TransportConfig(io_timeout=-1.0)
        with pytest.raises(ValueError):
            TransportConfig(backoff_factor=0.5)


# ----------------------------------------------------------------------
# endpoint pairs over real sockets
# ----------------------------------------------------------------------
class TestSocketEndpoint:
    def test_two_endpoints_exchange_messages(self):
        async def scenario():
            received = {1: [], 2: []}
            a = SocketEndpoint(1, lambda src, blob: received[1].append((src, blob)))
            b = SocketEndpoint(2, lambda src, blob: received[2].append((src, blob)))
            try:
                addresses = {1: await a.start(), 2: await b.start()}
                a.set_peers(addresses)
                b.set_peers(addresses)
                a.send(2, b"ping")
                b.send(1, b"pong")
                a.send(2, b"again")
                await a.flush()
                await b.flush()
                await asyncio.sleep(0.05)  # let handlers run
            finally:
                await a.close_outbound()
                await b.close_outbound()
                await a.close()
                await b.close()
            return received

        received = run(scenario())
        assert received[2] == [(1, b"ping"), (1, b"again")]
        assert received[1] == [(2, b"pong")]

    def test_stats_count_bytes_both_sides(self):
        async def scenario():
            a = SocketEndpoint(1, lambda src, blob: None)
            b = SocketEndpoint(2, lambda src, blob: None)
            try:
                addresses = {1: await a.start(), 2: await b.start()}
                a.set_peers(addresses)
                a.send(2, b"x" * 100)
                await a.flush()
                await asyncio.sleep(0.05)
            finally:
                await a.close_outbound()
                await b.close_outbound()
                await a.close()
                await b.close()
            return a.stats, b.stats

        sent, got = run(scenario())
        assert sent.messages_sent == 1
        assert sent.payload_bytes_sent == 100
        assert sent.frame_bytes_sent > 100  # length prefix + hello frame
        assert got.messages_received == 1
        assert got.payload_bytes_received == 100

    def test_send_to_unknown_peer_surfaces_through_flush(self):
        async def scenario():
            a = SocketEndpoint(1, lambda src, blob: None)
            try:
                await a.start()
                a.set_peers({1: ("127.0.0.1", 1)})
                a.send(99, b"void")
                await a.flush()
            finally:
                await a.close_outbound()
                await a.close()

        with pytest.raises(TransportError, match="no address known"):
            run(scenario())


# ----------------------------------------------------------------------
# retry / backoff / timeout against injected fakes
# ----------------------------------------------------------------------
class FlakyConnector:
    """A connector that fails ``failures`` times before succeeding."""

    def __init__(self, failures: int, exc: Exception | None = None):
        self.failures = failures
        self.calls = 0
        self.exc = exc if exc is not None else ConnectionRefusedError("flaky")

    async def __call__(self, host, port):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        reader = asyncio.StreamReader()
        writer = _NullWriter()
        return reader, writer


class _NullWriter:
    """A StreamWriter stand-in that swallows everything."""

    def __init__(self):
        self.data = b""
        self.closed = False

    def write(self, data):
        self.data += data

    async def drain(self):
        pass

    def close(self):
        self.closed = True

    async def wait_closed(self):
        pass

    def is_closing(self):
        return self.closed


class TestRetryBackoff:
    def _endpoint(self, connector, sleeps, retries=3):
        config = TransportConfig(
            retries=retries, backoff_base=0.05, backoff_factor=2.0
        )

        async def sleep(delay):
            sleeps.append(delay)

        endpoint = SocketEndpoint(
            1, lambda src, blob: None, config,
            connector=connector, sleep=sleep,
        )
        endpoint.set_peers({2: ("127.0.0.1", 9)})
        return endpoint

    def test_connect_retries_with_exponential_backoff(self):
        sleeps: list[float] = []
        connector = FlakyConnector(failures=2)

        async def scenario():
            endpoint = self._endpoint(connector, sleeps)
            endpoint.send(2, b"eventually")
            await endpoint.flush()
            await endpoint.close_outbound()
            return endpoint.stats

        stats = run(scenario())
        assert connector.calls == 3  # 2 failures + 1 success
        assert sleeps == [0.05, 0.1]  # backoff doubled between attempts
        assert stats.retries == 2
        assert stats.messages_sent == 1

    def test_connect_gives_up_after_max_retries(self):
        sleeps: list[float] = []
        connector = FlakyConnector(failures=100)

        async def scenario():
            endpoint = self._endpoint(connector, sleeps, retries=3)
            endpoint.send(2, b"never")
            await endpoint.flush()

        # retries=3 means three retries after the initial attempt
        with pytest.raises(TransportError, match="after 4 attempts"):
            run(scenario())
        assert connector.calls == 4
        assert sleeps == [0.05, 0.1, 0.2]  # no sleep after the final failure

    def test_connect_timeout_counts_as_a_retry(self):
        sleeps: list[float] = []

        async def hanging_connector(host, port):
            await asyncio.sleep(3600)

        config = TransportConfig(
            connect_timeout=0.01, retries=2, backoff_base=0.01
        )

        async def sleep(delay):
            sleeps.append(delay)

        async def scenario():
            endpoint = SocketEndpoint(
                1, lambda src, blob: None, config,
                connector=hanging_connector, sleep=sleep,
            )
            endpoint.set_peers({2: ("127.0.0.1", 9)})
            endpoint.send(2, b"stuck")
            await endpoint.flush()

        with pytest.raises(TransportError, match="after 3 attempts"):
            run(scenario())
        assert len(sleeps) == 2

    def test_dropped_connection_triggers_one_reconnect(self):
        class DroppingWriter(_NullWriter):
            """Accepts the hello frame, then drops the connection once."""

            def __init__(self):
                super().__init__()
                self.writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes == 2:  # first payload after the hello
                    raise ConnectionResetError("gone")
                super().write(data)

        writers: list[_NullWriter] = []

        async def connector(host, port):
            writer = DroppingWriter() if not writers else _NullWriter()
            writers.append(writer)
            return asyncio.StreamReader(), writer

        async def scenario():
            endpoint = SocketEndpoint(
                1, lambda src, blob: None, TransportConfig(),
                connector=connector, sleep=lambda d: asyncio.sleep(0),
            )
            endpoint.set_peers({2: ("127.0.0.1", 9)})
            endpoint.send(2, b"resent")
            await endpoint.flush()
            await endpoint.close_outbound()
            return endpoint.stats

        stats = run(scenario())
        assert len(writers) == 2  # original + reconnect
        assert stats.reconnects == 1
        assert stats.messages_sent == 1
        assert b"resent" in writers[1].data

    def test_failed_sender_unblocks_flush_and_surfaces_error(self):
        """A dead channel must not wedge ``flush()`` on queued items."""
        connector = FlakyConnector(failures=100)

        async def scenario():
            config = TransportConfig(retries=1, backoff_base=0.0)
            endpoint = SocketEndpoint(
                1, lambda src, blob: None, config,
                connector=connector, sleep=lambda d: asyncio.sleep(0),
            )
            endpoint.set_peers({2: ("127.0.0.1", 9)})
            endpoint.send(2, b"one")
            endpoint.send(2, b"two")
            endpoint.send(2, b"three")
            await asyncio.wait_for(endpoint.flush(), timeout=5.0)

        with pytest.raises(TransportError):
            run(scenario())
