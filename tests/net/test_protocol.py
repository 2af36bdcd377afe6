"""Wire protocol: framing, checksums, the array codec, pooled endpoints."""

from __future__ import annotations

import socket
import threading
import time
import zlib

import numpy as np
import pytest

from repro.errors import (
    DeadlineExpiredError,
    FrameCorruptError,
    RpcTransportError,
    ServingError,
)
from repro.net.protocol import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    POOL_SIZE,
    ShardEndpoint,
    pack_array,
    recv_frame,
    send_frame,
    unpack_array,
)


def _raw_frame(payload: bytes, checksum: int | None = None) -> bytes:
    """A hand-built frame; ``checksum=None`` computes the correct CRC."""
    if checksum is None:
        checksum = zlib.crc32(payload)
    return FRAME_HEADER.pack(len(payload), checksum) + payload


class TestArrayCodec:
    def test_roundtrip_is_bit_identical(self, rng):
        array = rng.normal(0.0, 1.0, 57)
        decoded = unpack_array(pack_array(array))
        assert decoded.dtype == np.float64
        assert decoded.tobytes() == array.astype(np.float64).tobytes()

    def test_roundtrip_preserves_shape(self, rng):
        array = rng.random((3, 4))
        assert unpack_array(pack_array(array)).shape == (3, 4)

    def test_special_values_survive(self):
        array = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-308])
        decoded = unpack_array(pack_array(array))
        assert decoded.tobytes() == array.tobytes()

    def test_malformed_payload_is_typed(self):
        with pytest.raises(ServingError, match="malformed packed array"):
            unpack_array({"shape": [2], "b64": "!!not base64!!"})
        with pytest.raises(ServingError):
            unpack_array({"shape": [2]})


class TestFraming:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            message = {"op": "ping", "vec": pack_array(np.arange(4.0))}
            send_frame(a, message)
            received = recv_frame(b)
            assert received["op"] == "ping"
            assert np.array_equal(
                unpack_array(received["vec"]), np.arange(4.0)
            )
        finally:
            a.close()
            b.close()

    def test_oversized_length_prefix_is_refused(self):
        a, b = socket.socketpair()
        try:
            a.sendall(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1, 0))
            with pytest.raises(ServingError, match="exceeds protocol limit"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_garbage_payload_is_typed(self):
        a, b = socket.socketpair()
        try:
            a.sendall(_raw_frame(b"\xff\xfe not json"))
            with pytest.raises(ServingError, match="malformed frame"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_eof_mid_frame_is_typed(self):
        a, b = socket.socketpair()
        try:
            a.sendall(FRAME_HEADER.pack(100, 0) + b"short")
            a.close()
            with pytest.raises(RpcTransportError, match="closed mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_non_object_frame_is_refused(self):
        a, b = socket.socketpair()
        try:
            a.sendall(_raw_frame(b"[1, 2, 3]"))
            with pytest.raises(ServingError, match="JSON object"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_checksum_mismatch_is_detected_before_decode(self):
        a, b = socket.socketpair()
        try:
            # A frame whose payload was flipped in flight: the CRC no
            # longer matches, and the (invalid) JSON is never decoded.
            payload = b'{"op": "ping"}'
            bad = bytearray(payload)
            bad[3] ^= 0xFF
            a.sendall(_raw_frame(bytes(bad), checksum=zlib.crc32(payload)))
            with pytest.raises(FrameCorruptError, match="checksum mismatch"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_corruption_error_is_transient_and_typed(self):
        # The retry loop keys off RpcTransportError; a corrupt frame
        # must be retry-safe, not a terminal ServingError.
        assert issubclass(FrameCorruptError, RpcTransportError)
        assert issubclass(RpcTransportError, ServingError)


class _EchoServer:
    """Answers every frame with ``{"ok": true, "echo": <request>}``."""

    def __init__(self):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn):
        with conn:
            while True:
                try:
                    request = recv_frame(conn)
                    send_frame(conn, {"ok": True, "echo": request})
                except (ServingError, OSError):
                    return

    def close(self):
        self._listener.close()


@pytest.fixture()
def echo():
    server = _EchoServer()
    yield server
    server.close()


class TestShardEndpoint:
    def test_call_roundtrips(self, echo):
        endpoint = ShardEndpoint(0, "127.0.0.1", echo.port)
        try:
            response = endpoint.call({"op": "ping", "n": 7})
            assert response["echo"]["n"] == 7
        finally:
            endpoint.close()

    def test_connections_are_pooled_and_reused(self, echo):
        endpoint = ShardEndpoint(0, "127.0.0.1", echo.port)
        try:
            for _ in range(8):
                endpoint.call({"op": "ping"})
            assert len(endpoint._idle) <= POOL_SIZE
            assert endpoint._created == 1  # one connection served all eight
        finally:
            endpoint.close()

    def test_reset_repoints_at_new_address(self, echo):
        endpoint = ShardEndpoint(0, "127.0.0.1", 1)  # nothing listens here
        with pytest.raises(ServingError):
            endpoint.call({"op": "ping"})
        endpoint.reset("127.0.0.1", echo.port)
        try:
            assert endpoint.call({"op": "ping"})["ok"] is True
            assert endpoint.address == ("127.0.0.1", echo.port)
        finally:
            endpoint.close()

    def test_expired_deadline_raises_typed_error_up_front(self, echo):
        endpoint = ShardEndpoint(0, "127.0.0.1", echo.port)
        try:
            with pytest.raises(DeadlineExpiredError, match="before shard call"):
                endpoint.call({"op": "ping"}, time.perf_counter() - 0.01)
            # Terminal by contract: the retry loop must not spin on it.
            assert not issubclass(DeadlineExpiredError, RpcTransportError)
        finally:
            endpoint.close()
