"""Wire protocol: checksummed length-prefixed JSON frames + array codec.

Every message between the coordinator and a shard worker is one frame:
an 8-byte header — 4-byte big-endian unsigned length, then the 4-byte
CRC32 of the payload — followed by that many bytes of UTF-8 JSON.  The
checksum means corruption on the wire is *detected* at the framing
layer (:class:`~repro.errors.FrameCorruptError`), never silently
JSON-decoded into a wrong answer.  Feature vectors ride inside the JSON
as base64 of their raw float64 bytes — JSON numbers would round-trip
through ``repr`` and are slower to parse, and the merge-exactness
guarantee needs the exact bits either way.

Transport failures raise typed errors: a reset/refused/truncated
connection is :class:`~repro.errors.RpcTransportError` (transient —
every shard op is idempotent, so the coordinator retries within the
query deadline), an exhausted deadline is
:class:`~repro.errors.DeadlineExpiredError` (terminal).  Four seeded
fault points (``net.connect_refused``, ``net.frame_corrupt``,
``net.frame_truncated``, ``net.conn_reset``) let chaos plans inject
each failure on demand; all are free when no plan is armed.

The :class:`RpcClient` keeps one persistent connection and serialises
calls on it; :class:`ShardEndpoint` pools several clients per shard so
concurrent queries fan out without queueing behind each other, and can
be re-pointed at a new address when the cluster respawns a dead worker.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
import threading
import time
import zlib

import numpy as np

from repro.errors import (
    DeadlineExpiredError,
    FaultInjectedError,
    FrameCorruptError,
    RpcTransportError,
    ServingError,
    WorkerDrainingError,
)
from repro.resilience.faults import corrupt_payload, fault_point

#: Frames larger than this are refused on both ends (corrupt length
#: prefixes must not trigger gigabyte allocations).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Frame header: payload length, then CRC32 of the payload bytes.
FRAME_HEADER = struct.Struct("!II")

#: Connections one :class:`ShardEndpoint` keeps to its worker at most.
POOL_SIZE = 4


def pack_array(array: np.ndarray) -> dict:
    """Encode an array as base64 of its contiguous float64 bytes.

    The decoded array is bit-identical to the input — the property the
    sharded merge relies on for exact scores and cache digests.
    """
    array = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    return {
        "shape": list(array.shape),
        "b64": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def unpack_array(payload: dict) -> np.ndarray:
    """Decode an array packed by :func:`pack_array`."""
    try:
        raw = base64.b64decode(payload["b64"], validate=True)
        shape = tuple(int(n) for n in payload["shape"])
        array = np.frombuffer(raw, dtype=np.float64)
        return array.reshape(shape).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise ServingError(f"malformed packed array: {exc}") from exc


def send_frame(sock: socket.socket, message: dict) -> None:
    """Serialise ``message`` and write one checksummed frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ServingError(f"frame of {len(payload)} bytes exceeds protocol limit")
    checksum = zlib.crc32(payload)
    # Corruption is injected *after* the checksum is computed — the
    # receiver's CRC verification is what must catch it.
    payload = corrupt_payload("net.frame_corrupt", payload)
    frame = FRAME_HEADER.pack(len(payload), checksum) + payload
    try:
        fault_point("net.frame_truncated")
    except FaultInjectedError as exc:
        # A frame that claims the full length but carries half the
        # payload, then a severed connection: the receiver observes
        # EOF mid-frame, exactly like a peer that died mid-write.
        sock.sendall(frame[: FRAME_HEADER.size + len(payload) // 2])
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        raise RpcTransportError(f"injected truncation: {exc}") from exc
    sock.sendall(frame)


def recv_frame(sock: socket.socket) -> dict:
    """Read one frame; raises typed errors on EOF, corruption, garbage."""
    header = _recv_exact(sock, FRAME_HEADER.size)
    length, checksum = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ServingError(f"frame of {length} bytes exceeds protocol limit")
    payload = _recv_exact(sock, length)
    if zlib.crc32(payload) != checksum:
        raise FrameCorruptError(
            f"frame checksum mismatch over {length} bytes "
            "(corruption detected; dropping connection)"
        )
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServingError(f"malformed frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ServingError("frame payload must be a JSON object")
    return message


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise RpcTransportError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class RpcClient:
    """One persistent connection to a shard worker.

    ``call`` sends a request frame and waits for the response frame,
    bounding the wait by the query's remaining deadline (propagated as
    a socket timeout *and* inside the request as ``deadline_ms``).  Any
    transport error tears the connection down so the next call starts
    clean; the caller's circuit breaker decides whether to keep trying.
    """

    def __init__(
        self, host: str, port: int, default_timeout: float = 5.0
    ) -> None:
        self._host = host
        self._port = port
        self._default_timeout = default_timeout
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()

    def _connect(self) -> socket.socket:
        try:
            fault_point("net.connect_refused")
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._default_timeout
            )
        except (OSError, FaultInjectedError) as exc:
            raise RpcTransportError(
                f"connect to {self._host}:{self._port} failed: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def close(self) -> None:
        """Drop the connection (reconnects lazily on the next call)."""
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass
                self._sock = None

    def call(
        self,
        request: dict,
        deadline: float | None = None,
        trace_id: str | None = None,
        parent_span: int | None = None,
    ) -> dict:
        """One request/response round-trip.

        ``deadline`` is absolute ``time.perf_counter()`` time; ``None``
        falls back to the client's default timeout.  ``trace_id`` /
        ``parent_span`` stamp distributed-trace context onto the frame:
        a worker that sees them records spans under that parent and
        ships them back as ``spans`` in the response.  Raises
        :class:`~repro.errors.DeadlineExpiredError` on expiry,
        :class:`~repro.errors.RpcTransportError` on transient transport
        failure (reset, refused, truncated/corrupt frame — retry-safe),
        and plain :class:`ServingError` on a worker-side error response
        (``ok: false``) or a timed-out in-flight call.
        """
        fault_point("net.rpc")
        if trace_id is not None:
            request = dict(request, trace_id=trace_id)
            if parent_span is not None:
                request["parent_span"] = parent_span
        if deadline is None:
            timeout = self._default_timeout
        else:
            timeout = deadline - time.perf_counter()
            if timeout <= 0:
                raise DeadlineExpiredError("deadline expired before shard call")
            request = dict(request, deadline_ms=timeout * 1000.0)
        with self._lock:
            try:
                if self._sock is None:
                    self._sock = self._connect()
                self._sock.settimeout(timeout)
                send_frame(self._sock, request)
                try:
                    fault_point("net.conn_reset")
                except FaultInjectedError as exc:
                    raise RpcTransportError(
                        f"connection reset by peer: {exc}"
                    ) from exc
                response = recv_frame(self._sock)
            except ServingError:
                self._drop_locked()
                raise
            except TimeoutError as exc:
                # Not transient: the in-flight call already consumed its
                # socket budget; the query's deadline bounds slowness.
                self._drop_locked()
                raise ServingError(f"shard rpc timed out: {exc}") from exc
            except OSError as exc:
                self._drop_locked()
                raise RpcTransportError(f"shard rpc failed: {exc}") from exc
        if not response.get("ok", False):
            detail = response.get("error", "unknown failure")
            if response.get("draining"):
                raise WorkerDrainingError(f"shard draining: {detail}")
            raise ServingError(f"shard error: {detail}")
        return response

    def _drop_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._sock = None


class ShardEndpoint:
    """Address + bounded connection pool for one shard.

    Connections are created lazily up to :data:`POOL_SIZE` and reused LIFO;
    when every connection is busy a caller waits (bounded by its
    deadline) rather than opening more.  :meth:`reset` re-points the
    endpoint after the cluster respawns a worker on a new port, closing
    every pooled connection so nothing keeps talking to the corpse.
    """

    def __init__(
        self,
        shard_id: int,
        host: str,
        port: int,
        default_timeout: float = 5.0,
    ) -> None:
        self.shard_id = shard_id
        self._host = host
        self._port = port
        self._default_timeout = default_timeout
        self._lock = threading.Lock()
        self._idle: list[RpcClient] = []
        self._created = 0
        self._available = threading.Semaphore(POOL_SIZE)
        self._epoch = 0

    @property
    def address(self) -> tuple[str, int]:
        """Current ``(host, port)`` of the worker."""
        with self._lock:
            return (self._host, self._port)

    def reset(self, host: str, port: int) -> None:
        """Re-point at a respawned worker, discarding pooled connections."""
        with self._lock:
            self._host = host
            self._port = port
            self._epoch += 1
            stale, self._idle = self._idle, []
            self._created = 0
        for client in stale:
            client.close()

    def _acquire(self, deadline: float | None) -> tuple[RpcClient, int]:
        timeout = (
            self._default_timeout
            if deadline is None
            else max(deadline - time.perf_counter(), 0.0)
        )
        if not self._available.acquire(timeout=timeout):
            if deadline is not None:
                raise DeadlineExpiredError(
                    "no shard connection available before deadline"
                )
            raise ServingError(
                "shard connection pool exhausted "
                f"({POOL_SIZE} connections busy)"
            )
        with self._lock:
            if self._idle:
                return self._idle.pop(), self._epoch
            self._created += 1
            return (
                RpcClient(self._host, self._port, self._default_timeout),
                self._epoch,
            )

    def _release(self, client: RpcClient, epoch: int) -> None:
        with self._lock:
            if epoch == self._epoch:
                self._idle.append(client)
                client = None  # type: ignore[assignment]
        if client is not None:  # endpoint was reset while we held it
            client.close()
        self._available.release()

    def call(
        self,
        request: dict,
        deadline: float | None = None,
        trace_id: str | None = None,
        parent_span: int | None = None,
    ) -> dict:
        """Round-trip through a pooled connection (trace context rides
        the frame — see :meth:`RpcClient.call`).

        An already-expired deadline raises
        :class:`~repro.errors.DeadlineExpiredError` up front instead of
        passing a non-positive timeout into the pool/socket layers.
        """
        if deadline is not None and deadline - time.perf_counter() <= 0:
            raise DeadlineExpiredError("deadline expired before shard call")
        client, epoch = self._acquire(deadline)
        try:
            return client.call(
                request,
                deadline=deadline,
                trace_id=trace_id,
                parent_span=parent_span,
            )
        except BaseException:
            client.close()
            raise
        finally:
            self._release(client, epoch)

    def close(self) -> None:
        """Close every pooled connection."""
        with self._lock:
            stale, self._idle = self._idle, []
            self._created = 0
            self._epoch += 1
        for client in stale:
            client.close()
