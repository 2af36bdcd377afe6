"""The one way ``net/`` accepts, tracks and severs TCP connections.

The shard worker's framed RPC and the HTTP gateway are the same shape:
a listening socket, one daemon thread per accepted connection running
``handle(sock)`` until the peer hangs up, and a stop that also cuts the
connections still open (an idle keep-alive client, a pooled coordinator
socket) so their threads unblock and their peers read EOF.
"""

from __future__ import annotations

import socket
import socketserver
import threading


class ConnectionServer(socketserver.ThreadingTCPServer):
    """Thread-per-connection TCP server that knows its live connections.
    ``handle(sock)`` runs on the connection's own thread; the socket is
    closed when it returns."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], handle) -> None:
        self._handle = handle
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, None)

    def finish_request(self, request, client_address) -> None:
        """Run ``handle`` on the connection, tracked while it lasts."""
        with self._connections_lock:
            self._connections.add(request)
        try:
            self._handle(request)
        finally:
            with self._connections_lock:
                self._connections.discard(request)

    def server_close(self) -> None:
        """Close the listening socket and shut down every live connection
        (their threads then return): a SIGKILLed process drops its
        connections implicitly, and a stopped in-process server must look
        the same to pooled clients."""
        super().server_close()
        with self._connections_lock:
            live = list(self._connections)
        for conn in live:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
