"""A canned-200 HTTP stub: the generator's own cost, with no server behind it.

``python -m benchmarks.e2e stub`` prints ``READY <port>`` and then
answers every request with the same small JSON body on a keep-alive
connection.  Driving the HTTP generator against it gives
``loadgen.floor_us``: the part of every HTTP round trip that is the
benchmark's, not the program's.
"""

from __future__ import annotations

import socketserver

_BODY = b'{"kind":"shot","hits":[],"degraded":false,"cache_hit":true,"generation":1}'
_RESPONSE = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: " + str(len(_BODY)).encode() + b"\r\nConnection: keep-alive\r\n\r\n" + _BODY
)


class _Handler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True

    def handle(self) -> None:
        while True:
            length = 0
            line = self.rfile.readline()
            if not line:
                return
            while line not in (b"\r\n", b"\n", b""):
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
                line = self.rfile.readline()
            if length:
                self.rfile.read(length)
            self.wfile.write(_RESPONSE)
            self.wfile.flush()


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def main() -> int:
    with _Server(("127.0.0.1", 0), _Handler) as server:
        print(f"READY {server.server_address[1]}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    return 0
