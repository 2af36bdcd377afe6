"""Network serving: HTTP front-end + multi-process sharded scatter-gather.

This package puts a wire in front of the serving stack (ROADMAP open
item 2) using nothing but the standard library:

* :mod:`repro.net.protocol` — length-prefixed JSON frames over local
  TCP sockets, with a bit-exact base64 codec for float64 feature
  vectors and a small pooled RPC client;
* :mod:`repro.net.shard` — a shard is a view of the one published
  catalog: ``pack_leaves`` maps each leaf to its owning shard from the
  catalog's ``leaves`` rows, and a ``ShardSpec`` names the catalog and
  the shard count (``manifest.json`` when ``build_shards`` wrote one);
* :mod:`repro.net.worker` — one process (or thread, in tests) per
  shard, opening the catalog as an out-of-core
  :class:`~repro.storage.lazy.SQLVideoDatabase` and serving leaf probes
  and flat scans over its own leaves and scene searches over its share
  of the scene rows;
* :mod:`repro.net.cluster` — spawns/respawns worker subprocesses and
  watches them;
* :mod:`repro.net.coordinator` — the scatter-gather front, a
  :class:`~repro.serving.server.QueryServer` whose leaf work runs on the
  workers: it runs the hierarchical descent on its pinned snapshot,
  sends each leaf probe to that leaf's owner only, and merges top-k
  **bit-identically** to the single-process
  :class:`~repro.serving.server.QueryServer`, degrading per-shard via
  circuit breakers instead of failing;
* :mod:`repro.net.tcpserver` — the one server shape of this package:
  a thread per accepted connection, live connections tracked so a stop
  can sever them (the worker's RPC server and the gateway both);
* :mod:`repro.net.gateway` — the HTTP/1.1 JSON API (``/query``,
  ``/skim/{id}``, ``/health``, ``/metrics``), an
  HTTP codec over whichever :class:`~repro.serving.engine.QueryFront`
  it was handed, called on the connection's own thread: deadline
  propagation, token auth resolved before the cache, one error-type ->
  status table (the front's own overload answers 503 + ``Retry-After``);
* :mod:`repro.net.client` — :class:`HttpFront`, the same codec from the
  other end and the program's only HTTP client: a running gateway
  called like the front behind it (so
  :func:`repro.serving.loadgen.run_load` drives it over real sockets).

See ``docs/SHARDING.md`` for the wire protocol, the leaf map and the
exactness argument behind the merge.
"""

from repro._lazy import lazy_exports

# Exported lazily (PEP 562): ``python -m repro.net.worker`` imports this
# package first, and a shard worker must neither load the fronts and the
# fleet it never calls nor run its own module body twice (runpy warns).
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.net.client": ("HttpFront",),
        "repro.net.cluster": ("RestartReport", "ShardCluster"),
        "repro.net.coordinator": ("ShardedQueryService",),
        "repro.net.gateway": ("GatewayConfig", "HttpGateway"),
        "repro.net.protocol": ("ShardEndpoint", "pack_array", "unpack_array"),
        "repro.net.shard": ("ShardSpec", "build_shards", "load_manifest"),
        "repro.net.worker": ("ShardWorker",),
    },
)

__all__ = [
    "GatewayConfig",
    "HttpFront",
    "HttpGateway",
    "RestartReport",
    "ShardCluster",
    "ShardEndpoint",
    "ShardSpec",
    "ShardWorker",
    "ShardedQueryService",
    "build_shards",
    "load_manifest",
    "pack_array",
    "unpack_array",
]
