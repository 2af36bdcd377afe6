"""Shard cluster: spawn, watch and respawn worker subprocesses.

:class:`ShardCluster` turns a :class:`~repro.net.shard.ShardSpec` (a
catalog and a shard count, read from the ``manifest.json`` of a
directory :func:`~repro.net.shard.build_shards` wrote unless given) into
a set of live worker processes, one per shard, each opening that catalog
and bound to an ephemeral localhost port.  Every worker announces itself with a ``READY <port>`` line on
stdout; the cluster wraps each one in a
:class:`~repro.net.protocol.ShardEndpoint`.  :meth:`ShardCluster.start`
launches every worker before it waits for any of them, so a cluster
comes up in the time of its slowest worker, and the wait for ``READY``
is bounded on the pipe itself: a worker that hangs silently is killed
at ``spawn_timeout``.

A :class:`~repro.resilience.watchdog.Watchdog` polls the processes: a
worker that died (crash, SIGKILL, OOM kill) is respawned on a
fresh port and its endpoint re-pointed with
:meth:`~repro.net.protocol.ShardEndpoint.reset` — the coordinator keeps
running throughout and only sees the shard as missing while the
replacement boots.

:meth:`ShardCluster.restart` is the *deliberate* counterpart: it sends
the worker a ``drain`` op (finish in-flight work, refuse new, exit 0),
waits for the clean exit, then spawns the replacement — while a guard
set keeps the watchdog from double-spawning the shard it sees dying.
:meth:`restart_rolling` cycles every shard this way one at a time,
waiting for each replacement to answer ``ping`` before moving on, so a
coordinator retrying around the one-shard gap serves every query.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ServingError
from repro.net.protocol import RpcClient, ShardEndpoint
from repro.net.shard import ShardSpec, load_manifest
from repro.resilience.watchdog import Watchdog


@dataclass(frozen=True)
class RestartReport:
    """Outcome of one worker restart."""

    shard_id: int
    graceful: bool
    seconds: float

    def to_json(self) -> dict:
        """Wire shape for the gateway's admin endpoint."""
        return {
            "shard": self.shard_id,
            "graceful": self.graceful,
            "seconds": round(self.seconds, 3),
        }


def _worker_env() -> dict[str, str]:
    """Subprocess environment with ``repro`` importable."""
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            f"{src_dir}{os.pathsep}{existing}" if existing else src_dir
        )
    return env


class ShardCluster:
    """One subprocess worker per shard, watched and auto-respawned."""

    def __init__(
        self,
        root: str | Path,
        spec: ShardSpec | None = None,
        host: str = "127.0.0.1",
        default_timeout: float = 5.0,
        spawn_timeout: float = 30.0,
        watchdog_interval: float | None = 0.2,
        inherit_stderr: bool = False,
    ) -> None:
        self.spec = spec if spec is not None else load_manifest(root)
        self._host = host
        self._default_timeout = default_timeout
        self._spawn_timeout = spawn_timeout
        self._watchdog_interval = watchdog_interval
        self._stderr = None if inherit_stderr else subprocess.DEVNULL
        self._procs: dict[int, subprocess.Popen] = {}
        self.endpoints: list[ShardEndpoint] = []
        self._watchdog: Watchdog | None = None
        self._running = False
        self._respawn_counts: dict[int, int] = {}
        self._restarts = 0
        # Spawn decisions (watchdog repair vs deliberate restart)
        # serialise on this lock; shards in ``_restarting`` are being
        # cycled on purpose and must not be repaired concurrently.
        self._lifecycle_lock = threading.Lock()
        self._restarting: set[int] = set()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ShardCluster":
        """Spawn every worker and begin watching them (idempotent)."""
        if self._running:
            return self
        self._running = True
        try:
            # Launch everything, then wait: the workers import and open
            # their catalogs side by side under one shared deadline.
            deadline = time.perf_counter() + self._spawn_timeout
            launched = [
                (shard_id, self._launch(shard_id))
                for shard_id in range(self.spec.num_shards)
            ]
            for shard_id, proc in launched:
                self.endpoints.append(
                    ShardEndpoint(
                        shard_id=shard_id,
                        host=self._host,
                        port=self._await_ready(proc, shard_id, deadline),
                        default_timeout=self._default_timeout,
                    )
                )
            if self._watchdog_interval is not None:
                self._watchdog = Watchdog(
                    self._repair,
                    interval=self._watchdog_interval,
                    name="shard-cluster-watchdog",
                ).start()
        except BaseException:
            self._running = False
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Stop the watchdog, the workers, and close every endpoint."""
        self._running = False
        watchdog, self._watchdog = self._watchdog, None
        if watchdog is not None:
            watchdog.stop()
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.terminate()
        deadline = time.perf_counter() + 5.0
        for proc in self._procs.values():
            remaining = max(deadline - time.perf_counter(), 0.1)
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._procs.clear()
        endpoints, self.endpoints = self.endpoints, []
        for endpoint in endpoints:
            endpoint.close()

    def __enter__(self) -> "ShardCluster":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- process management --------------------------------------------

    def _launch(self, shard_id: int) -> subprocess.Popen:
        """Start one worker process, without waiting for it.

        Registered at once, so :meth:`stop` reaps it even when it never
        reports ready.
        """
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.net.worker",
                str(self.spec.catalog),
                "--host",
                self._host,
                "--port",
                "0",
                "--shard-id",
                str(shard_id),
                "--num-shards",
                str(self.spec.num_shards),
            ],
            # Never written to: the worker drains when it ends (this process died).
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=_worker_env(),
        )
        self._procs[shard_id] = proc
        return proc

    def _spawn(self, shard_id: int) -> int:
        """Launch one worker and wait for its ``READY <port>`` line."""
        deadline = time.perf_counter() + self._spawn_timeout
        return self._await_ready(self._launch(shard_id), shard_id, deadline)

    def _await_ready(
        self, proc: subprocess.Popen, shard_id: int, deadline: float
    ) -> int:
        """The port on the worker's ``READY <port>`` line, read by ``deadline``.

        The wait is on the pipe itself, not on a blocking ``readline``,
        so a worker that hangs without printing or exiting cannot hold
        the caller past the deadline.  Any failure kills and reaps the
        process before raising :class:`~repro.errors.ServingError`.
        """
        try:
            return self._read_ready(proc, shard_id, deadline)
        except BaseException:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            raise

    def _read_ready(
        self, proc: subprocess.Popen, shard_id: int, deadline: float
    ) -> int:
        assert proc.stdout is not None
        fd = proc.stdout.fileno()
        pending = b""
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    raise ServingError(
                        f"shard {shard_id} worker did not report READY within "
                        f"{self._spawn_timeout}s"
                    )
                chunk = os.read(fd, 4096)
                if not chunk:
                    try:
                        code = proc.wait(timeout=1.0)
                    except subprocess.TimeoutExpired:
                        code = None  # closed stdout but still running
                    raise ServingError(
                        f"shard {shard_id} worker exited (code {code}) before READY"
                    )
                pending += chunk
                while b"\n" in pending:
                    raw, pending = pending.split(b"\n", 1)
                    line = raw.decode("utf-8", "replace").strip()
                    if not line.startswith("READY "):
                        continue
                    try:
                        return int(line.split(" ", 1)[1])
                    except ValueError as exc:
                        raise ServingError(
                            f"shard {shard_id} worker sent malformed READY: "
                            f"{line!r}"
                        ) from exc

    def _repair(self) -> int:
        """Watchdog check: respawn dead workers on fresh ports."""
        if not self._running:
            return 0
        repaired = 0
        with self._lifecycle_lock:
            for endpoint in self.endpoints:
                if endpoint.shard_id in self._restarting:
                    continue  # a deliberate restart owns this shard
                proc = self._procs.get(endpoint.shard_id)
                if proc is not None and proc.poll() is None:
                    continue
                try:
                    port = self._spawn(endpoint.shard_id)
                except ServingError:
                    continue  # booting may fail transiently; retry next tick
                endpoint.reset(self._host, port)
                repaired += 1
                self._respawn_counts[endpoint.shard_id] = (
                    self._respawn_counts.get(endpoint.shard_id, 0) + 1
                )
        return repaired

    # -- graceful restart ----------------------------------------------

    def restart(
        self,
        shard_id: int,
        graceful: bool = True,
        drain_timeout: float = 10.0,
    ) -> RestartReport:
        """Cycle one worker: drain (or terminate), wait, respawn.

        ``graceful`` sends the ``drain`` wire op so the worker finishes
        in-flight requests and exits 0; a worker that cannot be reached
        (already dead/hung) falls back to terminate/kill.  The watchdog
        is fenced off the shard for the duration, so exactly one
        replacement is spawned.
        """
        started = time.perf_counter()
        endpoint = next(
            (ep for ep in self.endpoints if ep.shard_id == shard_id), None
        )
        if not self._running or endpoint is None:
            raise ServingError(f"no running worker for shard {shard_id}")
        with self._lifecycle_lock:
            if shard_id in self._restarting:
                raise ServingError(f"shard {shard_id} is already restarting")
            self._restarting.add(shard_id)
        try:
            proc = self._procs.get(shard_id)
            drained = False
            if proc is not None and proc.poll() is None:
                if graceful:
                    drained = self._drain_worker(endpoint, drain_timeout)
                if drained:
                    try:
                        proc.wait(timeout=drain_timeout)
                    except subprocess.TimeoutExpired:
                        drained = False
                if not drained:
                    proc.terminate()
                    try:
                        proc.wait(timeout=5.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
            with self._lifecycle_lock:
                port = self._spawn(shard_id)
                endpoint.reset(self._host, port)
                self._restarts += 1
            return RestartReport(
                shard_id=shard_id,
                graceful=drained,
                seconds=time.perf_counter() - started,
            )
        finally:
            with self._lifecycle_lock:
                self._restarting.discard(shard_id)

    def _drain_worker(
        self, endpoint: ShardEndpoint, drain_timeout: float
    ) -> bool:
        """Send ``drain`` on a fresh connection; True when accepted."""
        host, port = endpoint.address
        client = RpcClient(
            host, port, default_timeout=min(2.0, drain_timeout)
        )
        try:
            response = client.call({"op": "drain", "grace": drain_timeout})
            return bool(response.get("draining"))
        except ServingError:
            return False  # dead or wedged: the hard path takes over
        finally:
            client.close()

    def restart_rolling(
        self,
        graceful: bool = True,
        drain_timeout: float = 10.0,
        ready_timeout: float = 30.0,
    ) -> list[RestartReport]:
        """Restart every worker one at a time (ascending shard id).

        Each replacement must answer ``ping`` before the next shard is
        touched, so at most one shard is ever down and a retrying
        coordinator serves every query throughout.
        """
        reports = []
        for endpoint in sorted(self.endpoints, key=lambda ep: ep.shard_id):
            report = self.restart(
                endpoint.shard_id,
                graceful=graceful,
                drain_timeout=drain_timeout,
            )
            self._await_ping(endpoint, ready_timeout)
            reports.append(report)
        return reports

    def _await_ping(self, endpoint: ShardEndpoint, timeout: float) -> None:
        deadline = time.perf_counter() + timeout
        while True:
            try:
                endpoint.call({"op": "ping"}, deadline)
                return
            except ServingError:
                if time.perf_counter() >= deadline:
                    raise ServingError(
                        f"shard {endpoint.shard_id} replacement did not "
                        f"answer ping within {timeout}s"
                    )
                time.sleep(0.05)

    # -- introspection / fault injection -------------------------------

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._running

    @property
    def restarts(self) -> int:
        """Deliberate (drain-based) worker restarts so far."""
        return self._restarts

    def respawn_counts(self) -> dict[int, int]:
        """Watchdog respawns per shard id (shards never respawned omitted)."""
        with self._lifecycle_lock:
            return dict(self._respawn_counts)

    @property
    def watchdog(self) -> Watchdog | None:
        """The cluster watchdog (None while stopped or disabled)."""
        return self._watchdog

    def alive(self) -> list[int]:
        """Shard ids whose worker process is currently alive."""
        return sorted(
            shard_id
            for shard_id, proc in self._procs.items()
            if proc.poll() is None
        )

    def kill(self, shard_id: int) -> None:
        """Hard-kill one worker (fault injection for recovery tests)."""
        proc = self._procs.get(shard_id)
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(signal.SIGKILL)
        proc.wait()

    def describe(self) -> str:
        """Human-readable cluster status."""
        alive = set(self.alive())
        lines = [
            f"shard cluster: {len(alive)}/{self.spec.num_shards} workers "
            f"alive, {sum(self._respawn_counts.values())} respawns, {self._restarts} restarts"
        ]
        for endpoint in self.endpoints:
            host, port = endpoint.address
            state = "alive" if endpoint.shard_id in alive else "DEAD"
            lines.append(
                f"  shard {endpoint.shard_id}: {host}:{port} [{state}]"
            )
        return "\n".join(lines)
