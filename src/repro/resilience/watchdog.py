"""Worker watchdog: detect and repair what died.

A :class:`Watchdog` is a small daemon thread that periodically invokes
a *repair check* — a callable that inspects some pool, resurrects
whatever died, and returns how many repairs it made.
:class:`~repro.net.cluster.ShardCluster` hands it the check that
respawns dead shard worker processes; the in-process query front runs
queries on their callers' threads and has nothing to watch.

The check itself must be safe to call at any time (the watchdog holds
no locks for it) and must never raise — a raising check is caught and
does not kill the watchdog.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

#: A repair check: fix what is broken, return the number of repairs.
RepairCheck = Callable[[], int]


class Watchdog:
    """Periodic repair loop on a daemon thread."""

    def __init__(
        self,
        check: RepairCheck,
        interval: float = 0.2,
        name: str = "watchdog",
    ) -> None:
        if interval <= 0:
            raise ValueError("watchdog interval must be > 0")
        self._check = check
        self._interval = interval
        self._name = name
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        """True while the watchdog thread is alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "Watchdog":
        """Start the loop (idempotent while running)."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name=self._name, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the loop and join the thread."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join()
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._check()
            except Exception:
                pass  # a raising check must not kill the watchdog
