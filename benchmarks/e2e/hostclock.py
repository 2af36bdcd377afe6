"""The host clock: how fast this host runs, sampled all through a run.

This benchmark lives on a small shared guest whose speed moves by tens of
per cent for minutes at a time, and a timing gate cannot tell that from a
regression.  So every run carries its own yardstick.  ``python -m
benchmarks.e2e hostclock OUT`` is a process of the benchmark's own that

* times one small fixed unit of work (interpreter, NumPy and JSON in about
  equal parts, a third of a millisecond in all) every ``PERIOD`` seconds, and
* keeps one ``SCHED_IDLE`` spinner on each CPU, so that a CPU the program
  leaves idle never halts: waking a halted virtual CPU is a trip through
  the hypervisor whose cost is the host's, not the program's.  The
  spinners yield to anything else at once and cost the program nothing.

A timing taken between ``start`` and ``end`` is divided by
``factor(start, end)``, the mean cost of the units sampled in that
interval over ``REF_UNIT_S``: seconds become *seconds on a host that runs
the unit in REF_UNIT_S*.  The unit knows nothing of the program under
test, runs in its own process (no shared interpreter lock), and is the
same on both sides of any comparison, so the correction cancels the
host's phase and leaves the program's own cost.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: Seconds between two samples (the unit costs about 7 % of one CPU at this rate).
PERIOD = 0.005
#: What one unit costs on this host in a quiet phase: the scale that keeps
#: corrected seconds close to wall seconds.  It cancels in every comparison.
REF_UNIT_S = 0.00030

_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Have the kernel kill this process when its parent goes, however the parent goes."""
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def _spin(cpu: int, parent: int) -> None:
    """Keep ``cpu`` from halting, at a priority below everything else."""
    _die_with_parent()
    try:
        os.sched_setaffinity(0, {cpu})
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except OSError:
        os.nice(19)
    while os.getppid() == parent:  # second line of defence behind the death signal
        for _ in range(1_000_000):
            pass
    os._exit(0)


def _make_unit():
    rng = np.random.default_rng(0)
    block, query, vector = rng.random((256, 266)), rng.random(266), rng.random(96).tolist()

    def unit() -> None:
        total, table = 0, {}
        for i in range(600):
            table[i & 255] = total
            total += i * 3 % 7
        np.minimum(block, query).sum(axis=1)
        json.loads(json.dumps(vector))

    return unit


def main(out_path: str) -> int:
    """Sample until SIGTERM or SIGINT, then write ``(time, cost)`` rows to ``out_path``."""
    _die_with_parent()
    me = os.getpid()
    spinners = []
    for cpu in sorted(os.sched_getaffinity(0)):
        pid = os.fork()
        if pid == 0:
            _spin(cpu, me)
        spinners.append(pid)
    stop: list[int] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.append(1))
    unit, clock = _make_unit(), time.perf_counter
    for _ in range(50):
        unit()
    rows: list[tuple[float, float]] = []
    print("READY", flush=True)
    due = clock()
    try:
        while not stop:
            due += PERIOD
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            began = clock()
            unit()
            rows.append((began, clock() - began))
            if began - due > PERIOD:
                due = began  # a long stall is one late sample, not a burst of catch-up samples
    finally:
        for pid in spinners:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        np.save(out_path, np.asarray(rows, dtype=np.float64).reshape(-1, 2))
    return 0


class HostClock:
    """The sampler as the set-up process holds it: start, stop, then ask for factors."""

    def __init__(self, out_path: Path) -> None:
        from benchmarks.e2e import procs

        self._out = out_path
        out_path.parent.mkdir(parents=True, exist_ok=True)
        self._proc: subprocess.Popen | None = procs.spawn(
            ["-m", "benchmarks.e2e", "hostclock", str(out_path)], out_path.with_suffix(".log")
        )
        procs.await_line(self._proc, "READY")
        self._times = self._costs = np.zeros(0)

    def stop(self) -> None:
        """End the sampler and its spinners and load what it saw; safe to call twice."""
        from benchmarks.e2e import procs

        if self._proc is None:
            return
        procs.stop(self._proc, signal.SIGTERM)
        self._proc = None
        if self._out.exists():
            rows = np.load(self._out)
            self._times, self._costs = rows[:, 0], rows[:, 1]
            self._out.unlink()
        self._out.with_suffix(".log").unlink(missing_ok=True)

    def factor(self, start: float, end: float) -> float:
        """Mean unit cost over ``[start, end]`` (``perf_counter`` seconds) over the reference cost.

        The samples inside the interval and the one either side of it,
        so an interval that falls between two samples still has a reading.
        """
        if not len(self._times):
            raise RuntimeError("the host clock took no sample")
        lo = max(np.searchsorted(self._times, start) - 1, 0)
        hi = np.searchsorted(self._times, end) + 1
        return float(self._costs[lo:hi].mean() / REF_UNIT_S)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
