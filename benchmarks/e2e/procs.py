"""Child processes: spawn, find, weigh and stop them."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

#: How long a spawned program may take to announce itself.
SPAWN_TIMEOUT = 60.0


def spawn(args: list[str], log: Path, **popen_kwargs) -> subprocess.Popen:
    """``python <args>`` with stdout piped (for the ready line) and stderr to ``log``."""
    with open(log, "ab") as err:
        return subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.PIPE, stderr=err, text=True, **popen_kwargs
        )


def await_line(proc: subprocess.Popen, prefix: str) -> str:
    """Block until the child prints a line starting with ``prefix``; returns the rest of it.

    A child that says nothing for ``SPAWN_TIMEOUT`` seconds is killed,
    which ends the blocking read.
    """
    assert proc.stdout is not None
    timer = threading.Timer(SPAWN_TIMEOUT, proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if line.startswith(prefix):
                return line[len(prefix) :].strip()
    finally:
        timer.cancel()
    raise RuntimeError(f"child exited with code {proc.wait()} before printing {prefix!r}")


def stop(proc: subprocess.Popen, sig: int = signal.SIGINT, grace: float = 10.0) -> None:
    """Ask the child to exit (``serve`` unwinds its workers on SIGINT), then insist."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def kill_group(pgid: int) -> None:
    """Kill every process of a group (a measuring child and all it spawned)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _ppid(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # The command name may contain spaces; the fields after ")" are fixed.
            return int(handle.read().rsplit(")", 1)[1].split()[1])
    except (OSError, IndexError, ValueError):
        return None


def descendants(pid: int) -> list[int]:
    """``pid`` and every live process below it."""
    parents = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            parent = _ppid(int(name))
            if parent is not None:
                parents[int(name)] = parent
    found, frontier = [pid], [pid]
    while frontier:
        current = frontier.pop()
        for child, parent in parents.items():
            if parent == current:
                found.append(child)
                frontier.append(child)
    return found


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass  # exited between listing and reading
    return total_kb / 1024.0


def reset_peak_rss_mb() -> float:
    """Start this process's ``VmHWM`` again from what is resident now; returns that, in MiB."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the old peak stands: a transient before this point may then be weighed
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0
