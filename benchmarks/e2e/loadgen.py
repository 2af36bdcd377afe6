"""The load generator: closed and open loops over a few client threads.

A *client* is anything with ``issue(op) -> (ok, raw)``.  Every request
is timed on the monotonic clock and recorded with its completion time,
so one run can be cut into rounds afterwards.  A request that raises
counts as failed and contributes to no latency figure.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

from benchmarks.e2e import stats


@dataclass
class Samples:
    """What one client thread saw, in issue order."""

    done: list[float] = field(default_factory=list)  # completion time (perf_counter)
    latency: list[float] = field(default_factory=list)  # seconds
    ok: list[bool] = field(default_factory=list)
    cache_hit: list[bool] = field(default_factory=list)
    generation: list[int] = field(default_factory=list)
    lag: list[float] = field(default_factory=list)  # open loop only: send time - due time
    errors: list[str] = field(default_factory=list)  # what the failed requests raised

    def add(self, done: float, latency: float, ok: bool, facts: tuple[bool, int]) -> None:
        self.done.append(done)
        self.latency.append(latency)
        self.ok.append(ok)
        self.cache_hit.append(facts[0])
        self.generation.append(facts[1])


class Stream:
    """A client's cyclic op list; the cursor survives from warm-up into the window."""

    def __init__(self, ops) -> None:
        self._ops = [int(op) for op in ops]
        self._cursor = 0

    def next(self) -> int:
        op = self._ops[self._cursor]
        self._cursor = (self._cursor + 1) % len(self._ops)
        return op


def _issue(client, op: int, out: Samples) -> tuple[bool, tuple[bool, int]]:
    try:
        ok, raw = client.issue(op)
    except Exception as exc:  # the generator must outlive any single request
        out.errors.append(f"op {op}: {type(exc).__name__}: {exc}")
        client.reset()
        return False, (False, 0)
    if not ok:
        out.errors.append(f"op {op}: refused or degraded answer")
    return ok, client.facts(raw) if ok else (False, 0)


def _run_threads(workers) -> None:
    threads = [threading.Thread(target=worker, daemon=True) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(clients, streams, duration: float, min_requests: int = 0) -> list[Samples]:
    """Each client sends its next request as soon as the previous one completes.

    Runs for ``duration`` seconds, and on until ``min_requests`` have
    completed in total when that comes later (the warm-up rule).
    """
    samples = [Samples() for _ in clients]
    end = time.perf_counter() + duration

    def completed() -> int:
        return sum(len(s.done) for s in samples)

    def worker(client, stream, out):
        def run():
            while time.perf_counter() < end or completed() < min_requests:
                op = stream.next()
                start = time.perf_counter()
                ok, facts = _issue(client, op, out)
                done = time.perf_counter()
                out.add(done, done - start, ok, facts)

        return run

    _run_threads([worker(c, s, o) for c, s, o in zip(clients, streams, samples)])
    return samples


def open_loop(clients, streams, rate: float, duration: float) -> list[Samples]:
    """Requests are due on a fixed schedule whatever the server does.

    Each latency runs from the request's *due* time, so a stall is
    charged to every request it delays; ``lag`` records how late the
    generator itself sent, so a slow generator is not read as a slow server.
    """
    samples = [Samples() for _ in clients]
    ticket = itertools.count()
    start_at = time.perf_counter() + 0.01
    total = int(rate * duration)

    def worker(client, stream, out):
        def run():
            while True:
                k = next(ticket)
                if k >= total:
                    return
                due = start_at + k / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                op = stream.next()
                sent = time.perf_counter()
                ok, facts = _issue(client, op, out)
                done = time.perf_counter()
                out.add(done, done - due, ok, facts)
                out.lag.append(sent - due)

        return run

    _run_threads([worker(c, s, o) for c, s, o in zip(clients, streams, samples)])
    return samples


def summarise(samples: list[Samples], start: float, rounds: int, round_len: float) -> dict:
    """Cut a closed-loop run into rounds; each round keeps its own count, p50 and p95.

    The caller corrects each round by the host's speed during that round
    and reports the median round, so a stall that hits one round does not
    set the figure; p99 pools every round, uncorrected, as a diagnostic.
    Failed requests count against ``attempted`` and enter no latency figure.
    """
    per_round: list[list[float]] = [[] for _ in range(rounds)]
    attempted = failed = hits = 0
    for s in samples:
        for done, latency, ok, hit in zip(s.done, s.latency, s.ok, s.cache_hit):
            index = int((done - start) / round_len)
            if not 0 <= index < rounds:
                continue  # finished after the last round closed
            attempted += 1
            if not ok:
                failed += 1
                continue
            per_round[index].append(latency)
            hits += hit
    pooled = [latency for latencies in per_round for latency in latencies]
    return {
        "rounds": [
            {
                "start": start + i * round_len,
                "end": start + (i + 1) * round_len,
                "ok": len(latencies),
                "p50_ms": 1e3 * stats.percentile(latencies, 50),
                "p95_ms": 1e3 * stats.percentile(latencies, 95),
            }
            for i, latencies in enumerate(per_round)
        ],
        "round_mad_pct": stats.mad_pct([len(latencies) for latencies in per_round]),
        "p99_ms": 1e3 * stats.percentile(pooled, 99),
        "samples": len(pooled),
        "attempted": attempted,
        "failed": failed,
        "cache_hit_rate": hits / len(pooled) if pooled else 0.0,
        "errors": [error for s in samples for error in s.errors][:5],
    }


def replay(
    client, ops, recorder=None, name: str = "", parent: str | None = None, sink: list | None = None
) -> list[float]:
    """One client issues ``ops`` in order; returns the per-op seconds.

    With a ``recorder`` each op is also written as a span (the traced
    pass); ``sink`` collects what the client got back.
    """
    out = []
    for position, op in enumerate(ops):
        start = time.perf_counter()
        _ok, raw = client.issue(int(op))
        end = time.perf_counter()
        out.append(end - start)
        if recorder is not None:
            recorder.span(name, start, end, parent, position)
        if sink is not None:
            sink.append(raw)
    return out
