"""Serving metrics over the shared observability registry.

:class:`ServingMetrics` keeps its historical surface — ``record_query``
/ ``counter`` / ``snapshot`` / ``render`` — but every value now lives
in a :class:`~repro.obs.registry.MetricsRegistry`: counters in the
``serving_events_total`` family, latencies in
``serving_latency_seconds`` (overall) and
``serving_kind_latency_seconds{kind=…}`` histograms.  Handing the
process-global registry in (``ServingMetrics(registry=obs.get_registry())``,
what ``classminer serve`` does) makes the same numbers available to the
Prometheus exporter without changing the plain-text dump.
"""

from __future__ import annotations

import time

from repro.obs.metrics import format_seconds
from repro.obs.registry import MetricsRegistry

#: Query kinds the serving runtime distinguishes.
QUERY_KINDS = ("shot", "shot_flat", "scene", "event")


class ServingMetrics:
    """Thread-safe counters and histograms for one server's lifetime.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.registry.MetricsRegistry` to report
        into.  Defaults to a private registry so independent servers
        (and tests) never share counts; pass ``repro.obs.get_registry()``
        to publish through the process-wide export surface.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._registry = registry if registry is not None else MetricsRegistry()
        self._lock = self._registry.lock
        self._started = time.perf_counter()
        self._counters = self._registry.counter(
            "serving_events_total",
            "Serving runtime event counts, by event name.",
            labelnames=("event",),
        )
        self._latency = self._registry.histogram(
            "serving_latency_seconds",
            "Query execution latency, all query kinds.",
        )
        self._by_kind = self._registry.histogram(
            "serving_kind_latency_seconds",
            "Query execution latency, per query kind.",
            labelnames=("kind",),
        )

    @property
    def registry(self) -> MetricsRegistry:
        """The registry this server's metrics live in."""
        return self._registry

    def _inc(self, name: str, amount: float = 1.0) -> None:
        self._counters.labels(event=name).inc(amount)

    def record_query(
        self,
        kind: str,
        seconds: float,
        comparisons: int = 0,
        cache_hit: bool = False,
    ) -> None:
        """Account one completed query (the cache counts its own lookups)."""
        with self._lock:
            self._inc("queries_total")
            self._inc(f"queries_{kind}")
            if not cache_hit:
                self._inc("executed_queries")
                self._inc("comparisons_total", comparisons)
            self._latency.record(seconds)
            self._by_kind.labels(kind=kind).record(seconds)

    def record_rejection(self) -> None:
        """Account one admission-queue rejection (overload shed)."""
        self._inc("rejected_overload")

    def record_timeout(self) -> None:
        """Account one query that missed its deadline."""
        self._inc("deadline_timeouts")

    def record_error(self) -> None:
        """Account one query that failed with an error."""
        self._inc("errors")

    def record_generation_swap(self) -> None:
        """Account one snapshot generation swap."""
        self._inc("generation_swaps")

    def counter(self, name: str) -> int:
        """One counter's current value (0 when never touched)."""
        return int(self._counters.labels(event=name).value)

    def reset(self) -> None:
        """Zero everything and restart the uptime clock.

        Only this server's families are reset — a shared registry's
        other metrics (ingest, kernels) are left alone.
        """
        with self._lock:
            self._started = time.perf_counter()
            self._counters.reset()
            self._latency.reset()
            self._by_kind.reset()

    def snapshot(self) -> dict[str, float]:
        """Point-in-time flat view: counters plus derived rates."""
        with self._lock:
            view: dict[str, float] = {
                labels[0][1]: child.value
                for (labels, child) in self._counters.samples()
            }
            elapsed = max(time.perf_counter() - self._started, 1e-9)
            queries = self.counter("queries_total")
            executed = self.counter("executed_queries")
            view["uptime_seconds"] = elapsed
            view["qps"] = queries / elapsed
            view["comparisons_per_query"] = (
                self.counter("comparisons_total") / executed if executed else 0.0
            )
            view["latency_p50"] = self._latency.quantile(0.50)
            view["latency_p95"] = self._latency.quantile(0.95)
            view["latency_p99"] = self._latency.quantile(0.99)
            view["latency_mean"] = self._latency.mean
            view["latency_max"] = self._latency.max
            return view

    def render(self) -> str:
        """Plain-text metrics dump (the ``classminer serve`` report)."""
        view = self.snapshot()
        lines = [
            "serving metrics",
            f"  uptime           {view['uptime_seconds']:.2f}s",
            f"  queries          {int(view.get('queries_total', 0))}"
            f" ({view['qps']:.1f} qps)",
            f"  comparisons/q    {view['comparisons_per_query']:.1f} (executed only)",
            f"  rejected         {int(view.get('rejected_overload', 0))} overload,"
            f" {int(view.get('deadline_timeouts', 0))} deadline,"
            f" {int(view.get('errors', 0))} errors",
            f"  generation swaps {int(view.get('generation_swaps', 0))}",
            "  latency          p50 {p50}  p95 {p95}  p99 {p99}  max {mx}".format(
                p50=format_seconds(view["latency_p50"]),
                p95=format_seconds(view["latency_p95"]),
                p99=format_seconds(view["latency_p99"]),
                mx=format_seconds(view["latency_max"]),
            ),
        ]
        kinds = {
            labels[0][1]: hist for labels, hist in self._by_kind.samples()
        }
        for kind in QUERY_KINDS:
            hist = kinds.get(kind)
            if hist is None or not hist.count:
                continue
            lines.append(
                f"    {kind:<10} n={hist.count:<6} "
                f"p50 {format_seconds(hist.quantile(0.5))}  "
                f"p95 {format_seconds(hist.quantile(0.95))}  "
                f"p99 {format_seconds(hist.quantile(0.99))}"
            )
        return "\n".join(lines)
