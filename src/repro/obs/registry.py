"""Process-wide metrics registry: counters, gauges, histogram families.

A :class:`MetricsRegistry` owns named metric *families*; a family with
label names fans out into one child metric per distinct label set, so
``registry.counter("queries_total", labelnames=("kind",))`` yields one
counter per query kind while the exporter still sees a single family.

Lock discipline: the registry hands every metric it creates the *same*
re-entrant lock, so a :meth:`MetricsRegistry.snapshot` is one
consistent cut across every counter, gauge and histogram, and
histogram merges between registry metrics are a single acquisition.

*Collectors* are callables returning ``{name: value}`` evaluated at
snapshot/export time; the kernel and index layers publish their
lock-free hot-path counters this way instead of paying a lock per
chunk (see :mod:`repro.obs.bridge`).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable

from repro.errors import ObservabilityError
from repro.obs.metrics import LatencyHistogram

#: A collector contributes ``{metric_name: value}`` gauges at read time.
Collector = Callable[[], dict[str, float]]

#: Metric/label name charset (Prometheus-compatible).
_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or any(ch not in _NAME_OK for ch in name):
        raise ObservabilityError(f"invalid metric name {name!r}")
    return name


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0: counters only go up)."""
        if amount < 0:
            raise ObservabilityError("counters cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        with self._lock:
            return self._value

    def reset(self) -> None:
        """Zero the counter (metric resets, tests)."""
        with self._lock:
            self._value = 0.0


class Gauge:
    """Point-in-time value that can move both ways."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value

    def reset(self) -> None:
        """Zero the gauge."""
        with self._lock:
            self._value = 0.0


#: Metric kind -> child factory.
_KINDS = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": LatencyHistogram,
}


class MetricFamily:
    """One named metric with zero or more label dimensions.

    With empty ``labelnames`` the family is its own single child and
    the metric methods (``inc``/``set``/``record``/…) delegate to it,
    so unlabeled usage stays one call:
    ``registry.counter("swaps_total").inc()``.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: tuple[str, ...],
        lock: threading.RLock,
    ) -> None:
        self.name = _check_name(name)
        self.kind = kind
        self.help = help_text
        self.labelnames = tuple(_check_name(label) for label in labelnames)
        self._lock = lock
        self._children: dict[tuple[str, ...], object] = {}

    def _key(self, labelvalues: dict[str, str]) -> tuple[str, ...]:
        if set(labelvalues) != set(self.labelnames):
            raise ObservabilityError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        return tuple(str(labelvalues[label]) for label in self.labelnames)

    def labels(self, **labelvalues: str):
        """The child metric for one label set (created on first use)."""
        key = self._key(labelvalues)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = _KINDS[self.kind](self._lock)
                self._children[key] = child
            return child

    def peek(self, **labelvalues: str) -> float:
        """A counter or gauge child's value, 0 for a label set never touched.

        Unlike :meth:`labels` it creates no child, so reading a count
        (a health check does, on every probe) changes no exposition.
        """
        key = self._key(labelvalues)
        with self._lock:
            child = self._children.get(key)
            return 0.0 if child is None else child.value  # type: ignore[attr-defined]

    def samples(self) -> list[tuple[tuple[tuple[str, str], ...], object]]:
        """Every (label pairs, child metric) of the family."""
        with self._lock:
            return [
                (tuple(zip(self.labelnames, key)), child)
                for key, child in sorted(self._children.items())
            ]

    def reset(self) -> None:
        """Reset every child's value (children themselves are kept)."""
        with self._lock:
            for child in self._children.values():
                child.reset()  # type: ignore[attr-defined]

    # -- unlabeled convenience: the family acts as its single child. --

    def _solo(self):
        if self.labelnames:
            raise ObservabilityError(
                f"{self.name} is labeled by {self.labelnames}; call .labels()"
            )
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        """Unlabeled counter/gauge increment."""
        self._solo().inc(amount)  # type: ignore[attr-defined]

    def set(self, value: float) -> None:
        """Unlabeled gauge set."""
        self._solo().set(value)  # type: ignore[attr-defined]

    def record(self, seconds: float) -> None:
        """Unlabeled histogram observation."""
        self._solo().record(seconds)  # type: ignore[attr-defined]

    def quantile(self, q: float) -> float:
        """Unlabeled histogram quantile."""
        return self._solo().quantile(q)  # type: ignore[attr-defined]

    @property
    def value(self) -> float:
        """Unlabeled counter/gauge value."""
        return self._solo().value  # type: ignore[attr-defined]

    @property
    def count(self) -> int:
        """Unlabeled histogram observation count."""
        return self._solo().count  # type: ignore[attr-defined]

    @property
    def mean(self) -> float:
        """Unlabeled histogram mean."""
        return self._solo().mean  # type: ignore[attr-defined]

    @property
    def max(self) -> float:
        """Unlabeled histogram max."""
        return self._solo().max  # type: ignore[attr-defined]


class MetricsRegistry:
    """Named metric families plus read-time collectors, one shared lock."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, MetricFamily] = {}
        self._collectors: list[Collector] = []

    @property
    def lock(self) -> threading.RLock:
        """The single re-entrant lock all this registry's metrics share."""
        return self._lock

    def _family(
        self, name: str, kind: str, help_text: str, labelnames: Iterable[str]
    ) -> MetricFamily:
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help_text, labelnames, self._lock)
                self._families[name] = family
                return family
            if family.kind != kind:
                raise ObservabilityError(
                    f"{name} is a {family.kind}, requested as {kind}"
                )
            if labelnames and family.labelnames != labelnames:
                raise ObservabilityError(
                    f"{name} is labeled by {family.labelnames}, "
                    f"requested {labelnames}"
                )
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Iterable[str] = ()
    ) -> MetricFamily:
        """Get-or-create a counter family."""
        return self._family(name, "counter", help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Iterable[str] = ()
    ) -> MetricFamily:
        """Get-or-create a gauge family."""
        return self._family(name, "gauge", help_text, labelnames)

    def histogram(
        self, name: str, help_text: str = "", labelnames: Iterable[str] = ()
    ) -> MetricFamily:
        """Get-or-create a latency-histogram family."""
        return self._family(name, "histogram", help_text, labelnames)

    def register_collector(self, collector: Collector) -> Collector:
        """Add a read-time ``{name: value}`` contributor; returns it."""
        with self._lock:
            self._collectors.append(collector)
        return collector

    def families(self) -> list[MetricFamily]:
        """Registered families, name-sorted (exporter input)."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def collect(self) -> dict[str, float]:
        """Evaluate every collector into one merged ``{name: value}``."""
        with self._lock:
            collectors = list(self._collectors)
        merged: dict[str, float] = {}
        for collector in collectors:
            merged.update(collector())
        return merged

    def snapshot(self) -> dict[str, float]:
        """Flat point-in-time view of everything the registry knows.

        Counter and gauge samples appear as ``name`` or
        ``name{label=value,...}``; histograms expand to ``_count``,
        ``_sum``, ``_p50``/``_p95``/``_p99`` and ``_max`` entries.
        Collector values are merged in last.
        """
        view: dict[str, float] = {}
        with self._lock:
            for family in self.families():
                for labelpairs, child in family.samples():
                    suffix = (
                        "{"
                        + ",".join(f"{k}={v}" for k, v in labelpairs)
                        + "}"
                        if labelpairs
                        else ""
                    )
                    if family.kind == "histogram":
                        name = family.name
                        view[f"{name}_count{suffix}"] = float(child.count)
                        view[f"{name}_sum{suffix}"] = child.total
                        view[f"{name}_p50{suffix}"] = child.quantile(0.50)
                        view[f"{name}_p95{suffix}"] = child.quantile(0.95)
                        view[f"{name}_p99{suffix}"] = child.quantile(0.99)
                        view[f"{name}_max{suffix}"] = child.max
                    else:
                        view[f"{family.name}{suffix}"] = child.value
        view.update(self.collect())
        return view

    def dump(self) -> dict:
        """Wire-format state of every family plus collector values.

        The shape a shard worker returns for the ``metrics`` RPC op:
        JSON-safe plain data the coordinator can merge into a
        cluster-wide view (histograms carry their
        :meth:`~repro.obs.metrics.LatencyHistogram.state` and are
        rebuilt on the far side so merging reuses
        :meth:`~repro.obs.metrics.LatencyHistogram.merge`).
        """
        families = []
        with self._lock:
            for family in self.families():
                samples = []
                for labelpairs, child in family.samples():
                    sample: dict = {"labels": [list(pair) for pair in labelpairs]}
                    if family.kind == "histogram":
                        sample["histogram"] = child.state()  # type: ignore[attr-defined]
                    else:
                        sample["value"] = child.value  # type: ignore[attr-defined]
                    samples.append(sample)
                families.append(
                    {
                        "name": family.name,
                        "kind": family.kind,
                        "help": family.help,
                        "labelnames": list(family.labelnames),
                        "samples": samples,
                    }
                )
        return {"families": families, "collected": self.collect()}

    def reset(self) -> None:
        """Reset every metric value (families and collectors are kept)."""
        with self._lock:
            for family in self._families.values():
                family.reset()


#: The process-wide registry every subsystem reports into by default.
_GLOBAL_REGISTRY: MetricsRegistry | None = None
_GLOBAL_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-global :class:`MetricsRegistry` (created on first use).

    Default collectors for the kernel and index hot-path stats are
    attached lazily by :func:`repro.obs.bridge.register_default_collectors`
    the first time the registry is created.
    """
    global _GLOBAL_REGISTRY
    with _GLOBAL_LOCK:
        if _GLOBAL_REGISTRY is None:
            _GLOBAL_REGISTRY = MetricsRegistry()
            # Imported here (not at module top) so the obs package can
            # be imported by repro.core without a circular import.
            from repro.obs.bridge import register_default_collectors

            register_default_collectors(_GLOBAL_REGISTRY)
        return _GLOBAL_REGISTRY
