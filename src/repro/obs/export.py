"""Metric exporter: the Prometheus text format.

:func:`render_prometheus` emits the classic text exposition format —
``# HELP`` / ``# TYPE`` headers, ``name{label="value"} sample`` lines,
histograms as cumulative ``_bucket{le=…}`` series plus ``_sum`` and
``_count``.  It is the one-source case of the only renderer,
:func:`render_prometheus_dumps`, which renders the *merged* view
of several registry :meth:`~repro.obs.registry.MetricsRegistry.dump`
payloads (the coordinator's own registry plus one scrape per shard
worker), tagging each source's samples with extra labels such as
``shard="2"``; samples that still collide fold together — histograms
through :meth:`~repro.obs.metrics.LatencyHistogram.merge`, counters by
summing, gauges last-wins.  :func:`validate_prometheus_text` is a
line-format checker (used by CI) that catches malformed names, labels
and sample values without needing a real Prometheus server.
"""

from __future__ import annotations

import math
import re

from repro.obs.metrics import BUCKET_BOUNDS, LatencyHistogram
from repro.obs.registry import MetricsRegistry

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _escape_label(value: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in str(value))


def _labels_text(pairs) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label(value)}"' for name, value in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _histogram_lines(
    name: str, pairs: tuple, counts: list[int], total: float
) -> list[str]:
    """The cumulative ``_bucket``/``_sum``/``_count`` series of one sample."""
    lines: list[str] = []
    cumulative = 0
    for bound, count in zip(BUCKET_BOUNDS, counts):
        cumulative += count
        le_pairs = tuple(pairs) + (("le", _format_value(bound)),)
        lines.append(f"{name}_bucket{_labels_text(le_pairs)} {cumulative}")
    cumulative += counts[-1]
    inf_pairs = tuple(pairs) + (("le", "+Inf"),)
    lines.append(f"{name}_bucket{_labels_text(inf_pairs)} {cumulative}")
    lines.append(f"{name}_sum{_labels_text(pairs)} {_format_value(total)}")
    lines.append(f"{name}_count{_labels_text(pairs)} {cumulative}")
    return lines


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    return render_prometheus_dumps([({}, registry.dump())])


def render_prometheus_dumps(
    dumps: list[tuple[dict[str, str], dict]],
) -> str:
    """Merged Prometheus exposition of several registry dumps.

    ``dumps`` is ``[(extra_labels, registry.dump()), ...]`` — one entry
    per source (the coordinator's registry with no extra labels, each
    scraped worker with ``{"shard": "<id>"}``). Same-named families
    from different sources emit as one family whose samples carry the
    source's extra labels; a family whose kind disagrees with the first
    sighting is skipped rather than corrupting the exposition. Samples
    whose full label set still collides are folded: histograms via
    :meth:`LatencyHistogram.merge`, counters by summing, gauges by
    last-wins.
    """
    merged: dict[str, dict] = {}
    collected: list[tuple[str, tuple, float]] = []
    for extra_labels, dump in dumps:
        extra = tuple(
            (str(name), str(value)) for name, value in (extra_labels or {}).items()
        )
        for fam in dump.get("families", []):
            name, kind = str(fam["name"]), str(fam["kind"])
            entry = merged.get(name)
            if entry is None:
                entry = {
                    "kind": kind,
                    "help": str(fam.get("help", "")),
                    "samples": {},
                    "order": [],
                }
                merged[name] = entry
            elif entry["kind"] != kind:
                continue
            if not entry["help"] and fam.get("help"):
                entry["help"] = str(fam["help"])
            for sample in fam.get("samples", []):
                pairs = extra + tuple(
                    (str(k), str(v)) for k, v in sample.get("labels", [])
                )
                existing = entry["samples"].get(pairs)
                if kind == "histogram":
                    histogram = LatencyHistogram.from_state(
                        sample.get("histogram", {})
                    )
                    if existing is None:
                        entry["samples"][pairs] = histogram
                        entry["order"].append(pairs)
                    else:
                        existing.merge(histogram)
                else:
                    value = float(sample.get("value", 0.0))
                    if existing is None:
                        entry["samples"][pairs] = value
                        entry["order"].append(pairs)
                    elif kind == "counter":
                        entry["samples"][pairs] = existing + value
                    else:
                        entry["samples"][pairs] = value
        for name in sorted(dump.get("collected", {})):
            collected.append((str(name), extra, float(dump["collected"][name])))
    lines: list[str] = []
    for name in sorted(merged):
        entry = merged[name]
        if not entry["order"]:
            continue
        if entry["help"]:
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry['kind']}")
        for pairs in entry["order"]:
            child = entry["samples"][pairs]
            if entry["kind"] == "histogram":
                lines.extend(
                    _histogram_lines(name, pairs, child.bucket_counts(), child.total)
                )
            else:
                lines.append(f"{name}{_labels_text(pairs)} {_format_value(child)}")
    if collected:
        lines.append("# collected gauges (read-time collectors)")
        emitted_type: set[str] = set()
        for name, extra, value in sorted(collected, key=lambda item: item[:2]):
            if name not in emitted_type:
                lines.append(f"# TYPE {name} gauge")
                emitted_type.add(name)
            lines.append(f"{name}{_labels_text(extra)} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


#: One sample line: name, optional {labels}, one float value.
_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"'
_SAMPLE_RE = re.compile(
    rf"^(?P<name>{_METRIC_NAME})"
    rf"(?:\{{(?:{_LABEL})(?:,(?:{_LABEL}))*\}})?"
    rf" (?P<value>\S+)$"
)
_HELP_RE = re.compile(rf"^# HELP {_METRIC_NAME} .*$")
_TYPE_RE = re.compile(
    rf"^# TYPE {_METRIC_NAME} (counter|gauge|histogram|summary|untyped)$"
)


def validate_prometheus_text(text: str) -> list[str]:
    """Line-format check of a Prometheus exposition; returns violations.

    Accepts ``# HELP`` / ``# TYPE`` / other comments, blank lines and
    well-formed sample lines whose value parses as a float (or
    ±Inf/NaN).  An empty list means the text passed.
    """
    errors: list[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP"):
            if not _HELP_RE.match(line):
                errors.append(f"line {number}: malformed HELP comment: {line!r}")
            continue
        if line.startswith("# TYPE"):
            if not _TYPE_RE.match(line):
                errors.append(f"line {number}: malformed TYPE comment: {line!r}")
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            errors.append(f"line {number}: malformed sample: {line!r}")
            continue
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                errors.append(f"line {number}: non-numeric value {value!r}")
    return errors
