"""Nested span tracing on the monotonic clock.

A :class:`Tracer` produces :class:`Span` records — name, start offset,
duration, attributes, parent — nested via a per-thread span stack, so
instrumented code just writes::

    with obs.span("mine.shots") as sp:
        shots = detect_shots(stream)
        sp.set(shots=len(shots))

Tracing is **zero-cost when disabled**: the module-level
:func:`span` helper dispatches to the installed tracer, which defaults
to :data:`NULL_TRACER` — its ``span()`` returns one shared no-op
handle, so a disabled call is a dict build and two no-op methods, no
locks, no clock reads, no allocation per span (the enabled cost is
the layered benchmark's ``obs.trace_overhead_pct``).

Finished traces serialise one JSON object per span to a JSONL file and
render as a flame-style text tree (:func:`render_spans`), with each
span's share of its root's wall time.

Spans can also cross process boundaries: a caller stamps
``trace_id``/``parent_span`` onto an RPC frame, the remote side records
spans on its own private tracer (its epoch is the request's arrival
time, so starts are request-relative), ships them back as JSON in the
response frame, and the caller grafts them into its own trace with
:meth:`Tracer.attach_remote_spans` — remote span ids are remapped onto
the local id sequence and remote roots are re-parented under the local
RPC span, so the stitched tree renders as one flame.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ObservabilityError


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (the ``X-Trace-Id`` wire shape)."""
    return uuid.uuid4().hex[:16]


@dataclass
class Span:
    """One finished span.

    ``start`` is seconds since the tracer's epoch (its creation time)
    on the monotonic clock; ``duration`` is seconds; ``parent_id`` is
    ``None`` for roots.
    """

    span_id: int
    parent_id: int | None
    name: str
    start: float
    duration: float
    thread: str
    attributes: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """Plain-data form (one JSONL line)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "thread": self.thread,
            "attributes": self.attributes,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Span":
        """Rebuild a span serialised by :meth:`to_json`."""
        try:
            return cls(
                span_id=int(data["span_id"]),
                parent_id=(
                    None if data.get("parent_id") is None else int(data["parent_id"])
                ),
                name=str(data["name"]),
                start=float(data["start"]),
                duration=float(data["duration"]),
                thread=str(data.get("thread", "")),
                attributes=dict(data.get("attributes", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ObservabilityError(f"malformed trace span: {exc}") from exc


class _SpanHandle:
    """Context manager for one live span."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span_id", "_parent_id", "_start")

    def __init__(self, tracer: "Tracer", name: str, attributes: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._span_id = 0
        self._parent_id: int | None = None
        self._start = 0.0

    def set(self, **attributes) -> "_SpanHandle":
        """Attach attributes discovered mid-span (counts, cache hits)."""
        self._attributes.update(attributes)
        return self

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        stack = tracer._stack()
        self._parent_id = stack[-1] if stack else None
        self._span_id = next(tracer._ids)
        stack.append(self._span_id)
        self._start = tracer._clock()
        return self

    def __exit__(self, *_exc) -> None:
        tracer = self._tracer
        end = tracer._clock()
        stack = tracer._stack()
        if stack and stack[-1] == self._span_id:
            stack.pop()
        tracer._record(
            Span(
                span_id=self._span_id,
                parent_id=self._parent_id,
                name=self._name,
                start=self._start - tracer._epoch,
                duration=end - self._start,
                thread=threading.current_thread().name,
                attributes=self._attributes,
            )
        )


class _NullHandle:
    """The shared no-op span handle of a disabled tracer."""

    __slots__ = ()

    def set(self, **_attributes) -> "_NullHandle":
        return self

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, *_exc) -> None:
        return None


_NULL_HANDLE = _NullHandle()


class Tracer:
    """Collects spans from any thread; monotonic clock; JSONL output."""

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def span(self, name: str, **attributes):
        """Open a nested span; use as a context manager."""
        return _SpanHandle(self, name, attributes)

    def add_span(
        self,
        name: str,
        start: float,
        duration: float,
        parent: bool = True,
        **attributes,
    ) -> Span:
        """Record an already-finished span from explicit timestamps.

        Bridges (e.g. ingest :class:`~repro.ingest.progress.JobEvent`
        consumers) use this for work that completed elsewhere.
        ``start`` is a raw monotonic-clock reading; with ``parent`` the
        span nests under the calling thread's current span.
        """
        stack = self._stack()
        span = Span(
            span_id=next(self._ids),
            parent_id=stack[-1] if (parent and stack) else None,
            name=name,
            start=start - self._epoch,
            duration=duration,
            thread=threading.current_thread().name,
            attributes=attributes,
        )
        self._record(span)
        return span

    def now(self) -> float:
        """Seconds since this tracer's epoch, on its monotonic clock."""
        return self._clock() - self._epoch

    def current_span_id(self) -> int | None:
        """The calling thread's innermost open span id."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def current_trace_id(self) -> str | None:
        """The trace id adopted on the calling thread, if any."""
        return getattr(self._local, "trace_id", None)

    @contextmanager
    def adopt(self, trace_id: str | None):
        """Continue an existing trace on the calling thread.

        Context manager: while active, :meth:`current_trace_id` reports
        ``trace_id`` (``None`` adopts nothing).
        """
        previous = self.current_trace_id()
        if trace_id is not None:
            self._local.trace_id = trace_id
        try:
            yield
        finally:
            self._local.trace_id = previous

    def add_span_at(
        self,
        name: str,
        start: float,
        duration: float,
        parent_id: int | None = None,
        **attributes,
    ) -> Span:
        """Record a finished span from epoch-relative timestamps.

        Unlike :meth:`add_span`, ``start`` is already relative to this
        tracer's epoch (pair with :meth:`now`), and the parent is
        explicit rather than read from the thread's stack — the shape
        cross-thread and cross-process stitching needs.
        """
        span = Span(
            span_id=next(self._ids),
            parent_id=parent_id,
            name=name,
            start=start,
            duration=duration,
            thread=threading.current_thread().name,
            attributes=attributes,
        )
        self._record(span)
        return span

    def attach_remote_spans(
        self, spans: list[Span], parent_id: int | None, base_start: float
    ) -> int:
        """Graft spans recorded by a remote tracer into this trace.

        Remote span ids are remapped onto this tracer's id sequence (two
        shards both numbering from 1 must not collide), remote roots are
        re-parented under ``parent_id`` (normally the local RPC span),
        and starts shift by ``base_start`` — the remote epoch (request
        arrival) expressed on this tracer's clock. Returns the number of
        spans attached.
        """
        if not spans:
            return 0
        mapping = {sp.span_id: next(self._ids) for sp in spans}
        for sp in spans:
            self._record(
                Span(
                    span_id=mapping[sp.span_id],
                    parent_id=mapping.get(sp.parent_id, parent_id),
                    name=sp.name,
                    start=base_start + sp.start,
                    duration=sp.duration,
                    thread=sp.thread,
                    attributes=dict(sp.attributes),
                )
            )
        return len(spans)

    def spans(self) -> list[Span]:
        """Finished spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        """Drop every recorded span."""
        with self._lock:
            self._spans.clear()

    def write_jsonl(self, path: str | Path) -> Path:
        """Serialise every span, one JSON object per line."""
        path = Path(path)
        lines = [json.dumps(span.to_json()) for span in self.spans()]
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path

    def render(self) -> str:
        """Flame-style text tree of the recorded spans."""
        return render_spans(self.spans())


class NullTracer:
    """The disabled tracer: every operation is a no-op."""

    enabled = False

    def span(self, _name: str, **_attributes) -> _NullHandle:
        """A shared no-op handle (no allocation, no clock reads)."""
        return _NULL_HANDLE

    def add_span(self, *_args, **_kwargs) -> None:
        """Ignore bridged spans."""
        return None

    def now(self) -> float:
        """No clock while disabled."""
        return 0.0

    def current_span_id(self) -> None:
        """No open spans while disabled."""
        return None

    def current_trace_id(self) -> None:
        """No trace context while disabled."""
        return None

    def adopt(self, _trace_id=None) -> _NullHandle:
        """A shared no-op context (nothing to adopt)."""
        return _NULL_HANDLE

    def add_span_at(self, *_args, **_kwargs) -> None:
        """Ignore explicit spans."""
        return None

    def attach_remote_spans(self, *_args, **_kwargs) -> int:
        """Ignore remote spans."""
        return 0

    def spans(self) -> list[Span]:
        """Always empty."""
        return []

    def clear(self) -> None:
        """Nothing to drop."""
        return None

    def render(self) -> str:
        """Nothing to render."""
        return "(tracing disabled)"


#: The process-default tracer: disabled.
NULL_TRACER = NullTracer()

_active: Tracer | NullTracer = NULL_TRACER


def active_tracer() -> Tracer | NullTracer:
    """The tracer instrumentation currently reports to."""
    return _active


def install_tracer(tracer: Tracer | NullTracer | None):
    """Install ``tracer`` process-wide (None restores the no-op tracer).

    Returns the previously installed tracer so callers can restore it.
    """
    global _active
    previous = _active
    _active = tracer if tracer is not None else NULL_TRACER
    return previous


def span(name: str, **attributes):
    """Open a span on the active tracer (no-op while tracing is off)."""
    return _active.span(name, **attributes)


def current_trace_id() -> str | None:
    """The trace id adopted on the calling thread (None while off)."""
    return _active.current_trace_id()


def load_trace(path: str | Path) -> list[Span]:
    """Read spans back from a JSONL trace file."""
    spans: list[Span] = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ObservabilityError(f"cannot read trace file {path}: {exc}") from exc
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(f"malformed trace line: {exc}") from exc
        spans.append(Span.from_json(data))
    return spans


def _format_attrs(attributes: dict) -> str:
    if not attributes:
        return ""
    parts = []
    for key, value in attributes.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    return "  " + " ".join(parts)


def render_spans(spans: list[Span], max_spans: int = 200) -> str:
    """Flame-style text tree: nesting, durations, share of the root.

    Spans beyond ``max_spans`` per parent are elided with a summary
    line so a loadtest trace stays readable.
    """
    from repro.obs.metrics import format_seconds

    if not spans:
        return "(empty trace)"
    children: dict[int | None, list[Span]] = {}
    for sp in spans:
        children.setdefault(sp.parent_id, []).append(sp)
    for group in children.values():
        group.sort(key=lambda sp: sp.start)
    # Orphans (parent finished after pruning or cross-process) render as roots.
    ids = {sp.span_id for sp in spans}
    roots = [
        sp
        for parent, group in children.items()
        for sp in group
        if parent is None or parent not in ids
    ]
    roots.sort(key=lambda sp: sp.start)

    lines: list[str] = []

    def walk(sp: Span, prefix: str, child_prefix: str, root_duration: float) -> None:
        share = (
            f" ({100.0 * sp.duration / root_duration:.0f}%)"
            if root_duration > 0 and prefix
            else ""
        )
        lines.append(
            f"{prefix}{sp.name:<24} {format_seconds(sp.duration):>9}{share}"
            f"{_format_attrs(sp.attributes)}"
        )
        kids = children.get(sp.span_id, [])
        shown = kids[:max_spans]
        for index, kid in enumerate(shown):
            last = index == len(shown) - 1 and len(kids) <= max_spans
            branch = "└─ " if last else "├─ "
            extend = "   " if last else "│  "
            walk(kid, child_prefix + branch, child_prefix + extend, root_duration)
        if len(kids) > max_spans:
            lines.append(
                f"{child_prefix}└─ … {len(kids) - max_spans} more spans elided"
            )

    for root in roots[:max_spans]:
        walk(root, "", "", root.duration)
    if len(roots) > max_spans:
        lines.append(f"… {len(roots) - max_spans} more root spans elided")
    return "\n".join(lines)
