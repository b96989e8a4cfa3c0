"""Zero-overhead-when-off tracing and metrics primitives.

The engine, the stores and the scenario layer all report through one
process-local tracer reached via :func:`current_tracer`.  By default that
tracer is the :data:`NULL_TRACER` singleton: every call is a no-op method on
a stateless object, no :class:`Span` is ever allocated, and — critically —
nothing here ever touches RNG state, so enabling telemetry can never change
a result (the golden suite replays bit-identical with tracing on).

Activation paths:

* ``EngineSession(telemetry=Tracer())`` installs a tracer for the session's
  lifetime and restores the previous one on close;
* ``REPRO_TRACE=1`` promotes the process default to a live tracer the first
  time anything asks for it (the CLI uses this for ad-hoc runs);
* :func:`set_tracer` / :func:`use_tracer` for explicit control (tests, the
  ``scenario run --trace`` path).

A :class:`Tracer` records three kinds of facts:

* **spans** — named intervals with monotonic-ns start/end, free-form
  attributes and a parent id (``tracer.span("task.execute", trial=3)`` as a
  context manager);
* **counters** — monotonically accumulated integers/floats
  (``tracer.counter("cache.hit")``);
* **timers** — sugar over counters recording both total nanoseconds and
  call counts (``with tracer.timer("result_store.append"): ...``).

Worker processes build their own short-lived tracer per chunk and ship its
spans/counters back with the chunk results; the parent re-parents them under
its fan-out span via :meth:`Tracer.adopt` (see
:mod:`repro.engine.executors`).

Progress bars and future early-stop hooks attach as
:class:`~repro.telemetry.progress.TelemetryCallbacks` via
:meth:`Tracer.add_callback`; the engine drivers fire ``batch_start`` /
``task_done`` / ``batch_done`` and the scenario aggregator ``point_done``
without knowing who listens.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Union

#: Environment variable promoting the process-default tracer to a live one.
TRACE_ENV = "REPRO_TRACE"

Number = Union[int, float]


class Span:
    """One named interval: monotonic-ns bounds, attributes, parent link.

    Spans are context managers handed out (already started) by
    :meth:`Tracer.span`; exiting the ``with`` block stamps ``end_ns`` and
    files the span with its tracer.  Instant "event" spans (the scenario
    aggregator's per-point records) simply carry ``end_ns == start_ns``.
    """

    __slots__ = ("name", "span_id", "parent_id", "start_ns", "end_ns",
                 "attributes", "_tracer")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start_ns: int,
        attributes: Dict[str, object],
        tracer: Optional["Tracer"] = None,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.attributes = attributes
        self._tracer = tracer

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def set(self, **attributes) -> "Span":
        """Merge attributes into the span (chainable)."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._tracer is not None:
            self._tracer._finish(self)

    def to_payload(self) -> dict:
        """The picklable/JSON form workers ship and exporters write."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Span":
        span = cls(
            payload["name"], payload["span_id"], payload.get("parent_id"),
            payload["start_ns"], dict(payload.get("attributes", {})),
        )
        span.end_ns = payload["end_ns"]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"{self.duration_ns / 1e6:.3f}ms, {self.attributes})"
        )


class _NullSpan:
    """The one span-shaped object the no-op path ever hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def set(self, **attributes) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _Timer:
    """Context manager behind :meth:`Tracer.timer`."""

    __slots__ = ("_tracer", "_name", "_start")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Timer":
        self._start = time.monotonic_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.monotonic_ns() - self._start
        self._tracer.counter(self._name + ".ns", elapsed)
        self._tracer.counter(self._name + ".calls", 1)


class Tracer:
    """A live, process-local recorder of spans, counters and callbacks.

    Not thread-safe by design: the engine is process-parallel, and each
    worker records into its own chunk tracer whose payload the parent
    adopts.  ``spans`` holds *finished* spans in completion order.
    """

    enabled = True

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[str, Number] = {}
        self.callbacks: List[object] = []
        self._stack: List[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes) -> Span:
        """Start (and return) a span; close it by exiting the ``with``."""
        span = Span(
            name,
            self._next_id,
            self._stack[-1].span_id if self._stack else None,
            time.monotonic_ns(),
            attributes,
            tracer=self,
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def event(self, name: str, **attributes) -> Span:
        """An instant span (start == end), filed immediately."""
        with self.span(name, **attributes) as span:
            pass
        return span

    def _finish(self, span: Span) -> None:
        span.end_ns = time.monotonic_ns()
        # Out-of-order exits (rare: generators, explicit __exit__) still
        # remove the right entry instead of corrupting the ancestry stack.
        for index in range(len(self._stack) - 1, -1, -1):
            if self._stack[index] is span:
                del self._stack[index]
                break
        self.spans.append(span)

    # ------------------------------------------------------------------
    # Counters and timers
    # ------------------------------------------------------------------
    def counter(self, name: str, value: Number = 1) -> None:
        """Accumulate ``value`` into the named counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def timer(self, name: str) -> _Timer:
        """Record a block's wall time into ``<name>.ns`` / ``<name>.calls``."""
        return _Timer(self, name)

    # ------------------------------------------------------------------
    # Callback dispatch (progress bars, early-stop hooks)
    # ------------------------------------------------------------------
    def add_callback(self, callback) -> None:
        """Attach a :class:`~repro.telemetry.progress.TelemetryCallbacks`."""
        self.callbacks.append(callback)

    def batch_start(self, total: int) -> None:
        for callback in self.callbacks:
            callback.on_batch_start(total)

    def task_done(self, task, gain: float) -> None:
        for callback in self.callbacks:
            callback.on_task_done(task, gain)

    def point_done(self, figure: str, series: str, value: float,
                   mean: float, stderr: float, trials: int) -> None:
        for callback in self.callbacks:
            callback.on_point_done(figure, series, value, mean, stderr, trials)

    def batch_done(self, stats: dict) -> None:
        for callback in self.callbacks:
            callback.on_batch_done(stats)

    # ------------------------------------------------------------------
    # Worker payload exchange
    # ------------------------------------------------------------------
    def spans_payload(self) -> List[dict]:
        """Finished spans as payload dicts (what a worker ships back)."""
        return [span.to_payload() for span in self.spans]

    def adopt(
        self,
        span_payloads: List[dict],
        parent_id: Optional[int] = None,
        counters: Optional[Dict[str, Number]] = None,
    ) -> None:
        """Merge a worker tracer's output into this one.

        Spans get fresh ids from this tracer's sequence; internal
        parent/child links are remapped, and payload roots are re-parented
        under ``parent_id`` (the parent-side fan-out span), so a merged
        trace reads as one tree.  Worker counters accumulate into ours.
        """
        id_map: Dict[int, int] = {}
        for payload in span_payloads:
            id_map[payload["span_id"]] = self._next_id
            self._next_id += 1
        for payload in span_payloads:
            span = Span.from_payload(payload)
            span.span_id = id_map[span.span_id]
            span.parent_id = (
                id_map[span.parent_id]
                if span.parent_id in id_map
                else parent_id
            )
            self.spans.append(span)
        for name, value in (counters or {}).items():
            self.counter(name, value)


class NullTracer:
    """The disabled tracer: stateless, allocation-free, always installed
    unless something turned telemetry on."""

    enabled = False
    #: Class-level empties so accidental reads look like a fresh tracer.
    spans: tuple = ()
    counters: Dict[str, Number] = {}
    callbacks: tuple = ()

    def span(self, name: str, **attributes) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attributes) -> _NullSpan:
        return _NULL_SPAN

    def counter(self, name: str, value: Number = 1) -> None:
        pass

    def timer(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def add_callback(self, callback) -> None:
        raise RuntimeError(
            "cannot attach callbacks to the disabled tracer; install a "
            "Tracer first (EngineSession(telemetry=...) or set_tracer)"
        )

    def batch_start(self, total: int) -> None:
        pass

    def task_done(self, task, gain: float) -> None:
        pass

    def point_done(self, figure, series, value, mean, stderr, trials) -> None:
        pass

    def batch_done(self, stats: dict) -> None:
        pass

    def spans_payload(self) -> List[dict]:
        return []

    def adopt(self, span_payloads, parent_id=None, counters=None) -> None:
        pass


#: The process-wide disabled tracer (identity-comparable singleton).
NULL_TRACER = NullTracer()

TracerLike = Union[Tracer, NullTracer]

_TRACER: TracerLike = NULL_TRACER
_env_checked = False


def current_tracer() -> TracerLike:
    """The process-local tracer every instrumentation point reports to.

    Defaults to :data:`NULL_TRACER`; the first call promotes it to a live
    :class:`Tracer` when ``REPRO_TRACE`` is set to anything but ``0``/empty.
    """
    global _TRACER, _env_checked
    if not _env_checked:
        _env_checked = True
        if _TRACER is NULL_TRACER and os.environ.get(TRACE_ENV, "") not in ("", "0"):
            _TRACER = Tracer()
    return _TRACER


def set_tracer(tracer: Optional[TracerLike]) -> TracerLike:
    """Install ``tracer`` (None -> :data:`NULL_TRACER`); returns the previous.

    An explicit install wins over ``REPRO_TRACE`` — setting the null tracer
    after the env promoted one genuinely disables tracing.
    """
    global _TRACER, _env_checked
    _env_checked = True
    previous = _TRACER
    _TRACER = tracer if tracer is not None else NULL_TRACER
    return previous


def reset_env_activation() -> None:
    """Re-arm the one-shot ``REPRO_TRACE`` check (tests toggling the env)."""
    global _env_checked
    _env_checked = False


class use_tracer:
    """Context manager installing a tracer and restoring the previous one."""

    def __init__(self, tracer: Optional[TracerLike]):
        self._tracer = tracer

    def __enter__(self) -> TracerLike:
        self._previous = set_tracer(self._tracer)
        return current_tracer()

    def __exit__(self, *exc_info) -> None:
        set_tracer(self._previous)
