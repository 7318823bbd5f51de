"""Spans, counters and duration aggregates for campaign telemetry.

The model is deliberately small:

* a **span** is a named duration of one of a fixed set of *kinds*
  (:data:`SPAN_KINDS`), measured with ``time.perf_counter``;
* an **event** is an instantaneous marker with attributes (job retried,
  worker respawned, quarantine recorded, ...);
* the :class:`MetricsRegistry` aggregates both into plain dicts —
  monotonic counters and per-kind ``(count, total_seconds)`` duration
  pairs — cheap enough to snapshot/delta per job, the same
  ``snapshot()``/``since()`` idiom `CacheStats` uses;
* the :class:`TelemetryCollector` owns a registry, an optional
  :class:`~repro.observability.sink.TraceSink`, and a list of subscriber
  callbacks (the live progress line attaches here).

Instrumented sites in the engine/runtime layers never hold a collector;
they read the module-global via :func:`current_collector` and take the
uninstrumented path when it is ``None``.  That keeps the telemetry-off
cost to a single global read per site, mirroring ``fault_plan=None``.

Determinism contract: nothing in this module may influence what a
campaign computes — spans and events observe, they do not steer.  See
``OBSERVABILITY.md``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# ---------------------------------------------------------------------------
# Span taxonomy
# ---------------------------------------------------------------------------

#: Whole campaign entry-point call (one per ``run_*_campaign``).
SPAN_CAMPAIGN = "campaign"
#: Campaign phase: curate / execute / reduce / triage (clsmith) or
#: filter / execute / reduce / triage (emi).
SPAN_PHASE = "phase"
#: One ``WorkerPool.run`` batch of jobs (a shard of the campaign).
SPAN_SHARD = "shard"
#: One ``execute_job`` dispatch, measured inside the worker that ran it.
SPAN_JOB = "job"
#: One engine ``lower`` call (per launch, unless the launch was handed an
#: already-lowered program).
SPAN_LOWER = "lower"
#: One ``PreparedProgram.bind`` call (per launch).
SPAN_BIND = "bind"
#: One device execution of a bound kernel.
SPAN_RUN = "run"
#: One outer reduction round (all passes over the current best).
SPAN_REDUCE_ROUND = "reduce-round"
#: One bisection probe (re-execution against a model/pass prefix).
SPAN_BISECT_PROBE = "bisect-probe"

SPAN_KINDS = (
    SPAN_CAMPAIGN,
    SPAN_PHASE,
    SPAN_SHARD,
    SPAN_JOB,
    SPAN_LOWER,
    SPAN_BIND,
    SPAN_RUN,
    SPAN_REDUCE_ROUND,
    SPAN_BISECT_PROBE,
)

#: Span kinds streamed to the trace sink.  Fine-grained kinds (lower /
#: bind / run / reduce-round / bisect-probe) fire thousands of times per
#: campaign; they aggregate into the registry (and per-job
#: ``JobTiming.spans``) but are not written line-by-line.
DEFAULT_SINK_KINDS = frozenset(
    {SPAN_CAMPAIGN, SPAN_PHASE, SPAN_SHARD, SPAN_JOB}
)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class MetricsRegistry:
    """Monotonic counters plus per-kind duration aggregates.

    Durations are kept as ``(count, total_seconds)`` pairs per span kind
    rather than raw samples so a registry stays O(#kinds) no matter how
    many spans fire — workers ship deltas of these pairs back over the
    result pipe inside :class:`JobTiming`.
    """

    __slots__ = ("counters", "_durations")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self._durations: Dict[str, List[float]] = {}  # kind -> [count, total]

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, kind: str, seconds: float) -> None:
        cell = self._durations.get(kind)
        if cell is None:
            self._durations[kind] = [1, seconds]
        else:
            cell[0] += 1
            cell[1] += seconds

    def durations(self) -> Dict[str, Tuple[int, float]]:
        """Per-kind ``(count, total_seconds)``, as immutable tuples."""
        return {k: (int(v[0]), v[1]) for k, v in self._durations.items()}

    def merge_spans(self, spans: Dict[str, Tuple[int, float]]) -> None:
        """Fold another registry's duration deltas into this one.

        Used by the pool when a *process* worker ships its per-job span
        aggregates back: the parent registry never saw those spans fire.
        (Serial / in-parent jobs record into the ambient registry
        directly and must not be merged twice.)
        """
        for kind, (count, total) in spans.items():
            cell = self._durations.get(kind)
            if cell is None:
                self._durations[kind] = [count, total]
            else:
                cell[0] += count
                cell[1] += total

    def snapshot_durations(self) -> Dict[str, Tuple[int, float]]:
        return self.durations()

    def durations_since(
        self, before: Dict[str, Tuple[int, float]]
    ) -> Dict[str, Tuple[int, float]]:
        """Delta of duration aggregates since a snapshot."""
        delta: Dict[str, Tuple[int, float]] = {}
        for kind, (count, total) in self.durations().items():
            b_count, b_total = before.get(kind, (0, 0.0))
            if count > b_count:
                delta[kind] = (count - b_count, total - b_total)
        return delta


# ---------------------------------------------------------------------------
# Per-job timing record
# ---------------------------------------------------------------------------


@dataclass
class JobTiming:
    """Wall-clock record for one ``execute_job`` call.

    Collected inside the worker that ran the job and shipped back over
    the existing result pipe alongside ``JobResult``.  Never persisted:
    ``encode_job_result`` excludes it so store bytes are identical with
    telemetry on or off, and it is not part of ``job_identity``.
    """

    duration_s: float
    cells: int = 0
    #: Fine-grained span aggregates (lower/bind/run/...) recorded while
    #: this job ran: kind -> (count, total_seconds).
    spans: Dict[str, Tuple[int, float]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Collector
# ---------------------------------------------------------------------------


class TelemetryCollector:
    """Accumulates spans/events; optionally streams them to a trace sink.

    One collector per campaign is the intended shape.  The collector is
    not thread-safe and not shared across processes — workers build
    their own throwaway collectors and ship :class:`JobTiming` deltas
    back instead.
    """

    def __init__(
        self,
        sink=None,
        clock: Callable[[], float] = time.perf_counter,
        sink_kinds=DEFAULT_SINK_KINDS,
    ) -> None:
        self.registry = MetricsRegistry()
        self.sink = sink
        self.sink_kinds = frozenset(sink_kinds)
        self._clock = clock
        self._epoch = clock()
        self._listeners: List[Callable[[str, str, dict], None]] = []

    # -- subscriptions ------------------------------------------------------

    def subscribe(self, listener: Callable[[str, str, dict], None]) -> None:
        """Register ``listener(record_type, kind, attrs)`` for live updates."""
        self._listeners.append(listener)

    # -- time ---------------------------------------------------------------

    def now_rel(self) -> float:
        """Seconds since this collector was created (monotonic)."""
        return self._clock() - self._epoch

    # -- spans / events -----------------------------------------------------

    @contextmanager
    def span(self, kind: str, name: str = "", **attrs) -> Iterator[None]:
        start = self._clock()
        try:
            yield
        finally:
            duration = self._clock() - start
            self.registry.observe(kind, duration)
            self.emit_span(kind, name, start - self._epoch, duration, attrs)

    def emit_span(
        self, kind: str, name: str, t: float, duration: float, attrs: dict
    ) -> None:
        """Publish an already-measured span (sink + listeners only).

        Callers that measured the duration elsewhere (e.g. the pool
        re-emitting a worker's ``JobTiming``) must ``registry.observe``
        themselves if they want it aggregated.
        """
        if self.sink is not None and kind in self.sink_kinds:
            self.sink.write(
                {
                    "type": "span",
                    "kind": kind,
                    "name": name,
                    "t": round(t, 6),
                    "dur": round(duration, 6),
                    "attrs": attrs,
                }
            )
        for listener in self._listeners:
            listener("span", kind, attrs)

    def event(self, kind: str, **attrs) -> None:
        """Record an instantaneous marker; counted as ``event:<kind>``."""
        self.registry.count("event:" + kind)
        if self.sink is not None:
            self.sink.write(
                {
                    "type": "event",
                    "kind": kind,
                    "t": round(self.now_rel(), 6),
                    "attrs": attrs,
                }
            )
        for listener in self._listeners:
            listener("event", kind, attrs)

    def count(self, name: str, n: int = 1) -> None:
        self.registry.count(name, n)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Flush final aggregates to the sink and close it."""
        if self.sink is not None:
            self.sink.write(
                {
                    "type": "counters",
                    "counters": dict(self.registry.counters),
                    "durations": {
                        k: [c, round(total, 6)]
                        for k, (c, total) in self.registry.durations().items()
                    },
                }
            )
            self.sink.close()

    def __enter__(self) -> "TelemetryCollector":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Ambient collector
# ---------------------------------------------------------------------------

_CURRENT: Optional[TelemetryCollector] = None


def current_collector() -> Optional[TelemetryCollector]:
    """The ambient collector, or ``None`` when telemetry is off.

    This is the *only* coupling instrumented sites have to telemetry:
    one global read, then the plain path when it returns ``None``.
    """
    return _CURRENT


@contextmanager
def use_collector(collector: Optional[TelemetryCollector]) -> Iterator[None]:
    """Install ``collector`` as the ambient collector for the block."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = collector
    try:
        yield
    finally:
        _CURRENT = previous


@contextmanager
def maybe_span(kind: str, name: str = "", **attrs) -> Iterator[None]:
    """Span against the ambient collector; no-op when telemetry is off."""
    collector = _CURRENT
    if collector is None:
        yield
    else:
        with collector.span(kind, name, **attrs):
            yield


# ---------------------------------------------------------------------------
# Campaign-level summary
# ---------------------------------------------------------------------------


@dataclass
class CampaignTelemetry:
    """Aggregated timing + health for one campaign run.

    Surfaced as ``result.telemetry`` on both campaign result types when
    a collector was passed; rendered (opt-in only — never by default)
    as a timing/health appendix on the triage Markdown report.
    """

    wall_s: float
    jobs: int
    cells: int
    counters: Dict[str, int]
    durations: Dict[str, Tuple[int, float]]
    health: Dict[str, int]

    def render_markdown(self) -> str:
        lines = ["## Telemetry appendix", ""]
        rate = self.cells / self.wall_s if self.wall_s > 0 else 0.0
        lines.append(
            f"- wall clock: {self.wall_s:.3f} s · {self.jobs} jobs · "
            f"{self.cells} cells ({rate:.1f} cells/s)"
        )
        if self.durations:
            parts = [
                f"{kind} {total:.3f}s ×{count}"
                for kind, (count, total) in sorted(self.durations.items())
            ]
            lines.append("- span totals: " + " · ".join(parts))
        health = " · ".join(
            f"{key.replace('_', ' ')} {value}"
            for key, value in sorted(self.health.items())
        )
        lines.append(f"- supervisor health: {health}")
        lines.append("")
        return "\n".join(lines)
