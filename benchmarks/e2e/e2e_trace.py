"""Per-layer spans of the records-to-alarms benchmark.

The traced run opens every span from the benchmark's own files: a
``bench.batch`` root per batch, ``bench.convert`` and
``monitor.observe_batch`` under it, and one span around each public
method the monitor calls on its layers, installed by replacing the
bound method on the instance (:func:`instrument`).  The library's own
spans (``sketch.hash_bulk``, ``sketch.scatter``, ``sketch.base_topk``,
``monitor.window_advance``, ``sharded.delta_sync``, ...) record on the
same tracer and so nest under the benchmark's spans.  Self times come
from the resulting trees.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import Tracer
from repro.obs.catalog import SHARDED_DELTA_BYTES, SHARDED_FULL_RESYNCS

from e2e_inputs import Engine

ROOT_SPAN = "bench.batch"
CONVERT = "bench.convert"
OBSERVE = "monitor.observe_batch"

Path = Tuple[str, ...]


def _wrap(owner: Any, method: str, name: str, tracer: Tracer) -> None:
    """Replace ``owner.method`` with a version that runs inside a span."""
    inner: Callable[..., Any] = getattr(owner, method)
    span = tracer.span

    def traced(*args: Any, **kwargs: Any) -> Any:
        with span(name):
            return inner(*args, **kwargs)

    setattr(owner, method, traced)


def instrument(engine: Engine, tracer: Tracer) -> None:
    """Span every layer call the monitor makes, on this instance only."""
    monitor = engine.monitor
    _wrap(monitor, "check_now", "monitor.check_now", tracer)
    _wrap(monitor, "current_top", "monitor.current_top", tracer)
    if engine.sharded is not None:
        _wrap(engine.sharded, "update_batch", "sharded.update_batch", tracer)
        _wrap(engine.sharded, "track_topk", "sharded.track_topk", tracer)
        _wrap(engine.sharded, "combined", "sharded.combined", tracer)
    else:
        _wrap(monitor.sketch, "update_batch", "tracking.update_batch", tracer)
        _wrap(monitor.sketch, "track_topk", "tracking.track_topk", tracer)
    if monitor.window is not None:
        _wrap(monitor.window, "observe_batch", "window.observe_batch", tracer)
        _wrap(monitor.window, "top_k", "window.top_k", tracer)


class SpanStats:
    """Span count, total and self time, keyed by the path from the root."""

    def __init__(self) -> None:
        self.count: Counter[Path] = Counter()
        self.total_ns: Counter[Path] = Counter()
        self.self_ns: Counter[Path] = Counter()

    def absorb(self, spans: Iterable[Dict[str, Any]]) -> None:
        """Fold in complete span trees (a drained buffer)."""
        spans = list(spans)
        by_id = {span["id"]: span for span in spans}
        children_ns: Counter[int] = Counter()
        for span in spans:
            if span["parent"]:
                children_ns[span["parent"]] += span["dur_ns"]
        paths: Dict[int, Path] = {}

        def path_of(span: Dict[str, Any]) -> Path:
            cached = paths.get(span["id"])
            if cached is None:
                parent = by_id.get(span["parent"])
                prefix = path_of(parent) if parent is not None else ()
                cached = prefix + (str(span["name"]),)
                paths[span["id"]] = cached
            return cached

        for span in spans:
            path = path_of(span)
            duration = int(span["dur_ns"])
            self.count[path] += 1
            self.total_ns[path] += duration
            self.self_ns[path] += duration - children_ns[span["id"]]

    def _select(self, table: "Counter[Path]", name: str,
                under: Optional[str]) -> int:
        return sum(
            value
            for path, value in table.items()
            if path[-1] == name and (under is None or under in path[:-1])
        )

    def calls(self, name: str, under: Optional[str] = None) -> int:
        """Spans named ``name`` (below a span named ``under``, if set)."""
        return self._select(self.count, name, under)

    def total_us(self, name: str, under: Optional[str] = None) -> float:
        """Summed duration of those spans, in microseconds."""
        return self._select(self.total_ns, name, under) / 1e3

    def self_us(self, name: str, under: Optional[str] = None) -> float:
        """Summed self time (duration minus children), in microseconds."""
        return self._select(self.self_ns, name, under) / 1e3

    def mean_us(self, name: str, under: Optional[str] = None) -> float:
        """Mean duration per span; 0 when the layer never ran."""
        calls = self.calls(name, under)
        return self.total_us(name, under) / calls if calls else 0.0

    def coverage(self) -> float:
        """Share of ``monitor.observe_batch`` time its layer spans cover.

        The rest is the monitor's own splitting and bookkeeping, which
        no layer span attributes.
        """
        total = self.total_us(OBSERVE)
        return 1.0 - self.self_us(OBSERVE) / total if total else 0.0


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    stats: SpanStats,
    records: int,
    updates: int,
    deletions: int,
    shards: "ShardCounters",
) -> Dict[str, float]:
    """Per-layer figures of one traced phase.

    ``records`` is 0 on Zipf input.  A layer the workload does not
    exercise reports 0: no records layer on Zipf input, no window
    without one, no shards in one process, and no tracking sketch in
    the benchmark process when shards hold it.
    """
    tracking = "tracking.update_batch"
    observe_calls = stats.calls(OBSERVE)
    engine_calls = stats.calls(tracking) + stats.calls("sharded.update_batch")
    return {
        "records.convert_us_per_record": _per(
            stats.total_us(CONVERT), records
        ),
        "records.updates_per_record": _per(updates, records),
        "records.delete_share": _per(deletions, updates) if records else 0.0,
        "tracking.update_batch_us_per_update": _per(
            stats.total_us(tracking), updates
        ),
        "tracking.mean_chunk_updates": _per(updates, stats.calls(tracking)),
        "tracking.track_topk_us": stats.mean_us("tracking.track_topk"),
        "sketch.hash_bulk_us_per_update": _per(
            stats.total_us("sketch.hash_bulk", tracking), updates
        ),
        "sketch.scatter_us_per_update": _per(
            stats.total_us("sketch.scatter", tracking), updates
        ),
        "sketch.update_batch_self_us_per_update": _per(
            stats.self_us("sketch.update_batch", tracking), updates
        ),
        "monitor.observe_batch_self_us_per_update": _per(
            stats.self_us(OBSERVE), updates
        ),
        "monitor.chunks_per_batch": _per(engine_calls, observe_calls),
        "monitor.checks": float(stats.calls("monitor.check_now")),
        "monitor.check_us": stats.mean_us("monitor.check_now"),
        "monitor.score_self_us": _per(
            stats.self_us("monitor.check_now"),
            stats.calls("monitor.check_now"),
        ),
        "window.observe_batch_us_per_update": _per(
            stats.total_us("window.observe_batch"), updates
        ),
        "window.advances": float(stats.calls("monitor.window_advance")),
        "window.advance_ms": stats.mean_us("monitor.window_advance") / 1e3,
        "window.top_k_us": stats.mean_us("window.top_k"),
        "sketch.base_topk_us": stats.mean_us("sketch.base_topk"),
        "sharded.route_us_per_update": _per(
            stats.total_us("sharded.update_batch"), updates
        ),
        "sharded.syncs": float(stats.calls("sharded.combined")),
        "sharded.sync_ms": stats.mean_us("sharded.combined") / 1e3,
        "sharded.delta_sync_ms": stats.mean_us("sharded.delta_sync") / 1e3,
        "sharded.delta_bytes_per_sync": _per(shards.bytes, shards.syncs),
        "sharded.full_resyncs": float(shards.full_resyncs),
        "sharded.shard_skew": max(shards.skew) if shards.skew else 0.0,
        "trace.coverage": stats.coverage(),
    }


class ShardCounters:
    """Delta-sync counters of the traced reps, read from each rep's
    ``obs`` registry.

    Each rep is read after its set-up, so the set-up sync's full resync
    is not counted.
    """

    def __init__(self) -> None:
        self.bytes = 0
        self.syncs = 0
        self.full_resyncs = 0
        self.skew: List[float] = []

    @staticmethod
    def read(engine: Engine) -> Tuple[int, int, int]:
        """Delta bytes, sync count and full resyncs so far."""
        assert engine.obs is not None
        delta = engine.obs.histogram_from(SHARDED_DELTA_BYTES)
        resyncs = engine.obs.counter_from(SHARDED_FULL_RESYNCS)
        return delta.sum, delta.count, resyncs.value

    def finish(self, engine: Engine, started: Tuple[int, int, int]) -> None:
        """Add the rep's increments and its shard load balance."""
        assert engine.sharded is not None
        total, count, resyncs = self.read(engine)
        self.bytes += total - started[0]
        self.syncs += count - started[1]
        self.full_resyncs += resyncs - started[2]
        counts = engine.sharded.shard_update_counts()
        mean = sum(counts) / len(counts)
        if mean:
            self.skew.append(max(counts) / mean)
