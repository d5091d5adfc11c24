"""Records-to-alarms benchmark: flow records in, alarms out.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload netsim_bulk --seed 1 \\
        --seconds 20 --trace 0

It drives the production detector (see ``e2e_inputs.py``) through its
public API on one of three workloads generated from ``--seed``, prints
every metric as ``name = value unit`` and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  It exits 1
when any detection pass raised other alarms than the oracle's, or a
correctness check failed, and 2 on bad arguments.

Workloads (``BENCHMARK.json`` records why each is there):

* ``netsim_bulk`` -- closed loop over the scenario's flow records,
  1024 records per batch, each batch converted by one stream-long
  ``records_to_updates`` converter and fed to ``observe_batch``.
* ``zipf_window`` -- closed loop, 1024 Zipf updates per batch, into the
  monitor with an 8 x 5000-update ``SlidingWindowSketch``.
* ``zipf_shard2`` -- the same stream through two process shards.

``--trace 0`` times the workload for ``--seconds`` with tracing off and
reports the end-to-end metrics.  ``--trace 1`` spends half the time
untraced and half traced and reports the per-layer metrics, computed
from the span trees of the traced half (``e2e_trace.py``).

A run repeats whole passes over the stream, each with a fresh detector,
until ``--seconds`` have passed; set-up (construction up to the first
accepted batch) is timed apart from the batches.  The oracle's alarms
are computed after the measurement, so the oracle's memory stays out of
``peak_rss_mb``.

Every batch and every timed set-up is followed, untimed, by a slice of
fixed calibration work (``e2e_speed.py``), and the gated times below
are scaled to a reference host speed by the slices run beside them:
the host's speed drifts up to 2x over seconds, which would otherwise
swamp every regression bound.  The unscaled figures are printed too
(``# unscaled:``).

End-to-end metrics.  A batch covers conversion, ingest, detection
passes and alarms; every workload is a closed loop, so a batch's time
is also the latency from handing its records over to receiving their
alarms.

* ``ingest_per_s`` -- items (records or updates) consumed per second
  spent in batches, which run back to back.
* ``batch_p50_ms`` -- wall time per batch (``batch_p90_ms`` is printed).
* ``setup_s`` -- median construction time over the run's timed set-ups:
  ``SETUP_TRIALS`` before the first rep and as many after each rep.
* ``state_bytes`` -- ``space_bytes()`` of the tracking sketch, window,
  shards and the shards' running combined sketch at the end of the
  stream.
* ``peak_rss_mb`` -- resident-set high-water mark of the benchmark
  process over the measurement (shard workers not included).

Detection passes whose alarms ``(dest, severity, updates_seen,
estimate)`` differ from the oracle's count as ``failed`` out of
``attempted``; ``fail_ratio`` is printed.  ``netsim_bulk`` also
requires the SYN-flood victim, and not the flash crowd, to alarm, and
then runs the production detector once over the paper's concurrent
scenario, where the victim must alarm too.  The detector also alarms on
the flash crowd there, a known defect that is printed as ``# KNOWN
DEFECT`` on every run and does not fail it.

Per-layer metrics are listed in ``LAYER_UNITS`` and defined in
``e2e_trace.layer_metrics``.  ``trace.overhead`` is untraced over traced
``ingest_per_s``, minus 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "src"))
try:
    import repro  # noqa: F401
except ImportError:
    sys.exit("run.py: no repro package under src/; run it from a checkout")

import numpy as np  # noqa: E402

from repro.monitor.alarms import Alarm  # noqa: E402
from repro.obs import NULL_TRACER, Tracer, install_tracer  # noqa: E402
from repro.obs import uninstall_tracer  # noqa: E402

from e2e_inputs import (  # noqa: E402
    BATCH_ITEMS,
    CONFIG,
    VICTIM,
    CROWD_DEST,
    WORKLOADS,
    Engine,
    Inputs,
    Workload,
    concurrent_alarms,
    group_by_pass,
    robustness_failures,
)
from e2e_speed import REFERENCE_NS, calibrate, scale_factors  # noqa: E402
from e2e_trace import (  # noqa: E402
    CONVERT,
    OBSERVE,
    ROOT_SPAN,
    ShardCounters,
    SpanStats,
    instrument,
    layer_metrics,
)

#: Divisor applied to every input size; ``tiny`` is the self-test size.
SIZES = {"full": 1, "tiny": 20}
#: Constructions timed before the first rep and after every rep of an
#: untraced run, so ``setup_s`` is a median of many taken across the
#: run.  Each block of trials is scaled by its own calibration slices.
SETUP_TRIALS = 8
#: Consecutive batches scaled by one median calibration slice: 0.2 to
#: 0.5 s, shorter than the seconds over which the host's speed holds.
SPEED_GROUP = 16

TRACE_CAPACITY = 1 << 17
END_TO_END_UNITS = {
    "ingest_per_s": "1/s",
    "batch_p50_ms": "ms",
    "setup_s": "s",
    "state_bytes": "bytes",
    "peak_rss_mb": "MB",
}

#: Printed but not gated: across seeds its quartile spread reached 0.33
#: on ``zipf_shard2``, whose parent and two workers share two cores.  A
#: run's few hundred batches leave fewer than ten beyond a 99th
#: percentile.
TAIL_METRICS = ("batch_p90_ms",)

LAYER_UNITS = {
    "records.convert_us_per_record": "us",
    "records.updates_per_record": "ratio",
    "records.delete_share": "ratio",
    "tracking.update_batch_us_per_update": "us",
    "tracking.mean_chunk_updates": "count",
    "tracking.track_topk_us": "us",
    "sketch.hash_bulk_us_per_update": "us",
    "sketch.scatter_us_per_update": "us",
    "sketch.update_batch_self_us_per_update": "us",
    "monitor.observe_batch_self_us_per_update": "us",
    "monitor.chunks_per_batch": "count",
    "monitor.checks": "count",
    "monitor.check_us": "us",
    "monitor.score_self_us": "us",
    "window.observe_batch_us_per_update": "us",
    "window.advances": "count",
    "window.advance_ms": "ms",
    "window.top_k_us": "us",
    "sketch.base_topk_us": "us",
    "sharded.route_us_per_update": "us",
    "sharded.syncs": "count",
    "sharded.sync_ms": "ms",
    "sharded.delta_sync_ms": "ms",
    "sharded.delta_bytes_per_sync": "bytes",
    "sharded.full_resyncs": "count",
    "sharded.shard_skew": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

clock = time.perf_counter_ns


class Batch(NamedTuple):
    """One hand-over to the detector, times in ns of ``clock``.

    ``cal`` is the calibration slice run right after it, in ns.
    """

    start: int
    end: int
    item_lo: int
    item_hi: int
    update_lo: int
    update_hi: int
    cal: int


@dataclass
class Rep:
    """One pass of a fresh detector over the stream."""

    batches: List[Batch] = field(default_factory=list)
    alarms: List[Alarm] = field(default_factory=list)

    @property
    def updates(self) -> int:
        """Updates consumed by this rep."""
        return self.batches[-1].update_hi if self.batches else 0


@dataclass
class Phase:
    """Everything one measured phase (traced or not) produced."""

    reps: List[Rep] = field(default_factory=list)
    setup_ns: List[int] = field(default_factory=list)
    setup_cal: List[int] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    stats: SpanStats = field(default_factory=SpanStats)
    shards: ShardCounters = field(default_factory=ShardCounters)
    state_bytes: int = 0
    peak_rss_mb: float = 0.0

    def batches(self) -> List[Batch]:
        """Every batch of every rep, in order."""
        return [batch for rep in self.reps for batch in rep.batches]


def _reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """This process's resident-set high-water mark, in MB."""
    with open("/proc/self/status") as handle:
        match = re.search(r"VmHWM:\s+(\d+) kB", handle.read())
    return int(match.group(1)) / 1024 if match else 0.0


def _leaked_segments() -> List[str]:
    """Shared-memory segments a shard pool of this process left behind."""
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return []
    prefix = f"repro{os.getpid()}x"
    return [path.name for path in shm.iterdir()
            if path.name.startswith(prefix)]


def _close(engine: Engine, phase: Phase) -> None:
    """Release the engine; a live worker or segment fails the run."""
    engine.close()
    if engine.sharded is None:
        return
    live = multiprocessing.active_children()
    if live:
        phase.problems.append(f"{len(live)} shard worker(s) outlived close()")
        for process in live:
            process.terminate()
            process.join(timeout=5)
    leaked = _leaked_segments()
    if leaked:
        phase.problems.append(f"shared-memory segments left: {leaked}")


def _run_rep(inputs: Inputs, engine: Engine, tracer: Tracer,
             stats: SpanStats, all_cpus: bool) -> Rep:
    """Feed the whole stream to a fresh detector, batch after batch."""
    converter = inputs.converter()
    take = inputs.take
    observe = engine.monitor.observe_batch
    span = tracer.span
    before = inputs.updates_before
    total = inputs.num_items
    traced = tracer.enabled
    rep = Rep()
    batches = rep.batches
    item = update = 0
    while item < total:
        stop = min(total, item + BATCH_ITEMS)
        update_stop = int(before[stop])
        t0 = clock()
        with span(ROOT_SPAN):
            with span(CONVERT):
                batch = take(converter, update, update_stop)
            with span(OBSERVE):
                raised = observe(batch)
        t1 = clock()
        batches.append(Batch(t0, t1, item, stop, update, update_stop,
                             calibrate(all_cpus)))
        if raised:
            rep.alarms.extend(raised)
        if traced:
            stats.absorb(tracer.drain())
        item, update = stop, update_stop
    return rep


def run_phase(workload: Workload, inputs: Inputs, seed: int, scale: int,
              seconds: float, traced: bool, setup_trials: int) -> Phase:
    """Time whole reps until ``seconds`` have passed; returns the record.

    A rep started before the deadline runs to the end of the stream, so
    every run measures the same mix of stream positions: the scenario's
    flood phase costs more per batch than its flash-crowd phase, and a
    cut rep would shift the batch-time median between the two.
    """
    phase = Phase()
    # The sharded workload runs on every CPU, so its slices do too.
    all_cpus = workload.sharded
    gc.collect()
    _reset_peak_rss()

    def time_setups() -> None:
        for _ in range(setup_trials):
            started = clock()
            engine = workload.engine(seed, scale)
            phase.setup_ns.append(clock() - started)
            _close(engine, phase)
            phase.setup_cal.append(calibrate(all_cpus))

    time_setups()
    tracer = (Tracer(sample_every=1, capacity=TRACE_CAPACITY)
              if traced else NULL_TRACER)
    deadline = clock() + int(seconds * 1e9)
    while not phase.reps or clock() < deadline:
        engine = workload.engine(seed, scale)
        try:
            started = None
            if traced:
                instrument(engine, tracer)
                if engine.sharded is not None:
                    started = phase.shards.read(engine)
                install_tracer(tracer)
            try:
                rep = _run_rep(inputs, engine, tracer, phase.stats, all_cpus)
            finally:
                uninstall_tracer()
            if started is not None:
                phase.shards.finish(engine, started)
            if not phase.reps and not traced:
                phase.state_bytes = engine.state_bytes()
        finally:
            _close(engine, phase)
        phase.reps.append(rep)
        time_setups()
    phase.peak_rss_mb = _peak_rss_mb()
    if traced and len(tracer):
        phase.problems.append("spans were left outside a batch root")
    return phase


def end_to_end(phase: Phase, scaled: bool = True) -> Dict[str, float]:
    """The end-to-end metrics of an untraced phase.

    Times are scaled to the reference host speed unless ``scaled`` is
    false.
    """
    batches = phase.batches()
    factors = np.ones(len(batches))
    setup_s = np.array(phase.setup_ns, dtype=np.float64) / 1e9
    if scaled:
        factors = scale_factors([b.cal for b in batches], SPEED_GROUP)
        setup_s *= scale_factors(phase.setup_cal, SETUP_TRIALS)
    busy_ns = np.array([b.end - b.start for b in batches]) * factors
    items = sum(b.item_hi - b.item_lo for b in batches)
    p50, p90 = np.percentile(busy_ns, [50, 90]) / 1e6
    return {
        "ingest_per_s": float(items / busy_ns.sum()) * 1e9,
        "batch_p50_ms": float(p50),
        "batch_p90_ms": float(p90),
        "setup_s": float(np.median(setup_s)) if len(setup_s) else 0.0,
        "state_bytes": float(phase.state_bytes),
        "peak_rss_mb": phase.peak_rss_mb,
    }


def traced_layers(base: Phase, traced: Phase,
                  inputs: Inputs) -> Dict[str, float]:
    """The per-layer metrics of a traced phase, plus the trace cost."""
    batches = traced.batches()
    records = (sum(b.item_hi - b.item_lo for b in batches)
               if inputs.records is not None else 0)
    deleted = np.concatenate(
        [[0], np.cumsum([update.delta < 0 for update in inputs.updates])]
    )
    updates = sum(b.update_hi - b.update_lo for b in batches)
    deletions = int(sum(deleted[b.update_hi] - deleted[b.update_lo]
                        for b in batches))
    metrics = layer_metrics(traced.stats, records, updates, deletions,
                            traced.shards)
    untraced_rate = end_to_end(base)["ingest_per_s"]
    traced_rate = end_to_end(traced)["ingest_per_s"]
    metrics["trace.overhead"] = untraced_rate / traced_rate - 1.0
    return metrics


def verify(workload: Workload, inputs: Inputs, phases: List[Phase],
           seed: int, scale: int) -> Tuple[int, int, List[str]]:
    """Compare every detection pass with the oracle's.

    Returns ``(attempted, failed, problems)``: passes compared, passes
    whose alarms ``(dest, severity, updates_seen, estimate)`` differ,
    and every other failed check, the robustness claim on the timed
    scenario included.
    """
    oracle = workload.oracle(inputs, seed, scale)
    interval = CONFIG.check_interval
    attempted = failed = 0
    problems = [problem for phase in phases for problem in phase.problems]
    for phase in phases:
        for rep in phase.reps:
            measured = group_by_pass(rep.alarms)
            positions = range(interval, rep.updates + 1, interval)
            for position in positions:
                attempted += 1
                if measured.get(position, ()) != oracle.get(position, ()):
                    failed += 1
            if set(measured) - set(positions):
                problems.append("alarms raised outside detection passes")
    if inputs.records is not None:
        problems.extend(robustness_failures(oracle))
    return attempted, failed, problems


def concurrent_check(seed: int, scale: int) -> Tuple[List[str], List[str]]:
    """The robustness claim on the paper's concurrent scenario.

    Returns ``(problems, defects)``.  A silent victim is a failed check.
    An alarm on the flash crowd is a known defect of the detector (see
    ``e2e_inputs``), which the benchmark cannot change: it is reported
    on every run rather than failing every run.
    """
    alarms = concurrent_alarms(seed, scale)
    crowd = [alarm for alarm in alarms if alarm.dest == CROWD_DEST]
    problems = [] if any(alarm.dest == VICTIM for alarm in alarms) else [
        "concurrent scenario: the SYN-flood victim raised no alarm"
    ]
    defects = [
        f"the flash-crowd destination alarmed {len(crowd)} time(s), first "
        f"at update {crowd[0].updates_seen} with estimate "
        f"{crowd[0].estimated_frequency}"
    ] if crowd else []
    return problems, defects


def victim_detection(phase: Phase,
                     inputs: Inputs) -> Optional[Tuple[int, float]]:
    """Updates and ms from the victim's first update to its first alarm.

    Measured on the first rep, from the start of the batch holding the
    victim's first update; every rep covers the whole stream.
    """
    first = next((index for index, update in enumerate(inputs.updates)
                  if update.dest == VICTIM), None)
    rep = phase.reps[0]
    alarm = next((alarm for alarm in rep.alarms if alarm.dest == VICTIM),
                 None)
    if first is None or alarm is None:
        return None
    due = next(batch.start for batch in rep.batches
               if batch.update_lo <= first < batch.update_hi)
    done = next(batch.end for batch in rep.batches
                if batch.update_lo < alarm.updates_seen <= batch.update_hi)
    return alarm.updates_seen - first, (done - due) / 1e6


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    scale = SIZES[args.size]

    inputs = workload.inputs(args.seed, scale)
    # The inputs stay resident for the whole run; frozen, they no longer
    # add to the cost of every full collection the detector triggers.
    gc.collect()
    gc.freeze()
    if args.trace:
        base = run_phase(workload, inputs, args.seed, scale, args.seconds / 2,
                         traced=False, setup_trials=0)
        traced = run_phase(workload, inputs, args.seed, scale,
                           args.seconds / 2, traced=True, setup_trials=0)
        phases = [base, traced]
        metrics = traced_layers(base, traced, inputs)
        units = LAYER_UNITS
    else:
        phase = run_phase(workload, inputs, args.seed, scale, args.seconds,
                          traced=False, setup_trials=SETUP_TRIALS)
        phases = [phase]
        metrics = end_to_end(phase)
        units = END_TO_END_UNITS
    attempted, failed, problems = verify(workload, inputs, phases,
                                         args.seed, scale)
    defects: List[str] = []
    if inputs.records is not None:
        concurrent_problems, defects = concurrent_check(args.seed, scale)
        problems.extend(concurrent_problems)

    measured = phases[-1]
    batches = measured.batches()
    print(f"# workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} reps={len(measured.reps)} "
          f"batches={len(batches)} "
          f"items={sum(b.item_hi - b.item_lo for b in batches)} "
          f"setups={len(measured.setup_ns)}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"# passes={attempted} mismatched={failed} "
          f"fail_ratio={failed / attempted if attempted else 0.0:.6g}")
    if not args.trace:
        # Printed, not gated: their run-to-run spread exceeds any bound
        # the benchmark could hold (see ``TAIL_METRICS``).
        for name in TAIL_METRICS:
            print(f"# {name}={metrics[name]:.6g}")
        slices = np.array([b.cal for b in batches] + measured.setup_cal)
        print(f"# host: calibration slice median "
              f"{np.median(slices) / 1e3:.1f} us over {len(slices)} "
              f"(reference {REFERENCE_NS / 1e3:.0f} us), "
              f"p10-p90 {np.percentile(slices, 10) / 1e3:.1f}-"
              f"{np.percentile(slices, 90) / 1e3:.1f} us")
        unscaled = end_to_end(measured, scaled=False)
        print("# unscaled: " + " ".join(
            f"{name}={unscaled[name]:.6g}" for name in END_TO_END_UNITS
            if END_TO_END_UNITS[name] in ("1/s", "ms", "s")
        ))
    if inputs.records is not None:
        detection = victim_detection(measured, inputs)
        if detection is not None:
            print(f"# victim: alarm_delay_updates={detection[0]} "
                  f"first-batch-to-alarm={detection[1]:.3f} ms")
        for defect in defects:
            print(f"# KNOWN DEFECT (concurrent scenario): {defect}")
    for problem in problems:
        print(f"# FAILED CHECK: {problem}")
    correct = failed == 0 and not problems and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
