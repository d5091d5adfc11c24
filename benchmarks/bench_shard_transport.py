"""Sharded sync-path benchmark: delta sync vs whole-snapshot merges.

The process-backed :class:`~repro.sketch.sharded.ShardedSketch` has to
reconcile worker state with the parent on every ``combined()`` call
(the §5 distributed-monitor merge).  It does so by delta: workers ship
only the buckets dirtied since the previous sync, and the parent folds
the signed counter deltas into a running combined sketch, making each
sync O(changed) instead of O(state).

The baseline is the whole-state merge the delta path replaced, rebuilt
here from the pool's snapshots: every worker serializes its whole
sketch over its command pipe, and the parent loads each snapshot and
merges it into a fresh sketch.

The monitor's steady-state loop is *ingest a small batch, then query
top-k* — so that is what this bench times: each update chunk goes into
one bank, and only the sync + ``track_topk`` half of the cycle is on
the clock, once per path on the same resident state.  Bit-identity is
asserted first (both paths must match a single-process sketch exactly,
after bulk load and after the timed cycles), then delta must clear the
``REPRO_BENCH_SHARD_MIN_SPEEDUP`` bar (default and CI floor: 10x) over
the snapshot-merge baseline.  Results land in ``BENCH_shard.json``
(override: ``REPRO_BENCH_SHARD_OUT``).
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

import pytest

from repro.sketch import ShardedSketch, TrackingDistinctCountSketch
from repro.sketch.serialize import loads
from repro.types import FlowUpdate

from conftest import make_workload, print_table, scaled_pairs

#: Distinct pairs in the bulk-load workload.  The baseline's cost is
#: proportional to resident state, so the floor keeps the loaded
#: sketches at fig9 scale even under CI's REPRO_SCALE=0.2 smoke runs.
MIN_SHARD_PAIRS = 40_000

#: Worker processes per bank (matches the fig9 sharding experiments).
SHARDS = 3

#: Timed sync cycles and the ingest chunk size between them.  The
#: chunk is deliberately small relative to the bulk load: steady-state
#: syncs reconcile a trickle of fresh traffic against a large resident
#: sketch, which is exactly the regime the delta sync targets.
SYNC_CYCLES = 6
CHUNK_UPDATES = 1_000

#: Ingestion batch size (ingest cost is not what this bench measures).
INGEST_BATCH = 1024


def _chunks(updates: List[FlowUpdate]) -> List[List[FlowUpdate]]:
    """The per-cycle ingest chunks."""
    return [
        updates[start:start + CHUNK_UPDATES]
        for start in range(0, SYNC_CYCLES * CHUNK_UPDATES, CHUNK_UPDATES)
    ]


def _snapshot_merge(bank: ShardedSketch) -> TrackingDistinctCountSketch:
    """The baseline sync: a fresh sketch plus every shard's snapshot.

    All workers are asked first and answered after, so they serialize
    in parallel, as a whole-state sync path would run them.
    """
    merged = TrackingDistinctCountSketch(
        bank.params, seed=bank.seed, backend="packed"
    )
    for payload in bank._pool.snapshots():
        merged.merge(loads(payload, backend="packed"))
    return merged


def _assert_identical(
    sketch: TrackingDistinctCountSketch,
    single: TrackingDistinctCountSketch,
) -> None:
    assert sketch.structurally_equal(single)
    assert sketch.track_topk(10).as_dict() == (
        single.track_topk(10).as_dict()
    )


def _timed(sync) -> float:
    start = time.perf_counter()
    sync().track_topk(10)
    return time.perf_counter() - start


def test_shard_transport_sync_latency(ipv4_domain):
    """Delta syncs clear the 10x floor and stay bit-identical."""
    pairs = max(MIN_SHARD_PAIRS, scaled_pairs() // 4)
    updates, _ = make_workload(ipv4_domain, skew=1.5, seed=77, pairs=pairs)
    trickle, _ = make_workload(
        ipv4_domain, skew=1.5, seed=78,
        pairs=SYNC_CYCLES * CHUNK_UPDATES,
    )
    chunks = _chunks(trickle)

    bank = ShardedSketch(
        ipv4_domain, shards=SHARDS, seed=9, backend="process"
    )
    try:
        if bank.backend != "process":
            pytest.skip("multiprocessing unavailable on this platform")
        assert bank.transport == "delta"
        single = TrackingDistinctCountSketch(
            bank.params, seed=9, backend="packed"
        )
        single.process_stream(updates, batch_size=INGEST_BATCH)
        bank.process_stream(updates, batch_size=INGEST_BATCH)

        # Bit-identity first: both paths must reproduce the
        # single-process sketch exactly before they are worth timing.
        _assert_identical(bank.combined(), single)
        _assert_identical(_snapshot_merge(bank), single)

        seconds: Dict[str, List[float]] = {
            "snapshot_merge": [], "delta": [],
        }
        for chunk in chunks:
            bank.update_batch(chunk)
            single.process_stream(chunk)
            # Ingest is queued on the workers' FIFO pipes; the obs
            # round trip drains those queues so the clock below sees
            # only the sync itself, not residual ingest.
            bank.absorb_worker_obs()
            seconds["snapshot_merge"].append(
                _timed(lambda: _snapshot_merge(bank))
            )
            seconds["delta"].append(_timed(bank.combined))

        # ... and exactly again after the timed trickle, so the timed
        # paths themselves are covered by the identity contract.
        _assert_identical(bank.combined(), single)
        _assert_identical(_snapshot_merge(bank), single)
    finally:
        bank.close()

    results = {
        name: {
            "seconds_per_sync": sum(times) / len(times),
            "best_seconds_per_sync": min(times),
            "syncs_per_sec": len(times) / sum(times),
        }
        for name, times in seconds.items()
    }
    baseline = results["snapshot_merge"]["seconds_per_sync"]
    for data in results.values():
        data["speedup_vs_snapshot_merge"] = (
            baseline / data["seconds_per_sync"]
        )

    print_table(
        f"Sharded sync + top-k per cycle ({SHARDS} shards, "
        f"{pairs} resident pairs, {CHUNK_UPDATES}-update chunks)",
        ["sync path", "ms/sync", "best ms", "speedup"],
        [
            [name,
             f"{data['seconds_per_sync'] * 1e3:.2f}",
             f"{data['best_seconds_per_sync'] * 1e3:.2f}",
             f"{data['speedup_vs_snapshot_merge']:.2f}x"]
            for name, data in results.items()
        ],
    )

    out_path = os.environ.get("REPRO_BENCH_SHARD_OUT", "BENCH_shard.json")
    min_speedup = float(
        os.environ.get("REPRO_BENCH_SHARD_MIN_SPEEDUP", "10.0")
    )
    payload = {
        "benchmark": "shard_transport_sync_latency",
        "shards": SHARDS,
        "resident_pairs": pairs,
        "chunk_updates": CHUNK_UPDATES,
        "sync_cycles": SYNC_CYCLES,
        "scale": os.environ.get("REPRO_SCALE", "1.0"),
        "min_speedup": min_speedup,
        "sync_paths": results,
    }
    with open(out_path, "w", encoding="ascii") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    speedup = results["delta"]["speedup_vs_snapshot_merge"]
    assert speedup >= min_speedup, (
        f"delta sync speedup {speedup:.2f}x is below the "
        f"{min_speedup:.1f}x bar (see {out_path})"
    )
