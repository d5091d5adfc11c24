"""Delta shard sync: units, fuzz, lifecycle.

Three layers of coverage for the process backend's delta sync:

* arena-level units for the dirty-bucket delta index
  (``track_deltas``/``drain_deltas``/``export_rows``);
* a differential fuzz suite proving the delta-propagated merge is
  **bit-identical** to merging whole shard snapshots and to a
  single-process sketch (``structurally_equal`` + identical
  ``track_topk``/``base_topk``) across policies, delete-heavy streams,
  mid-stream syncs, pair domains wider than 64 bits, and a
  DurableSketch crash-recovery round;
* lifecycle regressions: backend validation, running-sum invalidation
  on restore/degrade, and the stale-epoch full resync.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import ParameterError
from repro.obs import Registry
from repro.resilience import DurableSketch, drop_delta_sync
from repro.sketch import ShardedSketch, TrackingDistinctCountSketch
from repro.sketch.arena import SignatureArena
from repro.sketch.params import SketchParams
from repro.sketch.process_pool import ProcessShardPool
from repro.sketch.serialize import dumps, loads
from repro.types import AddressDomain, FlowUpdate

DOMAIN = AddressDomain(2 ** 16)

#: The two ways a bank reaches its combined view, keyed by test id:
#: the sync backend's in-process merge and the process backend's delta
#: sync.  Value: the ``backend`` argument.
SYNC_PATHS = {"merge": "sync", "delta": "process"}


def delete_heavy_stream(count, seed=0, dests=24, sources=2 ** 16):
    """A stream where ~40% of inserts are later deleted."""
    rng = random.Random(seed)
    updates = []
    for _ in range(count):
        source = rng.randrange(sources)
        dest = rng.randrange(dests)
        updates.append(FlowUpdate(source, dest, +1))
        if rng.random() < 0.4:
            updates.append(FlowUpdate(source, dest, -1))
    return updates


def single_for(stream, seed=5, domain=DOMAIN, backend="packed"):
    sketch = TrackingDistinctCountSketch(domain, seed=seed, backend=backend)
    sketch.update_batch(stream)
    return sketch


def bank(
    shards=3, seed=5, policy="round-robin", obs=None, domain=DOMAIN,
    backend="process",
):
    sharded = ShardedSketch(
        domain,
        shards=shards,
        policy=policy,
        seed=seed,
        obs=obs,
        backend=backend,
    )
    if sharded.backend != backend:
        pytest.skip("multiprocessing unavailable on this platform")
    assert sharded.transport == ("delta" if backend == "process" else None)
    return sharded


def snapshot_merge(sharded):
    """The whole-state oracle: a fresh sketch plus every shard snapshot."""
    merged = TrackingDistinctCountSketch(
        sharded.params, seed=sharded.seed, backend="packed"
    )
    for index in range(sharded.num_shards):
        merged.merge(sharded.shard(index))
    return merged


class TestArenaDeltaTracking:
    def make(self):
        arena = SignatureArena(8, 16)
        arena.track_deltas(True)
        return arena

    def test_drain_reports_touched_buckets_only(self):
        arena = self.make()
        arena.update(3, 0b101, +1)
        arena.update(7, 0b11, +1)
        buckets, rows = arena.drain_deltas()
        assert sorted(buckets) == [3, 7]
        assert len(rows) == 2 * arena.stride
        # Nothing touched since the drain: empty delta.
        buckets, rows = arena.drain_deltas()
        assert list(buckets) == [] and list(rows) == []

    def test_delta_is_difference_from_baseline(self):
        arena = self.make()
        arena.update(3, 0b101, +1)
        arena.drain_deltas()
        arena.update(3, 0b101, +1)
        arena.update(3, 0b11, +1)
        buckets, rows = arena.drain_deltas()
        assert list(buckets) == [3]
        # Two inserts since the baseline: count delta == 2.
        assert rows[0] == 2

    def test_deletion_to_zero_yields_negative_delta(self):
        arena = self.make()
        arena.update(5, 0b1, +1)
        arena.drain_deltas()
        arena.update(5, 0b1, -1)
        buckets, rows = arena.drain_deltas()
        assert list(buckets) == [5]
        assert rows[0] == -1
        assert 5 not in arena  # bucket fully released

    def test_net_zero_window_ships_nothing(self):
        arena = self.make()
        arena.drain_deltas()
        arena.update(9, 0b10, +1)
        arena.update(9, 0b10, -1)
        buckets, rows = arena.drain_deltas()
        assert list(buckets) == []

    def test_export_rows_is_absolute(self):
        arena = self.make()
        arena.update(2, 0b1, +1)
        arena.update(2, 0b1, +1)
        arena.drain_deltas()
        buckets, rows = arena.export_rows()
        assert list(buckets) == [2]
        assert rows[0] == 2  # absolute count, not delta-since-drain

    def test_tracking_off_by_default_and_toggleable(self):
        arena = SignatureArena(8, 16)
        arena.update(1, 0b1, +1)
        buckets, rows = arena.drain_deltas()
        assert list(buckets) == []  # no dirty index without tracking
        arena.track_deltas(True)
        arena.update(1, 0b1, +1)
        arena.track_deltas(False)
        buckets, rows = arena.drain_deltas()
        assert list(buckets) == []

    def test_slot_rebound_to_another_key_between_drains(self):
        # The dirty log is keyed by flat key, not by slot: key 3's slot
        # is freed and re-bound to key 7 before the drain, and both
        # keys still ship their exact deltas.
        arena = self.make()
        arena.update(3, 0b1, +1)
        arena.drain_deltas()
        arena.update(3, 0b1, -1)
        arena.update(7, 0b10, +1)
        assert arena.capacity == 1  # one slot, used by both keys
        buckets, rows = arena.drain_deltas()
        got = dict(zip(buckets.tolist(), rows.reshape(-1, 9).tolist()))
        assert got == {
            3: [-1, -1, 0, 0, 0, 0, 0, 0, 0],
            7: [1, 0, 1, 0, 0, 0, 0, 0, 0],
        }

    def test_batch_rebinding_and_net_zero_rows(self):
        import numpy as np

        arena = self.make()
        one = np.ones((1, 9), dtype=np.int64)
        arena.add_rows(np.array([3]), one)
        arena.drain_deltas()
        # One batch frees key 3 and rebinds its slot to key 7; another
        # touches key 5 and reverts it, so it nets to zero.
        for key, row in ((3, -one), (7, one), (5, one), (5, -one)):
            arena.add_rows(np.array([key]), row)
        buckets, rows = arena.drain_deltas()
        got = dict(zip(buckets.tolist(), rows.reshape(-1, 9).tolist()))
        assert got == {3: [-1] * 9, 7: [1] * 9}
        assert 5 not in arena and len(arena) == 1

    def test_pickle_roundtrip_drops_dirty_index(self):
        import pickle

        arena = self.make()
        arena.update(4, 0b1, +1)
        restored = pickle.loads(pickle.dumps(arena))
        assert restored == arena
        buckets, _rows = restored.drain_deltas()
        assert list(buckets) == []

    @pytest.mark.parametrize(
        "lo, hi, itemsize",
        [
            (-128, 127, 1),
            (-129, 0, 2),
            (0, 128, 2),
            (-(2 ** 15), 2 ** 15 - 1, 2),
            (0, 2 ** 15, 4),
            (-(2 ** 31), 2 ** 31 - 1, 4),
            (0, 2 ** 31, 8),
            (-(2 ** 63), 2 ** 63 - 1, 8),
        ],
    )
    def test_delta_reply_dtype_holds_every_value(self, lo, hi, itemsize):
        import numpy as np

        from repro.sketch.process_pool import _narrow_ints

        values = np.array([lo, 0, hi], dtype=np.int64)
        narrowed = _narrow_ints(values)
        assert narrowed.dtype.itemsize == itemsize
        assert narrowed.astype(np.int64).tolist() == [lo, 0, hi]


class TestTransportResolution:
    def test_auto_resolves_to_delta_on_packed(self):
        sharded = ShardedSketch(DOMAIN, shards=2, seed=5, backend="process")
        try:
            assert sharded.sketch_backend == "packed"
            if sharded.backend == "process":
                assert sharded.transport == "delta"
        finally:
            sharded.close()

    def test_packed_transport_rejects_reference_backend(self):
        with pytest.raises(ParameterError):
            ShardedSketch(
                DOMAIN, shards=2, seed=5,
                backend="process", sketch_backend="reference",
            )

    def test_unknown_transport_rejected(self):
        # Delta is the only sync path: there is no transport= argument.
        with pytest.raises(TypeError):
            ShardedSketch(
                DOMAIN, shards=2, seed=5,
                backend="process", transport="delta",
            )
        with pytest.raises(TypeError):
            ProcessShardPool(SketchParams(DOMAIN), 5, 2, transport="delta")

    def test_sync_backend_has_no_transport(self):
        sharded = ShardedSketch(DOMAIN, shards=2, seed=5)
        assert sharded.transport is None
        # The reference store stays available in-process.
        reference = ShardedSketch(
            DOMAIN, shards=2, seed=5, sketch_backend="reference"
        )
        assert reference.transport is None
        assert reference.shard(0).backend == "reference"


class TestDifferentialFuzz:
    """Delta merges must be bit-identical to snapshot merges."""

    @pytest.mark.parametrize("policy", ["round-robin", "by-destination"])
    def test_matches_single_sketch_with_mid_stream_syncs(self, policy):
        stream = delete_heavy_stream(2500, seed=17)
        single = single_for(stream)
        sharded = bank(policy=policy)
        try:
            third = len(stream) // 3
            sharded.update_batch(stream[:third])
            sharded.combined().track_topk(5)  # mid-stream sync 1
            sharded.update_batch(stream[third:2 * third])
            sharded.combined().track_topk(5)  # mid-stream sync 2
            sharded.update_batch(stream[2 * third:])
            combined = sharded.combined()
            assert combined.structurally_equal(single)
            assert combined.updates_processed == single.updates_processed
            assert combined.net_total == single.net_total
            assert combined.track_topk(8).as_dict() == (
                single.track_topk(8).as_dict()
            )
            assert combined.base_topk(8).as_dict() == (
                single.base_topk(8).as_dict()
            )
        finally:
            sharded.close()

    def test_wide_domain_process_shards_match_single_sketch(self):
        # 80-bit pairs: codes no longer fit one uint64 lane, but the
        # delta rows are still int64 counters, so the fold is exact.
        domain = AddressDomain(2 ** 40)
        assert SketchParams(domain).pair_bits > 64
        stream = delete_heavy_stream(
            1500, seed=19, dests=2 ** 40, sources=2 ** 40
        )
        # Repeat a few destinations so the top-k has a real order.
        hot = delete_heavy_stream(600, seed=20, dests=3, sources=2 ** 40)
        stream = stream + hot
        sharded = bank(shards=2, domain=domain)
        try:
            half = len(stream) // 2
            sharded.update_batch(stream[:half])
            sharded.combined().track_topk(5)  # mid-stream sync
            sharded.update_batch(stream[half:])
            combined = sharded.combined()
            assert combined.structurally_equal(
                single_for(stream, domain=domain)
            )
            reference = single_for(
                stream, domain=domain, backend="reference"
            )
            assert combined.structurally_equal(reference)
            assert combined.track_topk(8).as_dict() == (
                reference.track_topk(8).as_dict()
            )
            assert combined.base_topk(8).as_dict() == (
                reference.base_topk(8).as_dict()
            )
        finally:
            sharded.close()

    @pytest.mark.parametrize("path", SYNC_PATHS)
    def test_bit_identical_to_pipe_snapshot_merge(self, path):
        stream = delete_heavy_stream(1500, seed=23)
        sharded = bank(seed=7, backend=SYNC_PATHS[path])
        try:
            sharded.update_batch(stream[:700])
            sharded.combined()  # force an incremental window
            sharded.update_batch(stream[700:])
            candidate = sharded.combined()
            baseline = snapshot_merge(sharded)
            assert candidate.structurally_equal(baseline)
            assert candidate.base_topk(10).as_dict() == (
                baseline.base_topk(10).as_dict()
            )
        finally:
            sharded.close()

    @pytest.mark.parametrize("path", SYNC_PATHS)
    def test_combined_serialize_roundtrip(self, path):
        stream = delete_heavy_stream(800, seed=29)
        sharded = bank(backend=SYNC_PATHS[path])
        try:
            sharded.update_batch(stream)
            combined = sharded.combined()
            restored = loads(dumps(combined), backend="packed")
            assert restored.structurally_equal(combined)
            assert restored.track_topk(5).as_dict() == (
                combined.track_topk(5).as_dict()
            )
        finally:
            sharded.close()

    @pytest.mark.parametrize("path", SYNC_PATHS)
    def test_matches_durable_sketch_recovery(self, path, tmp_path):
        stream = delete_heavy_stream(900, seed=31)
        with DurableSketch(
            tmp_path, DOMAIN, seed=5, backend="packed"
        ) as durable:
            for update in stream:
                durable.process(update)
        # Reopen: recovery replays checkpoint + WAL tail exactly.
        with DurableSketch(
            tmp_path, DOMAIN, seed=5, backend="packed"
        ) as recovered:
            sharded = bank(backend=SYNC_PATHS[path])
            try:
                sharded.update_batch(stream)
                assert sharded.combined().structurally_equal(
                    recovered.sketch
                )
            finally:
                sharded.close()


class TestRunningSumInvalidation:
    def test_post_respawn_topk_equals_scratch_merge(self):
        stream = delete_heavy_stream(1200, seed=37)
        sharded = bank()
        try:
            half = len(stream) // 2
            sharded.update_batch(stream[:half])
            sharded.combined()  # prime the running sum
            snapshot = dumps(sharded.shard(1))
            count = sharded.shard_update_counts()[1]
            sharded.restore_shard(1, snapshot, processed_count=count)
            sharded.update_batch(stream[half:])
            single = single_for(stream)
            combined = sharded.combined()
            assert combined.structurally_equal(single)
            assert combined.track_topk(8).as_dict() == (
                single.track_topk(8).as_dict()
            )
        finally:
            sharded.close()

    def test_degrade_to_sync_invalidates_and_stays_exact(self):
        stream = delete_heavy_stream(1000, seed=41)
        sharded = bank()
        try:
            half = len(stream) // 2
            sharded.update_batch(stream[:half])
            sharded.combined()
            payloads = [
                dumps(sharded.shard(index))
                for index in range(sharded.num_shards)
            ]
            sharded.degrade_to_sync(
                payloads, sharded.shard_update_counts()
            )
            assert sharded.backend == "sync"
            assert sharded.transport is None
            sharded.update_batch(stream[half:])
            assert sharded.combined().structurally_equal(
                single_for(stream)
            )
        finally:
            sharded.close()

    def test_stale_epoch_triggers_exact_full_resync(self):
        stream = delete_heavy_stream(1000, seed=43)
        registry = Registry()
        sharded = bank(obs=registry)
        try:
            half = len(stream) // 2
            sharded.update_batch(stream[:half])
            sharded.combined()
            resyncs_before = self._resyncs(registry)
            sharded.update_batch(stream[half:])
            # Torn sync: shard 1's delta window drains into the void.
            dropped = drop_delta_sync(sharded, 1)
            assert dropped >= 0
            combined = sharded.combined()
            assert combined.structurally_equal(single_for(stream))
            assert self._resyncs(registry) == resyncs_before + 1
        finally:
            sharded.close()

    @staticmethod
    def _resyncs(registry):
        for family in registry.snapshot()["instruments"]:
            if family["name"] == "repro_sharded_full_resyncs_total":
                return sum(
                    sample.get("value", 0)
                    for sample in family["samples"]
                )
        return 0

    def test_drop_delta_sync_requires_delta_transport(self):
        sharded = bank(backend="sync")
        with pytest.raises(ParameterError):
            drop_delta_sync(sharded, 0)
