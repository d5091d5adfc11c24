"""Shared-memory / delta shard transports: units, fuzz, lifecycle.

Three layers of coverage for ``ShardedSketch(transport=...)``:

* arena-level units for the dirty-bucket delta index
  (``track_deltas``/``drain_deltas``/``export_rows``);
* a differential fuzz suite proving the delta-propagated and
  shm-gathered merges are **bit-identical** to the full-snapshot merge
  and to a single-process sketch (``structurally_equal`` + identical
  ``track_topk``/``base_topk``) across policies, delete-heavy streams,
  mid-stream syncs, and a DurableSketch crash-recovery round;
* lifecycle regressions: transport resolution errors, running-sum
  invalidation on restore/degrade, stale-epoch full resync, and the
  no-leaked-``/dev/shm``-segments guarantee after SIGKILL chaos.
"""

from __future__ import annotations

import gc
import os
import random
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro._accel import HAVE_NUMPY
from repro.exceptions import ParameterError
from repro.obs import Registry
from repro.resilience import DurableSketch, drop_delta_sync
from repro.sketch import ShardedSketch, TrackingDistinctCountSketch
from repro.sketch.arena import SignatureArena
from repro.sketch.serialize import dumps, loads
from repro.types import AddressDomain, FlowUpdate

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="packed transports require numpy"
)

TRANSPORTS = ("pipe", "shm", "delta")


def delete_heavy_stream(count, seed=0, dests=24):
    """A stream where ~40% of inserts are later deleted."""
    rng = random.Random(seed)
    updates = []
    for _ in range(count):
        source = rng.randrange(2 ** 16)
        dest = rng.randrange(dests)
        updates.append(FlowUpdate(source, dest, +1))
        if rng.random() < 0.4:
            updates.append(FlowUpdate(source, dest, -1))
    return updates


def single_for(stream, seed=5):
    sketch = TrackingDistinctCountSketch(
        AddressDomain(2 ** 16), seed=seed, backend="packed"
    )
    sketch.update_batch(stream)
    return sketch


def bank(transport, shards=3, seed=5, policy="round-robin", obs=None):
    sharded = ShardedSketch(
        AddressDomain(2 ** 16),
        shards=shards,
        policy=policy,
        seed=seed,
        obs=obs,
        backend="process",
        sketch_backend="packed",
        transport=transport,
    )
    if sharded.backend != "process":
        pytest.skip("multiprocessing unavailable on this platform")
    assert sharded.transport == transport
    return sharded


def leaked_segments():
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return []
    return [
        path.name for path in shm_dir.iterdir()
        if path.name.startswith("repro")
    ]


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
        sharded = bank("delta")  # helper asserts resolution
        sharded.close()
        auto = ShardedSketch(
            AddressDomain(2 ** 16), shards=2, seed=5,
            backend="process", sketch_backend="packed",
        )
        if auto.backend == "process":
            assert auto.transport == "delta"
        auto.close()

    def test_auto_resolves_to_pipe_on_reference(self):
        sharded = ShardedSketch(
            AddressDomain(2 ** 16), shards=2, seed=5,
            backend="process", sketch_backend="reference",
        )
        if sharded.backend == "process":
            assert sharded.transport == "pipe"
        sharded.close()

    @pytest.mark.parametrize("transport", ["shm", "delta"])
    def test_packed_transport_rejects_reference_backend(self, transport):
        with pytest.raises(ParameterError):
            ShardedSketch(
                AddressDomain(2 ** 16), shards=2, seed=5,
                backend="process", sketch_backend="reference",
                transport=transport,
            )

    def test_sync_backend_rejects_explicit_transport(self):
        with pytest.raises(ParameterError):
            ShardedSketch(
                AddressDomain(2 ** 16), shards=2, seed=5,
                sketch_backend="packed", transport="delta",
            )

    def test_unknown_transport_rejected(self):
        with pytest.raises(ParameterError):
            ShardedSketch(
                AddressDomain(2 ** 16), shards=2, seed=5,
                backend="process", transport="zeromq",
            )

    def test_sync_backend_has_no_transport(self):
        sharded = ShardedSketch(
            AddressDomain(2 ** 16), shards=2, seed=5,
            sketch_backend="packed",
        )
        assert sharded.transport is None


class TestDifferentialFuzz:
    """Delta/shm merges must be bit-identical to snapshot merges."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("policy", ["round-robin", "by-destination"])
    def test_matches_single_sketch_with_mid_stream_syncs(
        self, transport, policy
    ):
        stream = delete_heavy_stream(2500, seed=17)
        single = single_for(stream)
        sharded = bank(transport, policy=policy)
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

    @pytest.mark.parametrize("transport", ["shm", "delta"])
    def test_bit_identical_to_pipe_snapshot_merge(self, transport):
        stream = delete_heavy_stream(1500, seed=23)
        pipe_bank = bank("pipe", seed=7)
        fast_bank = bank(transport, seed=7)
        try:
            pipe_bank.update_batch(stream)
            fast_bank.update_batch(stream[:700])
            fast_bank.combined()  # force an incremental window
            fast_bank.update_batch(stream[700:])
            baseline = pipe_bank.combined()
            candidate = fast_bank.combined()
            assert candidate.structurally_equal(baseline)
            assert candidate.base_topk(10).as_dict() == (
                baseline.base_topk(10).as_dict()
            )
        finally:
            pipe_bank.close()
            fast_bank.close()

    @pytest.mark.parametrize("transport", ["shm", "delta"])
    def test_combined_serialize_roundtrip(self, transport):
        stream = delete_heavy_stream(800, seed=29)
        sharded = bank(transport)
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

    @pytest.mark.parametrize("transport", ["shm", "delta"])
    def test_matches_durable_sketch_recovery(self, transport, tmp_path):
        stream = delete_heavy_stream(900, seed=31)
        with DurableSketch(
            tmp_path, AddressDomain(2 ** 16), seed=5, backend="packed"
        ) as durable:
            for update in stream:
                durable.process(update)
        # Reopen: recovery replays checkpoint + WAL tail exactly.
        with DurableSketch(
            tmp_path, AddressDomain(2 ** 16), seed=5, backend="packed"
        ) as recovered:
            sharded = bank(transport)
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
        sharded = bank("delta")
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

    @pytest.mark.parametrize("transport", ["shm", "delta"])
    def test_degrade_to_sync_invalidates_and_stays_exact(self, transport):
        stream = delete_heavy_stream(1000, seed=41)
        sharded = bank(transport)
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
        sharded = bank("delta", obs=registry)
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
        sharded = bank("pipe")
        try:
            with pytest.raises(ParameterError):
                drop_delta_sync(sharded, 0)
        finally:
            sharded.close()


class TestSegmentLifecycle:
    def test_no_leak_after_clean_close(self):
        sharded = bank("shm")
        sharded.update_batch(delete_heavy_stream(400, seed=47))
        sharded.combined()
        sharded.close()
        assert leaked_segments() == []

    def test_no_leak_after_sigkill_then_close(self):
        sharded = bank("shm")
        sharded.update_batch(delete_heavy_stream(400, seed=53))
        sharded.combined()  # every worker has published a segment
        pid = sharded.worker_pid(1)
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 5
        while sharded.worker_alive(1) and time.monotonic() < deadline:
            time.sleep(0.01)
        sharded.close()  # must sweep the dead worker's segment too
        assert leaked_segments() == []

    def test_no_leak_through_gc_finalizer(self):
        sharded = bank("shm")
        sharded.update_batch(delete_heavy_stream(200, seed=59))
        sharded.combined()
        del sharded  # never closed: the pool finalizer must clean up
        gc.collect()
        assert leaked_segments() == []

    def test_no_leak_when_process_exits_without_close(self):
        """The atexit guard sweeps pools that were never closed."""
        script = textwrap.dedent(
            """
            import random
            from repro.sketch import ShardedSketch
            from repro.types import AddressDomain, FlowUpdate

            sharded = ShardedSketch(
                AddressDomain(2 ** 16), shards=2, seed=5,
                backend="process", sketch_backend="packed",
                transport="shm",
            )
            if sharded.backend != "process":
                raise SystemExit(0)
            rng = random.Random(1)
            sharded.update_batch([
                FlowUpdate(rng.randrange(2 ** 16), rng.randrange(8), 1)
                for _ in range(300)
            ])
            sharded.combined()
            # exit WITHOUT close(): atexit must unlink the segments
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path("src").resolve())]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert leaked_segments() == []

    def test_respawn_unlinks_dead_workers_segment(self):
        sharded = bank("shm")
        try:
            sharded.update_batch(delete_heavy_stream(300, seed=61))
            sharded.combined()
            before = set(leaked_segments())
            assert before  # workers have live segments while running
            pid = sharded.worker_pid(0)
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 5
            while sharded.worker_alive(0) and (
                time.monotonic() < deadline
            ):
                time.sleep(0.01)
            sharded.restore_shard(0, None, processed_count=0)
            shard0_segments = [
                name for name in leaked_segments()
                if f"p{pid}g" in name
            ]
            assert shard0_segments == []
        finally:
            sharded.close()
        assert leaked_segments() == []
