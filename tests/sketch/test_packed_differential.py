"""Differential fuzzing: packed backend vs the reference implementation.

Drives identical seeded insert/delete/merge sequences through the
reference (dict-of-``CountSignature``) and packed (arena + batch
engine) backends and asserts the two end in *bit-identical* states —
``structurally_equal`` plus equal query answers.  This is the
acceptance surface for the backend: same seeds, same stream, same
sketch, regardless of storage layout or batching.

Everything is deterministically seeded (``random.Random``); no wall
clock, no ordering dependence beyond the stream itself.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro.sketch import (
    DistinctCountSketch,
    TrackingDistinctCountSketch,
    serialize,
)
from repro.types import AddressDomain, FlowUpdate

DOMAIN = AddressDomain(2 ** 16)


def make_stream(
    seed: int,
    length: int,
    dests: int = 150,
    delete_fraction: float = 0.35,
) -> List[FlowUpdate]:
    """A seeded insert/delete stream where every delete is well-formed.

    Deletes only remove currently-live pairs (the paper's stream model:
    a deletion legitimises a previously seen flow), so counters never
    go negative and delete-resistance is exercised honestly.
    """
    rng = random.Random(seed)
    live: List[Tuple[int, int]] = []
    updates: List[FlowUpdate] = []
    for _ in range(length):
        if live and rng.random() < delete_fraction:
            source, dest = live.pop(rng.randrange(len(live)))
            updates.append(FlowUpdate(source, dest, -1))
        else:
            source = rng.randrange(DOMAIN.m)
            dest = rng.randrange(dests)
            live.append((source, dest))
            updates.append(FlowUpdate(source, dest, 1))
    return updates


class TestBasicSketchDifferential:
    @pytest.mark.parametrize("stream_seed", [1, 2, 3])
    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_batched_packed_matches_per_update_reference(
        self, stream_seed, batch_size
    ):
        updates = make_stream(stream_seed, 3000)
        reference = DistinctCountSketch(DOMAIN, seed=42)
        packed = DistinctCountSketch(DOMAIN, seed=42, backend="packed")
        for update in updates:
            reference.process(update)
        packed.process_stream(updates, batch_size=batch_size)
        assert reference.structurally_equal(packed)
        assert packed.structurally_equal(reference)
        assert packed.updates_processed == reference.updates_processed
        assert packed.net_total == reference.net_total
        assert packed.base_topk(10) == reference.base_topk(10)
        assert (
            packed.estimate_distinct_pairs()
            == reference.estimate_distinct_pairs()
        )

    def test_reference_update_batch_matches_per_update(self):
        updates = make_stream(7, 2000)
        one_by_one = DistinctCountSketch(DOMAIN, seed=9)
        batched = DistinctCountSketch(DOMAIN, seed=9)
        for update in updates:
            one_by_one.process(update)
        batched.process_stream(updates, batch_size=64)
        assert one_by_one.structurally_equal(batched)

    def test_matched_insert_delete_is_delete_resistant(self):
        noise = make_stream(11, 800, delete_fraction=0.0)
        attack = [
            FlowUpdate(source, 7, 1) for source in range(500, 900)
        ]
        clean = DistinctCountSketch(DOMAIN, seed=5, backend="packed")
        churned = DistinctCountSketch(DOMAIN, seed=5, backend="packed")
        clean.process_stream(noise, batch_size=128)
        # The churned sketch additionally sees the attack inserted and
        # then fully deleted, interleaved with the same noise.
        churned.process_stream(noise[:400], batch_size=128)
        churned.update_batch(attack)
        churned.process_stream(noise[400:], batch_size=128)
        churned.update_batch(
            [FlowUpdate(u.source, u.dest, -1) for u in attack]
        )
        assert clean.structurally_equal(churned)

    def test_merge_both_directions_and_cross_backend(self):
        left_updates = make_stream(21, 1500)
        right_updates = make_stream(22, 1500)

        def build(backend, updates):
            sketch = DistinctCountSketch(DOMAIN, seed=3, backend=backend)
            sketch.process_stream(updates, batch_size=100)
            return sketch

        whole = DistinctCountSketch(DOMAIN, seed=3)
        whole.process_stream(left_updates + right_updates)

        packed_left = build("packed", left_updates)
        packed_right = build("packed", right_updates)
        packed_left.merge(packed_right)
        assert whole.structurally_equal(packed_left)

        ref_left = build("reference", left_updates)
        packed_right2 = build("packed", right_updates)
        # Cross-backend merges work in both directions.
        ref_left.merge(packed_right2)
        assert whole.structurally_equal(ref_left)
        packed_right2.merge(build("reference", left_updates))
        assert whole.structurally_equal(packed_right2)

    def test_copy_preserves_backend_and_state(self):
        sketch = DistinctCountSketch(DOMAIN, seed=1, backend="packed")
        sketch.process_stream(make_stream(31, 1000), batch_size=50)
        clone = sketch.copy()
        assert clone.backend == "packed"
        assert clone.structurally_equal(sketch)
        # The clone's packed hot path is live, not a detached alias.
        clone.update_batch([FlowUpdate(1, 2, 1)])
        assert not clone.structurally_equal(sketch)

    def test_serialize_roundtrip_across_backends(self):
        sketch = DistinctCountSketch(DOMAIN, seed=8, backend="packed")
        sketch.process_stream(make_stream(41, 1200), batch_size=64)
        payload = serialize.dumps(sketch)
        as_reference = serialize.loads(payload)
        as_packed = serialize.loads(payload, backend="packed")
        assert as_reference.backend == "reference"
        assert as_packed.backend == "packed"
        assert sketch.structurally_equal(as_reference)
        assert sketch.structurally_equal(as_packed)


class TestTrackingSketchDifferential:
    @pytest.mark.parametrize("stream_seed", [5, 6])
    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_tracked_state_matches_reference(self, stream_seed, batch_size):
        updates = make_stream(stream_seed, 2500)
        reference = TrackingDistinctCountSketch(DOMAIN, seed=13)
        packed = TrackingDistinctCountSketch(
            DOMAIN, seed=13, backend="packed"
        )
        for update in updates:
            reference.process(update)
        packed.process_stream(updates, batch_size=batch_size)
        assert reference.structurally_equal(packed)
        packed.check_invariants()
        reference.check_invariants()
        assert packed.track_topk(10) == reference.track_topk(10)
        assert packed.base_topk(10) == reference.base_topk(10)
        for level in range(packed.params.num_levels):
            assert packed.num_singletons(level) == reference.num_singletons(
                level
            )
            assert packed.singleton_pairs(level) == reference.singleton_pairs(
                level
            )

    def test_tracking_invariants_hold_mid_stream(self):
        updates = make_stream(51, 2000)
        packed = TrackingDistinctCountSketch(
            DOMAIN, seed=2, backend="packed"
        )
        for start in range(0, len(updates), 400):
            packed.update_batch(updates[start:start + 400])
            packed.check_invariants()

    def test_tracking_merge_and_copy(self):
        left = TrackingDistinctCountSketch(DOMAIN, seed=4, backend="packed")
        right = TrackingDistinctCountSketch(DOMAIN, seed=4, backend="packed")
        left.process_stream(make_stream(61, 1000), batch_size=128)
        right.process_stream(make_stream(62, 1000), batch_size=128)
        clone = left.copy()
        assert clone.backend == "packed"
        clone.check_invariants()
        left.merge(right)
        left.check_invariants()
        whole = TrackingDistinctCountSketch(DOMAIN, seed=4)
        whole.process_stream(make_stream(61, 1000))
        whole.process_stream(make_stream(62, 1000))
        assert whole.structurally_equal(left)
        assert whole.track_topk(5) == left.track_topk(5)


class TestFlatEngineEdgeCases:
    """Inputs aimed at the single-pass engine's sort/segment-sum/free."""

    @pytest.mark.parametrize("tracking", [False, True])
    def test_insert_and_delete_in_one_batch_frees_rows(self, tracking):
        cls = TrackingDistinctCountSketch if tracking else DistinctCountSketch
        packed = cls(DOMAIN, seed=6, backend="packed")
        reference = cls(DOMAIN, seed=6)
        keep = FlowUpdate(11, 3, 1)
        batch = [FlowUpdate(5, 9, 1), keep, FlowUpdate(5, 9, -1)]
        packed.update_batch(batch)
        reference.process_stream(batch)
        assert packed.structurally_equal(reference)
        arena = packed._arena
        # The cancelled pair's rows netted to zero inside the batch and
        # were freed at once: only ``keep``'s rows stay occupied.
        assert len(arena) == packed.params.r == reference.occupied_buckets()
        assert arena.capacity - len(arena) == len(arena._free)
        if tracking:
            packed.check_invariants()

    def test_duplicate_pairs_within_a_chunk(self):
        rng = random.Random(71)
        pairs = [(rng.randrange(DOMAIN.m), rng.randrange(20)) for _ in range(40)]
        batch = [
            FlowUpdate(source, dest, 1)
            for source, dest in pairs
            for _ in range(3)
        ]
        batch += [FlowUpdate(source, dest, -1) for source, dest in pairs[:15]]
        rng.shuffle(batch)
        packed = TrackingDistinctCountSketch(DOMAIN, seed=7, backend="packed")
        reference = TrackingDistinctCountSketch(DOMAIN, seed=7)
        packed.update_batch(batch)
        reference.process_stream(batch)
        assert packed.structurally_equal(reference)
        packed.check_invariants()
        assert packed.track_topk(5) == reference.track_topk(5)

    @pytest.mark.parametrize("batch_size", [1, 2, 5000])
    def test_chunks_crossing_every_level(self, batch_size):
        # A small domain has few enough pairs to enumerate, so the
        # stream can hold pairs of every level, top level included.
        domain = AddressDomain(2 ** 8)
        probe = DistinctCountSketch(domain, seed=12)
        by_level = {}
        for source in range(domain.m):
            for dest in range(domain.m):
                level = probe.level_of(source, dest)
                by_level.setdefault(level, []).append((source, dest))
        assert len(by_level) == probe.params.num_levels
        rng = random.Random(13)
        updates = []
        for level in sorted(by_level):
            chosen = by_level[level][:40]
            updates += [FlowUpdate(s, d, 1) for s, d in chosen]
            # Delete a quarter: rare top levels keep their lone pair.
            doomed = chosen[:len(chosen) // 4]
            updates += [FlowUpdate(s, d, -1) for s, d in doomed]
        rng.shuffle(updates)
        packed = TrackingDistinctCountSketch(domain, seed=12, backend="packed")
        reference = TrackingDistinctCountSketch(domain, seed=12)
        packed.process_stream(updates, batch_size=batch_size)
        reference.process_stream(updates)
        assert packed.active_levels() == packed.params.num_levels
        assert packed.structurally_equal(reference)
        packed.check_invariants()
        assert packed.base_topk(5) == reference.base_topk(5)

    def test_batch_beyond_one_segment_sum_pass(self):
        # More than 2^16 repeats of one pair in one batch: the engine
        # splits it so no 16-bit bit-counter lane can overflow.
        hot = FlowUpdate(300, 7, 1)
        batch = [hot] * 70000 + make_stream(81, 500)
        whole = DistinctCountSketch(DOMAIN, seed=8, backend="packed")
        chunked = DistinctCountSketch(DOMAIN, seed=8, backend="packed")
        whole.update_batch(batch)
        chunked.process_stream(batch, batch_size=1000)
        assert whole.structurally_equal(chunked)
        level = whole.level_of(300, 7)
        bucket = whole.inner_bucket(0, 300, 7)
        assert whole.signature_at(level, 0, bucket).total >= 70000

    @pytest.mark.parametrize(
        "bad",
        [
            FlowUpdate(-1, 3, 1),
            FlowUpdate(DOMAIN.m, 3, 1),
            FlowUpdate(3, 2 ** 70, 1),
            FlowUpdate(-(2 ** 70), 3, 1),
        ],
        ids=["negative", "too-large", "beyond-int64", "below-int64"],
    )
    def test_out_of_domain_rejects_whole_batch(self, bad):
        from repro.exceptions import DomainError

        sketch = TrackingDistinctCountSketch(DOMAIN, seed=9, backend="packed")
        sketch.update_batch(make_stream(91, 200))
        before = sketch.copy()
        with pytest.raises(DomainError):
            sketch.update_batch(make_stream(92, 300) + [bad])
        assert sketch.updates_processed == before.updates_processed
        assert sketch.structurally_equal(before)
        sketch.check_invariants()
