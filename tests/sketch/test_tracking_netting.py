"""Netted tracking upkeep on the batch path vs the per-update path.

The tracking sketch's batch row add nets a chunk's singleton changes
per ``(level, pair)`` and the resulting sample changes per ``(level,
dest)`` before touching any heap.  These tests feed a delete-heavy
stream — a SYN flood plus many clients whose handshakes complete
(insert, then delete) — at several chunk sizes and require the netted
state to match the per-update path's exactly: invariants, counters,
every heap frequency at every level, and the tracked top-k.  Pairs
wider than 64 bits, which reach the fused diff through merge and
subtract, are checked against the reference backend.
"""

from __future__ import annotations

import random
from typing import List, Set

import pytest

from repro.obs import Registry
from repro.sketch import TrackingDistinctCountSketch
from repro.types import AddressDomain, FlowUpdate

DOMAIN = AddressDomain(2 ** 16)
VICTIM = 7
SERVERS = tuple(range(20, 32))


def handshake_stream(seed: int, length: int) -> List[FlowUpdate]:
    """A flood on ``VICTIM`` interleaved with completing handshakes.

    A third of the arrivals are spoofed SYNs on the victim (never
    completed); the rest open a connection to one of ``SERVERS`` from
    a small client pool — many pairs per destination — and most of
    those complete within a few hundred updates, so deletes make up
    most of the non-flood traffic.
    """
    rng = random.Random(seed)
    pending: List[FlowUpdate] = []
    updates: List[FlowUpdate] = []
    while len(updates) < length:
        roll = rng.random()
        if pending and roll < 0.4:
            opened = pending.pop(rng.randrange(len(pending)))
            updates.append(FlowUpdate(opened.source, opened.dest, -1))
        elif roll < 0.65:
            updates.append(FlowUpdate(rng.randrange(DOMAIN.m), VICTIM, 1))
        else:
            client = rng.randrange(400)
            server = rng.choice(SERVERS)
            opened = FlowUpdate(client, server, 1)
            if opened in pending:
                continue
            updates.append(opened)
            pending.append(opened)
    return updates


def stream_dests(updates: List[FlowUpdate]) -> Set[int]:
    return {update.dest for update in updates}


def assert_same_tracking(
    batched: TrackingDistinctCountSketch,
    per_update: TrackingDistinctCountSketch,
    dests: Set[int],
) -> None:
    batched.check_invariants()
    assert batched.structurally_equal(per_update)
    for level in range(batched.params.num_levels):
        assert batched.num_singletons(level) == per_update.num_singletons(
            level
        )
        assert batched.singleton_pairs(level) == per_update.singleton_pairs(
            level
        )
        for dest in dests:
            assert batched.heap_frequency(
                level, dest
            ) == per_update.heap_frequency(level, dest), (level, dest)
    for k in (1, 3, 10):
        assert batched.track_topk(k) == per_update.track_topk(k)


class TestNettedUpkeep:
    def test_stream_is_delete_heavy_with_many_pairs_per_dest(self) -> None:
        updates = handshake_stream(3, 8000)
        deletes = sum(1 for update in updates if update.delta < 0)
        assert deletes > len(updates) // 4
        pairs = {(u.source, u.dest) for u in updates if u.dest != VICTIM}
        assert len(pairs) > 20 * len(SERVERS)

    @pytest.mark.parametrize("chunk", [1, 7, 500, 5000])
    @pytest.mark.parametrize("stream_seed", [3, 4])
    def test_chunked_batches_match_per_update(
        self, chunk: int, stream_seed: int
    ) -> None:
        updates = handshake_stream(stream_seed, 8000)
        dests = stream_dests(updates)
        batched = TrackingDistinctCountSketch(DOMAIN, seed=5, backend="packed")
        per_update = TrackingDistinctCountSketch(
            DOMAIN, seed=5, backend="packed"
        )
        checked = 0
        for start in range(0, len(updates), chunk):
            part = updates[start:start + chunk]
            batched.update_batch(part)
            for update in part:
                per_update.process(update)
            if start + len(part) - checked >= 2500:
                checked = start + len(part)
                assert_same_tracking(batched, per_update, dests)
        assert_same_tracking(batched, per_update, dests)

    def test_matches_reference_backend(self) -> None:
        updates = handshake_stream(6, 6000)
        batched = TrackingDistinctCountSketch(DOMAIN, seed=5, backend="packed")
        reference = TrackingDistinctCountSketch(DOMAIN, seed=5)
        batched.process_stream(updates, batch_size=500)
        reference.process_stream(updates)
        assert_same_tracking(batched, reference, stream_dests(updates))

    def test_event_counters_count_netted_events(self) -> None:
        updates = handshake_stream(7, 6000)
        per_event, netted = Registry(), Registry()
        TrackingDistinctCountSketch(
            DOMAIN, seed=5, backend="packed", obs=per_event
        ).process_stream(updates)
        TrackingDistinctCountSketch(
            DOMAIN, seed=5, backend="packed", obs=netted
        ).process_stream(updates, batch_size=2000)

        def value(registry: Registry, name: str, **labels: str) -> int:
            return int(registry.get(name).labels(**labels).value)

        heap_ops = "repro_tracking_heap_ops_total"
        events = "repro_tracking_singleton_events_total"
        for op in ("add", "remove"):
            assert 0 < value(netted, heap_ops, op=op) < value(
                per_event, heap_ops, op=op
            )
        # Both paths end with the same sample, so the event balance
        # (entered minus left) agrees even though the counts differ.
        assert value(netted, events, event="add") - value(
            netted, events, event="remove"
        ) == value(per_event, events, event="add") - value(
            per_event, events, event="remove"
        )


class TestWidePairs:
    """Pairs wider than 64 bits through the fused diff (merge, subtract)."""

    WIDE = AddressDomain(2 ** 33)

    def wide_stream(self, seed: int, length: int) -> List[FlowUpdate]:
        rng = random.Random(seed)
        return [
            FlowUpdate(rng.randrange(self.WIDE.m), rng.randrange(12), 1)
            for _ in range(length)
        ]

    def fed(self, updates: List[FlowUpdate], backend: str):
        sketch = TrackingDistinctCountSketch(
            self.WIDE, seed=5, backend=backend
        )
        sketch.process_stream(updates, batch_size=64)
        return sketch

    def test_subtract_and_merge_match_reference(self) -> None:
        updates = self.wide_stream(8, 900)
        whole = self.fed(updates, "packed")
        whole.subtract(self.fed(updates[:400], "packed"))
        expected = self.fed(updates[400:], "reference")
        whole.check_invariants()
        assert whole.structurally_equal(expected)
        assert whole.track_topk(5) == expected.track_topk(5)
        whole.merge(self.fed(updates[:400], "packed"))
        whole.check_invariants()
        assert whole.structurally_equal(self.fed(updates, "reference"))
