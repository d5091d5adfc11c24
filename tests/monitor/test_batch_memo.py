"""The encoded batch's memo: one hash per batch and sketch family.

A monitor batch feeds the tracking sketch, the window's open sub-epoch
and the window's running sum.  When they share params and seed, the
batch's key matrix is hashed once and each chunk is segment-summed
once; a sketch with another seed computes its own memo entry.  These
tests pin both the sharing (a spy on the level hash) and the answers
(alarms and sketch states identical to per-update feeding).
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any, List, Optional

import pytest

from repro.hashing import GeometricLevelHash
from repro.monitor import DDoSMonitor, MonitorConfig, SlidingWindowSketch
from repro.sketch import DistinctCountSketch, encode_batch
from repro.types import AddressDomain, FlowUpdate

DOMAIN = AddressDomain(2 ** 16)
CONFIG = MonitorConfig(
    k=5, check_interval=700, warning_ratio=10, critical_ratio=50,
    absolute_floor=50,
)


def attack_stream(seed: int, length: int) -> List[FlowUpdate]:
    """Background traffic with completions, then a flood on dest 7."""
    rng = random.Random(seed)
    live: List[FlowUpdate] = []
    updates: List[FlowUpdate] = []
    for position in range(length):
        if live and rng.random() < 0.3:
            opened = live.pop(rng.randrange(len(live)))
            updates.append(FlowUpdate(opened.source, opened.dest, -1))
        elif position > length // 3 and rng.random() < 0.5:
            updates.append(FlowUpdate(rng.randrange(DOMAIN.m), 7, 1))
        else:
            opened = FlowUpdate(rng.randrange(DOMAIN.m), rng.randrange(60), 1)
            live.append(opened)
            updates.append(opened)
    return updates


def make_monitor(
    window_seed: Optional[int],
    durable_dir: Optional[Path] = None,
    subepoch_length: int = 300,
) -> DDoSMonitor:
    window = None
    if window_seed is not None:
        window = SlidingWindowSketch(
            DOMAIN,
            subepoch_length=subepoch_length,
            window_subepochs=4,
            seed=window_seed,
            durable_dir=durable_dir,
        )
    return DDoSMonitor(
        DOMAIN, CONFIG, seed=3, backend="packed", window=window
    )


@pytest.fixture
def level_hash_calls(monkeypatch: pytest.MonkeyPatch) -> List[int]:
    """Record the code count of every ``levels_many`` call."""
    calls: List[int] = []
    original = GeometricLevelHash.levels_many

    def spy(self: GeometricLevelHash, codes: Any) -> Any:
        calls.append(len(codes))
        return original(self, codes)

    monkeypatch.setattr(GeometricLevelHash, "levels_many", spy)
    return calls


class TestOneHashPerBatch:
    def test_same_seed_window_shares_the_hash(
        self, level_hash_calls: List[int]
    ) -> None:
        monitor = make_monitor(window_seed=3)
        updates = attack_stream(1, 1024)
        monitor.observe_batch(updates)
        # The batch crossed the check at 700 and three sub-epoch
        # boundaries, yet the root batch was hashed exactly once.
        assert monitor.updates_seen == 1024
        assert monitor.window is not None
        assert monitor.window.subepoch_index == 3
        assert level_hash_calls == [1024]

    def test_other_seed_window_hashes_its_own(
        self, level_hash_calls: List[int]
    ) -> None:
        monitor = make_monitor(window_seed=4)
        monitor.observe_batch(attack_stream(1, 1024))
        assert level_hash_calls == [1024, 1024]

    def test_no_window_hashes_once(self, level_hash_calls: List[int]) -> None:
        monitor = make_monitor(window_seed=None)
        monitor.observe_batch(attack_stream(1, 1024))
        assert level_hash_calls == [1024]


class TestMemoAnswers:
    @pytest.mark.parametrize(
        "window_seed, durable",
        [(3, False), (4, False), (3, True)],
        ids=["same-seed", "other-seed", "durable"],
    )
    def test_unaligned_boundaries_match_per_update(
        self, tmp_path: Path, window_seed: int, durable: bool
    ) -> None:
        updates = attack_stream(2, 6000)
        batched = make_monitor(
            window_seed, tmp_path / "batched" if durable else None
        )
        streamed = make_monitor(
            window_seed, tmp_path / "streamed" if durable else None
        )
        raised = []
        for start in range(0, len(updates), 1024):
            raised.extend(batched.observe_batch(updates[start:start + 1024]))
        expected = streamed.observe_stream(updates)
        assert expected and any(alarm.dest == 7 for alarm in expected)
        assert raised == expected
        assert batched.sketch.structurally_equal(streamed.sketch)
        batched.sketch.check_invariants()
        assert batched.window is not None and streamed.window is not None
        assert batched.window.window_sum.structurally_equal(
            streamed.window.window_sum
        )
        batched.window.close()
        streamed.window.close()
        # The window sum is the sketch of the in-window updates.
        horizon = len(updates) - batched.window.in_window_updates
        alone = DistinctCountSketch(DOMAIN, seed=window_seed)
        alone.process_stream(updates[horizon:])
        assert batched.window.window_sum.structurally_equal(alone)


class TestEncodedBatchMemo:
    def test_full_slice_is_the_batch(self) -> None:
        batch = encode_batch(DOMAIN, attack_stream(3, 50))
        assert batch[:] is batch
        assert batch[0:50] is batch
        assert batch[0:80] is batch
        assert batch[0:49] is not batch
        assert len(batch[10:10]) == 0

    def test_slices_must_be_contiguous(self) -> None:
        from repro.exceptions import ParameterError

        batch = encode_batch(DOMAIN, attack_stream(3, 50))
        with pytest.raises(ParameterError):
            batch[::2]

    def test_slices_read_the_root_matrix(
        self, level_hash_calls: List[int]
    ) -> None:
        updates = attack_stream(4, 900)
        batch = encode_batch(DOMAIN, updates)
        sketch = DistinctCountSketch(DOMAIN, seed=3, backend="packed")
        nested = batch[100:800][50:600]
        sketch.update_batch(nested)
        sketch.update_batch(batch[0:150])
        sketch.update_batch(batch[650:])
        assert level_hash_calls == [900]
        alone = DistinctCountSketch(DOMAIN, seed=3)
        alone.process_stream(updates[150:700] + updates[:150] + updates[650:])
        assert sketch.structurally_equal(alone)

    def test_memo_is_freed_without_the_cycle_collector(self) -> None:
        # Monitor batches come and go every call: their memo must go
        # with them by reference counting alone, or it piles up until
        # the cycle collector runs.
        import gc
        import weakref

        sketch = DistinctCountSketch(DOMAIN, seed=3, backend="packed")
        batch = encode_batch(DOMAIN, attack_stream(6, 400))
        sketch.update_batch(batch[0:250])
        sketch.update_batch(batch[250:])

        def unused(_: Any) -> Any:
            raise AssertionError("memo entry missing")

        matrix = weakref.ref(batch.flat_keys(sketch._family, unused))
        gc.disable()
        try:
            del batch
            assert matrix() is None
        finally:
            gc.enable()

    def test_families_never_share_rows(self) -> None:
        updates = attack_stream(5, 800)
        batch = encode_batch(DOMAIN, updates)
        sketches = [
            DistinctCountSketch(DOMAIN, seed=1, backend="packed"),
            DistinctCountSketch(DOMAIN, seed=2, backend="packed"),
            DistinctCountSketch(DOMAIN, s=64, seed=1, backend="packed"),
        ]
        for sketch in sketches:
            sketch.update_batch(batch)

        def unused(_: Any) -> Any:
            raise AssertionError("memo entry missing")

        entries = [batch.segment(sketch._family, unused) for sketch in sketches]
        matrices = [
            batch.flat_keys(sketch._family, unused) for sketch in sketches
        ]
        for first in range(len(sketches)):
            for second in range(first + 1, len(sketches)):
                assert entries[first][0] is not entries[second][0]
                assert entries[first][1] is not entries[second][1]
                assert matrices[first] is not matrices[second]
                assert (matrices[first] != matrices[second]).any()
        for sketch in sketches:
            alone = DistinctCountSketch(
                sketch.params, seed=sketch.seed, backend="packed"
            )
            alone.update_batch(updates)
            assert sketch.structurally_equal(alone)
