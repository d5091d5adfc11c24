"""Unit tests for the packed SignatureArena store (one per sketch)."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import MergeError, ParameterError
from repro.sketch import CountSignature, SignatureArena
from repro.sketch.arena import MAX_DENSE_KEYS


def make_signature(pair_bits: int, *pairs: int) -> CountSignature:
    signature = CountSignature(pair_bits)
    for pair in pairs:
        signature.update(pair, 1)
    return signature


def keys(*values: int) -> np.ndarray:
    return np.array(values, dtype=np.int64)


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            SignatureArena(0, 128)
        with pytest.raises(ParameterError):
            SignatureArena(8, 0)

    def test_starts_empty(self):
        arena = SignatureArena(8, 128)
        assert len(arena) == 0
        assert not arena
        assert list(arena) == []
        assert arena.capacity == 0


class TestUpdateAndDecode:
    def test_update_creates_and_prunes(self):
        arena = SignatureArena(8, 128)
        arena.update(5, 0b1010, 1)
        assert 5 in arena
        assert len(arena) == 1
        arena.update(5, 0b1010, -1)
        assert 5 not in arena
        assert len(arena) == 0

    def test_update_rejects_wide_pair_code(self):
        arena = SignatureArena(4, 128)
        with pytest.raises(ParameterError):
            arena.update(0, 1 << 4, 1)

    def test_singleton_at_matches_signature_decode(self):
        arena = SignatureArena(8, 128)
        arena.update(3, 0b1100, 1)
        assert arena.singleton_at(3) == 0b1100
        # A second distinct pair makes the row a collision.
        arena.update(3, 0b0011, 1)
        assert arena.singleton_at(3) is None
        assert arena[3] == make_signature(8, 0b1100, 0b0011)

    def test_singleton_at_empty_bucket(self):
        arena = SignatureArena(8, 128)
        assert arena.singleton_at(7) is None

    def test_decode_occupied_matches_per_bucket_decode(self):
        arena = SignatureArena(8, 128)
        arena.update(9, 0b101, -1)
        arena.update(2, 0b10, 1)
        arena.update(2, 0b11, 1)
        arena.update(1, 0b1, 1)
        decoded = list(arena.decode_occupied())
        expected = [
            (key, signature.recover_singleton())
            for key, signature in arena.items()
        ]
        assert decoded == expected
        assert decoded == [(1, 0b1), (2, None), (9, None)]  # key order

    def test_slot_reuse_after_prune(self):
        arena = SignatureArena(8, 128)
        arena.update(1, 0b1, 1)
        arena.update(1, 0b1, -1)
        capacity = arena.capacity
        arena.update(2, 0b10, 1)
        # The freed slot is recycled, not grown past.
        assert arena.capacity == capacity == 1

    def test_decode_range_selects_keys(self):
        arena = SignatureArena(8, 128)
        arena.update(3, 0b1, 1)
        arena.update(17, 0b10, 1)
        arena.update(17, 0b100, 1)
        arena.update(40, 0b1000, 1)
        assert arena.decode_range(0, 16) == ([0b1], 0)
        assert arena.decode_range(16, 32) == ([], 1)
        assert arena.decode_range(0, 128) == ([0b1, 0b1000], 1)
        assert arena.decode_slab() == ([0b1, 0b1000], 1)

    def test_wide_pair_codes_decode_scalar(self):
        arena = SignatureArena(70, 16)
        code = (1 << 69) | 5
        arena.update(4, code, 1)
        assert arena.singleton_at(4) == code
        assert arena.decode_slab() == ([code], 0)


class TestMappingSurface:
    def test_get_returns_independent_copy(self):
        arena = SignatureArena(8, 128)
        arena.update(4, 0b111, 1)
        signature = arena[4]
        signature.update(0b111, 1)
        # Mutating the copy must not touch the arena.
        assert arena[4] == make_signature(8, 0b111)

    def test_setitem_roundtrip_and_zero_write_deletes(self):
        arena = SignatureArena(8, 128)
        arena[10] = make_signature(8, 0b101, 0b1)
        assert arena[10] == make_signature(8, 0b101, 0b1)
        arena[10] = CountSignature(8)
        assert 10 not in arena

    def test_setitem_rejects_width_mismatch(self):
        arena = SignatureArena(8, 128)
        with pytest.raises(ParameterError):
            arena[0] = CountSignature(9)

    def test_delitem(self):
        arena = SignatureArena(8, 128)
        arena.update(2, 0b1, 1)
        del arena[2]
        assert 2 not in arena
        with pytest.raises(KeyError):
            del arena[2]
        with pytest.raises(KeyError):
            arena[2]

    def test_items_keys_values(self):
        arena = SignatureArena(8, 128)
        arena.update(2, 0b10, 1)
        arena.update(1, 0b1, 1)
        assert list(arena.keys()) == [1, 2]
        assert list(arena.items()) == [
            (1, make_signature(8, 0b1)),
            (2, make_signature(8, 0b10)),
        ]
        assert len(list(arena.values())) == 2

    def test_contains_rejects_foreign_keys(self):
        arena = SignatureArena(8, 128)
        arena.update(2, 0b1, 1)
        assert 2 in arena
        assert np.int64(2) in arena
        assert -1 not in arena
        assert 128 not in arena
        assert "2" not in arena


class TestEquality:
    def test_arena_vs_arena(self):
        a = SignatureArena(8, 128)
        b = SignatureArena(8, 128)
        a.update(1, 0b1, 1)
        # Different insertion orders / slot layouts still compare equal.
        b.update(9, 0b11, 1)
        b.update(1, 0b1, 1)
        b.update(9, 0b11, -1)
        assert a == b
        b.update(2, 0b10, 1)
        assert a != b

    def test_arena_vs_dict_reflected(self):
        arena = SignatureArena(8, 128)
        arena.update(1, 0b101, 1)
        reference = {1: make_signature(8, 0b101)}
        assert arena == reference
        assert reference == arena  # dict delegates via NotImplemented
        reference[2] = make_signature(8, 0b1)
        assert arena != reference

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(SignatureArena(8, 128))


class TestMergeSignature:
    def test_merge_into_empty_and_cancel(self):
        arena = SignatureArena(8, 128)
        arena.merge_signature(5, make_signature(8, 0b1))
        assert arena[5] == make_signature(8, 0b1)
        negative = CountSignature(8)
        negative.update(0b1, -1)
        arena.merge_signature(5, negative)
        assert 5 not in arena

    def test_merge_rejects_width_mismatch(self):
        arena = SignatureArena(8, 128)
        with pytest.raises(MergeError):
            arena.merge_signature(0, CountSignature(9))


class TestCopy:
    def test_copy_is_deep(self):
        arena = SignatureArena(8, 128)
        arena.update(1, 0b1, 1)
        clone = arena.copy()
        clone.update(1, 0b1, 1)
        assert arena[1] == make_signature(8, 0b1)
        assert clone != arena


class TestBatchSurface:
    def test_resolve_scatter_decode_roundtrip(self):
        arena = SignatureArena(4, 128)
        rows = np.array(
            [
                [0, 0, 0, 0, 0],   # pair 0b0101 inserted and deleted
                [1, 0, 1, 0, 0],   # pair 0b0010 into key 7
            ],
            dtype=np.int64,
        )
        index, before_ok, _, after_ok, codes = arena.add_rows_diff(
            keys(3, 7), rows
        )
        # Only key 7's occupant changed; fresh rows decode as not-ok.
        assert index.tolist() == [1]
        assert before_ok.tolist() == [False]
        assert after_ok.tolist() == [True]
        assert codes[0] == 0b0010
        assert 3 not in arena
        assert len(arena) == 1
        assert arena.singleton_at(7) == 0b0010

    def test_diff_reports_occupant_swaps_and_collisions(self):
        arena = SignatureArena(4, 128)
        arena.add_rows(keys(1, 2), np.array(
            [[1, 1, 0, 0, 0], [1, 0, 1, 0, 0]], dtype=np.int64
        ))
        # Key 1 swaps pair 0b0001 for 0b1000; key 2 gains a second
        # pair (collision); key 5 is untouched by the diff's content.
        index, before_ok, before, after_ok, after = arena.add_rows_diff(
            keys(1, 2, 5),
            np.array(
                [[0, -1, 0, 0, 1], [1, 1, 0, 0, 0], [0, 0, 0, 0, 0]],
                dtype=np.int64,
            ),
        )
        assert index.tolist() == [0, 1]
        assert before_ok.tolist() == [True, True]
        assert before.tolist() == [0b0001, 0b0010]
        assert after_ok.tolist() == [True, False]
        assert after[0] == 0b1000
        assert 5 not in arena and len(arena) == 2

    def test_resolve_allocates_duplicates_once(self):
        arena = SignatureArena(4, 128)
        slots = arena.resolve_slots(keys(9, 4, 9))
        assert slots[0] == slots[2]
        assert len(arena) == 2
        assert arena.capacity == 2

    def test_resolve_recycles_freed_slots_before_growing(self):
        arena = SignatureArena(4, 128)
        arena.add_rows(keys(1, 2, 3), np.zeros((3, 5), dtype=np.int64))
        assert len(arena) == 0  # all rows stayed zero: all freed
        arena.add_rows(keys(50, 60), np.ones((2, 5), dtype=np.int64))
        assert arena.capacity == 3
        occupied = [arena._slot(50), arena._slot(60)]
        assert sorted(occupied + arena._free) == [0, 1, 2]

    def test_sparse_resolve_path(self):
        # A key range above MAX_DENSE_KEYS forces the dict-based index.
        arena = SignatureArena(4, MAX_DENSE_KEYS + 1)
        assert arena._dense is None
        slots = arena.resolve_slots(keys(MAX_DENSE_KEYS, 9, MAX_DENSE_KEYS))
        assert slots[0] == slots[2]
        assert len(arena) == 2
        arena.add_rows(keys(MAX_DENSE_KEYS, 9), np.ones((2, 5), dtype=np.int64))
        assert arena.singleton_at(9) == 0b1111
        arena.add_rows(keys(MAX_DENSE_KEYS), -np.ones((1, 5), dtype=np.int64))
        assert MAX_DENSE_KEYS not in arena
        assert len(arena) == 1

    def test_fused_add_empty(self):
        arena = SignatureArena(4, 128)
        empty = np.empty((0, 5), dtype=np.int64)
        arena.add_rows(keys(), empty)
        index, before_ok, before, after_ok, after = arena.add_rows_diff(
            keys(), empty
        )
        assert len(index) == len(before_ok) == len(before) == 0
        assert len(after_ok) == len(after) == 0
        assert len(arena) == 0 and arena.capacity == 0


class TestCapacityBound:
    def test_capacity_never_exceeds_key_range(self):
        arena = SignatureArena(4, 64)
        rng = np.random.default_rng(7)
        for _ in range(50):
            batch = np.unique(rng.integers(0, 64, size=40))
            signs = rng.choice([-1, 1], size=(len(batch), 1))
            arena.add_rows(batch, signs * np.ones((len(batch), 5), int))
            assert arena.capacity <= 64

    def test_reserved_rows_cost_no_memory_until_used(self):
        statm = Path("/proc/self/statm")
        if not statm.exists():
            pytest.skip("needs /proc/self/statm")

        def resident() -> int:
            return int(statm.read_text().split()[1]) * 4096

        before = resident()
        # Reserves ~34 MB of address space for 2^16 rows of 65 counters.
        arena = SignatureArena(64, 1 << 16)
        arena.add_rows(np.arange(1000), np.ones((1000, 65), dtype=np.int64))
        assert resident() - before < 8 << 20
        assert arena.capacity == 1000

    def test_growth_past_the_reservation_keeps_rows(self, monkeypatch):
        from repro.sketch import arena as arena_module

        # A 4-row reservation forces the arena to move its rows.
        monkeypatch.setattr(arena_module, "_RESERVE_BYTES", 8 * 5 * 4)
        arena = SignatureArena(4, 128)
        for key in range(10):
            arena.update(key, key, 1)
        assert arena.capacity == 10
        assert [arena.singleton_at(key) for key in range(10)] == list(
            range(10)
        )
        assert arena.view2d().shape == (10, 5)


class TestMemoryBound:
    """Adversarial streams cannot grow a sketch's arena without bound."""

    @staticmethod
    def assert_bounded(sketch) -> None:
        arena = sketch._arena
        params = sketch.params
        keys = params.num_levels * params.r * params.s
        assert arena.capacity <= keys
        # Address space, too, is never reserved past the key range.
        assert len(arena._mem) <= 8 * arena.stride * keys

    @pytest.mark.parametrize("stream", ["spray", "churn", "carpet"])
    def test_capacity_stays_within_key_range(self, stream):
        from repro.sketch import TrackingDistinctCountSketch
        from repro.streams import CarpetBombing, ChurnStorm, UniformSpray
        from repro.types import AddressDomain

        updates = list({
            "spray": lambda: UniformSpray(6000, seed=1),
            "churn": lambda: ChurnStorm(
                1500, rounds=3, survivor_dest=9, survivor_sources=200,
                seed=2,
            ),
            "carpet": lambda: CarpetBombing(
                victims=[3, 4, 5], sources_per_burst=300, gap=200,
                rounds=2, seed=3,
            ),
        }[stream]())
        sketch = TrackingDistinctCountSketch(
            AddressDomain(2 ** 32), r=2, s=16, seed=4, backend="packed"
        )
        for start in range(0, len(updates), 512):
            sketch.update_batch(updates[start:start + 512])
            self.assert_bounded(sketch)
        sketch.check_invariants()
