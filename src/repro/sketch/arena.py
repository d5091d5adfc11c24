"""The packed signature arena: one flat counter store per sketch.

The reference store keeps one :class:`~repro.sketch.signature.CountSignature`
heap object (plus a boxed-int list) per occupied second-level bucket.
At line rate that object overhead dominates the ``O(r log m)`` counter
cost the paper promises (Section 3).  A :class:`SignatureArena` packs
every signature of a whole sketch into one flat int64 buffer of stride
``pair_bits + 1``:

``[total, bit_0, ..., bit_{pair_bits-1}] [total, bit_0, ...] ...``

Rows are addressed by a *flat key*.  A sketch maps bucket ``b`` of
inner table ``j`` at level ``l`` to ``(l * r + j) * s + b``, so one
dense ``key -> slot`` index (and its inverse, ``slot -> key``) covers
all ``num_levels * r`` tables, and a whole batch's row add is one
fused pass (:meth:`SignatureArena.add_rows`): one slot resolution, one
gather of the touched rows, one write-back — with the tracking
sketch's before/after singleton decode run on the gathered copy in
between (:meth:`SignatureArena.add_rows_diff`).  Rows
that net back to zero are freed and their slots recycled (freed rows
are all-zero, so reuse needs no clearing); the row count therefore
never exceeds the number of keys.

The arena also quacks like the reference ``Dict[int, CountSignature]``
store — ``get``/``items``/``values``/``len``/``in``/``==`` and friends,
keyed by flat key — so tests, ``serialize`` and ``debug`` can treat
both backends alike.  :class:`CountSignature` remains the interchange
type: every accessor returns an independent copy, never a view into
the buffer.

The buffer is private anonymous memory mapped straight from the OS
(:mod:`mmap`), reserved for every row the key range can need: pages
are zero until first touched and cost no memory until then, rows never
move as the arena fills, and freeing a sketch returns its pages at
once.  A heap buffer grown by ``realloc`` would instead fragment the
allocator's heap across sketches that come and go (a sliding window
closes one every sub-epoch) and hold the process's resident set above
what its live sketches use.

Counters are 64-bit here versus unbounded ints in the reference store;
they saturate only beyond ``2^63 - 1`` net occurrences of one bucket,
far past any feasible stream.
The packed backend requires numpy.
"""

from __future__ import annotations

import mmap
from array import array
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Union

from .._accel import np as _np
from ..exceptions import MergeError, ParameterError
from ..obs.trace import span as trace_span
from .signature import CountSignature

#: Largest key range for which a dense ``key -> slot`` index is kept (4
#: bytes per key, zero-initialized so untouched pages cost no memory);
#: wider arenas fall back to a dict index.
MAX_DENSE_KEYS = 1 << 24

#: Address space reserved for rows up front.  Key ranges needing more
#: start here and double (copying only the rows in use) when full.
_RESERVE_BYTES = 1 << 26


def _anonymous_memory(size: int) -> mmap.mmap:
    """Private, zero-filled, lazily paged memory of ``size`` bytes."""
    private = getattr(mmap, "MAP_PRIVATE", None)
    if private is None:  # Windows: anonymous maps are private already
        return mmap.mmap(-1, size)
    return mmap.mmap(-1, size, flags=private)


def singleton_mask(matrix: Any) -> Tuple[Any, Any]:  # hot-path
    """The slab-decode kernel: ``ReturnSingleton`` over whole matrices.

    ``matrix`` is a ``(rows, stride)`` counter matrix of any integer
    dtype with the totals in column 0.  Evaluates the paper's singleton
    predicate for every row at once — a row is a singleton iff its
    total is positive and each bit counter is either 0 or equal to the
    total — and returns ``(ok, ne)``: the bool singleton mask and the
    full ``counter != total`` comparison, whose negated columns ``1:``
    are the decoded pair bits of each row (callers negate only the rows
    they decode).  All-zero (freed) rows come out not-ok, so full arena
    buffers can be decoded without masking out recycled slots first.
    """
    ne = matrix != matrix[:, :1]
    bad = matrix != 0
    # Column 0 of bad self-cancels (total != total is never true), so
    # the row-wise any() needs no column slicing.
    _np.logical_and(bad, ne, out=bad)
    ok = ~bad.any(axis=1)
    _np.logical_and(ok, matrix[:, 0] > 0, out=ok)
    return ok, ne


def pack_codes(eq_bits: Any) -> Any:  # hot-path
    """Reassemble uint64 pair codes from a ``(rows, pair_bits)`` bit mask.

    Bit ``i`` of row ``r``'s code is set iff ``eq_bits[r, i]`` — the
    vectorized form of the scalar decoder's ``code |= 1 << i``.  Only
    valid for ``pair_bits <= 64`` (callers gate wider domains to the
    scalar path).
    """
    width = eq_bits.shape[1]
    if width % 64:
        pad = _np.zeros((eq_bits.shape[0], 64 - width % 64), dtype=bool)
        eq_bits = _np.concatenate([eq_bits, pad], axis=1)
    packed = _np.packbits(eq_bits, axis=1, bitorder="little")
    return packed.view(_np.dtype("<u8")).reshape(-1)


def _scalar_singleton(row: List[int]) -> Optional[int]:
    """``ReturnSingleton`` on one counter row (any pair width)."""
    total = row[0]
    if total <= 0:
        return None
    code = 0
    for index in range(1, len(row)):
        count = row[index]
        if count == total:
            code |= 1 << (index - 1)
        elif count != 0:
            return None
    return code


class _DeltaLog:
    """Baseline rows of the keys touched since the last delta drain.

    ``seen`` marks keys whose baseline is already recorded (a bool
    array over the key range, or a set for dict-indexed arenas);
    ``keys``/``rows`` hold the baselines, one array pair per batch.
    Keyed by flat key, never by slot: a slot freed and re-bound to
    another key between drains leaves both keys' baselines intact.
    """

    __slots__ = ("seen", "keys", "rows")

    def __init__(self, range_size: int, dense: bool) -> None:
        self.seen: Union[Any, Set[int]] = (
            _np.zeros(range_size, dtype=bool) if dense else set()
        )
        self.keys: List[Any] = []
        self.rows: List[Any] = []

    def first_touch(self, keys: Any) -> Any:
        """Bool mask of ``keys`` without a baseline yet; marks them."""
        seen = self.seen
        if isinstance(seen, set):
            fresh = _np.fromiter(
                (key not in seen for key in keys.tolist()),
                dtype=bool,
                count=len(keys),
            )
            seen.update(keys[fresh].tolist())
            return fresh
        fresh = ~seen[keys]
        seen[keys[fresh]] = True
        return fresh

    def clear(self) -> None:
        """Forget every baseline (after a drain or a full sync)."""
        seen = self.seen
        if isinstance(seen, set):
            seen.clear()
        else:
            for keys in self.keys:
                seen[keys] = False
        self.keys.clear()
        self.rows.clear()


class SignatureArena:
    """Packed :class:`CountSignature` storage for every bucket of a sketch.

    Args:
        pair_bits: width of the pair encoding (``2 log2 m``); each row
            holds ``pair_bits + 1`` counters (total first).
        range_size: number of distinct keys (``num_levels * r * s`` for
            a sketch); keys are validated against it by the index.
    """

    __slots__ = (
        "pair_bits", "stride", "range_size",
        "_mem", "_buf", "_reserved", "_key_of", "_free", "_occupied",
        "_dense", "_sparse", "_view", "_deltas",
    )

    def __init__(self, pair_bits: int, range_size: int) -> None:
        if pair_bits < 1:
            raise ParameterError(f"pair_bits must be >= 1, got {pair_bits}")
        if range_size < 1:
            raise ParameterError(
                f"range_size must be >= 1, got {range_size}"
            )
        self.pair_bits = pair_bits
        #: Counters per row: the total plus one per pair bit.
        self.stride = pair_bits + 1
        self.range_size = range_size
        #: Rows the mapping can hold without moving.
        self._reserved = min(
            range_size, max(1, _RESERVE_BYTES // (8 * self.stride))
        )
        self._mem = _anonymous_memory(8 * self.stride * self._reserved)
        # Flat int64 view of the rows for the per-update scalar path.
        self._buf = memoryview(self._mem).cast("q")
        #: slot -> key (-1 for free slots).
        self._key_of = array("q")
        #: Recycled slot indices (their rows are all-zero by invariant).
        self._free: List[int] = []
        self._occupied = 0
        # key -> slot + 1 (0 = absent), or a dict for very wide ranges.
        self._dense: Any = None
        self._sparse: Dict[int, int] = {}
        if range_size <= MAX_DENSE_KEYS:
            self._dense = _np.zeros(range_size, dtype=_np.int32)
        # Cached buffer view (see view2d); dropped when rows come into use.
        self._view: Any = None
        # Delta-transport baselines (None = tracking off).
        self._deltas: Optional[_DeltaLog] = None

    # -- slot management -----------------------------------------------------

    @property
    def capacity(self) -> int:
        """Rows in use (occupied plus free); never above ``range_size``."""
        return len(self._key_of)

    def _slot(self, key: int) -> int:  # hot-path
        """The key's slot, or -1 when it holds no row."""
        dense = self._dense
        if dense is not None:
            return int(dense[key]) - 1
        return self._sparse.get(key, -1)

    def _grow(self, rows: int) -> int:
        """Bring ``rows`` zeroed rows into use; returns the first new slot."""
        first = len(self._key_of)
        if first + rows > self._reserved:
            self._remap(max(first + rows, 2 * self._reserved))
        self._view = None
        self._key_of.frombytes(b"\xff" * (8 * rows))  # -1 per slot
        return first

    def _remap(self, reserved: int) -> None:
        """Move the rows in use into a mapping of ``reserved`` rows."""
        mem = _anonymous_memory(8 * self.stride * reserved)
        used = 8 * self.stride * len(self._key_of)
        memoryview(mem)[:used] = memoryview(self._mem)[:used]
        self._view = None
        self._mem = mem
        self._buf = memoryview(mem).cast("q")
        self._reserved = reserved

    def _allocate(self, key: int) -> int:  # hot-path
        """Bind ``key`` to a zeroed slot (recycled or fresh)."""
        free = self._free
        slot = free.pop() if free else self._grow(1)
        self._key_of[slot] = key
        if self._dense is not None:
            self._dense[key] = slot + 1
        else:
            self._sparse[key] = slot
        self._occupied += 1
        return slot

    def _release(self, key: int, slot: int) -> None:  # hot-path
        """Unbind an all-zero slot and queue it for reuse."""
        if self._dense is not None:
            self._dense[key] = 0
        else:
            del self._sparse[key]
        self._key_of[slot] = -1
        self._free.append(slot)
        self._occupied -= 1

    def slot_keys(self) -> Any:
        """The ``slot -> key`` map as an int64 ndarray (-1 = free slot).

        A view of the arena's own buffer: use it before the next
        allocation, then drop it (growth may move the buffer).
        """
        if not self._key_of:
            return _np.empty(0, dtype=_np.int64)
        return _np.frombuffer(self._key_of, dtype=_np.int64)

    def _lookup_slots(self, keys: Any) -> Any:  # hot-path
        """Slot per key (int64 ndarray), -1 where the key has no row."""
        dense = self._dense
        if dense is not None:
            return dense[keys] - 1
        sparse = self._sparse
        return _np.fromiter(
            (sparse.get(key, -1) for key in keys.tolist()),
            dtype=_np.int64,
            count=len(keys),
        )

    def resolve_slots(self, keys: Any) -> Any:  # hot-path
        """Slot index per key (int64 ndarray), allocating on miss.

        Allocation may bring new rows into use, which a view made
        earlier does not cover: create :meth:`view2d` only *after* this
        call.  Duplicate keys resolve to the same slot.
        """
        slots = self._lookup_slots(keys)
        missing = slots < 0
        if not bool(missing.any()):
            return slots
        new_keys = _np.unique(keys[missing])
        count = len(new_keys)
        free = self._free
        take = min(count, len(free))
        fresh = _np.empty(count, dtype=_np.int64)
        if take:
            fresh[:take] = free[len(free) - take:]
            del free[len(free) - take:]
        if count > take:
            first = self._grow(count - take)
            fresh[take:] = _np.arange(first, first + count - take)
        self.slot_keys()[fresh] = new_keys
        if self._dense is not None:
            self._dense[new_keys] = fresh + 1
        else:
            self._sparse.update(zip(new_keys.tolist(), fresh.tolist()))
        self._occupied += count
        slots[missing] = self._lookup_slots(keys[missing])
        return slots

    # -- delta propagation (dirty-key tracking) ------------------------------

    def track_deltas(self, enabled: bool = True) -> None:
        """Switch dirty-key tracking on or off.

        While enabled, every mutation records the touched key's
        *baseline* (its counter row before the first touch since the
        last drain), so :meth:`drain_deltas` can ship exact signed
        counter deltas instead of full state.  Off by default: only
        delta-transport shard workers pay the bookkeeping.
        """
        if not enabled:
            self._deltas = None
        elif self._deltas is None:
            self._deltas = _DeltaLog(self.range_size, self._dense is not None)

    def reset_deltas(self) -> None:
        """Forget all recorded baselines (a full sync just shipped)."""
        if self._deltas is not None:
            self._deltas.clear()

    def _current_rows(self, slots: Any) -> Any:
        """Counter rows at ``slots``, zeros where a slot is -1."""
        rows = _np.zeros((len(slots), self.stride), dtype=_np.int64)
        present = slots >= 0
        rows[present] = self.view2d()[slots[present]]
        return rows

    def _note_keys(self, keys: Any, rows: Any) -> None:  # hot-path
        """Record baselines for distinct ``keys`` about to be mutated.

        ``rows`` are the keys' current counter rows (zeros where a key
        holds no row), taken before the mutation, so every baseline is
        the pre-mutation image.  No-op unless tracking is on.
        """
        log = self._deltas
        if log is None:
            return
        fresh = log.first_touch(keys)
        if bool(fresh.any()):
            log.keys.append(keys[fresh])
            log.rows.append(rows[fresh])

    def _note_key(self, key: int) -> None:
        """Scalar form of :meth:`_note_keys` for the per-update paths."""
        self._note_keys(
            _np.array([key], dtype=_np.int64),
            self._current_rows(_np.array([self._slot(key)], dtype=_np.int64)),
        )

    # linear: delta extraction is exact counter subtraction (RL013)
    def drain_deltas(self) -> Tuple[Any, Any]:
        """Extract and clear the signed counter deltas since last drain.

        Returns ``(keys, rows)`` as flat int64 ndarrays: ``rows`` holds
        one ``stride``-wide delta row per key — the key's current row
        minus its recorded baseline (zeros for keys that were empty, or
        have been freed, at either end).  Keys whose deltas net to zero
        are skipped entirely: a touched-then-reverted key costs no wire
        bytes.  Linearity makes folding these rows into another sketch
        by addition exact (Section 3).
        """
        log = self._deltas
        if log is None or not log.keys:
            empty = _np.empty(0, dtype=_np.int64)
            return empty, empty
        keys = _np.concatenate(log.keys)
        baseline = _np.concatenate(log.rows)
        log.clear()
        delta = self._current_rows(self._lookup_slots(keys)) - baseline
        keep = delta.any(axis=1)
        return keys[keep], delta[keep].reshape(-1)

    def iter_rows(self, chunk: int) -> Iterator[Tuple[Any, Any]]:
        """Every occupied key and its counter row, ``chunk`` rows at a time.

        Yields ``(keys, rows)`` pairs — an int64 key vector and a fresh
        ``(len(keys), stride)`` int64 copy of their rows — in key order.
        Bounded chunks keep a whole-arena fold (merge, subtract) from
        materializing a second copy of the arena at once.
        """
        keys, slots = self._sorted_occupied()
        for start in range(0, len(keys), chunk):
            part = slots[start:start + chunk]
            yield keys[start:start + chunk], self.view2d()[part]

    def export_rows(self) -> Tuple[Any, Any]:
        """Every occupied key's full counter row, as flat int64 arrays.

        The full-resync form of :meth:`drain_deltas`: relative to an
        empty sketch the absolute rows *are* the deltas, so a parent
        can rebuild its running sum from scratch by folding these in.
        Keys come out sorted.  Does not touch the dirty index (callers
        pair this with :meth:`reset_deltas` when it marks a sync point).
        """
        keys, slots = self._sorted_occupied()
        return keys, self.view2d()[slots].reshape(-1)

    # -- per-update fast path ------------------------------------------------

    def update(self, key: int, pair_code: int, delta: int) -> None:  # hot-path
        """Apply one stream update to ``key``'s row, pruning zeroed rows.

        Mirrors ``CountSignature.update`` plus the store-level
        create-on-miss / delete-on-zero bookkeeping of the reference
        update loop, without materializing any signature object.
        """
        if pair_code >> self.pair_bits:
            raise ParameterError(
                f"pair code {pair_code} needs more than "
                f"{self.pair_bits} bits"
            )
        if self._deltas is not None:
            self._note_key(key)
        slot = self._slot(key)
        if slot < 0:
            slot = self._allocate(key)
        buf = self._buf
        base = slot * self.stride
        buf[base] += delta
        code = pair_code
        while code:
            low = code & -code
            buf[base + low.bit_length()] += delta
            code ^= low
        if buf[base] == 0:
            for offset in range(base + 1, base + self.stride):
                if buf[offset]:
                    return
            self._release(key, slot)

    def singleton_at(self, key: int) -> Optional[int]:  # hot-path
        """Decode the key's unique pair code, or ``None``.

        The paper's ``ReturnSingleton`` test evaluated in place: the
        row is a singleton iff the total is positive and each bit
        count is either 0 or equal to the total.
        """
        slot = self._slot(key)
        if slot < 0:
            return None
        buf = self._buf
        base = slot * self.stride
        total = buf[base]
        if total <= 0:
            return None
        code = 0
        for index in range(1, self.stride):
            count = buf[base + index]
            if count == total:
                code |= 1 << (index - 1)
            elif count != 0:
                return None
        return code

    def decode_occupied(self) -> Iterator[Tuple[int, Optional[int]]]:
        """``(key, singleton code or None)`` per occupied key, in key order.

        The scalar decode, one row at a time, without materializing
        any :class:`CountSignature` (works for any pair width).
        """
        keys, slots = self._sorted_occupied()
        for key, slot in zip(keys.tolist(), slots.tolist()):
            yield key, _scalar_singleton(self._row(slot))

    # -- batch engine surface ------------------------------------------------

    def view2d(self) -> Any:
        """Writable ``(slots, stride)`` int64 view of the raw buffer.

        The view is cached between calls (decode sweeps and the batch
        engine request it back to back) and re-created when rows come
        into use.  A view covers the rows in use when it was made:
        create it after :meth:`resolve_slots`, use, drop.
        """
        view = self._view
        if view is not None:
            return view
        view = _np.frombuffer(
            self._mem, dtype=_np.int64, count=self.stride * self.capacity
        ).reshape(-1, self.stride)
        self._view = view
        return view

    def _gather(self, keys: Any) -> Tuple[Any, Any]:  # hot-path
        """Resolve distinct ``keys`` and copy their rows out, once.

        Returns ``(slots, rows)``: the keys' slots (allocated on miss,
        so fresh keys read zero rows) and an independent copy of their
        counter rows, which also serves as the delta baselines when a
        transport tracks them.
        """
        slots = self.resolve_slots(keys)
        rows = self.view2d()[slots]
        self._note_keys(keys, rows)
        return slots, rows

    def _write_back(
        self, keys: Any, slots: Any, rows: Any
    ) -> None:  # hot-path
        """Store ``rows`` at ``slots``; free the rows that are all zero.

        Only rows with a zero total can be all-zero, so the full-row
        test runs on those alone, on the copy rather than the arena.
        """
        self.view2d()[slots] = rows
        candidates = _np.flatnonzero(rows[:, 0] == 0)
        if len(candidates) == 0:
            return
        dead = candidates[~rows[candidates].any(axis=1)]
        if len(dead) == 0:
            return
        dead_keys = keys[dead]
        dead_slots = slots[dead]
        if self._dense is not None:
            self._dense[dead_keys] = 0
        else:
            sparse = self._sparse
            for key in dead_keys.tolist():
                del sparse[key]
        self.slot_keys()[dead_slots] = -1
        self._free.extend(dead_slots.tolist())
        self._occupied -= len(dead)

    # linear: a batch row add is exact integer addition (RL013)
    def add_rows(self, keys: Any, rows: Any) -> None:  # hot-path
        """Add counter ``rows`` into the rows of distinct ``keys``.

        One fused pass: resolve (allocating on miss), gather the
        touched rows once, add, write back once, and free the rows
        that netted to zero.
        """
        slots, current = self._gather(keys)
        current += rows
        self._write_back(keys, slots, current)

    # linear: a batch row add is exact integer addition (RL013)
    def add_rows_diff(
        self, keys: Any, rows: Any
    ) -> Tuple[Any, Any, Any, Any, Any]:  # hot-path
        """:meth:`add_rows`, reporting each row's singleton change.

        The slab-decode kernel runs on the one gathered copy before and
        after the add, so the diff needs no further arena reads.
        Returns ``(index, before_ok, before_codes, after_ok,
        after_codes)`` for the rows whose singleton occupant changed:
        their positions in ``keys``, whether each was a singleton
        before and after, and the uint64 pair codes (meaningful only
        where the matching mask is set; Python ints in an object array
        past 64 bits).  Zeroed (fresh or freed) rows decode as not-ok.
        """
        slots, current = self._gather(keys)
        before_ok, before_ne = singleton_mask(current)
        current += rows
        after_ok, after_ne = singleton_mask(current)
        self._write_back(keys, slots, current)
        changed = before_ok != after_ok
        both = _np.flatnonzero(before_ok & after_ok)
        if len(both):
            changed[both] = (
                before_ne[both, 1:] != after_ne[both, 1:]
            ).any(axis=1)
        index = _np.flatnonzero(changed)
        return (
            index,
            before_ok[index],
            self._codes(~before_ne[index, 1:]),
            after_ok[index],
            self._codes(~after_ne[index, 1:]),
        )

    def _codes(self, bits: Any) -> Any:  # hot-path
        """Pair codes from a ``(rows, pair_bits)`` bit mask.

        uint64 codes (:func:`pack_codes`) up to 64 bits; wider pairs
        come back as Python ints in an object array.
        """
        if self.pair_bits <= 64:
            return pack_codes(bits)
        packed = _np.packbits(bits, axis=1, bitorder="little")
        return _np.array(
            [int.from_bytes(row.tobytes(), "little") for row in packed],
            dtype=object,
        )

    def decode_keys(
        self, select: Any = None, narrow: bool = False
    ) -> Tuple[Any, Any]:  # hot-path
        """Singleton decode over the arena: ``(keys, codes)`` ndarrays.

        One application of the slab kernel over every row (or the rows
        where the bool slot mask ``select`` is set), returning the key
        and uint64 pair code of each singleton row.  ``narrow`` copies
        the counters into 32-bit scratch first (valid only while every
        counter fits; half the bytes through every predicate pass).
        Requires ``pair_bits <= 64``.
        """
        with trace_span("arena.decode_slab"):
            key_view = self.slot_keys()
            view = self.view2d()
            if select is not None:
                key_view = key_view[select]
                rows = view[select]
            elif narrow:
                rows = _np.empty(view.shape, dtype=_np.int32)
                # Slice assignment casts while copying: no int64 gather.
                rows[...] = view
            else:
                rows = view
            ok, ne = singleton_mask(rows)
            index = _np.nonzero(ok)[0]
            return key_view[index], pack_codes(~ne[index, 1:])

    def decode_range(self, lo: int, hi: int) -> Tuple[List[int], int]:
        """Decode the occupied keys in ``[lo, hi)``: ``(codes, collisions)``.

        Singleton pair codes in key order, plus the count of occupied
        rows that fail the singleton test.  Vectorized for pair codes
        of at most 64 bits, scalar beyond.
        """
        key_view = self.slot_keys()
        select = (key_view >= lo) & (key_view < hi)
        occupied = int(select.sum())
        if occupied == 0:
            return [], 0
        if self.pair_bits > 64:
            codes_out: List[int] = []
            for slot in _np.nonzero(select)[0].tolist():
                code = _scalar_singleton(self._row(slot))
                if code is not None:
                    codes_out.append(code)
            return codes_out, occupied - len(codes_out)
        keys, codes = self.decode_keys(select)
        recovered: List[int] = codes[_np.argsort(keys)].tolist()
        return recovered, occupied - len(recovered)

    def decode_slab(self) -> Tuple[List[int], int]:
        """Decode every occupied row of the arena in one pass.

        The whole-slab form of the paper's ``GetdSample`` inner loop:
        returns ``(singleton pair codes, collision count)`` over all
        occupied keys — a single application of the vectorized
        singleton predicate for pair encodings that fit 64 bits, the
        scalar per-row decode (identical results) beyond.
        """
        return self.decode_range(0, self.range_size)

    # -- merge / interchange -------------------------------------------------

    def _fold(self, key: int, signature: CountSignature, sign: int) -> None:
        """Add ``sign`` times the signature's counters into ``key``'s row."""
        if signature.pair_bits != self.pair_bits:
            raise MergeError(
                f"cannot combine signatures of widths {self.pair_bits} "
                f"and {signature.pair_bits}"
            )
        if self._deltas is not None:
            self._note_key(key)
        slot = self._slot(key)
        if slot < 0:
            slot = self._allocate(key)
        buf = self._buf
        base = slot * self.stride
        buf[base] += sign * signature.total
        counts = signature.bit_counts
        for index in range(self.pair_bits):
            buf[base + 1 + index] += sign * counts[index]
        if buf[base] == 0:
            for offset in range(base + 1, base + self.stride):
                if buf[offset]:
                    return
            self._release(key, slot)

    # linear: merge must stay an exact integer addition (RL013)
    def merge_signature(self, key: int, signature: CountSignature) -> None:
        """Fold a signature's counters into ``key`` (pruning on zero)."""
        self._fold(key, signature, 1)

    # linear: subtract must stay an exact integer subtraction (RL013)
    def subtract_signature(self, key: int, signature: CountSignature) -> None:
        """Subtract a signature's counters from ``key`` (pruning on zero)."""
        self._fold(key, signature, -1)

    def _row(self, slot: int) -> List[int]:
        """The raw counter row of ``slot`` as a list of ints."""
        base = slot * self.stride
        return self._buf[base:base + self.stride].tolist()

    def _signature_for(self, slot: int) -> CountSignature:
        """An independent :class:`CountSignature` copy of ``slot``."""
        row = self._row(slot)
        signature = CountSignature(self.pair_bits)
        signature.total = row[0]
        signature.bit_counts = row[1:]
        return signature

    def _sorted_occupied(self) -> Tuple[Any, Any]:
        """``(keys, slots)`` of every occupied row, sorted by key."""
        key_view = self.slot_keys()
        slots = _np.nonzero(key_view >= 0)[0]
        keys = key_view[slots]
        order = _np.argsort(keys)
        return keys[order], slots[order]

    def copy(self) -> "SignatureArena":
        """Deep, independent copy of this arena (same slot layout)."""
        clone = SignatureArena.__new__(SignatureArena)
        state = self.__getstate__()
        state["_key_of"] = array("q", self._key_of)
        state["_free"] = list(self._free)
        state["_sparse"] = dict(self._sparse)
        if self._dense is not None:
            state["_dense"] = self._dense.copy()
        clone.__setstate__(state)
        return clone

    # -- dict-compatible mapping surface -------------------------------------

    def get(
        self, key: int, default: Optional[CountSignature] = None
    ) -> Optional[CountSignature]:
        """The key's signature (a copy), or ``default`` if empty."""
        slot = self._slot(key)
        if slot < 0:
            return default
        return self._signature_for(slot)

    def __getitem__(self, key: int) -> CountSignature:
        slot = self._slot(key)
        if slot < 0:
            raise KeyError(key)
        return self._signature_for(slot)

    def __setitem__(self, key: int, signature: CountSignature) -> None:
        if signature.pair_bits != self.pair_bits:
            raise ParameterError(
                f"signature width {signature.pair_bits} does not match "
                f"arena width {self.pair_bits}"
            )
        if signature.is_zero:
            # Keep the store invariant: absent always means empty.
            if key in self:
                del self[key]
            return
        if self._deltas is not None:
            self._note_key(key)
        slot = self._slot(key)
        if slot < 0:
            slot = self._allocate(key)
        buf = self._buf
        base = slot * self.stride
        buf[base] = signature.total
        counts = signature.bit_counts
        for index in range(self.pair_bits):
            buf[base + 1 + index] = counts[index]

    def __delitem__(self, key: int) -> None:
        slot = self._slot(key)
        if slot < 0:
            raise KeyError(key)
        if self._deltas is not None:
            self._note_key(key)
        buf = self._buf
        base = slot * self.stride
        for offset in range(base, base + self.stride):
            buf[offset] = 0
        self._release(key, slot)

    def __contains__(self, key: object) -> bool:
        if not isinstance(key, (int, _np.integer)):
            return False
        if not 0 <= key < self.range_size:
            return False
        return self._slot(key) >= 0

    def __len__(self) -> int:
        return self._occupied

    def __bool__(self) -> bool:
        return self._occupied > 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._sorted_occupied()[0].tolist())

    def keys(self) -> Iterator[int]:
        """Occupied keys, in key order."""
        return iter(self)

    def values(self) -> Iterator[CountSignature]:
        """Signature copies of every occupied key, in key order."""
        for _, signature in self.items():
            yield signature

    def items(self) -> Iterator[Tuple[int, CountSignature]]:
        """``(key, signature copy)`` pairs for every occupied key."""
        keys, slots = self._sorted_occupied()
        for key, slot in zip(keys.tolist(), slots.tolist()):
            yield key, self._signature_for(slot)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SignatureArena):
            if (
                self.pair_bits != other.pair_bits
                or self._occupied != other._occupied
            ):
                return False
            mine, my_slots = self._sorted_occupied()
            theirs, their_slots = other._sorted_occupied()
            return bool(
                _np.array_equal(mine, theirs)
                and _np.array_equal(
                    self.view2d()[my_slots], other.view2d()[their_slots]
                )
            )
        if isinstance(other, dict):
            # Reflected comparison against the reference dict store:
            # dict.__eq__(arena) returns NotImplemented, so Python
            # retries here and structural equality spans backends.
            if self._occupied != len(other):
                return False
            for key, signature in self.items():
                theirs_signature = other.get(key)
                if not isinstance(theirs_signature, CountSignature):
                    return False
                if theirs_signature != signature:
                    return False
            return True
        return NotImplemented

    # Mutable container: never hashable.
    __hash__ = None  # type: ignore[assignment]

    # -- state interchange ----------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        """Slot state, with the rows in use as bytes.

        The mapping itself cannot be pickled; its rows in use travel
        as bytes and land in a fresh mapping.  The cached view stays
        behind (a copied view would silently diverge from the rows),
        and so does the delta log: it describes a live transport
        session (baselines since one parent's last drain), meaningless
        to a restored copy.
        """
        state = {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in ("_mem", "_buf", "_view", "_deltas")
        }
        used = self.stride * len(self._key_of)
        state["_buf"] = self._buf[:used].tobytes()
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        rows = state.pop("_buf")
        for name, value in state.items():
            setattr(self, name, value)
        self._mem = _anonymous_memory(8 * self.stride * self._reserved)
        memoryview(self._mem)[:len(rows)] = rows
        self._buf = memoryview(self._mem).cast("q")
        self._view = None
        self._deltas = None

    def __repr__(self) -> str:
        return (
            f"SignatureArena(pair_bits={self.pair_bits}, "
            f"occupied={self._occupied}, "
            f"slots={len(self._key_of)})"
        )
