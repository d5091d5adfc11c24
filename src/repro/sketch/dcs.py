"""The Distinct-Count Sketch and the BaseTopk estimator (Sections 3-4).

Structure (Figure 2): a geometric first-level hash ``h`` partitions the
pair domain ``[m^2]`` into ``Theta(log m)`` levels with exponentially
decreasing probabilities; each level holds ``r`` independent second-level
hash tables of ``s`` buckets; each bucket keeps a
:class:`~repro.sketch.signature.CountSignature`.

Maintenance (Section 3): an update ``(u, v, +/-1)`` touches one bucket in
each of the ``r`` tables of level ``h(u, v)`` — ``O(r log m)`` counter
operations, independent of the stream length.  Because signatures are
linear, the sketch is *delete-resistant*: after a matched insert/delete
it is bit-identical to a sketch that never saw the pair.

Estimation (Section 4, Figures 3-4): ``BaseTopk`` walks levels top-down,
recovering singleton buckets into a distinct sample until the sample
reaches ``(1 + eps) * s / 16`` pairs, then reports the k most frequent
destinations in the sample with frequencies scaled by ``2^b``.

Note on the paper's pseudocode: Figure 3 decrements ``b`` once more after
the final ``GetdSample`` call, but Lemma 4.3's analysis scales by ``2^b``
where ``b`` is the *lowest level actually included in the sample*.  We
follow the analysis (scale by the last sampled level), which is the
unbiased choice: a pair lands at level ``>= b`` with probability exactly
``2^-b``.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .._accel import np as _np
from ..exceptions import MergeError, ParameterError
from ..hashing import CarterWegmanHash, GeometricLevelHash, derive_seed
from ..obs.catalog import (
    SKETCH_ACTIVE_LEVELS,
    SKETCH_MERGES,
    SKETCH_OCCUPIED_BUCKETS,
    SKETCH_QUERIES,
    SKETCH_QUERY_SAMPLE_SIZE,
    SKETCH_SCALAR_FALLBACKS,
    SKETCH_SIGNATURE_COLLISIONS,
    SKETCH_SINGLETONS_RECOVERED,
    SKETCH_SWEEP_DURATION,
    SKETCH_TOPK_CANDIDATES,
    SKETCH_UPDATES,
)
from ..obs.registry import Registry, registry_or_null
from ..obs.trace import span as trace_span
from ..types import AddressDomain, FlowUpdate
from .arena import SignatureArena
from .batch import EncodedBatch, encode_batch
from .estimate import TopKResult, build_result, rank_frequencies
from .params import SketchParams
from .signature import CountSignature

#: Default relative-error parameter used when a query does not supply one.
DEFAULT_EPSILON = 0.25

#: One reference-backend inner table: sparse bucket-index -> signature.
BucketStore = Dict[int, CountSignature]

# A level's state on the reference backend: one store per inner table.
LevelTables = List[BucketStore]

#: Valid values for the ``backend`` constructor argument.
BACKENDS = ("reference", "packed")

#: Whole-walk decode copies counters into 32-bit scratch when every
#: counter is provably below this bound (each update's delta is +/-1,
#: so ``|counter| <= updates_processed``); wider states use int64.
_INT32_SAFE = 2 ** 31

#: Updates aggregated per segment-sum pass: every 16-bit lane of the
#: packed bit counters (see ``_segment_rows``) sums at most this many
#: 0/1 values, so lanes can never carry into each other.
_LANE_LIMIT = 65535

#: Rows per step of a whole-arena merge or subtract (bounds the
#: temporaries a fold allocates, whatever the other sketch's size).
_FOLD_ROWS = 4096

#: Nibble -> uint64 with nibble bit ``k`` moved to bit ``16 * k``: four
#: bit counters per word, one per 16-bit lane.
_SPREAD = _np.array(
    [
        sum(((nibble >> bit) & 1) << (16 * bit) for bit in range(4))
        for nibble in range(16)
    ],
    dtype="<u8",
)


def update_batch_shared(
    sketches: Sequence["DistinctCountSketch"],
    updates: Union[EncodedBatch, Iterable[FlowUpdate]],
) -> int:  # hot-path
    """Feed one batch to several same-seed sketches.

    Every sketch ends up exactly as if it had run
    :meth:`DistinctCountSketch.update_batch` on the batch — which is
    what this does, sketch by sketch, on one encoded batch.  Sketches
    that share params and seed map an update to the same flat keys, so
    the batch's memo (:class:`~repro.sketch.batch.EncodedBatch`) hashes,
    sorts and segment-sums it once for all of them; only slot
    resolution and the row add run per sketch.  The batch is validated
    before any sketch changes.  Returns the number of updates applied.

    Raises:
        ParameterError: when the sketches do not share params and seed.
    """
    first = sketches[0]
    if not all(first.compatible_with(other) for other in sketches[1:]):
        raise ParameterError(
            "update_batch_shared needs sketches with one params/seed"
        )
    batch = encode_batch(first.domain, updates)
    for sketch in sketches:
        sketch.update_batch(batch)
    return len(batch)


class DistinctCountSketch:
    """Delete-resistant synopsis for top-k distinct-source frequencies.

    Args:
        params: sketch shape, or an :class:`AddressDomain` (in which case
            ``r``/``s`` are taken from the keyword arguments).
        seed: root seed; all hash functions derive from it, so two
            sketches with equal params and seed are structurally
            identical (and therefore mergeable).
        obs: optional :class:`~repro.obs.Registry` for runtime metrics
            (see ``docs/observability.md``).  ``None`` (the default)
            resolves to the no-op null registry, so uninstrumented
            sketches pay one empty method call per update.
        backend: ``"reference"`` (per-bucket ``CountSignature`` objects,
            the paper-faithful baseline) or ``"packed"`` (one flat
            :class:`~repro.sketch.arena.SignatureArena` for the whole
            sketch, feeding the vectorized :meth:`update_batch` engine;
            requires numpy).  Both backends
            are bit-identical: same seeds imply
            :meth:`structurally_equal` states after the same stream.

    Example:
        >>> from repro.types import AddressDomain
        >>> sketch = DistinctCountSketch(AddressDomain(2 ** 16), seed=7)
        >>> for source in range(50):
        ...     sketch.insert(source, dest=9)
        >>> result = sketch.base_topk(1)
        >>> result.destinations[0]
        9
    """

    def __init__(
        self,
        params: Union[SketchParams, AddressDomain],
        *,
        r: int = 3,
        s: int = 128,
        seed: int = 0,
        obs: Optional[Registry] = None,
        backend: str = "reference",
    ) -> None:
        if isinstance(params, AddressDomain):
            params = SketchParams(domain=params, r=r, s=s)
        if backend not in BACKENDS:
            raise ParameterError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        self.params = params
        self.seed = int(seed)
        self.domain = params.domain
        #: Storage backend: ``"reference"`` or ``"packed"``.
        self.backend = backend
        self._level_hash = GeometricLevelHash(
            max_level=params.num_levels - 1,
            seed=derive_seed(self.seed, "level-hash"),
        )
        self._inner_hashes: List[CarterWegmanHash] = [
            CarterWegmanHash(
                range_size=params.s,
                seed=derive_seed(self.seed, "inner-hash", j),
            )
            for j in range(params.r)
        ]
        #: Flat keys per level: bucket ``b`` of table ``j`` at level
        #: ``l`` lives at key ``l * _level_keys + j * s + b``.
        self._level_keys = params.r * params.s
        #: Memo key of this sketch's hashing in an EncodedBatch: every
        #: sketch with equal params and seed hashes alike.
        self._family = (params, self.seed)
        # Exactly one of the two stores is in use: the reference
        # backend's per-table dicts, or the packed backend's one arena.
        self._tables: List[LevelTables] = []
        self._arena: Optional[SignatureArena] = None
        if backend == "packed":
            self._arena = SignatureArena(
                params.pair_bits, params.num_levels * self._level_keys
            )
        else:
            self._tables = [
                [{} for _ in range(params.r)]
                for _ in range(params.num_levels)
            ]
        #: Number of stream updates processed (the paper's ``n``).
        self.updates_processed = 0
        #: Net sum of deltas across all updates.
        self.net_total = 0
        #: Observability registry (the null registry when ``obs=None``).
        self.obs: Registry = registry_or_null(obs)
        updates = self.obs.counter_from(SKETCH_UPDATES)
        # Pre-bound children: the hot path must not pay a labels() call.
        self._obs_inserts = updates.labels(op="insert")
        self._obs_deletes = updates.labels(op="delete")
        self._obs_queries = self.obs.counter_from(SKETCH_QUERIES)
        self._obs_singletons = self.obs.counter_from(
            SKETCH_SINGLETONS_RECOVERED
        )
        self._obs_collisions = self.obs.counter_from(
            SKETCH_SIGNATURE_COLLISIONS
        )
        # Per-level children pre-bound at construction so the query
        # path never pays a labels() lookup (the null registry's
        # labels() returns the shared no-op child, so this is free
        # for uninstrumented sketches).
        self._obs_singletons_by_level = [
            self._obs_singletons.labels(level=str(level))
            for level in range(params.num_levels)
        ]
        self._obs_collisions_by_level = [
            self._obs_collisions.labels(level=str(level))
            for level in range(params.num_levels)
        ]
        self._obs_sample_size = self.obs.histogram_from(
            SKETCH_QUERY_SAMPLE_SIZE
        )
        self._obs_topk_candidates = self.obs.histogram_from(
            SKETCH_TOPK_CANDIDATES
        )
        self._obs_scalar_fallbacks = self.obs.counter_from(
            SKETCH_SCALAR_FALLBACKS
        )
        # Registered eagerly so the family exports even before the
        # first *sampled* sweep span observes into it (the tracer
        # shares this registry under `repro-ddos serve`).
        self.obs.histogram_from(SKETCH_SWEEP_DURATION)
        self._obs_merges = self.obs.counter_from(SKETCH_MERGES)
        self.obs.gauge_from(SKETCH_OCCUPIED_BUCKETS).watch(
            self.occupied_buckets
        )
        self.obs.gauge_from(SKETCH_ACTIVE_LEVELS).watch(self.active_levels)

    # -- maintenance (Section 3) --------------------------------------------

    def update(self, source: int, dest: int, delta: int) -> None:
        """Process one flow update ``(source, dest, delta)``."""
        if delta not in (1, -1):
            raise ParameterError(f"delta must be +1 or -1, got {delta}")
        self._update_pair(self.domain.encode_pair(source, dest), delta)

    def insert(self, source: int, dest: int) -> None:
        """Process an insertion (``delta = +1``)."""
        self._update_pair(self.domain.encode_pair(source, dest), 1)

    def delete(self, source: int, dest: int) -> None:
        """Process a deletion (``delta = -1``)."""
        self._update_pair(self.domain.encode_pair(source, dest), -1)

    def process(self, update: FlowUpdate) -> None:
        """Process a :class:`~repro.types.FlowUpdate`."""
        self._update_pair(
            self.domain.encode_pair(update.source, update.dest), update.delta
        )

    def process_stream(
        self,
        updates: Iterable[FlowUpdate],
        batch_size: Optional[int] = None,
    ) -> int:
        """Process every update from an iterable; returns the count.

        With ``batch_size`` set, updates are buffered into chunks of
        that size and fed through :meth:`update_batch` — the final
        sketch state is bit-identical either way; batching only changes
        the constant per-update cost.
        """
        if batch_size is None:
            count = 0
            for update in updates:
                self.process(update)
                count += 1
            return count
        if batch_size < 1:
            raise ParameterError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        total = 0
        batch: List[FlowUpdate] = []
        append = batch.append
        for update in updates:
            append(update)
            if len(batch) >= batch_size:
                total += self.update_batch(batch)
                batch.clear()
        if batch:
            total += self.update_batch(batch)
        return total

    def update_batch(
        self, updates: Union[EncodedBatch, Iterable[FlowUpdate]]
    ) -> int:  # hot-path
        """Process a batch of updates with per-batch amortized costs.

        Bit-identical to processing the batch one update at a time (the
        sketch is a linear transform of the update multiset).  The
        batch is validated and encoded in one vectorized pass (an
        :class:`~repro.sketch.batch.EncodedBatch` is taken as is); on
        the packed backend the batch's ``n * r`` flat bucket keys are
        then sorted once, the counter rows of equal keys summed in one
        segment-sum, and the sums added into the arena in one fused
        pass.  Hashing and segment-summing are remembered by the batch
        per params/seed, so a same-seed sketch fed the same batch (the
        monitor's tracking sketch and its window) reuses them.  The
        insert/delete observability counters receive one aggregated
        ``inc(n)`` each.  Returns the number of updates applied; an
        invalid update rejects the whole batch before any counter
        changes.
        """
        with trace_span("sketch.update_batch"):
            batch = encode_batch(self.domain, updates)
            count = len(batch)
            if not count:
                return 0
            if batch.vectorized and self._arena is not None:
                family = self._family
                for lo in range(0, count, _LANE_LIMIT):
                    part = batch[lo:lo + _LANE_LIMIT]
                    keys, rows = part.segment(family, self._segment)
                    with trace_span("sketch.scatter"):
                        self._add_rows(keys, rows)
            else:
                self._apply_pairs(batch)
            self._account(count, batch.inserts())
            return count

    def _account(self, count: int, inserts: int) -> None:
        """Stream bookkeeping for ``count`` applied updates."""
        deletes = count - inserts
        self.updates_processed += count
        self.net_total += inserts - deletes
        if inserts:
            self._obs_inserts.inc(inserts)
        if deletes:
            self._obs_deletes.inc(deletes)

    def _update_pair(self, pair: int, delta: int) -> None:
        """Apply one update for an encoded pair: the sketch hot path."""
        self._apply_pair(pair, delta)
        self.updates_processed += 1
        self.net_total += delta
        if delta > 0:
            self._obs_inserts.inc()
        else:
            self._obs_deletes.inc()

    def _key(self, level: int, j: int, bucket: int) -> int:
        """Flat arena key of bucket ``bucket`` in table ``j`` at ``level``."""
        return level * self._level_keys + j * self.params.s + bucket

    def _apply_pair(self, pair: int, delta: int) -> None:
        """Counter-state maintenance for one update (no bookkeeping)."""
        level = self._level_hash(pair)
        arena = self._arena
        if arena is not None:
            base = level * self._level_keys
            s = self.params.s
            for j, inner_hash in enumerate(self._inner_hashes):
                arena.update(base + j * s + inner_hash(pair), pair, delta)
            return
        tables = self._tables[level]
        pair_bits = self.params.pair_bits
        for j, inner_hash in enumerate(self._inner_hashes):
            bucket = inner_hash(pair)
            table = tables[j]
            signature = table.get(bucket)
            if signature is None:
                signature = CountSignature(pair_bits)
                table[bucket] = signature
            signature.update(pair, delta)
            if signature.is_zero:
                # Prune emptied buckets so "absent" always means "empty";
                # this also keeps the sketch identical to one that never
                # saw a deleted pair.
                del table[bucket]

    def _apply_pairs(self, batch: EncodedBatch) -> None:
        """The sequential per-pair path (reference backend, wide pairs)."""
        apply_pair = self._apply_pair
        for pair, delta in zip(batch.pairs(), batch.deltas.tolist()):
            apply_pair(pair, delta)

    def _flat_keys(self, codes: Any) -> Any:  # hot-path
        """Hash a code array into its ``(n, r)`` flat-key matrix.

        Entry ``[u, j]`` is update ``u``'s key in table ``j``.  Runs
        once per root batch and sketch family
        (:meth:`~repro.sketch.batch.EncodedBatch.flat_keys`).
        """
        with trace_span("sketch.hash_bulk"):
            s = self.params.s
            base = self._level_hash.levels_many(codes) * self._level_keys
            keys = _np.empty((len(codes), self.params.r), dtype=_np.int64)
            for j, inner_hash in enumerate(self._inner_hashes):
                _np.add(base, inner_hash.hash_many(codes), out=keys[:, j])
                keys[:, j] += j * s
            return keys

    def _segment(self, batch: EncodedBatch) -> Tuple[Any, Any]:  # hot-path
        """Group a batch's flat keys and sum their counter rows.

        Returns ``(keys, rows)``: the distinct flat keys the batch
        touches (ascending) and the summed counter row of each
        (:meth:`_segment_rows`).  The update-major key matrix is sorted
        once; sorting needs no stability — counter addition commutes —
        but keys below ``2^16`` sort as uint16, where numpy's stable
        sort is a linear-time radix sort.
        """
        flat = batch.flat_keys(self._family, self._flat_keys).reshape(-1)
        with trace_span("sketch.scatter"):
            if self.params.num_levels * self._level_keys <= 1 << 16:
                order = _np.argsort(flat.astype(_np.uint16), kind="stable")
            else:
                order = _np.argsort(flat)
            ordered = flat[order]
            edges = _np.empty(len(ordered), dtype=bool)
            edges[0] = True
            _np.not_equal(ordered[1:], ordered[:-1], out=edges[1:])
            starts = _np.flatnonzero(edges)
            return ordered[starts], self._segment_rows(batch, order, starts)

    def _segment_rows(
        self, batch: EncodedBatch, order: Any, starts: Any
    ) -> Any:  # hot-path
        """Summed counter row per distinct key: the one segment-sum.

        An update ``(code, delta)`` adds ``delta`` to a bucket's total
        and to the counter of every set bit of ``code``.  Summing those
        contributions per key without a 65-column reduction uses two
        tricks.  Bits are counted four to a uint64 word, one per 16-bit
        lane (``_SPREAD``), so the reduction runs over
        ``ceil(pair_bits / 4)`` columns; ``_LANE_LIMIT`` keeps every
        lane sum below ``2^16``.  Deletions contribute ``1 - bit``
        (their code with every pair bit flipped), which keeps lane
        values non-negative; subtracting the key's deletion count per
        lane afterwards restores ``sum(delta * bit)`` exactly.
        """
        codes = batch.codes
        deltas = batch.deltas
        pair_bits = self.params.pair_bits
        count = len(codes)
        width = (pair_bits + 7) // 8
        negative = deltas < 0
        flip = negative.astype(_np.uint64) * _np.uint64((1 << pair_bits) - 1)
        octets = (codes ^ flip).astype("<u8", copy=False).view(_np.uint8)
        octets = octets.reshape(count, 8)[:, :width]
        nibbles = _np.empty((count, 2 * width), dtype=_np.uint8)
        _np.bitwise_and(octets, 15, out=nibbles[:, 0::2])
        _np.right_shift(octets, 4, out=nibbles[:, 1::2])
        source = order // self.params.r
        lanes = _np.add.reduceat(_SPREAD[nibbles][source], starts, axis=0)
        totals = _np.add.reduceat(deltas[source], starts)
        lengths = _np.diff(starts, append=len(order))
        deletions = (lengths - totals) // 2
        rows = _np.empty((len(starts), pair_bits + 1), dtype=_np.int64)
        rows[:, 0] = totals
        bit_sums = lanes.astype("<u8", copy=False).view("<u2")
        _np.subtract(
            bit_sums[:, :pair_bits], deletions[:, None], out=rows[:, 1:]
        )
        return rows

    def _add_rows(self, keys: Any, rows: Any) -> None:  # hot-path
        """Add summed counter rows into the arena (distinct ``keys``).

        One fused arena pass
        (:meth:`~repro.sketch.arena.SignatureArena.add_rows`): resolve,
        gather, add, write back, free the rows that netted to zero.
        Overridden by the tracking sketch to diff singleton state
        around the add.
        """
        arena = self._arena
        assert arena is not None
        arena.add_rows(keys, rows)

    # -- structural accessors -----------------------------------------------

    def level_of(self, source: int, dest: int) -> int:
        """First-level bucket the pair ``(source, dest)`` maps to."""
        return self._level_hash(self.domain.encode_pair(source, dest))

    def inner_bucket(self, j: int, source: int, dest: int) -> int:
        """Second-level bucket of the pair in inner table ``j``."""
        return self._inner_hashes[j](self.domain.encode_pair(source, dest))

    def signature_at(
        self, level: int, j: int, bucket: int
    ) -> Optional[CountSignature]:
        """The signature at ``(level, j, bucket)``, or ``None`` if empty."""
        if self._arena is not None:
            return self._arena.get(self._key(level, j, bucket))
        return self._tables[level][j].get(bucket)

    def return_singleton(self, level: int, j: int, bucket: int) -> Optional[int]:
        """The paper's ``ReturnSingleton``: decode bucket if a singleton.

        Returns the encoded pair, or ``None`` for empty/collision buckets.
        """
        if self._arena is not None:
            return self._arena.singleton_at(self._key(level, j, bucket))
        signature = self._tables[level][j].get(bucket)
        if signature is None:
            return None
        return signature.recover_singleton()

    def decoded_slab(self, level: int, j: int) -> Tuple[List[int], int]:
        """Decode one ``(level, table)`` slab of occupied buckets.

        Returns ``(singleton pair codes, collision count)``.  On the
        packed backend this is one vectorized pass over the rows of the
        slab's key range
        (:meth:`~repro.sketch.arena.SignatureArena.decode_range`); on
        the reference backend — or for pair domains wider than 64 bits
        — it takes the scalar per-signature path with identical
        results.  Does not touch observability counters (callers
        aggregate per scan).
        """
        if self._arena is not None:
            lo = self._key(level, j, 0)
            return self._arena.decode_range(lo, lo + self.params.s)
        codes: List[int] = []
        append = codes.append
        collisions = 0
        for signature in self._tables[level][j].values():
            pair = signature.recover_singleton()
            if pair is None:
                collisions += 1
            else:
                append(pair)
        return codes, collisions

    def _slab_decode_ready(self) -> bool:
        """True when whole-slab decode can serve queries on this sketch."""
        return self._arena is not None and self.params.pair_bits <= 64

    def _slot_levels(self) -> Any:
        """Level of every arena slot (-1 for free slots)."""
        assert self._arena is not None
        return self._arena.slot_keys() // self._level_keys

    def _decode_levels(
        self, levels: List[int]
    ) -> List[Tuple[Set[int], int, int]]:
        """Slab-decode whole levels with one application of the kernel.

        The core of the vectorized query path: runs the
        :func:`~repro.sketch.arena.singleton_mask` kernel once over
        the arena rows of the requested levels (over the whole arena,
        in 32-bit scratch when ``updates_processed`` proves that safe,
        when every level is requested) and splits the recovered codes
        back per level.  Returns ``(sample, recovered, collisions)``
        tuples aligned with ``levels``; does not touch observability
        counters (callers record only the levels they actually visit,
        matching the scalar walk).  Callers must check
        :meth:`_slab_decode_ready` first.
        """
        arena = self._arena
        assert arena is not None
        num_levels = self.params.num_levels
        slot_levels = self._slot_levels()
        select = None
        if len(set(levels)) < num_levels:
            wanted = _np.zeros(num_levels + 1, dtype=bool)
            wanted[levels] = True
            # Free slots have level -1: wanted[-1] is the False pad.
            select = wanted[slot_levels]
        keys, codes = arena.decode_keys(
            select, narrow=self.updates_processed < _INT32_SAFE
        )
        occupied = _np.bincount(
            slot_levels[slot_levels >= 0], minlength=num_levels
        ).tolist()
        found = keys // self._level_keys
        order = _np.argsort(found, kind="stable")
        code_list = codes[order].tolist()
        cuts = _np.searchsorted(
            found[order], _np.arange(num_levels + 1)
        ).tolist()
        out: List[Tuple[Set[int], int, int]] = []
        for level in levels:
            lo = cuts[level]
            hi = cuts[level + 1]
            out.append((
                set(code_list[lo:hi]), hi - lo, occupied[level] - (hi - lo)
            ))
        return out

    def _record_dsample_obs(
        self, level: int, recovered: int, collisions: int
    ) -> None:
        """One aggregated inc per scan, into children pre-bound at
        construction, keeps instrumented scans cheap."""
        if recovered:
            self._obs_singletons_by_level[level].inc(recovered)
        if collisions:
            self._obs_collisions_by_level[level].inc(collisions)

    def get_dsample_batch(self, level: int) -> Set[int]:
        """``GetdSample`` over whole slabs: all singleton pairs at ``level``.

        Semantically identical to :meth:`get_dsample` — the two differ
        only in how buckets are decoded (slab-at-a-time versus the
        conceptual bucket-at-a-time scan of the paper's Figure 4).
        Duplicates (a pair singleton in several tables) collapse in the
        returned set; the per-level singleton/collision counters receive
        the same aggregate increments either way.
        """
        if self._slab_decode_ready():
            sample, recovered, collisions = self._decode_levels([level])[0]
        else:
            # Scalar fallback: one per-signature decode per inner table
            # (reference backend, or pair_bits > 64).
            self._obs_scalar_fallbacks.inc(self.params.r)
            sample = set()
            recovered = 0
            collisions = 0
            for j in range(self.params.r):
                codes, slab_collisions = self.decoded_slab(level, j)
                sample.update(codes)
                recovered += len(codes)
                collisions += slab_collisions
        self._record_dsample_obs(level, recovered, collisions)
        return sample

    def dsample_sweep(self) -> Dict[int, Set[int]]:
        """``GetdSample`` for every level of the sketch in one pass.

        Returns ``{level: sample}`` for all levels.  On the packed
        backend this decodes the sketch's whole arena with a single
        application of the slab kernel — the fastest way to
        materialize the full distinct-sample hierarchy (diagnostics,
        benchmarks, exhaustive queries); elsewhere it degrades to the
        per-level scalar scan with identical results.  Observability
        counters receive the same per-level increments as ``num_levels``
        individual :meth:`get_dsample` calls.
        """
        with trace_span("sketch.dsample_sweep", metric=SKETCH_SWEEP_DURATION):
            levels = list(range(self.params.num_levels))
            if not self._slab_decode_ready():
                return {
                    level: self.get_dsample(level) for level in levels
                }
            decoded = self._decode_levels(levels)
            sweep: Dict[int, Set[int]] = {}
            for level in levels:
                sample, recovered, collisions = decoded[level]
                self._record_dsample_obs(level, recovered, collisions)
                sweep[level] = sample
            return sweep

    def get_dsample(self, level: int) -> Set[int]:
        """The paper's ``GetdSample``: all singleton pairs at ``level``.

        Decodes every occupied second-level bucket of the level across
        all ``r`` inner tables; duplicates (a pair singleton in several
        tables) collapse in the returned set.  Delegates to
        :meth:`get_dsample_batch`, which evaluates whole slabs at once
        on the packed backend and falls back to the scalar decode
        elsewhere — the answer is identical either way.
        """
        return self.get_dsample_batch(level)

    def active_levels(self) -> int:
        """Number of first-level buckets currently holding any state."""
        if self._arena is not None:
            slot_levels = self._slot_levels()
            return len(_np.unique(slot_levels[slot_levels >= 0]))
        return sum(
            1
            for level_tables in self._tables
            if any(level_tables[j] for j in range(self.params.r))
        )

    @property
    def is_empty(self) -> bool:
        """True when the sketch holds no state at all."""
        return self.occupied_buckets() == 0

    # -- estimation (Section 4) ----------------------------------------------

    def collect_distinct_sample(
        self, epsilon: float = DEFAULT_EPSILON
    ) -> Tuple[Set[int], int, float]:
        """Walk levels top-down building the distinct sample (Fig 3, 1-7).

        Returns ``(sample, stop_level, target_size)`` where ``sample`` is
        a set of encoded pairs recovered from levels ``>= stop_level``.
        """
        target = self.params.sample_target(epsilon)
        sample: Set[int] = set()
        stop_level = 0
        if self._slab_decode_ready():
            # Decode the whole arena with one kernel pass, then
            # replay the top-down walk over the per-level results.  The
            # walk may stop before consuming all levels — identical to
            # the scalar walk, which never decodes below its stop level;
            # the speculative decode of the lower levels costs a few
            # vectorized passes and keeps the whole query one kernel
            # application.  Observability records visited levels only,
            # exactly as the scalar walk does.
            order = list(range(self.params.num_levels - 1, -1, -1))
            decoded = self._decode_levels(order)
            for offset, level in enumerate(order):
                level_sample, recovered, collisions = decoded[offset]
                sample |= level_sample
                self._record_dsample_obs(level, recovered, collisions)
                stop_level = level
                if len(sample) >= target:
                    break
        else:
            for level in range(self.params.num_levels - 1, -1, -1):
                sample |= self.get_dsample(level)
                stop_level = level
                if len(sample) >= target:
                    break
        self._obs_sample_size.observe(len(sample))
        return sample, stop_level, target

    def sample_destination_frequencies(
        self, sample: Set[int]
    ) -> Dict[int, int]:
        """Occurrence frequency ``f_v^s`` of each destination in a sample."""
        frequencies: Dict[int, int] = {}
        decode = self.domain.decode_pair
        for pair in sample:
            dest = decode(pair)[1]
            frequencies[dest] = frequencies.get(dest, 0) + 1
        return frequencies

    def base_topk(
        self, k: int, epsilon: float = DEFAULT_EPSILON
    ) -> TopKResult:
        """The BaseTopk estimator (Figure 3).

        Returns the ``k`` destinations with the highest sample
        frequencies, each with estimate ``2^b * f_v^s``.  Fewer than
        ``k`` entries are returned if the sample holds fewer
        destinations.
        """
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        with trace_span("sketch.base_topk"):
            self._obs_queries.labels(kind="base_topk").inc()
            sample, stop_level, target = self.collect_distinct_sample(
                epsilon
            )
            frequencies = self.sample_destination_frequencies(sample)
            self._obs_topk_candidates.observe(len(frequencies))
            ranked = rank_frequencies(frequencies, k)
            return build_result(
                ranked=ranked,
                stop_level=stop_level,
                sample_size=len(sample),
                target_size=target,
            )

    def threshold_query(
        self, tau: int, epsilon: float = DEFAULT_EPSILON
    ) -> TopKResult:
        """All destinations with estimated frequency ``>= tau``.

        The Section 2 footnote-3 variant of the tracking problem: instead
        of a fixed ``k``, report every destination whose estimated
        distinct-source frequency reaches the threshold.
        """
        if tau < 1:
            raise ParameterError(f"tau must be >= 1, got {tau}")
        self._obs_queries.labels(kind="threshold").inc()
        sample, stop_level, target = self.collect_distinct_sample(epsilon)
        frequencies = self.sample_destination_frequencies(sample)
        scale = 1 << stop_level
        ranked = rank_frequencies({
            dest: freq
            for dest, freq in frequencies.items()
            if scale * freq >= tau
        })
        return build_result(
            ranked=ranked,
            stop_level=stop_level,
            sample_size=len(sample),
            target_size=target,
        )

    def estimate_distinct_pairs(
        self, epsilon: float = DEFAULT_EPSILON
    ) -> int:
        """Estimate ``U``, the number of distinct active pairs.

        Uses the same distinct sample: ``U_hat = |sample| * 2^b``.
        """
        self._obs_queries.labels(kind="distinct_pairs").inc()
        sample, stop_level, _ = self.collect_distinct_sample(epsilon)
        return len(sample) << stop_level

    # -- merging and copying ---------------------------------------------------

    def compatible_with(self, other: "DistinctCountSketch") -> bool:
        """True when ``other`` has identical params and seed."""
        return self.params == other.params and self.seed == other.seed

    # linear: merge must stay an exact integer addition (RL013)
    def merge(self, other: "DistinctCountSketch") -> None:
        """Fold ``other`` into this sketch in place.

        Valid because the sketch is a linear transform of the stream:
        merging per-router sketches yields exactly the sketch of the
        interleaved streams (Figure 1's multiple update streams).
        """
        if not self.compatible_with(other):
            raise MergeError(
                "sketches must share params and seed to merge"
            )
        self._fold_signatures(other, 1)
        self.updates_processed += other.updates_processed
        self.net_total += other.net_total
        self._obs_merges.inc()

    # linear: folding must stay an exact integer addition (RL013)
    def _fold_signatures(
        self, other: "DistinctCountSketch", sign: int
    ) -> None:
        """Add ``sign`` times every counter of ``other`` into this sketch.

        Packed into packed folds ``other``'s rows through
        :meth:`apply_bucket_deltas` a few thousand rows per call; any
        other pairing folds signature by signature.  Every path prunes
        buckets that net to zero.
        """
        mine = self._arena
        theirs = other._arena
        if mine is not None and theirs is not None:
            for keys, rows in theirs.iter_rows(_FOLD_ROWS):
                rows *= sign
                self.apply_bucket_deltas(keys, rows)
            return
        adding = sign == 1
        for level, j, bucket, signature in other._iter_signatures():
            if mine is not None:
                key = self._key(level, j, bucket)
                if adding:
                    mine.merge_signature(key, signature)
                else:
                    mine.subtract_signature(key, signature)
                continue
            table = self._tables[level][j]
            existing = table.get(bucket)
            if existing is None:
                existing = CountSignature(self.params.pair_bits)
                table[bucket] = existing
            if adding:
                existing.merge(signature)
            else:
                existing.subtract(signature)
            if existing.is_zero:
                del table[bucket]

    # linear: delta folding must stay an exact integer addition (RL013)
    def apply_bucket_deltas(self, keys: Any, rows: Any) -> None:
        """Fold signed counter-delta rows into the arena by flat key.

        ``keys`` is an int64 ndarray of *distinct* flat bucket keys
        (``(level * r + j) * s + bucket``) and ``rows`` the matching
        ``(len(keys), pair_bits + 1)`` int64 delta matrix
        (``SignatureArena.drain_deltas`` output reshaped).  Because the
        sketch is linear, adding another sketch's per-bucket counter
        deltas is exactly equivalent to having processed its updates
        here — the incremental-merge primitive behind the process
        shards' delta sync
        (:class:`~repro.sketch.sharded.ShardedSketch`): one call folds
        a whole shard's payload.  Buckets whose rows net to zero are
        pruned, and the tracking subclass maintains its sample state
        through the same row-add override the batch engine uses.  Does
        **not** adjust ``updates_processed``/``net_total`` (callers
        account for those from the shards' cumulative totals).

        Requires the packed backend.
        """
        if self._arena is None:
            raise ParameterError(
                "apply_bucket_deltas requires backend='packed'"
            )
        if len(keys) == 0:
            return
        self._add_rows(keys, rows)

    # linear: subtract must stay an exact integer subtraction (RL013)
    def subtract(self, other: "DistinctCountSketch") -> None:
        """Remove ``other``'s contribution from this sketch in place.

        The −1-multiplicity merge: because the sketch is a linear
        transform of the update stream, subtracting the sketch of a
        sub-stream leaves exactly the sketch of the remaining updates,
        bit-for-bit — as if the subtracted updates had never been seen.
        This is the expiry kernel behind
        :class:`repro.monitor.SlidingWindowSketch`: a closed sub-epoch
        sketch is merged out of the running window sum when it ages
        past the window horizon.

        When both sketches are packed, ``other``'s counter rows are
        negated and folded through :meth:`apply_bucket_deltas` in
        bounded row blocks; otherwise the per-bucket signature path is
        used.
        Both paths prune buckets that net to zero, so the result is
        structurally equal to a from-scratch sketch of the remaining
        stream.
        """
        if not self.compatible_with(other):
            raise MergeError(
                "sketches must share params and seed to subtract"
            )
        self._fold_signatures(other, -1)
        self.updates_processed -= other.updates_processed
        self.net_total -= other.net_total
        self._obs_merges.inc()

    def copy(self) -> "DistinctCountSketch":
        """Return a deep, independent copy of this sketch.

        The copy is *not* attached to the original's observability
        registry (it would double every pull gauge); instrument a copy
        explicitly if needed.
        """
        clone = type(self)(self.params, seed=self.seed, backend=self.backend)
        if self._arena is not None:
            clone._arena = self._arena.copy()
        else:
            clone._tables = [
                [
                    {
                        bucket: signature.copy()
                        for bucket, signature in table.items()
                    }
                    for table in level_tables
                ]
                for level_tables in self._tables
            ]
        clone.updates_processed = self.updates_processed
        clone.net_total = self.net_total
        return clone

    def structurally_equal(self, other: "DistinctCountSketch") -> bool:
        """True when both sketches hold identical counter state.

        This is the delete-resilience test surface: a sketch that saw
        matched insert/delete pairs must be structurally equal to one
        that never saw them.  Compares across backends too.
        """
        if not self.compatible_with(other):
            return False
        if self._arena is not None and other._arena is not None:
            return self._arena == other._arena
        if self._arena is None and other._arena is None:
            return self._tables == other._tables
        return list(self._iter_signatures()) == list(
            other._iter_signatures()
        )

    # -- space accounting (Section 6.1) ----------------------------------------

    def space_bytes(
        self, counter_bytes: int = 4, only_active_levels: bool = True
    ) -> int:
        """Model space usage per the paper's Section 6.1 accounting.

        Charges ``r * s * (2 log m + 1) * counter_bytes`` per first-level
        bucket, counting only non-empty levels by default (the paper's
        "approximately 23 non-empty buckets at U = 8e6").
        """
        levels = (
            self.active_levels() if only_active_levels else self.params.num_levels
        )
        return self.params.allocated_bytes(
            active_levels=levels, counter_bytes=counter_bytes
        )

    def occupied_buckets(self) -> int:
        """Number of second-level buckets currently holding state."""
        if self._arena is not None:
            return len(self._arena)
        return sum(
            len(table) for level in self._tables for table in level
        )

    def __repr__(self) -> str:
        return (
            f"DistinctCountSketch(m={self.domain.m}, r={self.params.r}, "
            f"s={self.params.s}, levels={self.params.num_levels}, "
            f"updates={self.updates_processed})"
        )

    def _iter_signatures(
        self,
    ) -> Iterator[Tuple[int, int, int, CountSignature]]:
        """Yield ``(level, j, bucket, signature)`` for all occupied buckets.

        In ``(level, j, bucket)`` order on both backends, so the
        serialized form of a state does not depend on its backend.
        Reference signatures are the live objects; packed ones copies.
        """
        arena = self._arena
        if arena is not None:
            s = self.params.s
            for key, signature in arena.items():
                level, offset = divmod(key, self._level_keys)
                j, bucket = divmod(offset, s)
                yield level, j, bucket, signature
            return
        for level, level_tables in enumerate(self._tables):
            for j, table in enumerate(level_tables):
                for bucket in sorted(table):
                    yield level, j, bucket, table[bucket]

    def _set_signature(
        self, level: int, j: int, bucket: int, signature: CountSignature
    ) -> None:
        """Store ``signature`` at ``(level, j, bucket)`` (state restore)."""
        if self._arena is not None:
            self._arena[self._key(level, j, bucket)] = signature
        else:
            self._tables[level][j][bucket] = signature
