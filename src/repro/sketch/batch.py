"""Encoded batches: a flow-update batch validated, encoded and hashed once.

Every batched ingest path starts by turning ``FlowUpdate`` objects into
pair codes and deltas.  :func:`encode_batch` does that for a whole
batch in one vectorized pass — domain checks included — and returns an
:class:`EncodedBatch` that every consumer of the same batch reuses: the
monitor encodes once and hands the result to the tracking sketch and
the sliding window, and any check-interval or sub-epoch split is a
cheap slice of the arrays.  Because validation covers the whole batch
before any consumer sees it, a batch with one bad update is rejected
before a single counter moves.

A batch also remembers the packed engine's work on it.  Sketches that
share params and seed (one *family*) map an update to the same flat
bucket keys, so the root batch's key matrix is hashed once per family
and every slice reads its rows of it; each batch (or slice) keeps its
sorted, segment-summed ``(keys, rows)`` per family, so a second sketch
of the family fed the same chunk only resolves slots and adds rows.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from .._accel import np as _np
from ..exceptions import DomainError, ParameterError
from ..types import AddressDomain, FlowUpdate


class EncodedBatch:
    """A validated batch: the updates plus their pair codes and deltas.

    Treat a batch as immutable once built: slices share its arrays, and
    the memo below assumes the codes never change under it.

    The memo holds what the packed engine derived from the batch, per
    sketch family (:meth:`flat_keys` and :meth:`segment` document the
    two entries).  Slices record their offset into the root batch, so
    they share the root's key matrices; a slice that covers the whole
    batch is the batch itself, memo included.

    Attributes:
        m: size of the address domain the codes were encoded for.
        updates: the original :class:`~repro.types.FlowUpdate` objects
            (consumers that route or log updates iterate these).
        codes: pair codes — a uint64 ndarray when the pair domain fits
            64 bits, else a list of Python ints.
        deltas: int64 ndarray of ``+1``/``-1`` deltas.
    """

    __slots__ = (
        "m", "updates", "codes", "deltas",
        "_root", "_offset", "_flat_keys", "_segments",
    )

    def __init__(
        self,
        m: int,
        updates: List[FlowUpdate],
        codes: Any,
        deltas: Any,
        root: Optional["EncodedBatch"] = None,
        offset: int = 0,
    ) -> None:
        self.m = m
        self.updates = updates
        self.codes = codes
        self.deltas = deltas
        # The batch this one was sliced from (None for a root: a root
        # pointing at itself would be a cycle only the GC could free),
        # and where this one starts in it.
        self._root = root
        self._offset = offset
        # Root only: family -> (len(root), r) flat-key matrix.
        self._flat_keys: Dict[Hashable, Any] = {}
        # family -> (distinct keys, summed counter rows) of this batch.
        self._segments: Dict[Hashable, Tuple[Any, Any]] = {}

    @property
    def vectorized(self) -> bool:
        """True when :attr:`codes` is a uint64 ndarray."""
        return not isinstance(self.codes, list)

    def pairs(self) -> List[int]:
        """The pair codes as Python ints."""
        codes = self.codes
        return codes if isinstance(codes, list) else codes.tolist()

    def inserts(self) -> int:
        """Number of ``+1`` updates in the batch."""
        return int((self.deltas > 0).sum())

    def flat_keys(
        self, family: Hashable, hash_codes: Callable[[Any], Any]
    ) -> Any:  # hot-path
        """This batch's rows of the family's flat-key matrix.

        ``hash_codes`` maps a code array to its ``(n, r)`` flat-key
        matrix; it runs at most once per family, on the root batch's
        codes, and every slice of the root reads its own rows of the
        result.
        """
        root = self if self._root is None else self._root
        matrix = root._flat_keys.get(family)
        if matrix is None:
            matrix = hash_codes(root.codes)
            root._flat_keys[family] = matrix
        if root is self:
            return matrix
        return matrix[self._offset:self._offset + len(self.codes)]

    def segment(
        self,
        family: Hashable,
        sum_rows: Callable[["EncodedBatch"], Tuple[Any, Any]],
    ) -> Tuple[Any, Any]:  # hot-path
        """The family's ``(keys, rows)`` segment-sum of this batch.

        ``sum_rows`` computes it from the batch on the first call for
        the family; later calls — another sketch of the family fed the
        same batch — return the remembered pair.  Callers must not
        modify either array.
        """
        found = self._segments.get(family)
        if found is None:
            found = sum_rows(self)
            self._segments[family] = found
        return found

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self) -> Iterator[FlowUpdate]:
        return iter(self.updates)

    def __getitem__(self, index: slice) -> "EncodedBatch":
        """A contiguous sub-batch sharing the parent's arrays and memo.

        A slice covering the whole batch returns the batch itself.
        """
        start, stop, step = index.indices(len(self.updates))
        if step != 1:
            raise ParameterError("EncodedBatch slices must be contiguous")
        if start == 0 and stop == len(self.updates):
            return self
        return EncodedBatch(
            self.m,
            self.updates[start:stop],
            self.codes[start:stop],
            self.deltas[start:stop],
            self if self._root is None else self._root,
            self._offset + start,
        )

    def __repr__(self) -> str:
        return f"EncodedBatch(m={self.m}, updates={len(self.updates)})"


def _column(values: List[int]) -> Optional[Any]:
    """``values`` as an int64 ndarray, or ``None`` if one does not fit."""
    try:
        return _np.array(values, dtype=_np.int64)
    except (OverflowError, TypeError, ValueError):
        return None


def encode_batch(
    domain: AddressDomain,
    updates: Union[EncodedBatch, Iterable[FlowUpdate]],
) -> EncodedBatch:
    """Validate and encode a batch of flow updates in one pass.

    Raises :class:`~repro.exceptions.DomainError` — for the first
    offending update, with the same message the per-update path gives —
    when any address lies outside ``[0, m)`` (negative, too large, or
    beyond int64), and :class:`~repro.exceptions.ParameterError` when a
    delta is not ``+1``/``-1``.  Nothing is returned, so nothing is
    applied, unless the whole batch is valid.  An :class:`EncodedBatch`
    for the same domain passes through unchanged.
    """
    if isinstance(updates, EncodedBatch):
        if updates.m == domain.m:
            return updates
        updates = updates.updates
    batch = updates if isinstance(updates, list) else list(updates)
    deltas = _column([update.delta for update in batch])
    if deltas is None or bool((_np.abs(deltas) != 1).any()):
        for update in batch:
            if update.delta not in (1, -1):
                raise ParameterError(
                    f"delta must be +1 or -1, got {update.delta}"
                )
    if domain.pair_bits > 64:
        codes: Any = [
            domain.encode_pair(update.source, update.dest)
            for update in batch
        ]
        return EncodedBatch(domain.m, batch, codes, deltas)
    sources = _column([update.source for update in batch])
    dests = _column([update.dest for update in batch])
    if sources is None or dests is None:
        bad = None
    else:
        m = domain.m
        outside = (sources < 0) | (sources >= m) | (dests < 0) | (dests >= m)
        bad = _np.flatnonzero(outside)
    if bad is None or len(bad):
        # Re-run the scalar check from the first suspect on, so the
        # error names the same address the per-update path would.
        start = 0 if bad is None else int(bad[0])
        for update in batch[start:]:
            domain.encode_pair(update.source, update.dest)
        raise DomainError("batch holds an address outside the domain")
    assert sources is not None and dests is not None
    shift = _np.uint64(domain.address_bits)
    codes = (sources.astype(_np.uint64) << shift) | dests.astype(_np.uint64)
    return EncodedBatch(domain.m, batch, codes, deltas)
