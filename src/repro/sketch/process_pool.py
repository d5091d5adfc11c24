"""Worker-process pool backing ``ShardedSketch(backend="process")``.

Each worker owns a private :class:`TrackingDistinctCountSketch` and
drains a FIFO command pipe — ``ingest`` (a chunk of update tuples),
``snapshot`` (serialize the sketch back to the parent), ``close``.
Because all shard sketches share params and seed, the parent merges the
snapshots through :mod:`repro.sketch.serialize` into the exact sketch a
single-process run would have produced (linearity, Section 3).

Besides the snapshot-over-pipe transport, the pool speaks two faster
sync protocols for packed sketches (selected by ``transport=``):

* ``"delta"`` — workers track the buckets touched since the last sync
  (the :class:`~repro.sketch.arena.SignatureArena`'s dirty-key log) and
  ship only those ``(flat key, signed counter delta)`` rows as two
  integer arrays per worker, each in the narrowest dtype that holds its
  values (a sync's deltas are bounded by the updates since the last
  one, so rows usually travel as int16 and a worker's reply fits the
  pipe's buffer in one write).  Every reply is epoch-tagged: the parent
  detects a missed or stale sync and falls back to a full resync, so
  the folded running sum is always exact.
* ``"shm"`` — each worker copies its packed arena (raw ``_buf`` words
  plus the slot→key map) into one ``multiprocessing.shared_memory``
  segment per worker; the parent maps the segment and gathers
  bucket state with numpy views — no pickling, no JSON, no per-counter
  Python objects.  Segments are grown by generation (create new,
  unlink old) because POSIX shm cannot resize in place.

Shared-memory segments are owned by the workers but *guaranteed* to be
unlinked by the parent: ``close()`` asks workers to unlink, then sweeps
every segment this pool ever created (by unique name prefix under
``/dev/shm``), and an ``atexit`` hook re-runs the sweep for pools that
were never closed — a SIGKILL'd worker cannot leak a segment past
process exit.

The pool prefers the ``fork`` start method (cheap, no import replay) and
falls back to ``spawn``; if no start method is usable at all it raises
:class:`PoolUnavailable` and the caller degrades to the synchronous
backend.  No third-party dependencies: plain ``multiprocessing`` pipes
carrying JSON sketch payloads (or delta arrays / shm headers).
"""

from __future__ import annotations

import atexit
import itertools
import os
import weakref
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .._accel import np as _np
from ..obs.trace import SpanDict
from ..obs.trace import span as trace_span
from .params import SketchParams

#: Update tuple shipped over the pipe: ``(source, dest, delta)``.
UpdateTuple = Tuple[int, int, int]

#: Sync transports the pool understands (resolved by ``ShardedSketch``).
POOL_TRANSPORTS = ("pipe", "shm", "delta")

#: Distinguishes segments of concurrently-live pools in one process.
_POOL_SEQ = itertools.count()


class PoolUnavailable(RuntimeError):
    """Raised when a worker pool cannot be started on this platform."""


class WorkerDied(RuntimeError):
    """A shard worker's pipe broke: the process is gone or wedged.

    Carries the shard index so a supervisor can respawn exactly the
    failed worker (see :mod:`repro.resilience.supervisor`).
    """

    def __init__(self, shard: int, detail: str = "") -> None:
        super().__init__(
            f"shard {shard} worker died{': ' + detail if detail else ''}"
        )
        self.shard = shard


# -- shared-memory segment lifecycle ------------------------------------------

def _unregister_segment(name: str) -> None:
    """Cancel our own resource-tracker registration (best effort).

    ``SharedMemory`` registers every create *and* attach with the
    process tree's shared resource tracker.  The pool manages segment
    lifecycle explicitly (workers unlink on exit, the parent sweeps),
    so each registration is cancelled immediately — otherwise create/
    attach/unlink events from different processes unbalance the shared
    cache and the tracker prints spurious KeyError tracebacks or
    "leaked shared_memory" warnings at exit.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister("/" + name.lstrip("/"), "shared_memory")
    except (ImportError, KeyError, OSError, ValueError):
        pass


def _unlink_segment(name: str) -> None:
    """Remove one named segment, tolerating its prior disappearance.

    Unlinks through the filesystem rather than ``SharedMemory.unlink``
    where possible: registrations were already cancelled at create/
    attach time, so the method's built-in ``unregister`` would only
    unbalance the tracker cache.
    """
    shm_dir = Path("/dev/shm")
    if shm_dir.is_dir():
        try:
            (shm_dir / name).unlink()
        except OSError:
            pass
    else:  # non-Linux POSIX: attach purely to reach unlink()
        try:
            from multiprocessing.shared_memory import SharedMemory

            segment = SharedMemory(name=name)
        except (ImportError, OSError, ValueError):
            return
        try:
            # The attach registered and unlink() unregisters: balanced.
            segment.unlink()
        except OSError:
            pass
        finally:
            segment.close()


def _sweep_segments(prefix: str, known: Set[str]) -> None:
    """Unlink every segment this pool ever created.

    Known names cover all platforms; the ``/dev/shm`` scan additionally
    catches segments a worker created and died before announcing (a
    grow-then-SIGKILL window the parent never hears about).
    """
    names = set(known)
    shm_dir = Path("/dev/shm")
    if shm_dir.is_dir():
        try:
            for path in shm_dir.iterdir():
                if path.name.startswith(prefix):
                    names.add(path.name)
        except OSError:
            pass
    for name in names:
        _unlink_segment(name)
    known.clear()


#: prefix -> (owning pid, live segment names); swept at interpreter
#: exit for any pool that was never closed (the last-resort guard).
_LIVE_POOL_SEGMENTS: Dict[str, Tuple[int, Set[str]]] = {}
_ATEXIT_INSTALLED = False


def _sweep_leftover_segments() -> None:
    """``atexit`` guard: unlink segments of pools never closed."""
    for prefix, (owner_pid, known) in list(_LIVE_POOL_SEGMENTS.items()):
        if owner_pid == os.getpid():
            _sweep_segments(prefix, known)
            _LIVE_POOL_SEGMENTS.pop(prefix, None)


def _register_pool_segments(prefix: str, known: Set[str]) -> None:
    global _ATEXIT_INSTALLED
    _LIVE_POOL_SEGMENTS[prefix] = (os.getpid(), known)
    if not _ATEXIT_INSTALLED:
        atexit.register(_sweep_leftover_segments)
        _ATEXIT_INSTALLED = True


class _ShmPublisher:
    """Worker-side arena writer: one shared-memory segment per worker.

    Each :meth:`publish` lays the worker's arena out contiguously — the
    int64 slot→key map followed by the raw counter buffer — and returns
    a small header (segment name, generation, slot count) for the pipe.
    The segment is grown by *generation*: a bigger replacement is
    created under a fresh name and the old one unlinked, since POSIX
    shm cannot resize in place.
    """

    def __init__(self, prefix: str, shard: int) -> None:
        self._prefix = prefix
        self._shard = shard
        self._generation = 0
        self._segment: Optional[Any] = None

    def _ensure_capacity(self, needed_bytes: int) -> Any:
        segment = self._segment
        if segment is not None and segment.size >= needed_bytes:
            return segment
        if segment is not None:
            self._segment = None
            segment.close()
            _unlink_segment(segment.name)
        from multiprocessing.shared_memory import SharedMemory

        self._generation += 1
        # Worker pid in the name keeps respawned workers from colliding
        # with a dead predecessor's not-yet-swept segment.
        name = (
            f"{self._prefix}s{self._shard}p{os.getpid()}"
            f"g{self._generation}"
        )
        # Double the request so steady growth re-creates rarely.
        segment = SharedMemory(
            name=name, create=True, size=max(needed_bytes, 8) * 2
        )
        _unregister_segment(segment.name)
        self._segment = segment
        return segment

    def publish(self, sketch: Any) -> Dict[str, Any]:
        """Copy the sketch's packed arena into shared memory.

        Returns the header the parent needs to map it back:
        ``{"name", "generation", "slots", "updates", "net"}``.
        """
        arena = sketch._arena
        assert arena is not None, "shm transport requires a packed arena"
        slots = arena.capacity
        segment = self._ensure_capacity(slots * (1 + arena.stride) * 8)
        words = _np.frombuffer(segment.buf, dtype=_np.int64)
        words[:slots] = arena.slot_keys()
        words[slots:slots * (1 + arena.stride)] = arena.view2d().reshape(-1)
        del words  # release the buffer export before any future close()
        return {
            "name": segment.name,
            "generation": self._generation,
            "slots": slots,
            "updates": sketch.updates_processed,
            "net": sketch.net_total,
        }

    def close(self) -> None:
        """Unlink this worker's segment (idempotent, teardown-safe)."""
        segment = self._segment
        self._segment = None
        if segment is None:
            return
        try:
            segment.close()
        except (OSError, BufferError):
            pass
        _unlink_segment(segment.name)


def _narrow_ints(values: Any) -> Any:
    """An int64 ndarray in the narrowest signed dtype holding its values.

    Shrinks a delta reply without changing a single value: the parent
    widens it back to int64 before folding.
    """
    if len(values) == 0:
        return values
    lo, hi = int(values.min()), int(values.max())
    for dtype in (_np.int8, _np.int16, _np.int32):
        bounds = _np.iinfo(dtype)
        if bounds.min <= lo and hi <= bounds.max:
            return values.astype(dtype)
    return values


def _track_arena_deltas(sketch: Any) -> None:
    """Enable dirty-key tracking on a packed sketch's arena."""
    arena = sketch._arena
    assert arena is not None, "delta transport requires a packed arena"
    arena.track_deltas(True)


def _worker_main(
    conn: Any,
    params: SketchParams,
    seed: int,
    sketch_backend: str,
    shard: int,
    trace_every: int,
    transport: str = "pipe",
    shm_prefix: str = "",
) -> None:
    """Worker loop: apply ingest chunks, answer sync requests."""
    # Imported here so ``spawn`` workers pay the import in the child.
    from ..obs.catalog import WORKER_UPDATES
    from ..obs.registry import Registry
    from ..obs.trace import Tracer, install_tracer
    from ..types import FlowUpdate
    from . import serialize
    from .tracking import TrackingDistinctCountSketch

    tracer: Optional[Tracer] = None
    if trace_every > 0:
        tracer = Tracer(sample_every=trace_every)
        install_tracer(tracer)

    def fresh_registry() -> Tuple[Registry, Any]:
        registry = Registry()
        counter = registry.counter_from(WORKER_UPDATES).labels(
            shard=str(shard)
        )
        return registry, counter

    registry, updates_total = fresh_registry()
    sketch = TrackingDistinctCountSketch(
        params, seed=seed, backend=sketch_backend
    )
    if transport == "delta":
        _track_arena_deltas(sketch)
    publisher: Optional[_ShmPublisher] = None
    #: Monotonic sync counter: one tick per delta reply, so the parent
    #: can prove no other drain slipped in between its own syncs.
    epoch = 0
    try:
        while True:
            try:
                command, payload = conn.recv()
            except EOFError:
                break
            if command == "ingest":
                with trace_span("worker.ingest"):
                    sketch.update_batch(
                        [FlowUpdate(s, d, delta) for s, d, delta in payload]
                    )
                updates_total.inc(len(payload))
            elif command == "snapshot":
                conn.send(serialize.dumps(sketch))
            elif command == "delta":
                epoch += 1
                arena = sketch._arena
                assert arena is not None
                if payload:  # full resync: absolute rows
                    arena.reset_deltas()
                    keys, rows = arena.export_rows()
                else:
                    keys, rows = arena.drain_deltas()
                conn.send(
                    {
                        "epoch": epoch,
                        "full": bool(payload),
                        "keys": _narrow_ints(keys),
                        "rows": _narrow_ints(rows),
                        "updates": sketch.updates_processed,
                        "net": sketch.net_total,
                    }
                )
            elif command == "shm":
                if publisher is None:
                    publisher = _ShmPublisher(shm_prefix, shard)
                conn.send(publisher.publish(sketch))
            elif command == "load":
                # Replace the sketch wholesale (checkpoint restore).
                loaded = serialize.loads(payload, backend=sketch_backend)
                assert isinstance(loaded, TrackingDistinctCountSketch)
                sketch = loaded
                if transport == "delta":
                    # Fresh dirty indexes: the parent invalidated its
                    # running sum on restore and will full-resync.
                    _track_arena_deltas(sketch)
                # Rebuild the observability state from the restored
                # sketch: ``updates_processed`` travels in the wire
                # format, so the counter restarts exactly where the
                # snapshot left off and the parent's replace-by-key
                # merge can never double-count across a respawn.
                registry, updates_total = fresh_registry()
                updates_total.inc(sketch.updates_processed)
            elif command == "obs":
                conn.send(registry.snapshot())
            elif command == "trace":
                conn.send(tracer.drain() if tracer is not None else [])
            elif command == "close":
                break
    finally:
        if publisher is not None:
            publisher.close()
        conn.close()


def _cleanup(
    connections: List[Any],
    processes: List[Any],
    shm_prefix: str = "",
    known_segments: Optional[Set[str]] = None,
    attachments: Optional[Dict[int, Any]] = None,
) -> None:
    """Best-effort teardown used by both ``close`` and the finalizer.

    Workers are asked to exit (unlinking their own segments on the
    way), then the parent closes its attachments and sweeps whatever
    segments remain — the unlink guarantee holds even when a worker
    was SIGKILL'd mid-sync.
    """
    for conn in connections:
        try:
            conn.send(("close", None))
        except (OSError, ValueError, BrokenPipeError):
            pass
        try:
            conn.close()
        except OSError:
            pass
    for process in processes:
        process.join(timeout=5)
        if process.is_alive():
            process.terminate()
            process.join(timeout=5)
    if attachments is not None:
        for segment in list(attachments.values()):
            try:
                segment.close()
            except (OSError, BufferError):
                pass
        attachments.clear()
    if shm_prefix:
        if known_segments is None:
            known_segments = set()
        _sweep_segments(shm_prefix, known_segments)
        _LIVE_POOL_SEGMENTS.pop(shm_prefix, None)


class ProcessShardPool:
    """One pipe-fed worker process per shard.

    Args:
        params: sketch shape shared by every worker.
        seed: sketch seed shared by every worker (required for merging).
        shards: number of worker processes.
        sketch_backend: storage backend of each worker's sketch.
        trace_every: worker-side span sampling rate — each worker
            installs its own :class:`~repro.obs.trace.Tracer` keeping 1
            in ``trace_every`` root spans (0 disables worker tracing).
            A plain int so it survives both ``fork`` and ``spawn``.
        transport: sync protocol — ``"pipe"`` (serialized snapshots),
            ``"shm"`` (shared-memory slab gather), or ``"delta"``
            (dirty-bucket delta propagation).  The packed transports
            are resolved by :class:`~repro.sketch.sharded.ShardedSketch`;
            the pool trusts the caller's choice.

    Raises:
        PoolUnavailable: when no multiprocessing start method works.
    """

    def __init__(
        self,
        params: SketchParams,
        seed: int,
        shards: int,
        sketch_backend: str = "reference",
        trace_every: int = 0,
        transport: str = "pipe",
    ) -> None:
        if transport not in POOL_TRANSPORTS:
            raise PoolUnavailable(
                f"unknown transport {transport!r}; "
                f"expected one of {POOL_TRANSPORTS}"
            )
        context = None
        try:
            import multiprocessing

            for method in ("fork", "spawn"):
                try:
                    context = multiprocessing.get_context(method)
                    break
                except ValueError:
                    continue
        except ImportError as error:
            raise PoolUnavailable(str(error)) from error
        if context is None:
            raise PoolUnavailable("no usable multiprocessing start method")
        if transport == "shm":
            try:
                import multiprocessing.shared_memory  # noqa: F401
            except ImportError as error:
                raise PoolUnavailable(str(error)) from error
        self._context = context
        self._params = params
        self._seed = seed
        self._sketch_backend = sketch_backend
        self._trace_every = trace_every
        self.transport = transport
        #: Unique segment-name prefix for this pool (pid + sequence):
        #: segments cross the process boundary by *name string* only.
        self.shm_prefix = f"repro{os.getpid()}x{next(_POOL_SEQ)}"
        #: Every segment name a worker has announced (sweep targets).
        self._known_segments: Set[str] = set()
        #: shard -> currently mapped SharedMemory attachment.
        self._attachments: Dict[int, Any] = {}
        #: shard -> name of that worker's current segment.
        self._segment_names: Dict[int, str] = {}
        self._connections: List[Any] = []
        self._processes: List[Any] = []
        try:
            for shard in range(shards):
                parent_conn, process = self._spawn(shard)
                self._connections.append(parent_conn)
                self._processes.append(process)
        except (OSError, ValueError) as error:
            _cleanup(self._connections, self._processes)
            raise PoolUnavailable(str(error)) from error
        self._closed = False
        if transport == "shm":
            _register_pool_segments(self.shm_prefix, self._known_segments)
        self._finalizer = weakref.finalize(
            self,
            _cleanup,
            self._connections,
            self._processes,
            self.shm_prefix if transport == "shm" else "",
            self._known_segments,
            self._attachments,
        )

    def _spawn(self, shard: int) -> Tuple[Any, Any]:
        """Start one worker; returns its (parent pipe, process)."""
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._params,
                self._seed,
                self._sketch_backend,
                shard,
                self._trace_every,
                self.transport,
                self.shm_prefix,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return parent_conn, process

    @property
    def num_shards(self) -> int:
        """Number of worker processes."""
        return len(self._processes)

    def is_alive(self, shard: int) -> bool:
        """True when the shard's worker process is still running."""
        if self._closed:
            return False
        return bool(self._processes[shard].is_alive())

    def pid(self, shard: int) -> Optional[int]:
        """OS process id of the shard's worker (None once closed)."""
        if self._closed:
            return None
        pid = self._processes[shard].pid
        return int(pid) if pid is not None else None

    def respawn(self, shard: int, payload: Optional[bytes] = None) -> None:
        """Replace a (dead) worker with a fresh process.

        ``payload`` — a :mod:`repro.sketch.serialize` snapshot — is
        loaded into the new worker before it accepts ingest, restoring
        the shard's sketch state (checkpoint restore).  Without it the
        worker starts from an empty sketch.  Any shared-memory segment
        the dead worker left behind is unlinked before the replacement
        starts (the new worker creates its own under a fresh name).

        Raises:
            PoolUnavailable: when the replacement process cannot start.
        """
        if self._closed:
            raise PoolUnavailable("pool is closed")
        old_conn = self._connections[shard]
        old_process = self._processes[shard]
        try:
            old_conn.close()
        except OSError:
            pass
        old_process.join(timeout=1)
        if old_process.is_alive():
            old_process.terminate()
            old_process.join(timeout=5)
        self._release_shard_segments(shard)
        try:
            parent_conn, process = self._spawn(shard)
        except (OSError, ValueError) as error:
            raise PoolUnavailable(str(error)) from error
        try:
            if payload is not None:
                parent_conn.send(("load", payload))
        except (OSError, ValueError, BrokenPipeError) as error:
            # The replacement worker never became usable: release its
            # pipe end and reap the process before reporting failure,
            # or every failed respawn leaks a pipe pair and a zombie.
            parent_conn.close()
            process.terminate()
            process.join(timeout=5)
            raise PoolUnavailable(str(error)) from error
        self._connections[shard] = parent_conn
        self._processes[shard] = process

    def _release_shard_segments(self, shard: int) -> None:
        """Unmap and unlink one (dead) worker's segments.

        Runs between reaping the old worker and spawning its
        replacement, so the prefix scan can never hit a segment the
        new worker is about to create (fresh pid, fresh generation).
        """
        segment = self._attachments.pop(shard, None)
        if segment is not None:
            try:
                segment.close()
            except (OSError, BufferError):
                pass
        name = self._segment_names.pop(shard, None)
        if name is not None:
            self._known_segments.discard(name)
            _unlink_segment(name)
        shard_prefix = f"{self.shm_prefix}s{shard}p"
        shm_dir = Path("/dev/shm")
        if shm_dir.is_dir():
            try:
                for path in shm_dir.iterdir():
                    if path.name.startswith(shard_prefix):
                        _unlink_segment(path.name)
            except OSError:
                pass

    def ingest(self, shard: int, updates: Sequence[UpdateTuple]) -> None:
        """Queue a chunk of update tuples on one worker (non-blocking).

        Raises:
            WorkerDied: when the worker's pipe is broken.
        """
        if self._closed:
            raise PoolUnavailable("pool is closed")
        try:
            with trace_span("sharded.pipe_send"):
                self._connections[shard].send(("ingest", list(updates)))
        except (OSError, ValueError, BrokenPipeError) as error:
            raise WorkerDied(shard, str(error)) from error

    def snapshot(self, shard: int) -> bytes:
        """Serialized state of one worker's sketch (drains its queue).

        Raises:
            WorkerDied: when the worker died before answering.
        """
        if self._closed:
            raise PoolUnavailable("pool is closed")
        payload = self._request_one(shard, "snapshot", None)
        assert isinstance(payload, bytes)
        return payload

    def snapshots(self) -> List[bytes]:
        """Serialized state of every worker, request-all then drain-all.

        Raises:
            WorkerDied: when any worker died before answering.
        """
        return self._request_all("snapshot")

    # -- delta transport -------------------------------------------------------

    def collect_delta(self, shard: int, full: bool = False) -> Dict[str, Any]:
        """Drain one worker's delta run (epoch-tagged).

        The reply carries the worker's sync epoch, its cumulative
        ``updates``/``net`` totals, and its changed rows as two flat
        integer ndarrays in the narrowest dtype that holds them (see
        :func:`_narrow_ints`) — ``keys`` (flat bucket keys) and ``rows``
        (one signed delta row per key) — absolute rows when ``full``.

        Raises:
            WorkerDied: when the worker died before answering.
        """
        if self._closed:
            raise PoolUnavailable("pool is closed")
        reply = self._request_one(shard, "delta", bool(full))
        assert isinstance(reply, dict)
        return reply

    def collect_deltas(self, full: bool = False) -> List[Dict[str, Any]]:
        """Drain every worker's delta run (request-all then drain-all).

        The broadcast-then-drain shape is the sync barrier: every
        worker drains against the same logical cut of its stream, and
        a worker death surfaces as :class:`WorkerDied` *before* any
        reply is applied (the caller discards its running sum).

        Raises:
            WorkerDied: when any worker died before answering.
        """
        return self._request_all("delta", bool(full))

    # -- shared-memory transport -------------------------------------------------

    def shm_sync(self) -> List[Dict[str, Any]]:
        """Ask every worker to publish its arena; returns the headers.

        Each header names the worker's segment and its slot count; pass
        it to :meth:`shm_arrays` to map the published state.

        Raises:
            WorkerDied: when any worker died before answering.
        """
        headers = self._request_all("shm")
        for shard, header in enumerate(headers):
            self._known_segments.add(header["name"])
            self._segment_names[shard] = header["name"]
        return headers

    def shm_arrays(
        self, shard: int, header: Dict[str, Any]
    ) -> Tuple[Any, Any]:
        """Gather one worker's published arena from shared memory.

        Returns ``(keys, rows)`` — the occupied flat bucket keys and
        their int64 counter rows, gathered straight out of the mapped
        segment (free slots are masked out; their rows are all-zero by
        arena invariant).  The segment stays mapped between syncs and
        is re-attached only when the worker grew it under a new name.

        Raises:
            WorkerDied: when the segment vanished under the parent
                (the worker died after a grow, before a sync).
        """
        stride = self._params.pair_bits + 1
        slots = header["slots"]
        segment = self._attach(shard, header["name"])
        words = _np.frombuffer(segment.buf, dtype=_np.int64)
        key_of = words[:slots]
        rows = words[slots:slots * (1 + stride)].reshape(slots, stride)
        mask = key_of >= 0
        # Fancy indexing copies, so the returned arrays outlive the
        # mapping and a later re-attach can close it safely.
        out = (key_of[mask], rows[mask])
        del words, key_of, rows
        return out

    def _attach(self, shard: int, name: str) -> Any:
        """Map a worker's segment by name (cached across syncs)."""
        segment = self._attachments.get(shard)
        if segment is not None:
            if self._segment_names.get(shard) == name and (
                getattr(segment, "name", None) == name
            ):
                return segment
            try:
                segment.close()
            except (OSError, BufferError):
                pass
            del self._attachments[shard]
        from multiprocessing.shared_memory import SharedMemory

        try:
            segment = SharedMemory(name=name)
        except (OSError, ValueError) as error:
            raise WorkerDied(shard, str(error)) from error
        # The attach re-registered the name with the resource tracker;
        # the worker owns the segment, so drop the duplicate claim.
        _unregister_segment(name)
        self._attachments[shard] = segment
        self._segment_names[shard] = name
        return segment

    # -- observability ------------------------------------------------------------

    def obs_snapshots(self) -> List[Dict[str, Any]]:
        """Cumulative registry snapshot from every worker.

        Each element is a :meth:`repro.obs.Registry.snapshot` document
        carrying the worker's own counters (``repro_worker_updates_total``
        labelled by shard).  Snapshots are cumulative since the worker's
        last (re)start, sized for replace-by-key absorption into the
        parent registry (:meth:`repro.obs.Registry.absorb`).

        Raises:
            WorkerDied: when any worker died before answering.
        """
        return self._request_all("obs")

    def drain_traces(self) -> List[SpanDict]:
        """Drain every worker's span buffer into one flat list.

        Workers buffer spans locally (see the ``trace_every`` pool
        argument); draining moves them to the parent exactly once, so
        repeated calls never duplicate a span.  Spans carry the worker
        ``pid``, keeping per-process trees separable after the merge.

        Raises:
            WorkerDied: when any worker died before answering.
        """
        merged: List[SpanDict] = []
        for spans in self._request_all("trace"):
            merged.extend(spans)
        return merged

    def _request_one(self, shard: int, command: str, payload: Any) -> Any:
        """Send one command to one worker and await its reply."""
        conn = self._connections[shard]
        try:
            with trace_span("sharded.pipe_send"):
                conn.send((command, payload))
            with trace_span("sharded.pipe_recv"):
                return conn.recv()
        except (OSError, EOFError, ValueError, BrokenPipeError) as error:
            raise WorkerDied(shard, str(error)) from error

    def _request_all(self, command: str, payload: Any = None) -> List[Any]:
        """Broadcast ``command`` then collect one reply per worker."""
        if self._closed:
            raise PoolUnavailable("pool is closed")
        for shard, conn in enumerate(self._connections):
            try:
                with trace_span("sharded.pipe_send"):
                    conn.send((command, payload))
            except (OSError, ValueError, BrokenPipeError) as error:
                raise WorkerDied(shard, str(error)) from error
        replies: List[Any] = []
        for shard, conn in enumerate(self._connections):
            try:
                with trace_span("sharded.pipe_recv"):
                    replies.append(conn.recv())
            except (OSError, EOFError, ValueError, BrokenPipeError) as error:
                raise WorkerDied(shard, str(error)) from error
        return replies

    def close(self) -> None:
        """Shut every worker down and unlink all segments; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _cleanup(
            self._connections,
            self._processes,
            self.shm_prefix if self.transport == "shm" else "",
            self._known_segments,
            self._attachments,
        )

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc_info: Any) -> Optional[bool]:
        self.close()
        return None

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"ProcessShardPool(shards={self.num_shards}, "
            f"transport={self.transport!r}, {state})"
        )
