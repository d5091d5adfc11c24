"""Inputs, detectors and oracles of the records-to-alarms benchmark.

Everything here runs outside the timed regions: input generation, the
construction recipe of the detector under test (whose cost *is* timed,
as ``setup_s``, by the caller), and the oracle alarm lists the measured
runs are compared against.

The detector under test is the production configuration,
``DDoSMonitor(backend="packed", r=3, s=128, k=10, check_interval=1000)``
with ``backend`` passed explicitly so a later change of default does not
change what is measured.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.hashing import derive_seed
from repro.monitor import DDoSMonitor, MonitorConfig
from repro.monitor.alarms import Alarm
from repro.monitor.window import SlidingWindowSketch
from repro.netsim import (
    BackgroundTraffic,
    FlashCrowd,
    FlowRecord,
    Packet,
    RecordExporter,
    Scenario,
    SynFloodAttack,
    parse_ip,
    records_to_updates,
)
from repro.obs import Registry
from repro.sketch.sharded import ShardedSketch
from repro.streams import ZipfWorkload
from repro.types import AddressDomain, FlowUpdate

DOMAIN = AddressDomain(2 ** 32)
CONFIG = MonitorConfig(k=10, check_interval=1000)
SKETCH_R = 3
SKETCH_S = 128
BATCH_ITEMS = 1024

VICTIM = parse_ip("203.0.113.7")
CROWD_DEST = parse_ip("198.51.100.20")
SERVER_BASE = parse_ip("10.200.0.0")
SERVERS = 200

# The scenario runs 60 simulated seconds: background sessions throughout,
# the flash crowd in [0, 25) and the SYN flood in [35, 60) on the timed
# workloads.  The paper's concurrent scenario, flood and crowd both in
# [0, 25), is a correctness pass of its own (``concurrent_alarms``): there
# the production detector alarms on the flash crowd.  The crowd's few
# dozen in-flight handshakes are read at the coarse sample level the
# 20k-source victim pushes the sketch to, where one sampled source
# already scores 128, above the alarm floor of 100.
SCENARIO_SECONDS = 60.0
CROWD_SECONDS = 25.0
FLOOD_START = 35.0

# Exporter timeouts shorter than the 50 ms handshake RTT split each
# handshake into a half-open record (+1) and a completing record (-1).
# With the 15 s defaults the SYN and its ACK share one self-contained
# record and the crowd emits nothing; with a 1 s inactive timeout the
# exporter's per-packet scan of its flow cache makes generation take
# tens of seconds.
INACTIVE_TIMEOUT = 0.02
ACTIVE_TIMEOUT = 1.0

ZIPF_PAIRS = 120_000
ZIPF_DESTINATIONS = 750
ZIPF_SKEW = 1.5
SUBEPOCH_LENGTH = 5000
WINDOW_SUBEPOCHS = 8

#: One alarm as compared with the oracle.
AlarmKey = Tuple[int, str, int, int]
#: Detection-pass position -> the alarms that pass raised, sorted.
PassAlarms = Dict[int, Tuple[AlarmKey, ...]]


def alarm_key(alarm: Alarm) -> AlarmKey:
    """What a measured alarm must share with its oracle counterpart."""
    return (
        alarm.dest,
        alarm.severity.value,
        alarm.updates_seen,
        alarm.estimated_frequency,
    )


def group_by_pass(alarms: Sequence[Alarm]) -> PassAlarms:
    """Alarms keyed by the stream position of the pass that raised them."""
    grouped: Dict[int, List[AlarmKey]] = {}
    for alarm in alarms:
        grouped.setdefault(alarm.updates_seen, []).append(alarm_key(alarm))
    return {position: tuple(sorted(keys)) for position, keys in grouped.items()}


@dataclass
class Inputs:
    """One workload's generated input.

    Items are flow records on ``netsim_bulk`` and flow updates on
    the Zipf ones.  ``updates`` is the one-shot conversion of all items;
    ``updates_before[i]`` counts the updates items ``[0, i)`` produce.
    """

    records: Optional[List[FlowRecord]]
    updates: List[FlowUpdate]
    updates_before: np.ndarray

    @property
    def num_items(self) -> int:
        """Records (netsim) or updates (Zipf) in the stream."""
        return len(self.updates_before) - 1

    def converter(self) -> Optional[Iterator[FlowUpdate]]:
        """A fresh converter over all records; ``None`` for Zipf input.

        One converter must serve a whole stream: it keeps the set of
        pairs exported half-open, so a converter created per batch drops
        the deletion of every flow whose records straddle two batches.
        """
        if self.records is None:
            return None
        return records_to_updates(iter(self.records))

    def take(
        self, converter: Optional[Iterator[FlowUpdate]], start: int, stop: int
    ) -> List[FlowUpdate]:
        """Updates ``[start, stop)``: converted live or sliced from Zipf."""
        if converter is None:
            return self.updates[start:stop]
        return list(islice(converter, stop - start))


class _CountingIterator:
    """Iterates a list and counts the items consumed so far."""

    def __init__(self, items: Sequence[FlowRecord]) -> None:
        self._items = iter(items)
        self.consumed = 0

    def __iter__(self) -> "_CountingIterator":
        return self

    def __next__(self) -> FlowRecord:
        item = next(self._items)
        self.consumed += 1
        return item


def scenario_packets(seed: int, scale: int = 1,
                     concurrent: bool = False) -> List[Packet]:
    """The paper's scenario as a packet timeline.

    Background traffic (40k sessions to 200 servers, 5% abandoned), a
    flash crowd of 20k clients and a SYN flood of 20k spoofed sources,
    divided by ``scale``.  The flood starts with the crowd when
    ``concurrent`` is set, and after it otherwise.
    """
    flood_start = 0.0 if concurrent else FLOOD_START
    flood_seconds = CROWD_SECONDS if concurrent else (
        SCENARIO_SECONDS - FLOOD_START
    )
    servers = [SERVER_BASE + index for index in range(SERVERS)]
    scenario = Scenario(
        BackgroundTraffic(
            servers,
            sessions=40_000 // scale,
            abandon_fraction=0.05,
            duration=SCENARIO_SECONDS,
            seed=derive_seed(seed, "background"),
        ),
        FlashCrowd(
            CROWD_DEST,
            crowd_size=20_000 // scale,
            duration=CROWD_SECONDS,
            seed=derive_seed(seed, "crowd"),
        ),
        SynFloodAttack(
            VICTIM,
            flood_size=20_000 // scale,
            start=flood_start,
            duration=flood_seconds,
            seed=derive_seed(seed, "flood"),
        ),
    )
    return scenario.packets()


def scenario_records(seed: int, scale: int = 1,
                     concurrent: bool = False) -> List[FlowRecord]:
    """The scenario's packets exported with the benchmark's timeouts."""
    exporter = RecordExporter(
        inactive_timeout=INACTIVE_TIMEOUT, active_timeout=ACTIVE_TIMEOUT
    )
    return exporter.export_all(scenario_packets(seed, scale, concurrent))


def netsim_inputs(seed: int, scale: int = 1) -> Inputs:
    """Scenario records plus their one-shot conversion."""
    records = scenario_records(seed, scale)
    counted = _CountingIterator(records)
    updates: List[FlowUpdate] = []
    item_of_update: List[int] = []
    for update in records_to_updates(counted):
        updates.append(update)
        item_of_update.append(counted.consumed - 1)
    produced = np.bincount(
        np.asarray(item_of_update, dtype=np.int64), minlength=len(records)
    )
    updates_before = np.zeros(len(records) + 1, dtype=np.int64)
    np.cumsum(produced, out=updates_before[1:])
    return Inputs(
        records=records,
        updates=updates,
        updates_before=updates_before,
    )


def zipf_inputs(seed: int, scale: int = 1) -> Inputs:
    """Insert-only Zipf 1.5 updates (U/d = 160), divided by ``scale``."""
    workload = ZipfWorkload(
        DOMAIN,
        distinct_pairs=ZIPF_PAIRS // scale,
        destinations=ZIPF_DESTINATIONS // scale,
        skew=ZIPF_SKEW,
        seed=seed,
    )
    updates = workload.updates()
    return Inputs(
        records=None,
        updates=updates,
        updates_before=np.arange(len(updates) + 1, dtype=np.int64),
    )


def production_monitor(
    seed: int, window: Optional[SlidingWindowSketch] = None
) -> DDoSMonitor:
    """The detector under test."""
    return DDoSMonitor(
        DOMAIN,
        CONFIG,
        seed=seed,
        r=SKETCH_R,
        s=SKETCH_S,
        backend="packed",
        window=window,
    )


def make_window(seed: int, scale: int, backend: str) -> SlidingWindowSketch:
    """The 8 x 5000-update sliding window (sub-epochs divided by scale)."""
    return SlidingWindowSketch(
        DOMAIN,
        subepoch_length=SUBEPOCH_LENGTH // scale,
        window_subepochs=WINDOW_SUBEPOCHS,
        seed=seed,
        r=SKETCH_R,
        s=SKETCH_S,
        backend=backend,
    )


@dataclass
class Engine:
    """A constructed detector and what its run has to release."""

    monitor: DDoSMonitor
    sharded: Optional[ShardedSketch] = None
    obs: Optional[Registry] = None

    def state_bytes(self) -> int:
        """Model space of every sketch the detector holds.

        Call it after the stream: on shards it syncs the combined sketch.
        """
        if self.sharded is not None:
            # The parent keeps the running combined sketch for the whole
            # run on the delta transport: detector state like the shards.
            return self.sharded.combined().space_bytes() + sum(
                self.sharded.shard(index).space_bytes()
                for index in range(self.sharded.num_shards)
            )
        total = self.monitor.sketch.space_bytes()
        if self.monitor.window is not None:
            total += self.monitor.window.space_bytes()
        return total

    def close(self) -> None:
        """Stop shard workers, if any."""
        if self.sharded is not None:
            self.sharded.close()


def build_plain(seed: int, scale: int) -> Engine:
    """The production monitor alone."""
    return Engine(production_monitor(seed))


def build_window(seed: int, scale: int) -> Engine:
    """The production monitor scoring a packed sliding window."""
    return Engine(production_monitor(seed, make_window(seed, scale, "packed")))


def build_shard2(seed: int, scale: int) -> Engine:
    """The production monitor over two process shards (delta transport).

    The monitor builds its own tracking sketch; the sharded sketch
    replaces it through the public ``sketch`` attribute, since it serves
    the same ``update_batch``/``track_topk`` calls.  The first
    ``combined()`` waits for both workers to answer, so set-up ends when
    a batch can be accepted; it also takes the first sync's full resync.
    """
    monitor = production_monitor(seed)
    obs = Registry()
    sharded = ShardedSketch(
        DOMAIN,
        shards=2,
        seed=seed,
        r=SKETCH_R,
        s=SKETCH_S,
        obs=obs,
        backend="process",
        sketch_backend="packed",
    )
    with ExitStack() as on_failure:
        on_failure.callback(sharded.close)
        if sharded.backend != "process" or sharded.transport != "delta":
            raise RuntimeError(
                "process shards with the delta transport are unavailable: "
                f"backend={sharded.backend!r} transport={sharded.transport!r}"
            )
        sharded.combined()
        on_failure.pop_all()
    monitor.sketch = sharded  # type: ignore[assignment]
    return Engine(monitor, sharded=sharded, obs=obs)


def reference_passes(inputs: Inputs, seed: int, scale: int,
                     windowed: bool) -> PassAlarms:
    """Oracle: a per-update ``backend="reference"`` monitor."""
    window = make_window(seed, scale, "reference") if windowed else None
    monitor = DDoSMonitor(
        DOMAIN,
        CONFIG,
        seed=seed,
        r=SKETCH_R,
        s=SKETCH_S,
        backend="reference",
        window=window,
    )
    return group_by_pass(monitor.observe_stream(inputs.updates))


def plain_oracle(inputs: Inputs, seed: int, scale: int) -> PassAlarms:
    """Oracle of the unwindowed workloads."""
    return reference_passes(inputs, seed, scale, windowed=False)


def window_oracle(inputs: Inputs, seed: int, scale: int) -> PassAlarms:
    """Oracle of the windowed workload."""
    return reference_passes(inputs, seed, scale, windowed=True)


def single_process_oracle(inputs: Inputs, seed: int, scale: int) -> PassAlarms:
    """Oracle of the sharded workload: one in-process packed monitor."""
    monitor = production_monitor(seed)
    return group_by_pass(monitor.observe_batch(inputs.updates))


@dataclass(frozen=True)
class Workload:
    """How one workload builds its input, detector and oracle."""

    inputs: Callable[[int, int], Inputs]
    engine: Callable[[int, int], Engine]
    oracle: Callable[[Inputs, int, int], PassAlarms]
    sharded: bool = False


WORKLOADS: Dict[str, Workload] = {
    "netsim_bulk": Workload(netsim_inputs, build_plain, plain_oracle),
    "zipf_window": Workload(zipf_inputs, build_window, window_oracle),
    "zipf_shard2": Workload(
        zipf_inputs, build_shard2, single_process_oracle, sharded=True
    ),
}


def robustness_failures(oracle: PassAlarms) -> List[str]:
    """The paper's Section 1 claim on the scenario's oracle alarms."""
    dests = {key[0] for keys in oracle.values() for key in keys}
    failures = []
    if VICTIM not in dests:
        failures.append("the SYN-flood victim raised no alarm")
    if CROWD_DEST in dests:
        failures.append("the flash-crowd destination raised an alarm")
    return failures


def concurrent_alarms(seed: int, scale: int) -> List[Alarm]:
    """The production detector's alarms on the concurrent scenario."""
    records = scenario_records(seed, scale, concurrent=True)
    updates = list(records_to_updates(iter(records)))
    return production_monitor(seed).observe_batch(updates)
