"""Self-tests of the records-to-alarms benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

The smoke tests run every workload once at the tiny size, exactly as
``BENCHMARK.json`` invokes it; the rest pin the load-generation pitfalls
the benchmark's inputs are built to avoid and the detector's known
flash-crowd defect on the concurrent scenario.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.netsim import (  # noqa: E402
    FlashCrowd,
    RecordExporter,
    records_to_updates,
)

from e2e_inputs import (  # noqa: E402
    ACTIVE_TIMEOUT,
    BATCH_ITEMS,
    CROWD_DEST,
    INACTIVE_TIMEOUT,
    concurrent_alarms,
    netsim_inputs,
    scenario_packets,
)
from e2e_speed import REFERENCE_NS, scale_factors  # noqa: E402
from e2e_trace import SpanStats  # noqa: E402

MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in MANIFEST["workloads"]]
TINY = 20


def _units(kind: str) -> Dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in MANIFEST[kind]}


def _run(workload: str, trace: int, cwd: Path = REPO) -> subprocess.CompletedProcess:
    command = [sys.executable] + MANIFEST["command"][1:] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_emits_every_metric_and_matches_the_oracle(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert "fail_ratio=0\n" in done.stdout
    expected = _units("per_layer" if trace else "end_to_end")
    emitted = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert emitted == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    metrics = {name: metric["value"]
               for name, metric in result["metrics"].items()}
    if trace:
        assert metrics["trace.coverage"] >= 0.95
    else:
        assert all(value > 0 for value in metrics.values()), metrics


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    for path in MANIFEST["paths"]:
        shutil.copytree(REPO / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(WORKLOAD_NAMES[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _deletions(updates) -> int:
    return sum(1 for update in updates if update.delta < 0)


def test_one_converter_per_stream_keeps_split_flow_deletions():
    inputs = netsim_inputs(seed=4, scale=TINY)
    records = inputs.records
    per_batch: List = []
    for start in range(0, len(records), BATCH_ITEMS):
        per_batch.extend(
            records_to_updates(records[start:start + BATCH_ITEMS])
        )
    # A converter per batch forgets the half-open flows of earlier
    # batches, so completions that straddle a boundary emit nothing.
    assert _deletions(per_batch) < _deletions(inputs.updates)

    converter = inputs.converter()
    batched: List = []
    for start in range(0, inputs.num_items, BATCH_ITEMS):
        stop = min(start + BATCH_ITEMS, inputs.num_items)
        batched.extend(inputs.take(
            converter,
            int(inputs.updates_before[start]),
            int(inputs.updates_before[stop]),
        ))
    assert batched == inputs.updates


def test_default_exporter_timeouts_hide_the_flash_crowd():
    packets = FlashCrowd(CROWD_DEST, crowd_size=200, seed=1).packets()
    default = list(records_to_updates(RecordExporter().export_all(packets)))
    # Each handshake fits one self-contained record: nothing reaches the
    # monitor, so the crowd would never exercise deletions.
    assert default == []
    short = list(records_to_updates(
        RecordExporter(INACTIVE_TIMEOUT, ACTIVE_TIMEOUT).export_all(packets)
    ))
    assert len(short) == 400 and _deletions(short) == 200


def test_short_timeouts_keep_the_exporter_cache_small():
    packets = scenario_packets(seed=4, scale=TINY)

    def peak_cache(inactive: float) -> int:
        exporter = RecordExporter(inactive, max(inactive, ACTIVE_TIMEOUT))
        peak = 0
        for packet in packets:
            exporter.observe(packet)
            peak = max(peak, exporter.cached_flows)
        return peak

    # The exporter scans its whole cache on every packet, so generation
    # cost grows with the cache: 1 s timeouts made full-size input take
    # tens of seconds.
    assert peak_cache(INACTIVE_TIMEOUT) * 5 < peak_cache(1.0)


def test_scale_factors_cancel_host_speed_per_group():
    slow = 2 * REFERENCE_NS
    # One stretched slice does not move its group's median; a slow
    # group halves its own timings only; a 1-slice tail joins its group.
    slices = [REFERENCE_NS] * 3 + [50 * REFERENCE_NS] + [slow] * 4 + [slow]
    factors = scale_factors(slices, group=4)
    assert list(factors) == [1.0] * 4 + [0.5] * 5


def test_span_stats_attribute_self_time_by_path():
    spans = [
        {"name": "sketch.scatter", "id": 3, "parent": 2, "dur_ns": 30},
        {"name": "tracking.update_batch", "id": 2, "parent": 6, "dur_ns": 50},
        {"name": "sketch.scatter", "id": 5, "parent": 4, "dur_ns": 7},
        {"name": "window.observe_batch", "id": 4, "parent": 6, "dur_ns": 40},
        {"name": "monitor.observe_batch", "id": 6, "parent": 1, "dur_ns": 95},
        {"name": "bench.batch", "id": 1, "parent": 0, "dur_ns": 100},
    ]
    stats = SpanStats()
    stats.absorb(spans)
    assert stats.total_us("sketch.scatter", "tracking.update_batch") == 0.03
    assert stats.total_us("sketch.scatter") == pytest.approx(0.037)
    assert stats.self_us("tracking.update_batch") == pytest.approx(0.02)
    assert stats.calls("sketch.scatter", "window.observe_batch") == 1
    # The root's own 5 ns are not counted against the layers.
    assert stats.coverage() == pytest.approx(90 / 95)


@pytest.mark.xfail(strict=True, reason=(
    "known defect: with flood and crowd concurrent, one sampled crowd "
    "source at the victim's sample level scores 128, above the alarm "
    "floor of 100"
))
def test_concurrent_scenario_keeps_the_flash_crowd_silent():
    # The paper's Section 1 claim on its own scenario at full size.  The
    # benchmark reports this as a known defect on every netsim run; once
    # the detector is fixed this test passes, fails as strict, and the
    # report should become a failed check.
    alarms = concurrent_alarms(seed=1, scale=1)
    assert CROWD_DEST not in {alarm.dest for alarm in alarms}
