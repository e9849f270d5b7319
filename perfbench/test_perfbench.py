"""Tiny-size passes of every workload through the benchmark's own entry points."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
YARDSTICK = run.yardstick

#: Program counts that must repeat exactly across two same-seed runs.
COUNTS = ("kernel.refs", "windowed.snapshot_refs", "checkpoint.writes", "controller.consults", "trace.segment_bytes")

#: Counts each workload must exercise, so a probe that stopped firing shows.
EXERCISED = {
    "online-seesaw": ("kernel.refs", "windowed.snapshot_refs", "controller.consults", "lanes.lane_refs"),
    "online-checkpointed": ("windowed.snapshot_refs", "controller.consults", "checkpoint.writes", "checkpoint.bytes"),
    "retraversal-mrc": ("kernel.refs", "profiling.shards_sample_ratio"),
    "memmap-stream": ("kernel.refs", "trace.segment_bytes", "lanes.lane_refs"),
}


@pytest.fixture(autouse=True)
def quick_yardstick(monkeypatch):
    """The tiny passes check outputs and counts, not host speed: a cheaper yardstick keeps them fast."""
    monkeypatch.setattr(run, "yardstick", lambda: sum(range(20_000)))


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(entries) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in entries}


def _emitted(record: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in record["metrics"].items()}


def _measure(name: str, seed: int, trace: bool, out: Path) -> dict:
    record = run.measure(name, seed, 0.0, trace, out, size="tiny")
    assert record["failed"] == 0, record["failures"]
    return record


def test_spec_matches_the_workloads_and_the_layer_table(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [cls.why for cls in workloads.WORKLOADS.values()]
    table = [{"name": m.name, "unit": m.unit, "better": m.better} for m in tracing.PER_LAYER]
    assert spec["per_layer"] == table
    assert _units(spec["end_to_end"]) == run.END_TO_END_UNITS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_pass(name, spec, tmp_path):
    untraced = _measure(name, 1, False, tmp_path)
    assert _emitted(untraced) == _units(spec["end_to_end"])
    assert all(v["value"] > 0 for v in untraced["metrics"].values())

    first = _measure(name, 3, True, tmp_path)
    again = _measure(name, 3, True, tmp_path)
    assert _emitted(first) == _units(spec["per_layer"])
    for key in COUNTS:
        assert first["metrics"][key] == again["metrics"][key], key
    for key in EXERCISED[name]:
        assert first["metrics"][key]["value"] > 0, key

    other = _measure(name, 4, True, tmp_path)
    assert other["attempted"] >= 2 + 2 * run.MIN_ITERATIONS


def test_yardstick_normalises_cpu_time():
    _, (_wall, cpu) = run.timed(YARDSTICK)
    assert cpu > 0
    assert run.normalised([(1.0, 3 * cpu, cpu)]) == [pytest.approx(3 * run.YARDSTICK_SECONDS)]


def test_probes_are_restored(tmp_path):
    def current():
        found = []
        for probe in tracing.PROBES:
            owner = tracing._resolve(probe.owner)
            for attr in probe.attrs:
                found.append(owner[attr] if isinstance(owner, dict) else owner.__dict__[attr])
        return found

    before = current()
    _measure("online-seesaw", 1, True, tmp_path)
    assert current() == before


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "online-seesaw", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(argv + ["--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
