"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

from layers import SpanStreamError, self_times  # noqa: E402
from reference import REFERENCE_S, scaled  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT,
              bench: Path = BENCH) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--size", "tiny",
         "--seconds", "0.2", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def copy_of_bench(tmp_path: Path) -> Path:
    """A copy of the benchmark's directory, free to be damaged."""
    copy = tmp_path / "perfbench"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs() -> dict:
    return {
        (workload, trace): result_of(run_bench(
            "--workload", workload, "--trace", str(trace)))
        for workload in WORKLOADS for trace in (0, 1)
    }


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(runs, trace, section):
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload in WORKLOADS:
        info, result = runs[(workload, trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], (workload, info["failures"])
        assert result["attempted"] >= 1 and result["failed"] == 0
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == wanted, workload
        for name, metric in result["metrics"].items():
            assert set(metric) == {"value", "unit"}
            assert math.isfinite(metric["value"]), (workload, name)


def test_end_to_end_metrics_are_never_zero(runs):
    for workload in WORKLOADS:
        _, result = runs[(workload, 0)]
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_self_times_plus_uncovered_add_up_to_traced_wall(runs):
    layers = [m["name"] for m in SPEC["per_layer"] if m["name"].endswith(".self_s")]
    for workload in WORKLOADS:
        metrics = runs[(workload, 1)][1]["metrics"]
        total = sum(metrics[name]["value"] for name in layers)
        total += metrics["uncovered_s"]["value"]
        assert total == pytest.approx(metrics["traced.wall_s"]["value"], rel=1e-9)
        assert metrics["uncovered_s"]["value"] >= 0, workload


def test_each_workload_exercises_its_layers(runs):
    record = runs[("record-loop3", 1)][1]["metrics"]
    assert record["exec.events"]["value"] > 0
    assert record["trace.v3.write_s"]["value"] > 0
    analyze = runs[("analyze-loop3", 1)][1]["metrics"]
    for name in ("trace.query_s", "trace.slice_s", "trace.stream_s",
                 "analysis.eventbased_s", "analysis.timebased_s"):
        assert analyze[name]["value"] > 0, name
    assert analyze["exec.events"]["value"] == 0
    cold = runs[("report-cold", 1)][1]["metrics"]
    calls = cold["runtime.sim_calls"]["value"]
    unique = cold["runtime.unique_specs"]["value"]
    assert 0 < unique <= calls
    assert cold["runtime.useful_ratio"]["value"] == pytest.approx(unique / calls)
    warm = runs[("report-warm", 1)][1]["metrics"]
    assert warm["runtime.sim_calls"]["value"] == 0
    assert warm["runtime.cache.hits"]["value"] == unique


def test_environment_and_fingerprints_are_recorded(runs):
    info, _ = runs[("record-loop3", 0)]
    assert info["backend"] == "native"
    assert info["environment"]["env"]["n_cpus"] >= 1
    assert info["repro_env"]["REPRO_TRACE_FORMAT"] == "v3"
    assert info["repro_env"]["REPRO_JOBS"] == "1"
    assert "REPRO_OBS" not in info["repro_env"]
    assert info["fingerprints"]["record-loop3"]["full"]["events"] > 0


def test_corrupted_stored_fingerprint_fails_the_output_check(tmp_path):
    bench = copy_of_bench(tmp_path)
    stored = json.loads((bench / "fingerprints.json").read_text())
    stored["tiny"]["record-loop3"]["full"]["digest"] = "0" * 16
    (bench / "fingerprints.json").write_text(json.dumps(stored))
    info, result = result_of(run_bench("--workload", "record-loop3", bench=bench))
    assert result["correct"] is False
    assert result["failed"] == 1
    assert any("fingerprint" in f for f in info["failures"])


def test_other_seeds_skip_the_stored_fingerprints(tmp_path):
    bench = copy_of_bench(tmp_path)
    (bench / "fingerprints.json").write_text("{}")
    _, result = result_of(run_bench(
        "--workload", "record-loop3", "--seed", "7", bench=bench))
    assert result["correct"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = copy_of_bench(tmp_path)
    proc = run_bench("--workload", "report-warm", cwd=tmp_path, bench=bench)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_times_subtract_children_and_keep_unknown_prefixes():
    events = [
        ("B", "cli.main", 0), ("B", "exec.run", 10), ("B", "sim.step", 12),
        ("E", "sim.step", 15), ("E", "exec.run", 40), ("B", "mystery", 50),
        ("E", "mystery", 55), ("E", "cli.main", 100), ("B", "trace.v3.read", 120),
        ("E", "trace.v3.read", 130),
    ]
    layers, covered = self_times(events)
    assert covered == pytest.approx(110e-9)
    assert layers["cli"] == pytest.approx(65e-9)
    assert layers["exec"] == pytest.approx(30e-9)
    assert layers["other"] == pytest.approx(5e-9)
    assert layers["trace"] == pytest.approx(10e-9)
    assert sum(layers.values()) == pytest.approx(covered)


@pytest.mark.parametrize("events", [
    [("B", "a.x", 0)],
    [("B", "a.x", 0), ("E", "a.y", 1)],
    [("E", "a.x", 1)],
])
def test_self_times_reject_unbalanced_streams(events):
    with pytest.raises(SpanStreamError):
        self_times(events)


def test_scaled_timings_follow_the_reference_around_each_operation():
    host = [1.0, 2.0]
    assert scaled(host, [REFERENCE_S] * 3) == pytest.approx(host)
    # A host twice as slow, as seen by the reference, halves the timing.
    refs = [REFERENCE_S, 2 * REFERENCE_S, 3 * REFERENCE_S]
    assert scaled(host, refs) == pytest.approx([1.0 / 1.5, 2.0 / 2.5])
    with pytest.raises(ValueError):
        scaled(host, [REFERENCE_S] * 2)


def test_timings_are_reported_scaled_and_raw(runs):
    info, result = runs[("report-warm", 0)]
    samples = info["samples"]
    assert len(samples["reference_s"]) == len(samples["host_wall_s"]) + 1
    assert samples["wall_s"] == pytest.approx(
        scaled(samples["host_wall_s"], samples["reference_s"]))
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(
        statistics.median(samples["wall_s"]))
