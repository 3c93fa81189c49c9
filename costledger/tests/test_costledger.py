"""Tests of the cost ledger itself, at smoke size.

Run from the root of a checkout::

    python3 -m pytest costledger/tests -q

Each workload runs through the benchmark command exactly as the timed
runs do, only shrunk (``--size smoke``).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "costledger"))

import run  # noqa: E402
WORKLOADS = ("chaos-everything", "churn-6h", "fed-trace-384", "scale-heavy")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(workload: str, trace: int, cwd: Path = ROOT,
          seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "costledger" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced smoke runs per workload."""
    return {workload: [result_of(bench(workload, 1)) for _ in range(2)]
            for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(workload):
    result = result_of(bench(workload, 0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(traced, workload):
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for result in traced[workload]:
        assert result["correct"], result
        # 3 untraced + traced + reference path (+ permuted tie-break)
        assert result["attempted"] == (6 if workload in (
            "chaos-everything", "fed-trace-384") else 5)
        assert set(result["metrics"]) == names
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]


def test_metric_names_are_well_formed():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in BENCHMARK["workloads"]]:
        assert NAME.match(name), name
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_counts_repeat_exactly(traced, workload):
    first, second = traced[workload]
    # Everything but host times and shares of them.
    counts = {name for name, metric in first["metrics"].items()
              if metric["unit"] not in ("s", "ns", "x")
              and not name.endswith(".share")}
    assert counts
    for name in sorted(counts):
        assert first["metrics"][name] == second["metrics"][name], name


def test_design_predictions(traced):
    def value(workload, name):
        return traced[workload][0]["metrics"][name]["value"]

    for workload in ("churn-6h", "fed-trace-384", "scale-heavy"):
        assert value(workload, "raft.dispatches") == 0, workload
        assert value(workload, "raft.messages_sent") == 0, workload
    assert value("chaos-everything", "raft.dispatches") > 0
    for workload in WORKLOADS:
        assert (value(workload, "federation.dispatches") > 0) == \
            (workload == "fed-trace-384"), workload
    assert value("scale-heavy", "objectstore.mount_hit_ratio") == 0
    assert value("churn-6h", "objectstore.mount_hit_ratio") > 0


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark is refused, with no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "costledger", tmp_path / "costledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("scale-heavy", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_slices_are_scaled_by_the_bursts_around_them():
    ref = run.CAL_REF_S
    calm = {"windows": [1.0, 2.0], "bursts": [ref, ref, ref]}
    slow = {"windows": [2.0, 2.0], "bursts": [2 * ref, 2 * ref, ref]}
    assert run.reference_slices_s(calm) == [1.0, 2.0]
    assert run.reference_slices_s(slow) == [1.0, 2.0 * 2 / 3]
    # Each slice counts with its median over the runs.
    third = {"windows": [3.0, 6.0], "bursts": [ref, ref, ref]}
    assert run.reference_wall_s([calm, slow, third]) == 1.0 + 2.0
    assert run.reference_setup_s(
        {"setup_s": 0.3, "pre_burst_s": 2 * ref, "bursts": [ref]}) == \
        pytest.approx(0.2)


def test_permuted_divergence_fails_unless_the_workload_is_known():
    def result(digest):
        return lambda: {"ok": True, "problems": [], "digest": digest,
                        "events": 10}

    ledger = run.Ledger()
    ledger.record("first", result("a"))
    ledger.record("permuted", result("b"), permuted=True, may_diverge=True)
    assert (ledger.failed, ledger.diverged) == (0, 1)
    ledger.record("permuted", result("b"), permuted=True)
    assert (ledger.failed, ledger.diverged) == (1, 1)
    assert run.TIEBREAK_SENSITIVE == ("chaos-everything",)
