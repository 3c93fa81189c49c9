"""The end-to-end cost ledger: what replaying the FfDL twin costs the host.

Run from the root of a checkout::

    python3 costledger/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

``--trace 0`` repeats the seeded workload in fresh child processes for
about ``--seconds`` (at least three runs) and reports the end-to-end
metrics with their sample counts, each a median over the runs:
``wall_s`` sums the median of each slice of kernel events and
``setup_s`` is the median set-up, both scaled to the reference host
speed by the calibration bursts around them (:func:`reference_wall_s`,
:func:`reference_setup_s`); ``peak_rss_mb`` is the median of the runs'
peaks.  ``--trace 1`` runs the workload three times untraced, once
traced (per-layer host time and work counts), once more traced on the
reference paths (``REPRO_PERF_DISABLE=1``) for a side-by-side
diagnostic, and — for the chaos and federation workloads — once under a
permuted heap tie-break.

Every run is checked: its hypotheses and shape asserts must pass and
its output digest must equal that of the seed's first run.  The last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the exit status is 0 only when every check
passed.  See ``costledger/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import WINDOW_EVENTS  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import PERMUTABLE, WORKLOADS  # noqa: E402

#: Fewest timed runs per invocation, whatever ``--seconds`` says.
MIN_SAMPLES = 3
#: Host seconds one calibration burst (:func:`calib.burst`) takes at
#: the reference host speed: about its time on a calm 2 GHz Xeon.
CAL_REF_S = 0.0015
#: Every invocation ends within this many host seconds.
BUDGET_S = 170.0
#: Workloads whose output can change under a permuted heap tie-break.
#: On ``chaos-everything`` same-instant raft events, reordered, can elect
#: another etcd leader (seed 10 ends with ``etcd-1`` as leader instead
#: of ``etcd-0``; the race detector reports no conflict).  The divergence
#: is printed and counted in ``driver.tiebreak_diverged``; the run's own
#: hypotheses must still pass.
TIEBREAK_SENSITIVE = ("chaos-everything",)


#: Units of the per-layer counters that are not plain counts.
COUNTER_UNITS = {
    "raft.max_term": "term",
    "mongo.repl_useful_ratio": "entries/wakeup",
    "etcd.op_wait_p50_sim_ms": "sim_ms",
    "objectstore.mount_hit_ratio": "frac",
    "kube.filter_cache_hit_ratio": "frac",
    "kube.pod_pending_p50_sim_s": "sim_s",
    "federation.dispatch_ratio": "intents/dispatch",
}


class ChildFailed(Exception):
    """A child run crashed, timed out or printed no result."""


def run_child(workload: str, seed: int, size: str, *, traced: bool = False,
              tiebreak_seed: int = 0, reference: bool = False,
              timeout_s: float = BUDGET_S) -> dict:
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--tiebreak-seed", str(tiebreak_seed), "--size", size]
    if traced:
        command.append("--traced")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_PERF_DISABLE", None)
    if reference:
        env["REPRO_PERF_DISABLE"] = "1"
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, timeout_s))
    except subprocess.TimeoutExpired as err:
        raise ChildFailed(f"timed out after {err.timeout:.0f}s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"exit {done.returncode}: {' | '.join(tail)}")
    return json.loads(lines[-1])


class Ledger:
    """Counts attempted and failed runs; checks each run against the
    seed's first: the same digest and, unless the heap tie-break was
    permuted, the same number of kernel events.  A permuted run of a
    :data:`TIEBREAK_SENSITIVE` workload whose digest differs is counted
    in :attr:`diverged` instead of failing."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.diverged = 0
        self.digest: Optional[str] = None
        self.events: Optional[int] = None

    def record(self, label: str, run, permuted: bool = False,
               may_diverge: bool = False) -> Optional[dict]:
        """Run ``run()``; returns its result, or None when it failed."""
        self.attempted += 1
        try:
            result = run()
        except ChildFailed as err:
            return self._fail(label, str(err))
        if not result["ok"]:
            return self._fail(label, "; ".join(result["problems"]))
        if self.digest is None:
            self.digest, self.events = result["digest"], result["events"]
        elif result["digest"] != self.digest:
            why = (f"digest {result['digest'][:12]} differs from "
                   f"{self.digest[:12]}")
            if not may_diverge:
                return self._fail(label, why)
            self.diverged += 1
            print(f"DIVERGED {label}: {why} (a known schedule "
                  f"sensitivity of this workload; reported as "
                  f"driver.tiebreak_diverged, not failed)")
        elif result["events"] != self.events and not permuted:
            return self._fail(label, f"{result['events']} kernel events, "
                                     f"the first run had {self.events}")
        return result

    def _fail(self, label: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {label}: {why}")
        return None


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def reference_slices_s(result: dict) -> List[float]:
    """One run's slices, each scaled to the reference host speed.

    Slice ``i`` lies between bursts ``i`` and ``i + 1``; the mean of the
    two says how fast the host was while the slice ran.  On a shared
    2-vCPU host this cut the run-to-run spread of whole runs from 12% to
    3% (see README.md).
    """
    bursts = result["bursts"]
    return [window * 2 * CAL_REF_S / (bursts[index] + bursts[index + 1])
            for index, window in enumerate(result["windows"])]


def reference_wall_s(results: List[dict]) -> float:
    """Host seconds of one run at the reference speed.

    Runs of one seed process the same kernel events in the same order,
    so slice ``i`` (events ``i*WINDOW_EVENTS`` onwards) is the same work
    in every run; each slice counts with its median over the runs.
    """
    return sum(statistics.median(times) for times in
               zip(*(reference_slices_s(r) for r in results)))


def reference_setup_s(result: dict) -> float:
    """One run's set-up at the reference speed (bursts before and after)."""
    return result["setup_s"] * 2 * CAL_REF_S / (
        result["pre_burst_s"] + result["bursts"][0])


def timed_runs(args, ledger: Ledger) -> Dict[str, dict]:
    started = time.monotonic()
    deadline = started + args.seconds
    results: List[dict] = []
    durations: List[float] = []
    while True:
        before = time.monotonic()
        remaining = started + BUDGET_S - before
        result = ledger.record(
            f"run {ledger.attempted + 1}",
            lambda: run_child(args.workload, args.seed, args.size,
                              timeout_s=remaining))
        now = time.monotonic()
        durations.append(now - before)
        if result is None:
            break
        results.append(result)
        # Start another run only if it should end by the deadline
        # give or take half a run.
        expected = statistics.mean(durations)
        if len(results) >= MIN_SAMPLES and now + expected / 2 > deadline:
            break
        if now + expected > started + BUDGET_S:
            break
    if not results:
        return {}
    wall = reference_wall_s(results)
    totals = [r["wall_s"] for r in results]
    setups = [reference_setup_s(r) for r in results]
    raw_setups = [r["setup_s"] for r in results]
    rss = [r["peak_rss_mb"] for r in results]
    metrics = {
        "wall_s": _metric(wall, "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "sim_s_per_wall_s": _metric(results[0]["sim_s"] / wall, "sim_s/s"),
        "peak_rss_mb": _metric(statistics.median(rss), "MB"),
    }
    print(f"{args.workload} seed={args.seed}: {len(results)} timed runs, "
          f"{results[0]['events']} events, "
          f"digest {results[0]['digest'][:16]}")
    bursts = [b for r in results for b in r["bursts"]]
    print(f"  {'wall_s':<18} {wall:10.4f} s   median of {len(results)} "
          f"runs per {WINDOW_EVENTS}-event slice at the reference "
          f"speed, summed (raw whole runs: median "
          f"{statistics.median(totals):.4f}, min {min(totals):.4f}, "
          f"max {max(totals):.4f})")
    print(f"  {'setup_s':<18} {statistics.median(setups):10.4f} s   "
          f"median of {len(setups)} at the reference speed (raw: median "
          f"{statistics.median(raw_setups):.4f}, min "
          f"{min(raw_setups):.4f}, max {max(raw_setups):.4f})")
    print(f"  {'calibration':<18} {1e3 * statistics.median(bursts):10.4f}"
          f" ms  median of {len(bursts)} bursts (min "
          f"{1e3 * min(bursts):.4f}, max {1e3 * max(bursts):.4f}; "
          f"reference {1e3 * CAL_REF_S:.4f})")
    print(f"  {'peak_rss_mb':<18} {statistics.median(rss):10.4f} MB  "
          f"median of {len(rss)} (min {min(rss):.4f}, max "
          f"{max(rss):.4f})")
    print(f"  {'sim_s_per_wall_s':<18} "
          f"{metrics['sim_s_per_wall_s']['value']:10.4f} sim_s/s")
    for name, value in results[0]["model"].items():
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"  {name:<24} {shown:>10} model output, deterministic "
              f"per seed")
    return metrics


def _layer_rows(traced: dict) -> Dict[str, dict]:
    wall = traced["wall_s"]
    return {layer: {"dispatches": traced["layers"][layer]["dispatches"],
                    "self_s": traced["layers"][layer]["self_s"],
                    "share": traced["layers"][layer]["self_s"] / wall}
            for layer in LAYERS}


def traced_run(args, ledger: Ledger) -> Dict[str, dict]:
    started = time.monotonic()

    def left() -> float:
        return started + BUDGET_S - time.monotonic()

    plains = [ledger.record(f"untraced run {index + 1}", lambda: run_child(
        args.workload, args.seed, args.size, timeout_s=left()))
        for index in range(MIN_SAMPLES)]
    traced = ledger.record("traced run", lambda: run_child(
        args.workload, args.seed, args.size, traced=True, timeout_s=left()))
    if args.workload in PERMUTABLE:
        ledger.record("permuted tie-break run", lambda: run_child(
            args.workload, args.seed, args.size, tiebreak_seed=1,
            timeout_s=left()), permuted=True,
            may_diverge=args.workload in TIEBREAK_SENSITIVE)
    reference = ledger.record("reference-path traced run", lambda: run_child(
        args.workload, args.seed, args.size, traced=True, reference=True,
        timeout_s=left()))
    plains = [plain for plain in plains if plain is not None]
    if not plains or traced is None:
        return {}
    untraced_wall = statistics.median(plain["wall_s"] for plain in plains)
    plain = plains[0]
    wall = reference_wall_s(plains)

    rows = _layer_rows(traced)
    ref_rows = _layer_rows(reference) if reference else None
    overhead = traced["wall_s"] / untraced_wall
    print(f"{args.workload} seed={args.seed}: untraced wall "
          f"{untraced_wall:.3f}s (median of {len(plains)}), traced wall "
          f"{traced['wall_s']:.3f}s "
          f"(tracing overhead x{overhead:.2f}); reference path "
          + (f"traced wall {reference['wall_s']:.3f}s"
             if reference else "failed"))
    print(f"  {'layer':<12} {'dispatches':>10} {'self_s':>9} {'share':>7}"
          + ("   | reference: dispatches  self_s   share"
             if ref_rows else ""))
    for layer in LAYERS:
        row = rows[layer]
        line = (f"  {layer:<12} {row['dispatches']:>10} "
                f"{row['self_s']:>9.3f} {row['share']:>7.1%}")
        if ref_rows:
            ref = ref_rows[layer]
            line += (f"   | {ref['dispatches']:>21} {ref['self_s']:>7.3f}"
                     f" {ref['share']:>7.1%}")
        print(line)
    uncovered = traced["uncovered_s"]
    print(f"  {'uncovered':<12} {'':>10} {uncovered:>9.3f} "
          f"{uncovered / traced['wall_s']:>7.1%}  (host time no span "
          f"covers: the run loop and the tracer's own bookkeeping)")

    metrics: Dict[str, dict] = {}
    for layer in LAYERS:
        row = rows[layer]
        metrics[f"{layer}.dispatches"] = _metric(row["dispatches"], "count")
        metrics[f"{layer}.self_s"] = _metric(row["self_s"], "s")
        metrics[f"{layer}.share"] = _metric(row["share"], "frac")
    metrics["sim.events"] = _metric(traced["events"], "count")
    metrics["sim.heap_pushes"] = _metric(traced["heap_pushes"], "count")
    metrics["sim.processes"] = _metric(traced["processes"], "count")
    metrics["sim.conditions"] = _metric(traced["conditions"], "count")
    metrics["sim.peak_pending"] = _metric(traced["peak_pending"], "count")
    metrics["sim.ns_per_event"] = _metric(
        1e9 * wall / plain["events"], "ns")
    for name, value in traced["counters"].items():
        metrics[name] = _metric(value, COUNTER_UNITS.get(name, "count"))
    for name, value in plain["model"].items():
        unit = "frac" if name.endswith("_frac") else "sim_s"
        metrics[f"model.{name}"] = _metric(value or 0.0, unit)
    metrics["driver.tiebreak_diverged"] = _metric(ledger.diverged, "count")
    metrics["trace.wall_s"] = _metric(traced["wall_s"], "s")
    metrics["trace.uncovered_s"] = _metric(uncovered, "s")
    metrics["trace.overhead_ratio"] = _metric(overhead, "x")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="costledger/run.py",
        description="Host-time cost of replaying the FfDL twin.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke shrinks each workload for the "
                             "benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    ledger = Ledger()
    metrics = traced_run(args, ledger) if args.trace \
        else timed_runs(args, ledger)
    correct = ledger.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
