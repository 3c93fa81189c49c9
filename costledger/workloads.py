"""The four seeded workloads of the cost ledger.

Each workload drives one public entry point of ``repro`` and returns an
:class:`Outcome`: whether the run's own correctness checks passed and a
digest of its observable output.  The seed is the only input; the
program receives the scenario, study or scale-test configuration
generated from it.

``size="smoke"`` shrinks every workload to a second or two of host time
for the benchmark's own tests; the timed runs always use ``"full"``.

This module is imported by :mod:`costledger.child` *after* ``repro``'s
classes have been instrumented, so it imports ``repro`` lazily inside
each runner.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
from typing import Dict, List, Optional

WORKLOADS = ("chaos-everything", "churn-6h", "fed-trace-384", "scale-heavy")

#: Workloads whose schedule is re-run under a permuted heap tie-break.
PERMUTABLE = ("chaos-everything", "fed-trace-384")


@dataclasses.dataclass
class Outcome:
    """What one workload run produced."""

    ok: bool
    problems: List[str]
    digest: str
    #: Simulated seconds replayed (the latest clock of the run).
    sim_s: float = 0.0


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- chaos-everything and fed-trace-384 --------------------------------------


def _run_engine(engine_cls, scenario, seed: int, tiebreak_seed: int,
                **kwargs) -> Outcome:
    """Run a chaos or federation engine; digest its audit and end state."""
    engine = engine_cls(scenario, seed=seed, tiebreak_seed=tiebreak_seed,
                        **kwargs)
    report = engine.run()
    problems = [f"hypothesis {h.name} [{h.phase}] failed: {h.detail}"
                for h in report.hypotheses if not h.ok]
    if not report.hypotheses:
        problems.append("no hypotheses were checked")
    return Outcome(ok=not problems, problems=problems,
                   digest=_digest({"audit": report.audit_lines,
                                   "end_state": report.end_state()}),
                   sim_s=engine.env.now)


def run_chaos_everything(seed: int, tiebreak_seed: int,
                         size: str) -> Outcome:
    from repro.chaos.engine import ChaosEngine
    from repro.chaos.registry import get_registered_scenario

    _kind, scenario, compiled = \
        get_registered_scenario("everything-at-once").resolve()
    if size == "smoke":
        scenario = dataclasses.replace(scenario, horizon_s=620.0,
                                       settle_s=120.0, jobs=3)
    node_groups = (compiled.node_groups or None) if compiled else None
    return _run_engine(ChaosEngine, scenario, seed, tiebreak_seed,
                       node_groups=node_groups)


def run_fed_trace(seed: int, tiebreak_seed: int, size: str) -> Outcome:
    from repro.chaos.federation import FederationChaosEngine
    from repro.chaos.registry import get_registered_scenario

    _kind, scenario, _compiled = \
        get_registered_scenario("federation-trace-3k").resolve()
    if size == "smoke":
        scenario = dataclasses.replace(scenario, jobs=24,
                                       arrival_window_s=300.0)
    else:
        scenario = dataclasses.replace(scenario, jobs=384,
                                       arrival_window_s=1800.0)
    return _run_engine(FederationChaosEngine, scenario, seed,
                       tiebreak_seed)


# -- churn-6h ----------------------------------------------------------------


def run_churn(seed: int, size: str, platforms: List) -> Outcome:
    from repro.core import statuses as st
    from repro.workloads.failures import (
        FailureStudyConfig,
        run_failure_study,
    )

    days = 0.02 if size == "smoke" else 0.25
    result = run_failure_study(FailureStudyConfig(
        days=days, node_crash_mtbf_days=2.0, seed=seed))
    platform = platforms[-1]
    problems = []
    if result.jobs_submitted < 1 or result.jobs_completed < 1:
        problems.append(f"no churn: submitted={result.jobs_submitted} "
                        f"completed={result.jobs_completed}")
    if result.node_crashes != len(result.fault_events):
        problems.append(f"crash count {result.node_crashes} != audit "
                        f"log {len(result.fault_events)}")
    if result.jobs_submitted != len(platform.jobs):
        problems.append(f"{result.jobs_submitted} submissions acknowledged"
                        f" but the platform holds {len(platform.jobs)} "
                        f"jobs")
    causes = {cause for _t, _n, _type, cause in result.deletions}
    if "node-failure" in causes and not result.node_crashes:
        problems.append("node-failure deletions without a node crash")
    over = [name for name, alloc in
            sorted(platform.cluster.allocations.items())
            if alloc.allocated_gpus > alloc.capacity.gpus]
    if over:
        problems.append(f"over-allocated nodes: {over}")
    completed = sum(1 for job in platform.jobs.values()
                    if job.status.current == st.COMPLETED)
    if completed != result.jobs_completed:
        problems.append("completed-job count disagrees with the platform")
    return Outcome(ok=not problems, problems=problems, digest=_digest({
        "failed_scheduling": result.failed_scheduling,
        "deletions": result.deletions,
        "job_states": {job_id: job.status.current
                       for job_id, job in sorted(platform.jobs.items())},
        "counts": [result.jobs_submitted, result.jobs_completed,
                   result.jobs_cancelled, result.node_crashes,
                   result.learner_pods_created],
    }), sim_s=platform.env.now)


# -- scale-heavy -------------------------------------------------------------


def run_scale_heavy(seed: int, size: str, platforms: List) -> Outcome:
    from repro.workloads.scaletest import (
        BATCHES,
        ScaleTestConfig,
        run_scale_test,
    )

    config = ScaleTestConfig(scale=0.03 if size == "smoke" else 0.1)
    result = run_scale_test("heavy", config, seed=seed)
    platform = platforms[-1]
    problems = []
    expected = sum(config.scaled(b.jobs_heavy) for b in BATCHES)
    if result.total_jobs != expected:
        problems.append(f"{result.total_jobs} jobs run, {expected} "
                        f"expected")
    if result.failed_jobs:
        problems.append(f"{result.failed_jobs} jobs did not complete")
    if platform.mount_cache is not None:
        problems.append("the mount cache is on; the workload needs "
                        "mount_cache_bytes=0")
    for batch in result.batches.values():
        if batch.completed != batch.jobs or \
                any(r <= 0 for r in batch.runtimes):
            problems.append(f"batch {batch.name} runtimes malformed")
    return Outcome(ok=not problems, problems=problems, digest=_digest({
        "runtimes": {name: batch.runtimes
                     for name, batch in sorted(result.batches.items())},
        "makespan_s": result.makespan_s,
    }), sim_s=platform.env.now)


def run_workload(name: str, seed: int, tiebreak_seed: int, size: str,
                 platforms: List) -> Outcome:
    """Run ``name`` once; ``platforms`` lists every FfDLPlatform built."""
    if name == "chaos-everything":
        return run_chaos_everything(seed, tiebreak_seed, size)
    if name == "fed-trace-384":
        return run_fed_trace(seed, tiebreak_seed, size)
    if name == "churn-6h":
        return run_churn(seed, size, platforms)
    return run_scale_heavy(seed, size, platforms)


# -- model outputs -----------------------------------------------------------


def _p50(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def model_metrics(platforms: List) -> Dict[str, Optional[float]]:
    """Per-seed deterministic outputs of the modelled platform.

    Wait is submission to the first status at or past DOWNLOADING (the
    controller may coalesce DOWNLOADING away); turnaround is submission
    to completion of a COMPLETED job.  Across a federation every cell's
    jobs count, so a migrated intent contributes one job per cell.
    """
    from repro.core import statuses as st

    started_states = (st.DOWNLOADING, st.PROCESSING, st.STORING,
                      st.COMPLETED)
    waits, turnarounds = [], []
    total = completed = 0
    for platform in platforms:
        for job in platform.jobs.values():
            total += 1
            start = next((r.time for r in job.status.records
                          if r.status in started_states), None)
            if start is not None:
                waits.append(start - job.submitted_at)
            if job.status.current == st.COMPLETED and \
                    job.finished_at is not None:
                completed += 1
                turnarounds.append(job.finished_at - job.submitted_at)
    return {
        "job_wait_p50_sim_s": _p50(waits),
        "job_turnaround_p50_sim_s": _p50(turnarounds),
        "jobs_completed_frac": completed / total if total else None,
    }
