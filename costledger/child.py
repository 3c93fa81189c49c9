"""Run one workload once, in this fresh process, and print one JSON line.

Usage (from the root of a checkout)::

    python3 costledger/child.py --workload churn-6h --seed 0 [--traced]
        [--tiebreak-seed N] [--size smoke]

The clock starts before ``repro`` is imported.  ``setup_s`` runs to the
first ``Environment.run``/``run_until_complete`` call (import plus
platform or cell construction); ``wall_s`` runs from there to the
checked, digested result.  An untraced run also reports ``windows``:
the host time of each consecutive slice of :data:`WINDOW_EVENTS` kernel
events, the last slice running to the checked result.  Runs of one seed
process identical event sequences, so ``run.py`` can line their slices
up.  Between every two slices, and before and after set-up, an untraced
run times a calibration burst (:mod:`calib`), which ``setup_s``,
``wall_s`` and the slices leave out; ``run.py`` scales each slice by
the bursts around it.  Peak RSS is this process's own, so no earlier run can set it.
``run.py`` is the entry point; this script is its worker.
"""

from time import perf_counter

from calib import burst

#: A calibration burst before set-up starts; with the one after set-up
#: it brackets ``setup_s``.
PRE_BURST_S = burst()
STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Kernel events per timed slice of an untraced run (a power of two).
WINDOW_EVENTS = 16384


def _import_repro():
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    where = Path(repro.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"repro imported from {where}, not from "
                         f"{ROOT / 'src'}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiebreak-seed", type=int, default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    _import_repro()
    import tracer as tr
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    tracer = tr.Tracer() if args.traced else None
    if tracer is not None:
        tracer.install_kernel()
        tracer.install_spans()
    found = tr.collect_instances(
        tr.COLLECTED + (("repro.sim.core", "Environment"),)
        if tracer is not None else
        (("repro.core.platform", "FfDLPlatform"),
         ("repro.sim.core", "Environment")))

    from repro.sim.core import Environment

    first_event = []
    set_up = []
    #: Slice ends, and the calibration bursts that follow each of them
    #: (the first follows set-up); a slice starts when its burst ends.
    marks: list = []
    resumed: list = []
    bursts: list = []

    def marked(function):
        def run(env, *a, **kw):
            if not first_event:
                set_up.append(perf_counter())
                if tracer is None:
                    bursts.append(burst())
                first_event.append(perf_counter())
                if tracer is not None:
                    tracer.reset_times()
            return function(env, *a, **kw)
        return run

    if tracer is None:
        step = Environment.step
        mask = WINDOW_EVENTS - 1
        stepped = [0]

        def windowed(env):
            step(env)
            stepped[0] += 1
            if not stepped[0] & mask:
                marks.append(perf_counter())
                bursts.append(burst())
                resumed.append(perf_counter())

        Environment.step = windowed
    Environment.run = marked(Environment.run)
    Environment.run_until_complete = marked(Environment.run_until_complete)

    platforms = found["FfDLPlatform"]
    outcome = workloads.run_workload(args.workload, args.seed,
                                     args.tiebreak_seed, args.size,
                                     platforms)
    finished = perf_counter()
    envs = found["Environment"]
    result = {
        "ok": outcome.ok,
        "problems": outcome.problems,
        "digest": outcome.digest,
        "setup_s": set_up[0] - STARTED,
        "wall_s": finished - first_event[0] - sum(
            after - before for before, after in zip(marks, resumed)),
        "sim_s": outcome.sim_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "events": sum(env.events_processed for env in envs),
        "heap_pushes": sum(env.heap_pushes for env in envs),
        # The pid counter starts at 1: its next value less one is the
        # number of processes created.
        "processes": sum(next(env._pids) - 1 for env in envs),
        "model": workloads.model_metrics(platforms),
    }
    if tracer is None:
        # Every kernel event must pass through the wrapped step; if the
        # kernel stops calling it, the slices would silently merge.
        if len(marks) != result["events"] // WINDOW_EVENTS:
            result["ok"] = False
            result["problems"] = result["problems"] + [
                f"{len(marks)} slice marks for {result['events']} kernel "
                f"events: Environment.step no longer sees every event"]
        starts = [first_event[0]] + resumed
        ends = marks + [finished]
        result["windows"] = [end - start
                             for start, end in zip(starts, ends)]
        result["bursts"] = bursts + [burst()]
        result["pre_burst_s"] = PRE_BURST_S
    else:
        result["layers"] = {
            layer: {"self_s": tracer.self_s[layer],
                    "dispatches": tracer.dispatches[layer]}
            for layer in tr.LAYERS}
        result["uncovered_s"] = result["wall_s"] - tracer.covered_s()
        result["conditions"] = sum(p.conditions for p in tracer.profilers)
        result["peak_pending"] = max(
            (p.peak_heap for p in tracer.profilers), default=0)
        result["counters"] = tr.layer_counters(tracer, found)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
