"""One round of a workload, in a fresh process with cold caches.

Usage: worker.py WORKLOAD SEED MODE, MODE one of
  setup    set up (import, generate the task list) and exit
  plain    run the task list untimed by any instrument
  trace    run it with spans around every public function
  profile  run it with the spans' counters and cProfile, for exact counts

Prints "ready" once set up, then one JSON line with the round's figures.
The caller times the set-up from process start to the "ready" line.

Before each task the worker collects garbage and, for the workloads whose
tasks stand alone, empties every program cache, so that a task's cost does
not depend on the tasks run before it.  That preparation is not timed.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import threading
import time

import workloads
from tracing import Tracer, cache_stats, clear_caches, layer_of
from dshuffle.rationals import QQ

# Scalar operators of the Fraction backend, as cProfile names them: the
# binary operators are the shared ``forward``/``reverse`` closures.
SCALAR_OPS = ("forward", "reverse", "__neg__", "__pos__", "__abs__",
              "__pow__", "__rpow__")


def _cold_start_problems():
    problems = []
    if "DSHUFFLE_JOBS" in os.environ:
        problems.append("DSHUFFLE_JOBS is set")
    if threading.active_count() != 1:
        problems.append("%d threads running" % threading.active_count())
    warm = [name for name, (_, _, size) in cache_stats().items() if size]
    if warm:
        problems.append("caches not empty: %s" % ", ".join(warm))
    return problems


def _prepare(cold, cleared):
    """Untimed preparation of the next task.  Hits and misses of the
    caches emptied here are added to ``cleared``."""
    if cold:
        for name, (hits, misses, _) in clear_caches().items():
            h, m = cleared.get(name, (0, 0))
            cleared[name] = (h + hits, m + misses)
    gc.collect()


def _run_tasks(tasks, expected, call, cold):
    """Runs the tasks; returns their latencies, digests and failures, the
    cache counts cleared between tasks, and the wall and CPU time spent
    preparing tasks."""
    latencies, digests, failures, cleared = [], [], [], {}
    prep_wall = prep_cpu = 0.0
    for i, task in enumerate(tasks):
        key = workloads.task_key(task)
        c0, t0 = time.process_time(), time.perf_counter()
        _prepare(cold, cleared)
        prep_cpu += time.process_time() - c0
        prep_wall += time.perf_counter() - t0
        t0 = time.perf_counter()
        try:
            text, passed = call(i, workloads.run_task, task)
        except Exception as exc:  # a failing task is counted, not fatal
            latencies.append(time.perf_counter() - t0)
            digests.append("raised")
            failures.append("%s raised %s: %s" % (key, type(exc).__name__, exc))
            continue
        latencies.append(time.perf_counter() - t0)
        d = workloads.digest(text)
        digests.append(d)
        if not passed:
            failures.append("%s: a check failed" % key)
        elif d != expected.get(key):
            failures.append("%s: output digest %s differs from the recorded "
                            "one" % (key, d[:12]))
    return latencies, digests, failures, cleared, prep_wall, prep_cpu


def _scalar_ops(profile):
    import pstats
    ops = new = 0
    for (filename, _, func), row in pstats.Stats(profile).stats.items():
        if not filename.endswith("fractions.py"):
            continue
        if func in SCALAR_OPS:
            ops += row[1]
        elif func == "__new__":
            new += row[1]
    return ops, new


def main(workload, seed, mode):
    tasks = workloads.task_list(workload, seed)
    with open(os.path.join(os.path.dirname(__file__), "expected.json")) as fh:
        expected = json.load(fh)["tasks"]
    problems = _cold_start_problems()
    if problems:
        print("cold start violated: " + "; ".join(problems), file=sys.stderr)
        return 3
    print("ready", flush=True)
    if mode == "setup":
        return 0

    tracer = profile = None
    if mode in ("trace", "profile"):
        tracer = Tracer()
        tracer.install([vars(workloads)])
        call = tracer.task
    else:
        def call(_, fn, task):
            return fn(task)
    if mode == "profile":
        import cProfile
        profile = cProfile.Profile(builtins=False)
        profile.enable()

    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    latencies, digests, failures, cleared, prep_wall, prep_cpu = _run_tasks(
        tasks, expected, call, workload in workloads.COLD_TASKS)
    wall = time.perf_counter() - wall0 - prep_wall
    cpu = time.process_time() - cpu0 - prep_cpu
    if profile is not None:
        profile.disable()

    out = {
        "backend": QQ.__module__,
        "tasks": [workloads.task_key(t) for t in tasks],
        "latencies": latencies,
        "digests": digests,
        "failures": failures,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        calls, total, self_s, n_spans = tracer.aggregate()
        counts = dict(calls)
        counts.update(tracer.counters)
        for name, (hits, misses, _) in cache_stats().items():
            h, m = cleared.get(name, (0, 0))
            counts["cache." + name] = [h + hits, m + misses]
        out["counts"] = counts
        out["spans"] = n_spans
        if mode == "trace":
            layers = {}
            for name, s in self_s.items():
                layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + s
            # time of the round outside every task span is benchmark time
            layers["bench"] += wall - total["bench.task"]
            out["self_s"] = dict(self_s)
            out["layer_self_s"] = layers
            out["spans_file"] = os.path.join(
                ".perfbench", "spans-%s-%d.bin" % (workload, seed))
            tracer.write(out["spans_file"])
        else:
            out["counts"]["rationals.ops"], out["counts"]["rationals.new"] = \
                _scalar_ops(profile)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
