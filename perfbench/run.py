"""dshuffle benchmark: seeded workloads, exact output gate, traced run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Every round runs in a fresh worker process (cold caches, one thread,
``DSHUFFLE_JOBS`` unset), closed-loop: one caller, each task starting when
the previous one returns.  With ``--trace 0`` rounds repeat while another
round as long as the longest so far fits in ``--seconds`` (at least one
round runs), and the end-to-end metrics
are medians over rounds (latencies pooled over rounds).  With
``--trace 1`` the run makes one untraced round, one traced round and two
profiler passes (run side by side; counts only), and prints the per-layer
metrics.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, BENCH]
# no bytecode caches: every set-up compiles the same sources, and the
# checkout is left as it was found
sys.dont_write_bytecode = True

MIN_SETUP_SAMPLES = 15
# The tail is the highest percentile with at least ten pooled latencies
# beyond it at the recorded baseline; it stays fixed per workload so that
# runs with different round counts stay comparable.
TAIL_PERCENTILE = {"verify": 70, "decompose": 50, "dims": 90}


class WorkerError(RuntimeError):
    pass


def worker_env():
    env = {k: v for k, v in os.environ.items() if k != "DSHUFFLE_JOBS"}
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH])
    # string hashing fixed, so that set and dict orders and therefore the
    # exact counts repeat from one process to the next
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Round:
    """A worker process; set-up is timed from start to its "ready" line."""

    def __init__(self, workload, seed, mode):
        self.mode = mode
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "worker.py"), workload,
             str(seed), mode],
            stdout=subprocess.PIPE, cwd=ROOT, env=worker_env(), text=True)
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - self.t0
        if ready.strip() != "ready":
            self.proc.stdout.close()
            self.proc.wait()
            raise WorkerError("%s worker did not start (exit %s)"
                              % (mode, self.proc.returncode))

    def result(self):
        rest = self.proc.stdout.read()
        self.proc.stdout.close()
        code = self.proc.wait()
        self.duration_s = time.perf_counter() - self.t0
        if code != 0:
            raise WorkerError("%s worker exited with %d" % (self.mode, code))
        return json.loads(rest.strip().splitlines()[-1]) if rest.strip() \
            else {}


def percentile(values, p):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def load_json(name):
    with open(os.path.join(BENCH, name)) as fh:
        return json.load(fh)


def environment():
    from dshuffle.rationals import QQ
    return {"backend": QQ.__module__, "python": platform.python_version(),
            "nproc": os.cpu_count()}


def check_rounds(rounds, tasks, expected):
    """Failures of every round; all rounds must give the recorded digests."""
    import workloads
    want = workloads.run_digest(
        [expected.get(workloads.task_key(t), "unrecorded") for t in tasks])
    failed = attempted = 0
    for r in rounds:
        attempted += len(r["digests"])
        failed += len(r["failures"])
        for line in r["failures"]:
            print("FAIL " + line)
    got = {workloads.run_digest(r["digests"]) for r in rounds}
    return attempted, failed, want, got


def measure(workload, seed, seconds):
    rounds, setups = [], []
    start = time.perf_counter()
    while True:
        w = Round(workload, seed, "plain")
        setups.append(w.setup_s)
        res = w.result()
        res["duration_s"] = w.duration_s
        rounds.append(res)
        longest = max(r["duration_s"] for r in rounds)
        if time.perf_counter() - start + longest > seconds:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        w = Round(workload, seed, "setup")
        setups.append(w.setup_s)
        w.result()
    lat = [x for r in rounds for x in r["latencies"]]
    tail_p = TAIL_PERCENTILE[workload]
    tail = percentile(lat, tail_p)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
        "task_p50_s": (percentile(lat, 50), "s"),
        "task_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds),
                        "MB"),
    }
    notes = ["%d rounds of %d tasks; %d set-up samples"
             % (len(rounds), len(rounds[0]["latencies"]), len(setups)),
             "task_tail_s is p%d of %d pooled task latencies (%d beyond it)"
             % (tail_p, len(lat), sum(1 for x in lat if x > tail))]
    return rounds, metrics, notes


def _ratio(num, den):
    return num / den if den else 0.0


# Functions whose calls are counted; with SELF_TIMED, those whose self time
# is reported.
COUNTED = ("ratfun.Polynomial.mul_form", "ratfun.Polynomial.__mul__",
           "ratfun.Polynomial.divide_form", "ratfun.rf_sum_a",
           "ratfun.RationalFunction.substitute_affine",
           "ratfun.RationalFunction.residue", "series.ihara_action_component",
           "dsh_check.check_shuffle", "dsh_check.check_stuffle",
           "dsh_check.check_linearized", "resflt.R", "linalg.rref")
SELF_TIMED = COUNTED + ("series.series_ihara_action", "anatomy.solve_sigma",
                        "modforms.lin_ds_nullspace", "cli.emit")
LAYERS = ("ratfun", "words", "series", "gens", "dsh_check", "resflt",
          "anatomy", "modforms", "linalg", "cli", "bench")


def per_layer(counts, self_s, layer_self, wall, plain_wall, n_spans):
    """The per-layer metrics.  Self times are reported as shares of the
    traced wall time: a layer that a workload never calls would otherwise
    read 0 s on every run.  The seconds are printed above the result."""
    c = lambda name: counts.get(name, 0)
    m = {"rationals.ops": (c("rationals.ops"), "count"),
         "rationals.new": (c("rationals.new"), "count")}
    for name in COUNTED:
        m[name + ".calls"] = (c(name), "count")
    for name in SELF_TIMED:
        m[name + ".self_share"] = (_ratio(self_s.get(name, 0.0), wall),
                                   "ratio")
    for layer in LAYERS:
        m[layer + ".self_share"] = (_ratio(layer_self.get(layer, 0.0), wall),
                                    "ratio")
    for name in ("ratfun.Polynomial.mul_form.terms_in",
                 "ratfun.rf_sum_a.terms_in", "ratfun.rf_sum_a.terms_out",
                 "words.shuffle.terms", "words.stuffle.terms", "anatomy.rows",
                 "modforms.lin_ds_nullspace.rows",
                 "modforms.lin_ds_nullspace.cols", "linalg.rref.rows",
                 "linalg.rref.cols", "linalg.rref.rank"):
        m[name] = (c(name), "count")
    m["ratfun.Polynomial.divide_form.hit_ratio"] = (_ratio(
        c("ratfun.Polynomial.divide_form.hits"),
        c("ratfun.Polynomial.divide_form")), "ratio")
    gens_cache = [v for k, v in counts.items() if k.startswith("cache.gens.")]
    m["gens.cache_hit_ratio"] = (_ratio(sum(h for h, _ in gens_cache),
                                        sum(h + x for h, x in gens_cache)),
                                 "ratio")
    h, x = counts.get("cache.anatomy.evaluate_word", [0, 0])
    m["anatomy.evaluate_word.cache_hit_ratio"] = (_ratio(h, h + x), "ratio")
    m["linalg.rref.density"] = (_ratio(c("linalg.rref.nonzeros"),
                                       c("linalg.rref.entries")), "ratio")
    m["linalg.rref.pivot_ratio"] = (_ratio(c("linalg.rref.rank"),
                                           c("linalg.rref.rows")), "ratio")
    m["trace.wall_s"] = (wall, "s")
    m["trace.accounted_ratio"] = (_ratio(sum(layer_self.values()), wall),
                                  "ratio")
    m["trace.spans"] = (n_spans, "count")
    m["trace_overhead_s"] = (wall - plain_wall, "s")
    return m


def trace(workload, seed):
    plain = Round(workload, seed, "plain").result()
    traced = Round(workload, seed, "trace").result()
    passes = [Round(workload, seed, "profile") for _ in range(2)]
    first, second = (p.result() for p in passes)
    if first["counts"] != second["counts"]:
        diff = sorted(k for k in set(first["counts"]) | set(second["counts"])
                      if first["counts"].get(k) != second["counts"].get(k))
        raise WorkerError("counts differ between two profiler passes: %s"
                          % ", ".join(diff[:10]))
    scalar_free = {k: v for k, v in first["counts"].items()
                   if not k.startswith("rationals.")}
    if scalar_free != traced["counts"]:
        raise WorkerError("counts of the traced round differ from the "
                          "profiler passes")
    metrics = per_layer(first["counts"], traced["self_s"],
                        traced["layer_self_s"], traced["wall_s"],
                        plain["wall_s"], traced["spans"])
    notes = ["traced wall %.3f s vs untraced %.3f s; %d spans in %s"
             % (traced["wall_s"], plain["wall_s"], traced["spans"],
                traced["spans_file"]),
             "per-layer self time (s): " + ", ".join(
                 "%s %.3f" % (k, v) for k, v in sorted(
                     traced["layer_self_s"].items(), key=lambda kv: -kv[1])),
             "self time (s): " + ", ".join(
                 "%s %.3f" % (k, traced["self_s"].get(k, 0.0))
                 for k in SELF_TIMED)]
    return [plain, traced, first, second], metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "dshuffle")):
        print("error: no program at %s" % SRC, file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    env = environment()
    baseline = load_json("baseline.json")
    if env["backend"] != baseline["environment"]["backend"]:
        print("error: scalar backend %s differs from the baseline's %s; "
              "figures from different backends are not comparable"
              % (env["backend"], baseline["environment"]["backend"]),
              file=sys.stderr)
        return 3
    print("env: backend=%(backend)s python=%(python)s nproc=%(nproc)s" % env)

    try:
        if args.trace:
            rounds, metrics, notes = trace(args.workload, args.seed)
        else:
            rounds, metrics, notes = measure(args.workload, args.seed,
                                             args.seconds)
    except WorkerError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    tasks = workloads.task_list(args.workload, args.seed)
    attempted, failed, want, got = check_rounds(
        rounds, tasks, load_json("expected.json")["tasks"])
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print("%-48s %14.6g %s" % (name, value, unit))
    print("failed_ratio %d/%d = %.4f" % (failed, attempted,
                                         _ratio(failed, attempted)))
    print("run digest %s (recorded %s)" % (", ".join(sorted(got)), want))
    correct = failed == 0 and got == {want}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
