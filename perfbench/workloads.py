"""Task pools of the benchmark workloads and the code that runs one task.

A task is a plain tuple of parameters; it runs through the same public
functions the ``dshuffle`` subcommands call and returns its canonical exact
output as text (``cli.emit`` JSON), whose SHA-256 is checked against
``expected.json``.

Each workload has a fixed multiset of task shapes.  The seed draws the
rational coefficients of the inputs (from finite pools, so every possible
task has a recorded digest) and the order in which the tasks run; it does
not change which shapes run.  Shapes, not coefficients, set the cost of a
task, so every seed does the same amount of work and runs of different
seeds can be compared.  ``decompose`` has no free input and a fixed
order: its tasks share generator caches, so any other order would change
which task pays for building a shared generator, and with it the per-task
latencies.  The tasks of ``verify`` and ``dims`` stand alone: each starts
with empty program caches, as one CLI invocation does, so that its cost
does not depend on the seeded order.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from dshuffle import anatomy, dsh_check, gens, modforms
from dshuffle.cli import emit
from dshuffle.rationals import QQ, rat_str

# Coefficient pools.  Small heights on purpose: the cost of a task must
# not depend on which member the seed draws.
PAIRS = ((Fraction(1, 2), Fraction(-2, 3)), (Fraction(-3, 2), Fraction(1, 3)),
         (Fraction(2), Fraction(-3, 4)), (Fraction(-2, 3), Fraction(5, 2)),
         (Fraction(3, 4), Fraction(-1)), (Fraction(-5, 3), Fraction(1, 2)))
SCALARS = (Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 2), Fraction(5, 4),
           Fraction(-2), Fraction(3))

COMBO_WEIGHTS = (3, 5, 7, 9)
SCALED = ("psi-1", "psi0")
# Depth-5 families of the scaled generators.  The (2,3) shuffle is left
# out: at 5-40 s per check it would not fit a round of the run budget.
# The (2,3) stuffle of psi0 makes the task count odd and sits in the
# middle of the latencies, so that the median latency is one task's and
# not the midpoint of the gap between two tasks of different cost.
FAMILIES5 = (("psi-1", "shuffle", 1, 4), ("psi-1", "stuffle", 1, 4),
             ("psi0", "shuffle", 1, 4), ("psi0", "stuffle", 1, 4),
             ("psi0", "stuffle", 2, 3))

SIGMA_WEIGHTS = (5, 7, 9)
BASES = ("psi", "chi")

# Both parities at every depth, so that some kernels are nonzero.
DIMS_TASKS = (
    tuple(("ls", 2, w, False) for w in range(14, 22))
    + tuple(("ls", 2, w, True) for w in range(14, 18))
    + tuple(("ls", 3, w, False) for w in range(10, 14))
    + tuple(("ls", 3, w, True) for w in range(5, 9))
    + tuple(("ls", 4, w, False) for w in range(6, 10))
)


def _q(c):
    return QQ(c.numerator, c.denominator)


def _shapes(workload):
    if workload == "verify":
        return ([("combo", w) for w in COMBO_WEIGHTS]
                + [("scaled", g) for g in SCALED]
                + [("family5",) + fam for fam in FAMILIES5])
    if workload == "decompose":
        return ([("sigma", w, b) for w in SIGMA_WEIGHTS for b in BASES]
                + [("chi_q4", 5)])
    if workload == "dims":
        return list(DIMS_TASKS)
    raise ValueError("unknown workload %r" % workload)


WORKLOADS = ("verify", "decompose", "dims")
# Workloads whose tasks each start with empty program caches.
COLD_TASKS = ("verify", "dims")


def _with_coefficients(shape, rng):
    if shape[0] == "combo":
        a, b = rng.choice(PAIRS)
        return shape + (str(a), str(b))
    if shape[0] in ("scaled", "family5"):
        return shape + (str(rng.choice(SCALARS)),)
    return shape


def task_list(workload, seed):
    """The seeded task list: every shape once, with seeded coefficients,
    in seeded order (fixed order for decompose)."""
    rng = random.Random("%s:%d" % (workload, seed))
    tasks = [_with_coefficients(s, rng) for s in _shapes(workload)]
    if workload != "decompose":
        rng.shuffle(tasks)
    return tasks


def task_pool(workload):
    """Every task any seed can draw."""
    pool = []
    for shape in _shapes(workload):
        if shape[0] == "combo":
            pool.extend(shape + (str(a), str(b)) for a, b in PAIRS)
        elif shape[0] in ("scaled", "family5"):
            pool.extend(shape + (str(c),) for c in SCALARS)
        else:
            pool.append(shape)
    return pool


def task_key(task):
    return ":".join(str(p) for p in task)


def _reports_output(reports):
    reports = sorted(reports, key=lambda r: (r.indices, r.family))
    return emit([r.to_json_dict() for r in reports], "json") + "\n" + \
        dsh_check.summary_line(reports)


def run_task(task):
    """Run one task; returns (canonical output text, passed)."""
    kind = task[0]
    if kind == "combo":
        w, a, b = task[1], Fraction(task[2]), Fraction(task[3])
        series = gens.generator("psi%d" % w, 4).scale(_q(a)) + \
            gens.generator("chi%d" % w, 4).scale(_q(b))
        reports = dsh_check.is_in_pdmr(series, 4)
        return (emit(series, "json") + "\n" + _reports_output(reports),
                dsh_check.all_pass(reports))
    if kind == "scaled":
        series = gens.generator(task[1], 4).scale(_q(Fraction(task[2])))
        reports = dsh_check.is_in_pdmr(series, 4)
        return (emit(series, "json") + "\n" + _reports_output(reports),
                dsh_check.all_pass(reports))
    if kind == "family5":
        _, name, family, p, q, c = task
        series = gens.generator(name, p + q).scale(_q(Fraction(c)))
        if family == "shuffle":
            report = dsh_check.check_shuffle(series.component(p + q), p, q)
        else:
            report = dsh_check.check_stuffle(series, p, q)
        return _reports_output([report]), report.passed
    if kind == "sigma":
        expr = anatomy.solve_sigma(task[1], 4, basis=task[2])
        return emit(expr, "json"), True
    if kind == "chi_q4":
        expr, q4 = anatomy.chi_q4_decomposition(task[1])
        return emit({"expr": expr.to_json_dict(), "q4": rat_str(q4)},
                    "json"), True
    if kind == "ls":
        _, depth, w, poles = task
        dim = modforms.ls_dimension(depth, w, allow_poles=poles)
        return emit({"depth": depth, "weight": w, "allow_poles": poles,
                     "dim": dim}, "json"), True
    raise ValueError("unknown task %r" % (task,))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_digest(task_digests):
    """Digest of a whole run: its tasks' digests in run order."""
    return digest("\n".join(task_digests))
