"""Spans and size counters around the public functions of each module.

The benchmark installs these wrappers from its own files; the program is
not changed.  Every public function of a ``dshuffle`` module is wrapped in
every module namespace that holds it (``from .ratfun import rf_sum_a``
binds the name again in the importing module), and public methods plus the
arithmetic operators of its classes are wrapped on the class.  Scalars
(``rationals``) are not wrapped: their operators run inline in the callers
and cost too little per call to wrap; their count comes from the
profiler pass instead.

A span is (name, start, end, parent, task); the spans stay in memory until
the round ends.  A name's self time is the duration of its spans minus the
part covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from collections import defaultdict

ARITHMETIC = ("__add__", "__sub__", "__mul__", "__neg__")
UNWRAPPED_MODULES = ("dshuffle", "dshuffle.rationals")
ROOT = -1


def program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name.startswith("dshuffle.") and name not in UNWRAPPED_MODULES]


def layer_of(name):
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_task = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [ROOT]
        self.task_id = -1
        self.counters = defaultdict(int)
        self.active = defaultdict(int)

    def _id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span of the given name."""
        nid = self._id(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_task.append(self.task_id)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[idx] = time.perf_counter()
            self.stack.pop()

    def task(self, task_id, fn, *args):
        self.task_id = task_id
        return self.span("bench.task", fn, *args)

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        span = self.span
        if hook is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return hook(self, name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, extra_namespaces=()):
        """Wrap every public function and method of the program modules."""
        modules = program_modules()
        replaced = {}
        for module in modules:
            short = module.__name__.split(".", 1)[1]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    self._install_class(short, value)
                elif callable(value) and \
                        getattr(value, "__module__", None) == module.__name__:
                    replaced[id(value)] = (value, self.wrap(
                        "%s.%s" % (short, attr), value))
        namespaces = [vars(m) for m in modules] + list(extra_namespaces)
        for ns in namespaces:
            for attr, value in list(ns.items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    ns[attr] = hit[1]

    def _install_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            name = "%s.%s.%s" % (short, cls.__name__, attr)
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))

    def aggregate(self):
        """Per-name calls, total and self time, derived from the spans."""
        n = len(self.span_start)
        child = array("d", bytes(8 * n))
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p != ROOT:
                child[p] += ends[i] - starts[i]
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = ends[i] - starts[i]
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[i]
        return calls, total, self_s, n

    def write(self, path):
        """Spans as one JSON header line, then the raw column arrays."""
        columns = (("name", self.span_name), ("parent", self.span_parent),
                   ("task", self.span_task), ("start", self.span_start),
                   ("end", self.span_end))
        header = {"names": self.names, "spans": len(self.span_start),
                  "columns": [[k, a.typecode, a.itemsize] for k, a in columns]}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for _, a in columns:
                a.tofile(fh)


# Size counters, recorded where the work happens.  A hook runs the call
# inside its span and counts on the arguments and the result.

def _count_mul_form(tr, name, fn, args, kwargs):
    tr.counters[name + ".terms_in"] += len(args[0].terms)
    return tr.span(name, fn, *args, **kwargs)


def _count_divide_form(tr, name, fn, args, kwargs):
    out = tr.span(name, fn, *args, **kwargs)
    if out is not None:
        tr.counters[name + ".hits"] += 1
    return out


def _count_rf_sum_a(tr, name, fn, args, kwargs):
    arity, values = args
    values = list(values)
    tr.counters[name + ".terms_in"] += sum(len(v.num.terms) for v in values)
    out = tr.span(name, fn, arity, values)
    tr.counters[name + ".terms_out"] += len(out.num.terms)
    return out


def _count_words(tr, name, fn, args, kwargs):
    out = tr.span(name, fn, *args, **kwargs)
    tr.counters[name + ".terms"] += len(out)
    return out


def _count_rref(tr, name, fn, args, kwargs):
    matrix = args[0]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    out = tr.span(name, fn, *args, **kwargs)
    c = tr.counters
    c[name + ".rows"] += rows
    c[name + ".cols"] += cols
    c[name + ".entries"] += rows * cols
    c[name + ".nonzeros"] += tr.span("bench.count", _nonzeros, matrix)
    c[name + ".rank"] += len(out[1])
    if tr.active["modforms.lin_ds_nullspace"]:
        c["modforms.lin_ds_nullspace.rows"] += rows
        c["modforms.lin_ds_nullspace.cols"] += cols
    return out


def _nonzeros(matrix):
    return sum(1 for row in matrix for v in row if v != 0)


def _count_solve_affine(tr, name, fn, args, kwargs):
    if tr.active["anatomy.solve_sigma"] or \
            tr.active["anatomy.chi_q4_decomposition"]:
        tr.counters["anatomy.rows"] += len(args[0])
    return tr.span(name, fn, *args, **kwargs)


def _mark_active(tr, name, fn, args, kwargs):
    tr.active[name] += 1
    try:
        return tr.span(name, fn, *args, **kwargs)
    finally:
        tr.active[name] -= 1


HOOKS = {
    "ratfun.Polynomial.mul_form": _count_mul_form,
    "ratfun.Polynomial.divide_form": _count_divide_form,
    "ratfun.rf_sum_a": _count_rf_sum_a,
    "words.shuffle": _count_words,
    "words.stuffle": _count_words,
    "linalg.rref": _count_rref,
    "linalg.solve_affine": _count_solve_affine,
    "modforms.lin_ds_nullspace": _mark_active,
    "anatomy.solve_sigma": _mark_active,
    "anatomy.chi_q4_decomposition": _mark_active,
}


def _caches():
    """(name, function) of every lru_cache of the program."""
    for module in program_modules():
        short = module.__name__.split(".", 1)[1]
        for attr, value in vars(module).items():
            fn = value
            while not hasattr(fn, "cache_info") and hasattr(fn, "__wrapped__"):
                fn = fn.__wrapped__
            if hasattr(fn, "cache_info") and fn.__module__ == module.__name__:
                yield "%s.%s" % (short, attr), fn


def cache_stats():
    """hits, misses and size of every lru_cache of the program, by name."""
    out = {}
    for name, fn in _caches():
        info = fn.cache_info()
        out[name] = (info.hits, info.misses, info.currsize)
    return out


def clear_caches():
    """Empty every lru_cache of the program.  Clearing also resets the
    hit and miss counts, so they are returned as they were."""
    stats = cache_stats()
    for _, fn in _caches():
        fn.cache_clear()
    return stats
