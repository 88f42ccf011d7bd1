"""Shuffle and stuffle combinatorics on indexed words.

A word is a tuple of variable indices.  Stuffle expansion produces terms
whose letters are either a single index or a merged pair, kept symbolic
here as a sorted 2-tuple; they are interpreted as divided differences only
by the equation checkers, so this module never touches rational functions.

Term ordering is plain lexicographic on letter sequences (merged pairs
compare as tuples), which keeps every printed expansion reproducible.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .rationals import QQ, ZERO, rat_str


class OverlappingIndices(ValueError):
    pass


def _check_disjoint(u, v):
    if set(u) & set(v):
        raise OverlappingIndices("words share indices: %r, %r" % (u, v))


def word_text(w):
    return ".".join("{%d,%d}" % l if isinstance(l, tuple) else "x%d" % l
                    for l in w) or "1"


def term_key(w):
    return tuple((1,) + l if isinstance(l, tuple) else (0, l) for l in w)


def sum_text(terms):
    if not terms:
        return "0"
    parts = []
    for w in sorted(terms, key=term_key):
        c = terms[w]
        parts.append("%s*%s" % (rat_str(c), word_text(w)) if c != 1
                     else word_text(w))
    return " + ".join(parts)


def _add_term(acc, w, c):
    s = acc.get(w, ZERO) + c
    if s == 0:
        acc.pop(w, None)
    else:
        acc[w] = s


def iter_shuffles(u, v):
    """Lazily enumerate the interleavings of u and v."""
    if not u:
        yield v
        return
    if not v:
        yield u
        return
    for rest in iter_shuffles(u[1:], v):
        yield (u[0],) + rest
    for rest in iter_shuffles(u, v[1:]):
        yield (v[0],) + rest


def shuffle(u, v):
    """All interleavings of two index-disjoint words, coefficient 1 each."""
    u, v = tuple(u), tuple(v)
    _check_disjoint(u, v)
    out = {}
    for w in iter_shuffles(u, v):
        _add_term(out, w, QQ(1))
    return out


def stuffle(u, v):
    """Recursive stuffle expansion; merged letters become sorted pairs."""
    u, v = tuple(u), tuple(v)
    _check_disjoint(u, v)
    return _stuffle(u, v)


def _stuffle(u, v):
    if not u:
        return {v: QQ(1)}
    if not v:
        return {u: QQ(1)}
    out = {}
    for w, c in _stuffle(u[1:], v).items():
        _add_term(out, (u[0],) + w, c)
    for w, c in _stuffle(u, v[1:]).items():
        _add_term(out, (v[0],) + w, c)
    merged = (min(u[0], v[0]), max(u[0], v[0]))
    for w, c in _stuffle(u[1:], v[1:]).items():
        _add_term(out, (merged,) + w, c)
    return out


@lru_cache(maxsize=None)
def _lie_projector(w):
    if len(w) == 1:
        return {w: QQ(1)}
    out = {}
    for sub, c in _lie_projector(w[1:]).items():
        _add_term(out, (w[0],) + sub, c)
    for sub, c in _lie_projector(w[:-1]).items():
        _add_term(out, (w[-1],) + sub, -c)
    return out


def lie_projector(w):
    """The projector x1..xn -> x1 L(x2..xn) - xn L(x1..x(n-1))."""
    w = tuple(w)
    if not w:
        raise ValueError("lie projector of the empty word")
    return dict(_lie_projector(w))


def apply_lie_projector(terms):
    """Extend the projector linearly to a word sum."""
    out = {}
    for w, c in terms.items():
        for ww, cc in _lie_projector(tuple(w)).items():
            _add_term(out, ww, c * cc)
    return out


def shuffle_count(m, n):
    """Number of interleavings of words of lengths m and n."""
    return comb(m + n, m)


def stuffle_count(m, n):
    """Number of stuffle terms for word lengths m and n."""
    if m == 0 or n == 0:
        return 1
    return (stuffle_count(m - 1, n) + stuffle_count(m, n - 1)
            + stuffle_count(m - 1, n - 1))


def scale_sum(terms, c):
    c = QQ(c)
    return {w: c * v for w, v in terms.items()} if c != 0 else {}


def add_sums(a, b):
    out = dict(a)
    for w, c in b.items():
        _add_term(out, w, c)
    return out
