"""Decomposition of zeta elements into iterated brackets of generators.

The solver works depth by depth: the unknowns are coefficients of
right-nested bracket words in the generators of odd weight (including the
weight -1 counterterm generator), and the linear conditions force the
residue of the running total to vanish at each depth.  Underdetermined
systems are resolved deterministically: unknowns are ordered with the
canonical word list and free coordinates are pinned to zero, with the
kernel dimension reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .rationals import QQ, rat_str
from .ratfun import RationalFunction, coefficient_rows
from .series import DepthSeries, series_ihara_bracket
from .gens import Q4, generator
from .resflt import R
from . import linalg


class SolveError(ValueError):
    pass


@dataclass
class BracketExpression:
    """Rational combination of right-nested bracket words over generators.

    A word (a1, .., ak) denotes the nested bracket of the generators of
    weights a1, .., ak, with the pairing at the innermost position.
    """
    terms: dict
    weight: int
    basis: str = "psi"
    kernel_dim: int = 0

    def to_json_dict(self):
        words = sorted(self.terms, key=lambda w: (len(w), w))
        return {"weight": self.weight,
                "basis": self.basis,
                "kernel_dim": self.kernel_dim,
                "terms": [{"word": list(w), "coeff": rat_str(self.terms[w])}
                          for w in words]}

    def text(self):
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            name = "{%s}" % ",".join(str(a) for a in w) if len(w) > 1 \
                else str(w[0])
            parts.append("%s * %s[%s]" % (rat_str(c), self.basis, name))
        return " + ".join(parts) if parts else "0"

    @classmethod
    def _solved(cls, weight, words, sol, basis, kernel_dim):
        """The leading word (weight,) at coefficient one plus each word
        whose solved coefficient is nonzero."""
        terms = {(weight,): QQ(1)}
        for w, c in zip(words, sol):
            if c != 0:
                terms[w] = c
        return cls(terms, weight, basis, kernel_dim)


@lru_cache(maxsize=None)
def generator_series(weight, max_depth, basis="psi"):
    return generator("%s%d" % (basis, weight), max_depth)


@lru_cache(maxsize=None)
def evaluate_word(word, max_depth, basis="psi"):
    """Right-nested bracket of generator series (cached; values are
    immutable).

    Depth budgets shrink going inward: a partial bracket over m generators
    has minimum support m, so each factor is only ever needed up to
    max_depth minus the depth already claimed by its partners.
    """
    k = len(word)
    series = generator_series(word[-1], max(max_depth - (k - 1), 1), basis)
    for i, a in enumerate(reversed(word[:-1])):
        consumed = i + 1
        gen = generator_series(a, max(max_depth - consumed, 1), basis)
        series = series_ihara_bracket(gen, series)
    return series


def evaluate(expr, max_depth):
    total = None
    for word in sorted(expr.terms, key=lambda w: (len(w), w)):
        piece = evaluate_word(word, max_depth,
                              expr.basis).scale(expr.terms[word])
        total = piece if total is None else total + piece
    if total is None:
        return DepthSeries.zero(max_depth)
    return total


def bracket_basis(weight, depth_bound):
    """Canonical triple-bracket words of the given odd total weight.

    The list is ordered for the deterministic pinning rule: first the word
    with two weight -1 entries, then the (a, b, -1) words by descending
    first index.  Every word has a -1 entry.
    """
    if weight % 2 == 0:
        raise SolveError("odd total weight required")
    words = []
    if depth_bound >= 3:
        words.append((-1, -1, weight + 2))
        for a in range(weight - 2, 2, -2):
            b = weight + 1 - a
            if b >= 3:
                words.append((a, b, -1))
    if not words:
        raise SolveError("empty bracket basis for weight %d, depth %d"
                         % (weight, depth_bound))
    return words


def _solve_residues(columns, lead, residue_maps):
    """Coefficients c with sum c_i res(columns_i) = -res(lead) for every
    residue map res, as (c, kernel_dim); SolveError when inconsistent."""
    rows = []
    for res in residue_maps:
        rows.extend(coefficient_rows([res(s) for s in columns] + [res(lead)]))
    solved = linalg.solve_affine(rows, len(columns))
    if solved is None:
        raise SolveError("residue conditions are inconsistent")
    return solved


def _depth_residue(d):
    return lambda s: R(s.component(d))


def solve_sigma(weight, depth_bound, basis="psi"):
    """Coefficients making the total residue vanish through depth_bound.

    Returns a BracketExpression with leading word (weight,) at coefficient
    one.  Raises SolveError when the conditions are inconsistent; an
    underdetermined system is resolved by pinning free coordinates to zero
    and recorded in kernel_dim.
    """
    if weight % 2 == 0 or weight < 3:
        raise SolveError("weight must be odd and >= 3")
    if depth_bound < 2:
        # the first residue conditions sit in depth 2
        raise SolveError("depth bound must be at least 2, got %d"
                         % depth_bound)
    n = (weight - 1) // 2
    if depth_bound > 2 * n:
        raise SolveError("depth bound %d beyond the solvable range %d"
                         % (depth_bound, 2 * n))
    words = bracket_basis(weight, 3) if depth_bound >= 3 else []
    lead = generator_series(weight, depth_bound, basis)
    sol, kernel_dim = _solve_residues(
        [evaluate_word(w, depth_bound, basis) for w in words], lead,
        [_depth_residue(d) for d in range(2, depth_bound + 1)])
    return BracketExpression._solved(weight, words, sol, basis, kernel_dim)


def chi_q4_decomposition(weight):
    """Depth-5 decomposition over the twisted basis with the depth-4
    counterterm.

    Solves for the coefficients of the triple bracket words and of the
    bracket of x1^(weight-1) with the exceptional depth-4 element so that
    the total residue vanishes through depth 5.  Returns (expression,
    q4_coefficient).
    """
    words = bracket_basis(weight, 3)
    lead = generator_series(weight, 5, "chi")
    word_series = [evaluate_word(w, 5, "chi") for w in words]
    q4_word = series_ihara_bracket(
        DepthSeries.single(RationalFunction.power_of_var(1, 1, weight - 1),
                           5, weight=weight),
        DepthSeries.single(Q4(), 5, weight=0))
    # at depth 5 only the residues along the inner divisors x_i = 0 are
    # used: length-5 words have the restricted pole shape and cannot
    # contribute there, so these conditions close over this basis
    sol, kernel_dim = _solve_residues(
        word_series + [q4_word], lead,
        [_depth_residue(d) for d in range(2, 5)]
        + [lambda s, i=i: s.component(5).residue(i)
           for i in (2, 3, 4)])
    # the last unknown is the Q4 coefficient, which zip leaves out
    return (BracketExpression._solved(weight, words, sol, "chi", kernel_dim),
            sol[-1])


def coefficient_of_word(series, word):
    """Coefficient of the monomial encoding a composition word.

    The word (n1, .., nr) selects the monomial x1^(n1-1) .. xr^(nr-1) of
    the depth-r component, which must be polynomial.
    """
    r = len(word)
    comp = series.component(r)
    if not comp.is_polynomial():
        raise ValueError("depth-%d component is not polynomial" % r)
    mono = tuple(k - 1 for k in word)
    if any(e < 0 for e in mono):
        raise ValueError("word entries must be >= 1")
    return comp.num.coefficient(mono)


def congruence_check(value, prime):
    """All numerator coefficients divisible by the prime.

    The value must have denominators coprime to the prime (exact rational
    coefficients; the denominator multiset is untouched).
    """
    if isinstance(value, DepthSeries):
        items = [c for _, c in sorted(value.components.items())]
    else:
        items = [value]
    for f in items:
        for c in f.num.terms.values():
            if c.denominator % prime == 0:
                raise ValueError("denominator not coprime to %d" % prime)
            if c.numerator % prime != 0:
                return False
    return True

