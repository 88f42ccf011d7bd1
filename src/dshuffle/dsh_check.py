"""Verifiers for the functional-equation families.

Each checker returns an EquationReport whose residual is an exact rational
function; an equation passes exactly when the residual normalizes to zero.
The sharp substitutions produce widened affine denominators (sums of
variables); these stay inside this module, since residuals are only
compared against zero after clearing denominators.

The sharp change of variables along a word w is the fixed prefix-sum map
P: x_i -> x_1 + .. + x_i followed by the relabelling x_j -> x_(w_j), so
f(sharp_w x) = perm_eval(f o P, w).  A check applies P to f once and
relabels that image for each word; P is injective and the relabellings of
a permutation are too, so every term is already a normalized value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rationals import QQ
from .ratfun import (Polynomial, RationalFunction, linear_form, rf_sum_a,
                     var_vector)
from .series import sigma, tau
from .words import lie_projector, shuffle, stuffle
from .gens import c_n


@dataclass
class EquationReport:
    family: str
    indices: tuple
    residual: RationalFunction
    passed: bool

    @classmethod
    def from_residual(cls, family, indices, residual):
        return cls(family, indices, residual, residual.is_zero())

    def to_json_dict(self):
        data = {"family": self.family, "indices": list(self.indices),
                "passed": self.passed}
        if self.residual.has_structured_denominator():
            data["residual"] = self.residual.to_json_dict()
        else:
            data["residual"] = {"text": self.residual.text()}
        return data

    def __repr__(self):
        return "EquationReport(%s %s: %s)" % (
            self.family, self.indices, "pass" if self.passed else "FAIL")


def prefix_images(n):
    """The images of P: x_i -> x_1 + .. + x_i in n variables."""
    return tuple((0,) + (1,) * i + (0,) * (n - i) for i in range(1, n + 1))


def _prefix_sums(f):
    """f o P, with P: x_i -> x_1 + .. + x_i."""
    return f.substitute_affine(prefix_images(f.arity), f.arity)


def perm_eval(f, word, target_arity=None):
    """f evaluated at permuted variables x_(w1), .., x_(wr)."""
    n = target_arity if target_arity is not None else f.arity
    return f.substitute_affine([var_vector(n, idx) for idx in word], n)


def sharp_eval(f, word):
    """f evaluated at the prefix sums of x along a word of indices."""
    return perm_eval(_prefix_sums(f), word)


def _shuffle_sum(f, p, q, sharp):
    """Sum over the shuffles w of (1..p) and (p+1..p+q) of f at
    x_(w1), .., x_(wn), or of f at the prefix sums along w when sharp."""
    n = f.arity
    if p + q != n:
        raise ValueError("need p + q = arity")
    u = tuple(range(1, p + 1))
    v = tuple(range(p + 1, n + 1))
    g = _prefix_sums(f) if sharp else f
    return rf_sum_a(n, [perm_eval(g, w) for w in shuffle(u, v)])


def check_shuffle(f, p, q):
    """(p,q) shuffle equation: sum over shuffles of the sharp evaluation."""
    return EquationReport.from_residual("shuffle", (p, q),
                                        _shuffle_sum(f, p, q, sharp=True))


def _stuffle_term_eval(series, term, arity):
    """Evaluate one stuffle term, expanding merged letters as divided
    differences of the lower-depth components."""
    merged = [i for i, l in enumerate(term) if isinstance(l, tuple)]
    r = len(term)
    comp = series.component(r)
    # the divided difference (F(x_hi) - F(x_lo)) / (x_hi - x_lo) of each
    # merged letter (lo, hi)
    forms = [linear_form(hi, lo, arity)
             for lo, hi in (term[pos] for pos in merged)]
    parts = []
    for mask in range(1 << len(merged)):
        word = list(term)
        for bit, pos in enumerate(merged):
            lo, hi = term[pos]
            word[pos] = lo if mask >> bit & 1 else hi
        value = perm_eval(comp, word, arity)
        if bin(mask).count("1") % 2:
            value = -value
        for form in forms:
            value = value.divide_form_exact(form)
        parts.append(value)
    return rf_sum_a(arity, parts)


def check_stuffle(series, p, q):
    """(p,q) stuffle equation on a truncated depth series."""
    n = p + q
    if n > series.max_depth:
        raise ValueError("series truncated below depth %d" % n)
    u = tuple(range(1, p + 1))
    v = tuple(range(p + 1, n + 1))
    parts = []
    for term, coeff in stuffle(u, v).items():
        parts.append(_stuffle_term_eval(series, term, n).scale(coeff))
    return EquationReport.from_residual("stuffle", (p, q), rf_sum_a(n, parts))


def check_linearized(f, p, q, sharp):
    """(p,q) linearized equation, with or without the sharp change of
    variables."""
    family = "lin_shuffle" if sharp else "lin_stuffle"
    return EquationReport.from_residual(family, (p, q),
                                        _shuffle_sum(f, p, q, sharp))


def check_lambda_form(f, sharp):
    """Single-identity form: the projector acts as multiplication by n."""
    n = f.arity
    if n < 2:
        raise ValueError("needs arity >= 2")
    word = tuple(range(1, n + 1))
    g = _prefix_sums(f) if sharp else f
    parts = [perm_eval(g, w).scale(c) for w, c in lie_projector(word).items()]
    parts.append(g.scale(-n))
    family = "lambda_sharp" if sharp else "lambda"
    return EquationReport.from_residual(family, (n,), rf_sum_a(n, parts))


def check_dihedral(f):
    """Antipodal symmetries f + sigma(f) = f + tau(f) = 0."""
    r1 = f + sigma(f)
    r2 = f + tau(f)
    residual = r1 if not r1.is_zero() else r2
    report = EquationReport("dihedral", (f.arity,), residual,
                            r1.is_zero() and r2.is_zero())
    return report


def _signed_reversal(f):
    """(-1)^d f(-x_d, .., -x_1), the series-level conjugate component."""
    d = f.arity
    images = [var_vector(d, d + 1 - j, negate=True) for j in range(1, d + 1)]
    out = f.substitute_affine(images, d)
    return out if d % 2 == 0 else -out


def check_six_term(series, d):
    """Reversal defect of the depth-d component against depth d-1.

    Implemented through the conjugation identity relating f plus its
    signed reversal to the one-variable stuffle factor: the depth-d
    component of (f + conj f) stuffled with (1 - mu) must match the
    commuting action terms of depth d-1.  Expanding the action gives the
    six-term shape.
    """
    if series.weight is None or series.weight % 2 != 0:
        raise ValueError("six-term relation is for even homogeneous weight")
    from .series import ihara_action_component, stuffle_concat
    f_d = series.component(d)
    f_prev = series.component(d - 1)
    mu = RationalFunction.from_num_den(Polynomial.const(1, 1),
                                       {linear_form(1, 0, 1): 1})
    lhs = [f_d + _signed_reversal(f_d),
           -stuffle_concat(f_prev + _signed_reversal(f_prev), mu)]
    rhs = [stuffle_concat(mu, f_prev),
           -ihara_action_component(f_prev, mu)]
    residual = rf_sum_a(d, lhs) - rf_sum_a(d, rhs)
    return EquationReport.from_residual("six_term", (d,), residual)


def is_in_pdmr(series, max_depth):
    """All (p,q) shuffle and stuffle families through max_depth, p <= q,
    by depth p + q."""
    reports = []
    for n in range(2, max_depth + 1):
        for p in range(1, n // 2 + 1):
            reports.append(check_shuffle(series.component(n), p, n - p))
            reports.append(check_stuffle(series, p, n - p))
    return reports


def is_in_pls(f):
    """Linearized double shuffle plus the consecutive-pole condition."""
    reports = []
    n = f.arity
    for p in range(1, n // 2 + 1):
        q = n - p
        reports.append(check_linearized(f, p, q, sharp=False))
        reports.append(check_linearized(f, p, q, sharp=True))
    if n == 1:
        # depth-one evenness: only even functions of x1 are allowed
        reports.append(EquationReport.from_residual("parity", (1,),
                                                    odd_part(f)))
    bar = Polynomial.const(n, 1).mul_forms(
        form for form, k in c_n(n).den.items() for _ in range(k))
    cleared = f * RationalFunction.from_poly(bar)
    residual = cleared if not cleared.is_polynomial() \
        else RationalFunction.zero(n)
    reports.append(EquationReport("pole_shape", (n,), residual,
                                  cleared.is_polynomial()))
    return reports


def odd_part(f):
    """(f(x) - f(-x)) / 2, normalized."""
    images = [var_vector(f.arity, i, negate=True)
              for i in range(1, f.arity + 1)]
    return (f - f.substitute_affine(images, f.arity)).scale(QQ(1, 2))


def all_pass(reports):
    return all(r.passed for r in reports)


def summary_line(reports):
    failed = [r for r in reports if not r.passed]
    if not failed:
        return "all %d checks passed" % len(reports)
    return "%d of %d checks FAILED: %s" % (
        len(failed), len(reports),
        ", ".join("%s%s" % (r.family, r.indices) for r in failed))
