"""Exact arithmetic for multivariate rational functions over Q.

Values live in the ring of functions of x_1..x_d whose denominators are
products of the linear forms x_a - x_b (convention x_0 = 0, so x_a itself
is allowed).  Substitution of affine forms can transiently produce wider
affine denominators such as x_1 + x_2; those are representable here but are
only meant to appear inside equation checking, never in stored elements.

Representation:
  * Monomial  -- exponent tuple, one entry per variable.
  * Polynomial -- sparse dict Monomial -> rational, fixed arity.
  * forms      -- a denominator factor is a canonical integer tuple
                  (c0, c1, .., cd) meaning c0 + c1*x1 + .. + cd*xd,
                  primitive, with its highest-index nonzero entry positive.
  * RationalFunction -- Polynomial numerator over a multiset of forms,
                  normalized so that no denominator form divides the
                  numerator.

Monomial order used for printing and serialization is graded lex:
sort key (total degree, exponent tuple).

Kernels:
  * Affine substitution has one path with two kernels, chosen from the
    images.  When every image is a single variable x_j with coefficient 1,
    or zero, the monomials are relabelled: exponents move to their new
    slots, terms that land on one monomial are merged and a monomial that
    uses a zero image is dropped.  Any other images run a Horner scheme
    over the source variables whose every step is Polynomial.mul_form.
  * A substituted value is normalized again (its numerator divided by
    each denominator form that divides it) only when the images' linear
    parts are dependent, e.g. x_a -> x_b, a zero image or a repeated letter.
    Independent images make the substitution an embedding of polynomial
    rings after an affine change of coordinates: non-proportional forms
    stay non-proportional, and a substituted form divides the substituted
    numerator only if the form divided the numerator, so a normalized
    value stays normalized.  Independence is decided exactly by
    fraction-free integer elimination; an image with a non-integral
    coefficient counts as dependent, since normalizing again is always
    safe.
  * Divisibility by a form is pretested by evaluating the numerator modulo
    the prime p = 2^61 - 1 at a fixed point of the form's hyperplane.  If
    the form divides the numerator, the value is zero mod p, so a nonzero
    residue proves non-divisibility; zero, or a denominator or pivot that
    p divides, falls through to the exact division.  The pretest only
    decides whether an exact division is attempted, never its outcome, so
    it cannot change a result.
"""

from __future__ import annotations

import json
import re
from math import factorial, gcd

from .rationals import (QQ, ZERO, ONE, _P, rat, rat_str, rat_from_str,
                        as_int_pair)


class ArityMismatch(ValueError):
    pass


# the step of the divisibility pretest's fixed evaluation point
# x_i = i * _STEP mod _P, which is nonzero
_STEP = 0x9E3779B97F4A7C15


class PoleOrderError(ValueError):
    pass


class ParseError(ValueError):
    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        self.arity = arity
        self.terms = terms if terms is not None else {}

    # -- constructors

    @classmethod
    def const(cls, arity, c):
        c = rat(c)
        if c == 0:
            return cls(arity)
        return cls(arity, {(0,) * arity: c})

    @classmethod
    def variable(cls, arity, i, power=1, coeff=1):
        if not 1 <= i <= arity:
            raise ArityMismatch("variable x%d out of range for arity %d" % (i, arity))
        exps = [0] * arity
        exps[i - 1] = power
        return cls.monomial(arity, tuple(exps), coeff)

    @classmethod
    def monomial(cls, arity, exps, coeff=1):
        coeff = rat(coeff)
        if coeff == 0:
            return cls(arity)
        if len(exps) != arity:
            raise ArityMismatch("exponent tuple has wrong length")
        return cls(arity, {tuple(exps): coeff})

    # -- basic queries

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.arity == other.arity
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self):
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_parts(self):
        """dict degree -> Polynomial."""
        parts = {}
        for m, c in self.terms.items():
            parts.setdefault(sum(m), {})[m] = c
        return {d: Polynomial(self.arity, t) for d, t in parts.items()}

    # -- arithmetic

    def _check(self, other):
        if self.arity != other.arity:
            raise ArityMismatch("polynomial arities differ: %d vs %d"
                                % (self.arity, other.arity))

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        _accumulate(terms, other.terms)
        return Polynomial(self.arity, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial(self.arity, {m: -c for m, c in self.terms.items()})

    def scale(self, c):
        c = rat(c)
        if c == 0:
            return Polynomial(self.arity)
        return Polynomial(self.arity, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                s = out.get(m, ZERO) + ca * cb
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return Polynomial(self.arity, out)

    def mul_form(self, form):
        """Multiply by the affine form c0 + sum ci*xi (fast path).

        Coefficients 1 and -1, the usual ones, add or subtract the term
        without a scalar multiply.
        """
        steps = []
        for i in range(self.arity + 1):
            ci = form[i]
            if ci:
                steps.append((i - 1, 1 if ci == 1 else -1 if ci == -1 else 0,
                              ci))
        out = {}
        get = out.get
        for m, c in self.terms.items():
            for pos, unit, ci in steps:
                mm = m[:pos] + (m[pos] + 1,) + m[pos + 1:] if pos >= 0 else m
                old = get(mm)
                if old is None:
                    out[mm] = c if unit > 0 else -c if unit else ci * c
                    continue
                if unit > 0:
                    s = old + c
                elif unit:
                    s = old - c
                else:
                    s = old + ci * c
                if s:
                    out[mm] = s
                else:
                    del out[mm]
        return Polynomial(self.arity, out)

    def mul_forms(self, forms):
        """Multiply by each affine form of an iterable in turn."""
        p = self
        for form in forms:
            p = p.mul_form(form)
        return p

    def derivative(self, i):
        """Partial derivative with respect to x_i (1-based)."""
        out = {}
        for m, c in self.terms.items():
            e = m[i - 1]
            if e:
                mm = m[:i - 1] + (e - 1,) + m[i:]
                out[mm] = out.get(mm, ZERO) + c * e
        return Polynomial(self.arity, {m: c for m, c in out.items() if c != 0})

    # -- substitution and evaluation

    def substitute_affine(self, images, target_arity):
        """Compose with x_i -> images[i-1], each a coefficient tuple
        (c0, c1, .., cD) of an affine form in target_arity variables."""
        if len(images) != self.arity:
            raise ArityMismatch("need one image per variable")
        if not self.terms:
            return Polynomial(target_arity)
        targets = []
        for img in images:
            support = [j for j, c in enumerate(img) if c]
            if not support:
                targets.append(0)
            elif len(support) == 1 and support[0] and img[support[0]] == 1:
                targets.append(support[0])
            else:
                return Polynomial(target_arity, _horner(
                    self.terms, self.arity, images, target_arity))
        return self._relabel(targets, target_arity)

    def _relabel(self, targets, target_arity):
        """x_i -> x_targets[i-1], where target 0 means x_i -> 0."""
        out = {}
        get = out.get
        for m, c in self.terms.items():
            mm = [0] * target_arity
            for e, t in zip(m, targets):
                if e:
                    if not t:
                        break
                    mm[t - 1] += e
            else:
                mm = tuple(mm)
                old = get(mm)
                if old is None:
                    out[mm] = c
                else:
                    s = old + c
                    if s:
                        out[mm] = s
                    else:
                        del out[mm]
        return Polynomial(target_arity, out)

    def evaluate(self, point):
        """Evaluate at a tuple of rationals."""
        if len(point) != self.arity:
            raise ArityMismatch("point has wrong length")
        total = ZERO
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    v *= x ** e
            total += v
        return total

    def divide_form(self, form, tester=None):
        """Exact division by an affine form; returns the quotient or None.

        The form must be canonical (see form_normalize); in particular its
        pivot coefficient is a positive integer.  tester, a
        _DivisibilityTester of this polynomial, lets callers share one
        pretest across forms.
        """
        if not self.terms:
            return self
        arity = self.arity
        v = _form_pivot(form)
        cv = form[v]
        if cv == 1 and form[0] == 0 and \
                all(form[i] == 0 for i in range(1, arity + 1) if i != v):
            # plain variable x_v: divisible iff every monomial contains it
            if any(m[v - 1] == 0 for m in self.terms):
                return None
            return Polynomial(arity, {m[:v - 1] + (m[v - 1] - 1,) + m[v:]: c
                                      for m, c in self.terms.items()})
        if tester is None:
            tester = _DivisibilityTester(self)
        if not tester.may_divide(form):
            return None
        # form = cv*x_v - h  with h affine in the remaining variables; the
        # layer q_k of the quotient sends h*q_k down to the next layer
        h = tuple(-c for c in form[:v]) + (0,) * (arity + 1 - v)
        # group terms by the exponent of x_v
        layers = {}
        for m, c in self.terms.items():
            layers.setdefault(m[v - 1], {})[m[:v - 1] + (0,) + m[v:]] = c
        inv = QQ(1, int(cv))
        carry = {}
        quotient = {}
        for k in range(max(layers), -1, -1):
            pk = layers.get(k, {})
            _accumulate(pk, carry)
            if k == 0:
                return None if pk else Polynomial(arity, quotient)
            if cv != 1:
                pk = {m: c * inv for m, c in pk.items()}
            carry = Polynomial(arity, pk).mul_form(h).terms if any(h) else {}
            for m, c in pk.items():
                quotient[m[:v - 1] + (m[v - 1] + k - 1,) + m[v:]] = c
        return None  # pragma: no cover

    def extended(self, target_arity, offset=0):
        """Re-embed into a larger variable ring, shifting x_i -> x_(i+offset)."""
        if target_arity < self.arity + offset:
            raise ArityMismatch("target arity too small")
        pad = target_arity - self.arity - offset
        pre = (0,) * offset
        post = (0,) * pad
        return Polynomial(target_arity,
                          {pre + m + post: c for m, c in self.terms.items()})

    # -- output

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: (sum(mc[0]), mc[0]))

    def text(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = "".join("x%d^%d" % (i + 1, e)
                              for i, e in enumerate(m) if e)
            parts.append(rat_str(c) + "*" + factors if factors else rat_str(c))
        return " + ".join(parts)

    def __repr__(self):
        return "Polynomial(%d, %s)" % (self.arity, self.text())


def _accumulate(out, terms):
    """out += terms in place, dropping monomials that cancel."""
    get = out.get
    for m, c in terms.items():
        old = get(m)
        if old is None:
            out[m] = c
        else:
            s = old + c
            if s:
                out[m] = s
            else:
                del out[m]


def _horner(terms, arity, images, target_arity):
    """Affine substitution by Horner's scheme in the last source variable:
    (..(p_top*img + p_(top-1))*img + ..)*img + p_0, recursing into the
    layers p_k."""
    if arity == 0:
        return {(0,) * target_arity: c for c in terms.values()}
    layers = {}
    for m, c in terms.items():
        layers.setdefault(m[-1], {})[m[:-1]] = c
    img = images[arity - 1]
    result = Polynomial(target_arity)
    for k in range(max(layers), -1, -1):
        if result.terms:
            result = result.mul_form(img)
        layer = layers.get(k)
        if layer:
            _accumulate(result.terms, _horner(layer, arity - 1, images,
                                              target_arity))
    return result.terms


# ---------------------------------------------------------------------------
# denominator forms


def _form_pivot(form):
    """Index of the highest nonzero coefficient (the canonical pivot)."""
    for i in range(len(form) - 1, 0, -1):
        if form[i]:
            return i
    raise ValueError("constant form cannot appear in a denominator")


def form_normalize(coeffs):
    """Canonicalize an affine form given as rational coefficients.

    Returns (scalar, form) with scalar a rational and form a primitive
    integer tuple whose highest-index nonzero entry is positive, so that
    input = scalar * form.  Returns (0, None) for the zero form and
    (c, ()) for the nonzero constant c.
    """
    coeffs = [rat(c) for c in coeffs]
    if all(c == 0 for c in coeffs):
        return ZERO, None
    den_lcm = 1
    for c in coeffs:
        q = int(c.denominator)
        den_lcm = den_lcm * q // gcd(den_lcm, q)
    ints = [int(c * den_lcm) for c in coeffs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    ints = [v // g for v in ints]
    pivot = 0
    for i in range(len(ints) - 1, 0, -1):
        if ints[i]:
            pivot = i
            break
    if pivot == 0:
        return QQ(ints[0] * g, den_lcm), ()
    sign = 1
    if ints[pivot] < 0:
        sign = -1
        ints = [-v for v in ints]
    return QQ(sign * g, den_lcm), tuple(ints)


def linear_form(a, b, arity):
    """The canonical form x_a - x_b (b = 0 encodes plain x_a)."""
    if not (0 <= b < a <= arity):
        raise ArityMismatch("need 0 <= b < a <= arity, got a=%d b=%d" % (a, b))
    coeffs = [0] * (arity + 1)
    coeffs[a] = 1
    if b:
        coeffs[b] = -1
    return tuple(coeffs)


def form_difference_pair(form):
    """(a, b) if the form is x_a - x_b (or x_a when b = 0), else None."""
    if form[0] != 0:
        return None
    pos = [i for i in range(1, len(form)) if form[i] == 1]
    neg = [i for i in range(1, len(form)) if form[i] == -1]
    other = [i for i in range(1, len(form)) if form[i] not in (-1, 0, 1)]
    if other:
        return None
    if len(pos) == 1 and not neg:
        return pos[0], 0
    if len(pos) == 1 and len(neg) == 1:
        return pos[0], neg[0]
    return None


def form_text(form):
    pair = form_difference_pair(form)
    if pair:
        a, b = pair
        return "x%d" % a if b == 0 else "x%d-x%d" % (a, b)
    parts = []
    for i in range(1, len(form)):
        c = form[i]
        if not c:
            continue
        s = "x%d" % i if abs(c) == 1 else "%dx%d" % (abs(c), i)
        parts.append(("-" if c < 0 else "+") + s)
    if form[0]:
        parts.append(("+" if form[0] > 0 else "-") + str(abs(form[0])))
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


def form_substitute(form, images, target_arity):
    """Substitute affine images (coefficient tuples) into a form.

    images[i-1] is the coefficient tuple (c0, c1, .., cD) of the image of
    x_i.  Returns (scalar, canonical form or None).
    """
    out = [rat(form[0])] + [ZERO] * target_arity
    for i in range(1, len(form)):
        if not form[i]:
            continue
        img = images[i - 1]
        for j in range(len(img)):
            out[j] += form[i] * img[j]
    return form_normalize(out)


def var_vector(arity, i, negate=False):
    vec = [ZERO] * (arity + 1)
    if i:
        vec[i] = -ONE if negate else ONE
    return tuple(vec)


def diff_vector(arity, i, j):
    """Coefficient tuple of x_i - x_j in the target ring (0 means absent)."""
    vec = [ZERO] * (arity + 1)
    if i:
        vec[i] += ONE
    if j:
        vec[j] -= ONE
    return tuple(vec)


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """num / prod(den forms), normalized: no den form divides num."""

    __slots__ = ("arity", "num", "den")

    def __init__(self, arity, num, den):
        # internal: trusted inputs; use from_num_den for normalization
        self.arity = arity
        self.num = num
        self.den = den

    @classmethod
    def from_num_den(cls, num, den=()):
        """den: iterable of canonical forms, or dict form -> multiplicity."""
        arity = num.arity
        counts = {}
        if isinstance(den, dict):
            items = den.items()
        else:
            items = ((f, 1) for f in den)
        for f, k in items:
            if k < 0:
                raise ValueError("negative multiplicity")
            if k:
                counts[f] = counts.get(f, 0) + k
        return cls._normalized(arity, num, counts)

    @classmethod
    def _normalized(cls, arity, num, counts):
        if num.is_zero():
            return cls(arity, num, {})
        num = _cancel(num, counts)
        return cls(arity, num, {f: k for f, k in counts.items() if k > 0})

    # -- constructors

    @classmethod
    def zero(cls, arity):
        return cls(arity, Polynomial(arity), {})

    @classmethod
    def const(cls, arity, c):
        return cls(arity, Polynomial.const(arity, c), {})

    @classmethod
    def from_poly(cls, p):
        return cls(p.arity, p, {})

    @classmethod
    def monomial(cls, arity, exps, coeff=1):
        return cls.from_poly(Polynomial.monomial(arity, exps, coeff))

    @classmethod
    def power_of_var(cls, arity, i, n, coeff=1):
        """coeff * x_i^n for any integer n (negative allowed)."""
        if n >= 0:
            return cls.from_poly(Polynomial.variable(arity, i, n, coeff))
        return cls.from_num_den(Polynomial.const(arity, coeff),
                                {linear_form(i, 0, arity): -n})

    # -- queries

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return not self.den

    def has_structured_denominator(self):
        return all(form_difference_pair(f) for f in self.den)

    def den_degree(self):
        return sum(self.den.values())

    def degree(self):
        """Degree of a homogeneous value (num degree minus den degree)."""
        if self.num.is_zero():
            return None
        if not self.num.is_homogeneous() or any(f[0] for f in self.den):
            return None
        return self.num.degree() - self.den_degree()

    def weight(self):
        """degree + arity, the natural grading on depth-d components."""
        d = self.degree()
        return None if d is None else d + self.arity

    def is_homogeneous(self):
        return self.is_zero() or self.degree() is not None

    def pole_order(self, form):
        return self.den.get(form, 0)

    # -- arithmetic

    def _check(self, other):
        if self.arity != other.arity:
            raise ArityMismatch("rational function arities differ: %d vs %d"
                                % (self.arity, other.arity))

    def __add__(self, other):
        self._check(other)
        return rf_sum_a(self.arity, [self, other])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalFunction(self.arity, -self.num, dict(self.den))

    def scale(self, c):
        c = rat(c)
        if c == 0:
            return RationalFunction.zero(self.arity)
        return RationalFunction(self.arity, self.num.scale(c), dict(self.den))

    def __mul__(self, other):
        self._check(other)
        # a form divides the product numerator iff it divides one factor
        # (linear forms cut irreducible hyperplanes), so cancellation can be
        # settled factor by factor before multiplying
        if self.is_zero() or other.is_zero():
            return RationalFunction.zero(self.arity)
        counts = dict(self.den)
        for f, k in other.den.items():
            counts[f] = counts.get(f, 0) + k
        num = _cancel(self.num, counts) * _cancel(other.num, counts)
        return RationalFunction(self.arity, num,
                                {f: k for f, k in counts.items() if k > 0})

    def divide_form_exact(self, form):
        """Divide by the form (adds to the denominator, then normalizes)."""
        counts = dict(self.den)
        counts[form] = counts.get(form, 0) + 1
        return RationalFunction._normalized(self.arity, self.num, counts)

    def equals(self, other):
        self._check(other)
        return (self - other).is_zero()

    def __eq__(self, other):
        return isinstance(other, RationalFunction) and self.equals(other)

    def __hash__(self):  # pragma: no cover
        raise TypeError("RationalFunction is not hashable")

    # -- calculus

    def partial(self, i):
        """Exact partial derivative with respect to x_i."""
        pieces = [RationalFunction(self.arity, self.num.derivative(i),
                                   dict(self.den))]
        for f, k in self.den.items():
            ci = f[i]
            if not ci:
                continue
            counts = dict(self.den)
            counts[f] = k + 1
            pieces.append(RationalFunction._normalized(
                self.arity, self.num.scale(-k * ci), counts))
        return rf_sum_a(self.arity, pieces)

    def nabla(self):
        """Sum of all partial derivatives."""
        return rf_sum_a(self.arity,
                        [self.partial(i) for i in range(1, self.arity + 1)])

    def residue(self, a, b=0):
        """Residue along x_a = x_b (b = 0: along x_a = 0).

        The result is a rational function of the same arity in which the
        slot of x_a is unused (x_a was substituted by x_b); callers that
        want a smaller arity should follow with drop_variable.  Raises
        PoleOrderError when the pole order exceeds one.
        """
        form = linear_form(a, b, self.arity)
        k = self.den.get(form, 0)
        if k == 0:
            return RationalFunction.zero(self.arity)
        if k > 1:
            raise PoleOrderError("pole of order %d along %s"
                                 % (k, form_text(form)))
        counts = {f: m for f, m in self.den.items() if f != form}
        return RationalFunction(self.arity, self.num,
                                counts).residue_free_subs(a, b)

    def laurent_residue(self, a, b=0):
        """Coefficient of 1/(x_a - x_b) in the Laurent expansion along the
        hyperplane, for poles of any order."""
        form = linear_form(a, b, self.arity)
        m = self.den.get(form, 0)
        if m == 0:
            return RationalFunction.zero(self.arity)
        counts = dict(self.den)
        counts[form] = 0
        cleared = RationalFunction._normalized(self.arity, self.num, counts)
        for _ in range(m - 1):
            cleared = cleared.partial(a)
        return cleared.residue_free_subs(a, b).scale(QQ(1, factorial(m - 1)))

    def laurent_coefficient_order2(self, a, b=0):
        """Coefficient of the order-2 pole along x_a = x_b.

        Used for the one named exception in the residue filtration; this is
        not a residue.
        """
        form = linear_form(a, b, self.arity)
        k = self.den.get(form, 0)
        if k > 2:
            raise PoleOrderError("pole order %d > 2" % k)
        if k < 2:
            return RationalFunction.zero(self.arity)
        counts = dict(self.den)
        counts[form] = 0
        shifted = RationalFunction._normalized(self.arity, self.num, counts)
        return shifted.residue_free_subs(a, b)

    def residue_free_subs(self, a, b):
        """Substitute x_a -> x_b assuming no pole along x_a = x_b."""
        form = linear_form(a, b, self.arity)
        if self.den.get(form, 0):
            raise PoleOrderError("value has a pole along %s" % form_text(form))
        images = [var_vector(self.arity, i) for i in range(1, self.arity + 1)]
        images[a - 1] = var_vector(self.arity, b)
        return self.substitute_affine(images, self.arity)

    # -- substitution

    def substitute_affine(self, images, target_arity):
        """Compose with x_i -> affine image (coefficient tuples).

        Denominator forms are re-derived by factoring the substituted
        forms; a form substituting to zero raises PoleOrderError, and one
        substituting to a nonzero constant joins the scalar.  The
        result is normalized again unless the value has no denominator or
        the images have independent linear parts (see the module docstring).
        """
        if len(images) != self.arity:
            raise ArityMismatch("need one affine image per variable")
        scalar = ONE
        counts = {}
        for f, k in self.den.items():
            s, nf = form_substitute(f, images, target_arity)
            if nf is None:
                raise PoleOrderError(
                    "denominator form %s becomes identically zero" % form_text(f))
            scalar *= s ** k
            if nf:
                counts[nf] = counts.get(nf, 0) + k
        num = self.num.substitute_affine(images, target_arity)
        if scalar != 1:
            num = num.scale(ONE / scalar)
        if counts and not _independent(images):
            return RationalFunction._normalized(target_arity, num, counts)
        if num.is_zero():
            return RationalFunction.zero(target_arity)
        return RationalFunction(target_arity, num, counts)

    def drop_variable(self, i):
        """Remove an unused variable slot, renumbering higher slots down."""
        for m in self.num.terms:
            if m[i - 1]:
                raise ArityMismatch("x%d appears in the numerator" % i)
        for f in self.den:
            if f[i]:
                raise ArityMismatch("x%d appears in a denominator form" % i)
        num = Polynomial(self.arity - 1,
                         {m[:i - 1] + m[i:]: c for m, c in self.num.terms.items()})
        den = {f[:i] + f[i + 1:]: k for f, k in self.den.items()}
        return RationalFunction(self.arity - 1, num, den)

    def extended(self, target_arity, offset=0):
        """View in a larger ring, with variables shifted up by offset."""
        num = self.num.extended(target_arity, offset)
        den = {}
        for f, k in self.den.items():
            nf = (f[0],) + (0,) * offset + f[1:] + (0,) * (target_arity - self.arity - offset)
            den[nf] = k
        return RationalFunction(target_arity, num, den)

    def evaluate(self, point):
        """Exact evaluation at a rational point off the polar locus."""
        num = self.num.evaluate(point)
        for f, k in self.den.items():
            v = f[0] + sum(f[i] * point[i - 1] for i in range(1, self.arity + 1))
            if v == 0:
                raise ZeroDivisionError("point lies on %s" % form_text(f))
            num /= v ** k
        return num

    def homogeneous_parts(self):
        """dict degree -> RationalFunction (degree = num part deg - den deg)."""
        if any(f[0] for f in self.den):
            raise ValueError("inhomogeneous denominator form")
        dd = self.den_degree()
        return {d - dd: RationalFunction(self.arity, p, dict(self.den))
                for d, p in self.num.homogeneous_parts().items()}

    # -- serialization

    def _den_sorted(self):
        def key(f):
            pair = form_difference_pair(f)
            return (0, pair) if pair else (1, f)
        return sorted(self.den, key=key)

    def text(self):
        num = "(%s)" % self.num.text()
        if not self.den:
            return num
        forms = []
        for f in self._den_sorted():
            forms.extend([form_text(f)] * self.den[f])
        return "%s/( %s )" % (num, " ".join(forms))

    def __repr__(self):
        return "RF[%d] %s" % (self.arity, self.text())

    def to_json_dict(self):
        if not self.has_structured_denominator():
            raise ValueError("widened affine denominators are not serializable")
        num = []
        for m, c in self.num.sorted_terms():
            p, q = as_int_pair(c)
            num.append([p, q, list(m)])
        den = []
        for f in self._den_sorted():
            den.extend([list(form_difference_pair(f))] * self.den[f])
        return {"arity": self.arity, "num": num, "den": den}

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data):
        arity = data["arity"]
        terms = {}
        for p, q, exps in data["num"]:
            if len(exps) != arity:
                raise ParseError("exponent tuple of wrong length")
            terms[tuple(exps)] = QQ(p, q)
        num = Polynomial(arity, {m: c for m, c in terms.items() if c != 0})
        return cls.from_num_den(num, [linear_form(a, b, arity)
                                      for a, b in data["den"]])

    @classmethod
    def from_json(cls, s):
        return cls.from_json_dict(json.loads(s))


class _DivisibilityTester:
    """Modular divisibility pretest, shared by the forms tested on one
    numerator.

    The coefficients are reduced mod p and the variables set to a fixed
    point mod p.  For a pivot variable v, the numerator then collapses to
    a one-variable polynomial sum(S_e t^e) in t = x_v; testing a form with
    pivot v is one Horner evaluation at the t of the form's hyperplane.  A
    nonzero value certifies non-divisibility.  The reduction waits for the
    first form tested.
    """

    __slots__ = ("poly", "point", "values", "layers")

    def __init__(self, poly):
        self.poly = poly
        self.point = [(i + 1) * _STEP % _P for i in range(poly.arity)]
        self.values = None
        self.layers = {}

    def _term_values(self):
        """(monomial, its term's value mod p at the point) for each term;
        False if p divides a denominator."""
        inverses = {}
        max_deg = [0] * self.poly.arity
        values = []
        for m, c in self.poly.terms.items():
            num, den = as_int_pair(c)
            inv = inverses.get(den)
            if inv is None:
                if den % _P == 0:
                    return False
                inv = inverses[den] = pow(den, -1, _P)
            values.append((m, num * inv))
            for i, e in enumerate(m):
                if e > max_deg[i]:
                    max_deg[i] = e
        powers = []
        for x, d in zip(self.point, max_deg):
            row = [1]
            for _ in range(d):
                row.append(row[-1] * x % _P)
            powers.append(row)
        for j, (m, val) in enumerate(values):
            for i, e in enumerate(m):
                if e:
                    val = val * powers[i][e] % _P
            values[j] = (m, val)
        return values

    def _layer(self, v):
        """[S_0, S_1, ..] mod p for the pivot x_v; None if p divides a
        denominator."""
        if v in self.layers:
            return self.layers[v]
        if self.values is None:
            self.values = self._term_values()
        layer = None
        if self.values:
            # divide the power of x_v back out of each term's value
            x_inv = pow(self.point[v - 1], -1, _P)
            inv_powers = [1]
            layer = [0]
            for m, val in self.values:
                e = m[v - 1]
                while e >= len(layer):
                    inv_powers.append(inv_powers[-1] * x_inv % _P)
                    layer.append(0)
                layer[e] += val * inv_powers[e]
        self.layers[v] = layer
        return layer

    def may_divide(self, form):
        """False only if the form certainly does not divide."""
        v = _form_pivot(form)
        cv = form[v] % _P
        layer = self._layer(v)
        if layer is None or not cv:
            return True
        acc = form[0]
        for i in range(1, len(form)):
            if i != v and form[i]:
                acc += form[i] * self.point[i - 1]
        t = -acc * pow(cv, -1, _P) % _P
        total = 0
        for s in reversed(layer):
            total = (total * t + s) % _P
        return total == 0


def _cancel(num, counts):
    """Divide the nonzero num by each form of counts while the form
    divides it, lowering counts in place; returns the quotient."""
    tester = _DivisibilityTester(num)
    for f in sorted(counts):
        while counts[f] > 0:
            q = num.divide_form(f, tester)
            if q is None:
                break
            num, tester = q, _DivisibilityTester(q)
            counts[f] -= 1
    return num


def _independent(images):
    """Whether the linear parts of the images are linearly independent,
    decided exactly by fraction-free elimination.  An image with a
    non-integral coefficient counts as dependent."""
    pivots = []
    for img in images:
        if any(c.denominator != 1 for c in img[1:]):
            return False
        row = [int(c) for c in img[1:]]
        for col, prow in pivots:
            if row[col]:
                p, r = prow[col], row[col]
                row = [p * a - r * b for a, b in zip(row, prow)]
        col = next((j for j, c in enumerate(row) if c), None)
        if col is None:
            return False
        pivots.append((col, row))
    return True


def _common_den(values):
    """Least common multiple of the values' denominators, form -> power."""
    common = {}
    for v in values:
        for f, k in v.den.items():
            if common.get(f, 0) < k:
                common[f] = k
    return common


def _over(v, common):
    """Numerator of v written over the common denominator."""
    return v.num.mul_forms(f for f, k in common.items()
                           for _ in range(k - v.den.get(f, 0)))


def rf_sum_a(arity, values):
    values = [v for v in values if not v.is_zero()]
    if not values:
        return RationalFunction.zero(arity)
    common = _common_den(values)
    total = {}
    for v in values:
        if v.arity != arity:
            raise ArityMismatch("mixed arities in sum")
        _accumulate(total, _over(v, common).terms)
    return RationalFunction._normalized(arity, Polynomial(arity, total),
                                        dict(common))


def coefficient_rows(values):
    """Linear conditions on c for sum c_i values_i = 0.

    The values are cleared to their common denominator; there is one row
    per monomial of the cleared numerators, in sorted order, and entry i
    of a row is that monomial's coefficient in the numerator of
    values_i.  The sum vanishes exactly when c is orthogonal to every row.
    """
    common = _common_den(values)
    cleared = [_over(v, common).terms for v in values]
    monos = set()
    for terms in cleared:
        monos.update(terms)
    return [[terms.get(m, ZERO) for terms in cleared] for m in sorted(monos)]


# ---------------------------------------------------------------------------
# text parsing


_TOKEN = re.compile(r"\s*(x\d+|\^|\d+/\d+|\d+|[+\-*/()])")


def _tokenize(s):
    tokens = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip():
                raise ParseError("unexpected character %r" % s[pos], pos)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the canonical text grammar.

    poly   := term ('+' term)*
    term   := ['-'] coeff ['*' factors] | ['-'] factors
    factors:= ('x' INT ['^' INT])+
    rf     := '(' poly ')' ['/' '(' form+ ')']
            | poly ['/' denprod]        (tolerant input form)
    denprod:= '(' factor ('*' factor)* ')'
    factor := 'x' INT | '(' form ')'
    form   := 'x' INT ['-' 'x' INT]
    """

    def __init__(self, s, arity=None):
        self.s = s
        self.tokens = _tokenize(s)
        self.i = 0
        self.arity = arity
        self.max_var = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of input", len(self.s))
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        tok, pos = self.next()
        if tok != value:
            raise ParseError("expected %r, found %r" % (value, tok), pos)

    def var_index(self, tok, pos):
        idx = int(tok[1:])
        if idx == 0:
            raise ParseError("x0 is internal and cannot be used", pos)
        self.max_var = max(self.max_var, idx)
        return idx

    def parse_factors(self):
        exps = {}
        while self.peek() is not None and self.peek().startswith("x"):
            tok, pos = self.next()
            idx = self.var_index(tok, pos)
            power = 1
            if self.peek() == "^":
                self.next()
                ptok, ppos = self.next()
                if not ptok.isdigit():
                    raise ParseError("expected exponent", ppos)
                power = int(ptok)
            exps[idx] = exps.get(idx, 0) + power
        return exps

    def parse_term(self):
        sign = 1
        while self.peek() in ("+", "-"):
            tok, _ = self.next()
            if tok == "-":
                sign = -sign
        tok = self.peek()
        if tok is None:
            raise ParseError("empty term", len(self.s))
        if tok.startswith("x"):
            coeff = QQ(sign)
            exps = self.parse_factors()
        else:
            ctok, cpos = self.next()
            try:
                coeff = rat_from_str(ctok) * sign
            except ValueError:
                raise ParseError("bad coefficient %r" % ctok, cpos)
            exps = {}
            if self.peek() == "*":
                self.next()
                exps = self.parse_factors()
        return coeff, exps

    def parse_poly_terms(self):
        terms = [self.parse_term()]
        while self.peek() in ("+", "-"):
            if self.peek() == "+":
                self.next()
            terms.append(self.parse_term())
        return terms

    def parse_form(self):
        tok, pos = self.next()
        if not tok.startswith("x"):
            raise ParseError("expected a variable in a denominator form", pos)
        a = self.var_index(tok, pos)
        b = 0
        if self.peek() == "-":
            self.next()
            tok2, pos2 = self.next()
            if not tok2.startswith("x"):
                raise ParseError("expected a variable after '-'", pos2)
            b = self.var_index(tok2, pos2)
        return a, b

    def parse(self):
        # numerator
        if self.peek() == "(":
            self.next()
            terms = self.parse_poly_terms()
            self.expect(")")
        else:
            terms = self.parse_poly_terms()
        pairs = []
        if self.peek() == "/":
            self.next()
            self.expect("(")
            while True:
                if self.peek() == "(":
                    self.next()
                    pairs.append(self.parse_form())
                    self.expect(")")
                elif self.peek() is not None and self.peek().startswith("x"):
                    pairs.append(self.parse_form())
                else:
                    tok, pos = self.next()
                    raise ParseError("expected a denominator factor, found %r"
                                     % tok, pos)
                if self.peek() == "*":
                    self.next()
                    continue
                if self.peek() == ")":
                    self.next()
                    break
        if self.i != len(self.tokens):
            tok, pos = self.tokens[self.i]
            raise ParseError("trailing input %r" % tok, pos)
        arity = self.arity if self.arity is not None else self.max_var
        if self.max_var > arity:
            raise ParseError("variable x%d exceeds arity %d"
                             % (self.max_var, arity))
        num = Polynomial(arity)
        for coeff, exps in terms:
            m = [0] * arity
            for idx, e in exps.items():
                m[idx - 1] = e
            num = num + Polynomial.monomial(arity, tuple(m), coeff)
        den = []
        sign = ONE
        for a, b in pairs:
            if b and b > a:
                a, b = b, a
                sign = -sign
            if a == b:
                raise ParseError("zero denominator form")
            den.append(linear_form(a, b, arity))
        if sign != 1:
            num = num.scale(sign)
        return RationalFunction.from_num_den(num, den)


def parse(s, arity=None):
    """Parse the canonical text form (tolerant about '*' in denominators)."""
    return _Parser(s, arity).parse()
