"""Depth-graded sequences of rational functions and the Ihara calculus.

A DepthSeries models an element of the product over d >= 1 of the rings
O_d, with an optional scalar (depth-zero) part used by the stuffle
exponentials.  Components are reduced functions of x_1..x_d; the
y-coordinate picture (translation-invariant functions of y_0..y_r) is
reached through unreduce/reduce_y, with y_i stored in variable slot i+1.
The cyclic relabellings y_i -> y_(i+k mod m) of such a function are its
rotations; the sporadic and exceptional elements and the dihedral form of
the bracket are sums over them (cyclic_sum reduces the sum at y_0 = 0).

Truncation: components are only stored up to max_depth, and binary
operations propagate the depth range on which the result is exact, so no
silently wrong high-depth component is ever produced.

Cache: the linearized Ihara action of one component on another is kept,
keyed on the exact representation of both inputs.  The zeta elements are
nested brackets of generators over two bases whose low-depth components
agree, and chi is twisted again at each max_depth, so the same pair of
components is acted on many times (ihara_action_component).  Above the
cache, series_ihara_bracket and gens.twist_by_psi0 sum the cached actions
f o g and -(g o f) of one depth in a single rf_sum_a, so each bracket
component is cleared and normalized once: normalization is the largest
cost of the brackets.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .rationals import QQ, ZERO, ONE, rat_from_str, rat_str
from .ratfun import (MAX_ARITY, ArityMismatch, ParseError, RationalFunction,
                     diff_vector, rf_sum_a, var_vector)


class TranslationError(ValueError):
    pass


# the JSON text of a rational: p or p/q with q nonzero
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")


class DepthSeries:
    """Mapping depth -> RationalFunction plus an optional scalar part."""

    __slots__ = ("components", "weight", "max_depth", "const", "complete")

    def __init__(self, components, max_depth, weight=None, const=ZERO,
                 complete=False):
        comps = {}
        for d, f in components.items():
            if f.arity != d:
                raise ArityMismatch("depth %d component has arity %d"
                                    % (d, f.arity))
            if d > max_depth:
                continue
            if not f.is_zero():
                comps[d] = f
        self.components = comps
        self.max_depth = max_depth
        self.weight = weight
        self.const = QQ(const)
        self.complete = complete
        if weight is not None:
            for d, f in comps.items():
                deg = f.degree()
                if deg is not None and deg != weight - d:
                    raise ValueError("depth %d component has degree %d, "
                                     "expected %d" % (d, deg, weight - d))

    @classmethod
    def single(cls, f, max_depth=None, weight=None):
        """Series supported in one depth (complete: zero elsewhere)."""
        d = f.arity
        return cls({d: f}, max_depth if max_depth is not None else d,
                   weight=weight, complete=True)

    @classmethod
    def unit(cls, max_depth):
        return cls({}, max_depth, weight=0, const=ONE, complete=True)

    @classmethod
    def zero(cls, max_depth):
        return cls({}, max_depth, const=ZERO, complete=True)

    def component(self, d):
        if d < 1:
            raise ValueError("use .const for the scalar part" if d == 0
                             else "depth %d is below 1" % d)
        if d > self.max_depth:
            raise ValueError("depth %d beyond truncation order %d"
                             % (d, self.max_depth))
        f = self.components.get(d)
        return f if f is not None else RationalFunction.zero(d)

    def min_support(self):
        """Smallest depth with a nonzero component (None if pure scalar)."""
        return min(self.components) if self.components else None

    def truncated(self, max_depth):
        return DepthSeries(self.components, max_depth, weight=self.weight,
                           const=self.const, complete=self.complete)

    def is_zero(self):
        return not self.components and self.const == 0

    # -- linear structure

    def __add__(self, other):
        md = min(self.max_depth, other.max_depth)
        comps = {}
        for d in set(self.components) | set(other.components):
            if d <= md:
                comps[d] = self.component(d) + other.component(d)
        w = self.weight if self.weight == other.weight else None
        return DepthSeries(comps, md, weight=w, const=self.const + other.const,
                           complete=self.complete and other.complete)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = QQ(c)
        return DepthSeries({d: f.scale(c) for d, f in self.components.items()},
                           self.max_depth, weight=self.weight,
                           const=self.const * c, complete=self.complete)

    def equals(self, other):
        md = min(self.max_depth, other.max_depth)
        if self.const != other.const:
            return False
        return all(self.component(d).equals(other.component(d))
                   for d in range(1, md + 1))

    def __repr__(self):
        body = ", ".join("%d: %s" % (d, f.text())
                         for d, f in sorted(self.components.items()))
        return "DepthSeries(max_depth=%d%s){%s}" % (
            self.max_depth,
            "" if self.const == 0 else ", const=%s" % self.const, body)

    def to_json_dict(self):
        data = {"max_depth": self.max_depth,
                "components": {str(d): f.to_json_dict()
                               for d, f in sorted(self.components.items())}}
        if self.weight is not None:
            data["weight"] = self.weight
        # default const and complete are left out, so the JSON of series
        # without them is unchanged
        if self.const != 0:
            data["const"] = rat_str(self.const)
        if self.complete:
            data["complete"] = True
        return data

    @classmethod
    def from_json_dict(cls, data):
        max_depth = data["max_depth"]
        if not (type(max_depth) is int and 0 <= max_depth <= MAX_ARITY):
            raise ParseError("max_depth %r is not an integer from 0 to %d"
                             % (max_depth, MAX_ARITY))
        comps = {}
        for d, f in data["components"].items():
            if not (d.isascii() and d.isdigit() and int(d) > 0):
                raise ParseError("component key %r is not a positive depth"
                                 % (d,))
            if int(d) > max_depth:
                raise ParseError("component key %r is beyond max_depth %d"
                                 % (d, max_depth))
            comps[int(d)] = RationalFunction.from_json_dict(f)
        weight = data.get("weight")
        if not (weight is None or type(weight) is int):
            raise ParseError("weight %r is not an integer" % (weight,))
        const = data.get("const", "0")
        if not (type(const) is str and _RATIONAL.fullmatch(const)):
            raise ParseError("const %r is not p or p/q with q nonzero"
                             % (const,))
        complete = data.get("complete", False)
        if type(complete) is not bool:
            raise ParseError("complete %r is not true or false"
                             % (complete,))
        return cls(comps, max_depth, weight=weight,
                   const=rat_from_str(const), complete=complete)


def _binary_max_depth(f, g):
    """Exactness bound for a depth-additive binary operation.

    The depth-d output needs a-components up to d - min_support(b) (and up
    to d itself when b has a scalar part), so a's truncation order caps the
    exact range unless a is complete.
    """
    bounds = []

    def side(a, b):
        if a.complete:
            return
        ms = b.min_support()
        if ms is not None:
            bounds.append(a.max_depth + ms)
        if b.const != 0:
            bounds.append(a.max_depth)

    side(f, g)
    side(g, f)
    if not bounds:
        return max(f.max_depth, g.max_depth)
    return min(bounds)


# ---------------------------------------------------------------------------
# coordinate changes


def unreduce(f):
    """Reduced f(x_1..x_r) -> translation-invariant f(y_0..y_r).

    Slot i of the result holds y_(i-1); x_i maps to y_i - y_0.
    """
    r = f.arity
    images = [diff_vector(r + 1, i + 1, 1) for i in range(1, r + 1)]
    return f.substitute_affine(images, r + 1)


def is_translation_invariant(f):
    """Check nabla f = 0 for a y-coordinate function."""
    return f.nabla().is_zero()


def _at_y0_zero(f):
    """f(y_0..y_r) at y_0 = 0, with y_i -> x_i."""
    r = f.arity - 1
    return f.substitute_affine([var_vector(r, i) for i in range(r + 1)], r)


def reduce_y(f):
    """Translation-invariant f(y_0..y_r) -> reduced f(x_1..x_r)."""
    if not is_translation_invariant(f):
        raise TranslationError("function is not translation invariant")
    return _at_y0_zero(f)


def rotations(u):
    """The m cyclic relabellings y_i -> y_(i+k mod m), k = 0..m-1, of a
    function u of y_0..y_(m-1) (y_i in slot i+1), in order of k."""
    m = u.arity
    return [u.substitute_affine([var_vector(m, (i + k) % m + 1)
                                 for i in range(m)], m)
            for k in range(m)]


def cyclic_sum(u):
    """The sum of the rotations of u, reduced at y_0 = 0, without the
    translation-invariance check of reduce_y (it costs many times the sum)."""
    return _at_y0_zero(rf_sum_a(u.arity, rotations(u)))


# ---------------------------------------------------------------------------
# concatenation products


def shuffle_concat(f, g):
    """f(x_1..x_r) * g(x_(r+1)-x_r, .., x_(r+s)-x_r)."""
    r, s = f.arity, g.arity
    n = r + s
    if s == 0 or g.is_zero():
        return f.extended(n) if n > r else f
    images = [diff_vector(n, r + j, r if r else 0) for j in range(1, s + 1)]
    return f.extended(n) * g.substitute_affine(images, n)


def stuffle_concat(f, g):
    """f(x_1..x_p) * g(x_(p+1)..x_(p+q)), disjoint variable blocks."""
    p, q = f.arity, g.arity
    n = p + q
    return f.extended(n) * g.extended(n, offset=p)


def _depthwise(f, g, products):
    """The depth-d component is one sum of the values products(f^(i),
    g^(j)) over i + j = d; a scalar part acts by scaling."""
    md = _binary_max_depth(f, g)
    comps = {}
    for d in range(1, md + 1):
        parts = []
        gd, fd = g.components.get(d), f.components.get(d)
        if f.const != 0 and gd is not None:
            parts.append(gd.scale(f.const))
        if g.const != 0 and fd is not None:
            parts.append(fd.scale(g.const))
        for i in range(1, d):
            fi = f.components.get(i)
            gj = g.components.get(d - i)
            if fi is not None and gj is not None:
                parts.extend(products(fi, gj))
        comps[d] = rf_sum_a(d, parts)
    w = None
    if f.weight is not None and g.weight is not None:
        w = f.weight + g.weight
    return DepthSeries(comps, md, weight=w, const=f.const * g.const,
                       complete=f.complete and g.complete)


def series_stuffle(f, g):
    """Extension of the stuffle concatenation to depth series."""
    return _depthwise(f, g, lambda a, b: (stuffle_concat(a, b),))


def stuffle_exp(nu, max_depth):
    """exp of a scalar-free series in the stuffle algebra."""
    if nu.const != 0:
        raise ValueError("exponential needs a scalar-free argument")
    total = DepthSeries.unit(max_depth)
    term = DepthSeries.unit(max_depth)
    for k in range(1, max_depth + 1):
        term = series_stuffle(term, nu).scale(QQ(1, k)).truncated(max_depth)
        total = total + term
        if term.is_zero():
            break
    return total


# ---------------------------------------------------------------------------
# linearized Ihara action


def _ihara_action_homogeneous(f, g, deg_f):
    """circ-formula for a homogeneous depth-r component acting on depth-s.

    Each f-term is f at the differences x_(b_k) - x_(b_0), k = 1..r, of
    distinct slots b_0, .., b_r (with x_0 = 0), which is u = unreduce(f)
    at y_k -> x_(b_k).  So f is substituted once, and every term with
    b_0 > 0 is a relabel of u; the term with b_0 = 0 is f itself.

    The g-term of index i is g at x_1..x_i, x_(i+r+1)..x_n, i = 0..s.  It
    multiplies f(x_(i+1) - x_i, .., x_(i+r) - x_i) and, for i < s, the
    reversed f(x_(i+r) - x_(i+r+1), .., x_(i+1) - x_(i+r+1)), so g is
    substituted s + 1 times for the 2s + 1 products.  The two f-terms are
    not added before the product: their sum cancels nothing and would be
    one more normalization.
    """
    r, s = f.arity, g.arity
    n = r + s
    sign = QQ(1) if (deg_f + r) % 2 == 0 else QQ(-1)
    u = unreduce(f)

    def f_at(labels):
        # u at y_k -> x_(labels[k])
        return u.substitute_affine([var_vector(n, j) for j in labels], n)

    parts = []
    for i in range(0, s + 1):
        g_i = g.substitute_affine(
            [var_vector(n, j) for j in range(1, i + 1)]
            + [var_vector(n, j) for j in range(i + r + 1, n + 1)], n)
        # f(x_(i+1) - x_i, .., x_(i+r) - x_i), with x_0 = 0
        parts.append((f_at(range(i, i + r + 1)) if i else f.extended(n))
                     * g_i)
        if i < s:
            # f(x_(i+r) - x_(i+r+1), .., x_(i+1) - x_(i+r+1))
            parts.append((f_at(range(i + r + 1, i, -1)) * g_i).scale(sign))
    return rf_sum_a(n, parts)


def ihara_action_component(f, g):
    """Linearized Ihara action on single components (any arities >= 1).

    The value is cached on the exact representation of f and g (arity,
    numerator, denominator multiset): inner brackets such as
    {g_3, g_-1} recur across words, weights and the two bases of anatomy,
    and twist_by_psi0 acts by the same psi_0 components at each max_depth.
    The action is a deterministic function of that representation, so a
    key is sound; two representations of one value only miss a hit.
    """
    return _ihara_action(_key(f), _key(g))


def _key(f):
    return f.arity, f.num, frozenset(f.den.items())


@lru_cache(maxsize=None)
def _ihara_action(f_key, g_key):
    f, g = (RationalFunction(arity, num, dict(den))
            for arity, num, den in (f_key, g_key))
    if f.is_zero() or g.is_zero():
        return RationalFunction.zero(f.arity + g.arity)
    parts = [_ihara_action_homogeneous(RationalFunction(f.arity, piece.num,
                                                        dict(piece.den)),
                                       g, deg)
             for deg, piece in f.homogeneous_parts().items()]
    return rf_sum_a(f.arity + g.arity, parts)


def ihara_bracket_component(f, g):
    return ihara_action_component(f, g) - ihara_action_component(g, f)


def series_ihara_action(f, g):
    """Per-depth action: (f o g)^(d) = sum over i+j=d of f^(i) o g^(j)."""
    if f.const != 0:
        raise ValueError("left action of a scalar is not defined")
    return _depthwise(f, g, lambda a, b: (ihara_action_component(a, b),))


def series_ihara_bracket(f, g):
    """{f, g} = f o g - g o f, one sum per depth: the depth-d component
    is the sum of f^(i) o g^(j) and -(g^(j) o f^(i)) over i + j = d, so
    it is cleared and normalized once."""
    if f.const != 0 or g.const != 0:
        raise ValueError("left action of a scalar is not defined")
    return _depthwise(f, g, lambda a, b: (ihara_action_component(a, b),
                                          -ihara_action_component(b, a)))


# ---------------------------------------------------------------------------
# dihedral operators


def sigma(f):
    """Antipode involution: (-1)^r f(x_r-x_(r-1), .., x_r-x_1, x_r)."""
    r = f.arity
    images = [diff_vector(r, r, r - j) for j in range(1, r)] + [var_vector(r, r)]
    out = f.substitute_affine(images, r)
    return out if r % 2 == 0 else -out


def tau(f):
    """Stuffle reversal: (-1)^r f(x_r, .., x_1)."""
    r = f.arity
    images = [var_vector(r, r + 1 - j) for j in range(1, r + 1)]
    out = f.substitute_affine(images, r)
    return out if r % 2 == 0 else -out


def dihedral_bracket(f, g):
    """Ihara bracket computed by summing over cyclic label rotations.

    Valid for inputs with the cyclic/antipodal symmetries of the polar
    dihedral Lie algebra; agrees with the general bracket there.  The sum
    is oriented to match the commutator f o g - g o f.
    """
    r, s = f.arity, g.arity
    m = r + s + 1
    gy = unreduce(g)

    def g_from(j):
        # g(y_j, .., y_(j+s)), labels mod m
        return gy.substitute_affine([var_vector(m, (j + k) % m + 1)
                                     for k in range(s + 1)], m)

    # f(y_0, .., y_r) * (g(y_(r+1), .., y_(r+s+1)) - g(y_r, .., y_(r+s)))
    seed = unreduce(f).extended(m) * (g_from(r + 1) - g_from(r))
    return reduce_y(rf_sum_a(m, rotations(seed)))


# ---------------------------------------------------------------------------
# truncation


def plus_truncate(xi):
    """Kill every component of homogeneous degree <= 0."""
    if xi.weight is None:
        raise ValueError("plus truncation needs a homogeneous weight")
    comps = {d: f for d, f in xi.components.items() if xi.weight - d >= 1}
    return DepthSeries(comps, xi.max_depth, weight=xi.weight,
                       complete=xi.complete)
