"""Residue maps, the residue filtration, and the sl2 operators.

The basic map R sends a depth-r function to the residue of its simple pole
along x_r = 0, a function of x_1..x_(r-1).  The one exception is the
weight -1, depth-1 case, where the order-2 Laurent coefficient is taken
instead; RationalFunction.laurent gives it, but it is not a residue.
"""

from __future__ import annotations

from .rationals import QQ
from .ratfun import (Polynomial, RationalFunction, linear_form, rf_sum_a,
                     var_vector)
from .series import (ihara_action_component, ihara_bracket_component,
                     reduce_y, rotations, stuffle_concat, unreduce)
from .dsh_check import EquationReport


class FiltrationDegree:
    """Filtration level, or the error state when the depth bound is hit."""

    __slots__ = ("k", "exceeds_depth")

    def __init__(self, k=None, exceeds_depth=False):
        self.k = k
        self.exceeds_depth = exceeds_depth

    def __eq__(self, other):
        if isinstance(other, int):
            return not self.exceeds_depth and self.k == other
        if isinstance(other, FiltrationDegree):
            return ((self.k, self.exceeds_depth)
                    == (other.k, other.exceeds_depth))
        return NotImplemented

    def __repr__(self):
        return "exceeds depth" if self.exceeds_depth else str(self.k)


def R(f):
    """Residue at x_r = 0 as a function of x_1..x_(r-1); at depth 1 a
    double pole gives the coefficient of x1^(-2) instead."""
    r = f.arity
    if r == 0:
        return RationalFunction.zero(0)
    if r == 1 and f.pole_order(linear_form(1, 0, 1)) == 2:
        return f.laurent(1, j=2)
    # residue raises PoleOrderError on any other pole of order above one
    return f.residue(r)


def iterated_R(f, m):
    """Apply R m times (the empty iterate is the identity).  After
    f.arity + 1 passes the value is zero(0), which R fixes."""
    out = f
    for _ in range(min(m, f.arity + 1)):
        out = R(out)
    return out


def filtration_degree(f):
    """Least k with the (k+1)-fold iterate equal to zero."""
    r = f.arity
    g = f
    for k in range(0, r + 1):
        g_next = R(g)
        if g_next.is_zero():
            return FiltrationDegree(k)
        g = g_next
    return FiltrationDegree(exceeds_depth=True)


# ---------------------------------------------------------------------------
# residue calculus identities, returned as checked residuals


def res_of_action(f, g):
    """Res at x_(r+s) = 0 of f o g minus the claimed two-term value."""
    r, s = f.arity, g.arity
    lhs = R(ihara_action_component(f, g))
    res_g = R(g)
    rhs = (ihara_action_component(f, res_g)
           - stuffle_concat(res_g, f))
    return EquationReport.from_residual("res_of_action", (r, s), lhs - rhs)


def res_of_stuffle(f, g):
    """Res at x_(r+s) = 0 of the stuffle concatenation."""
    r, s = f.arity, g.arity
    lhs = R(stuffle_concat(f, g))
    rhs = stuffle_concat(f, R(g))
    return EquationReport.from_residual("res_of_stuffle", (r, s), lhs - rhs)


def res_nabla(f):
    """Res at x_(r+1) = 0 of f o x1^(-2) equals nabla f."""
    r = f.arity
    kappa = RationalFunction.power_of_var(1, 1, -2)
    lhs = R(ihara_action_component(f, kappa))
    return EquationReport.from_residual("res_nabla", (r,), lhs - f.nabla())


def res_nabla_commute(f):
    """Res of nabla equals nabla of Res (one variable fewer).

    Differentiation can raise the pole order at the last coordinate, so
    the left side uses the Laurent coefficient rather than the strict
    simple-pole residue."""
    r = f.arity
    lhs = f.nabla().laurent(r)
    rhs = R(f).nabla()
    return EquationReport.from_residual("res_nabla_commute", (r,), lhs - rhs)


# ---------------------------------------------------------------------------
# total residue on truncated series


def total_residue(xi):
    """Per-depth residues Res at x_d = 0 of the plus-truncated series."""
    out = {}
    for d, comp in xi.components.items():
        out[d] = R(comp)
    return out


def in_kernel(xi):
    """True when every per-depth residue vanishes (all components are
    polynomial, by the cyclic pole structure)."""
    return all(v.is_zero() for v in total_residue(xi).values())


def kernel_reports(xi):
    return [EquationReport.from_residual("total_residue", (d,), res)
            for d, res in sorted(total_residue(xi).items())]


# ---------------------------------------------------------------------------
# sl2 action


def sl2_e(f):
    """Raising operator: bracket with the double pole x1^(-2)."""
    kappa = RationalFunction.power_of_var(1, 1, -2)
    return ihara_bracket_component(kappa, f)


def sl2_f(f):
    """Lowering operator: minus the sum of x_i times the residue collapsing
    slots i and i+1.  Requires poles along consecutive differences only.
    The sign is chosen so that together with sl2_e it closes into an sl2
    pair on solutions (lowering the basic raised elements back up by a
    positive multiple)."""
    r = f.arity
    if r <= 1:
        return RationalFunction.zero(0)
    parts = []
    for i in range(1, r):
        # view f with a fresh variable z in slot r, inserted after slot i:
        # source slot k -> x_k (k <= i), z (k = i+1), x_(k-1) (k >= i+2)
        images = ([var_vector(r, k) for k in range(1, i + 1)]
                  + [var_vector(r, r)]
                  + [var_vector(r, k - 1) for k in range(i + 2, r + 1)])
        g = f.substitute_affine(images, r)
        res = g.residue(r, i)
        parts.append(res * RationalFunction.from_poly(
            Polynomial.variable(r - 1, i)))
    return -rf_sum_a(r - 1, parts)


def sl2_f_via_rotations(f):
    """Cross-check form of the lowering operator on even-weight inputs
    with the restricted pole shape: rotate the top residue around the
    cyclic labels and weight by the coordinates."""
    r = f.arity
    if r <= 1:
        return RationalFunction.zero(0)
    turns = rotations(unreduce(R(f)))
    return rf_sum_a(r - 1, [reduce_y(turns[i]) * RationalFunction.from_poly(
        Polynomial.variable(r - 1, i)) for i in range(1, r)])


def highest_weight_h(a, b):
    """Depth-3 highest-weight vectors for the lowering operator."""
    xa = RationalFunction.power_of_var(1, 1, 2 * a)
    xb = RationalFunction.power_of_var(1, 1, 2 * b)
    kappa = RationalFunction.power_of_var(1, 1, -2)
    t1 = ihara_bracket_component(xa, ihara_bracket_component(kappa, xb))
    t2 = ihara_bracket_component(xb, ihara_bracket_component(kappa, xa))
    return t1.scale(QQ(1, 2 * b)) + t2.scale(QQ(1, 2 * a))


def h4(a, b):
    """Depth-4 highest-weight vectors (exponents a, b even and positive).

    The third coefficient is negative: with these weights the combination
    is the unique (up to scale) kernel element of the lowering operator on
    the three double-raised brackets.
    """
    xa = RationalFunction.power_of_var(1, 1, a)
    xb = RationalFunction.power_of_var(1, 1, b)
    e_xa = sl2_e(xa)
    e_xb = sl2_e(xb)
    t1 = ihara_bracket_component(xa, sl2_e(e_xb)).scale(QQ(1, b * (b - 1)))
    t2 = ihara_bracket_component(e_xa, e_xb).scale(QQ(-2, a * b))
    t3 = ihara_bracket_component(xb, sl2_e(e_xa)).scale(QQ(-1, a * (a - 1)))
    return t1 + t2 + t3


def h3(a, b, c):
    """Depth-4 vectors built from a triple bracket and one raising step."""
    xa = RationalFunction.power_of_var(1, 1, a)
    xb = RationalFunction.power_of_var(1, 1, b)
    xc = RationalFunction.power_of_var(1, 1, c)
    t1 = ihara_bracket_component(
        xa, ihara_bracket_component(xb, sl2_e(xc))).scale(QQ(1, c))
    t2 = ihara_bracket_component(
        xa, ihara_bracket_component(xc, sl2_e(xb))).scale(QQ(1, b))
    return t1 + t2


# ---------------------------------------------------------------------------
# residue structure of the generated Lie algebra


def residue_structure_check(xi, d, i):
    """Res at x_i = 0 of the depth-d component against the stuffle
    factorization through the depth d-i+1 component."""
    # both sides are compared in d-1 variables
    lhs = xi.component(d).residue(i)
    low = xi.component(d - i + 1).residue(1)
    if i == 1:
        rhs = low
    else:
        den = {linear_form(k, 0, i - 1): 1 for k in range(1, i)}
        alpha = RationalFunction.from_num_den(Polynomial.const(i - 1, 1), den)
        rhs = stuffle_concat(alpha, low)
    return EquationReport.from_residual("res_structure", (d, i), lhs - rhs)


def multi_residue_check(f_d, f_low, i, j):
    """General two-index residue factorization along x_i = x_j."""
    d = f_d.arity
    if not 2 <= i - j < d:
        raise ValueError("need 2 <= i - j < depth")
    lhs = f_d.residue(i, j)
    # rhs: 1/((x_(j+1)-x_j)..(x_(i-1)-x_j)) times the residue of the lower
    # component at consecutive slots, in variables x_1..x_j, x_(i+1)..x_d
    dd = d - i + j + 1
    if f_low.arity != dd:
        raise ValueError("lower component must have arity %d" % dd)
    res_low = f_low.residue(j + 1, j)  # arity dd-1
    n = d - 1
    images = ([var_vector(n, k) for k in range(1, j + 1)]
              + [var_vector(n, k - 1) for k in range(i + 1, d + 1)])
    res_low_embedded = res_low.substitute_affine(images, n)
    factor = RationalFunction.from_num_den(
        Polynomial.const(n, 1),
        [linear_form(k, j, n) for k in range(j + 1, i)])
    rhs = res_low_embedded * factor
    return EquationReport.from_residual("multi_residue", (i, j), lhs - rhs)
