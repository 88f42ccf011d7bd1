"""Period-polynomial spaces, exceptional depth-4 elements, and brute-force
nullspace solvers for the linearized equation families.

Only the polynomial avatars of modular forms appear here: spaces of
antisymmetric bivariate polynomials satisfying the three-term relation,
split by parity, and the dimension generating series they are compared
against.

The solvers take an ansatz of monomials x^e over a fixed denominator D
and linear conditions given as data: a condition is a sum of
substitution terms (weight, pre, targets), each sending f to weight times
f o pre relabelled x_j -> x_targets[j-1].  The (p,q) linearized shuffle
and stuffle terms take pre = P (prefix sums) or the identity and the
shuffle words as targets; the period relations take the PSL2(Z) images
and the swap.  ratfun.condition_rows turns the conditions into integer
rows with the kernel of the conditions' values.
"""

from __future__ import annotations

from .rationals import QQ
from .ratfun import (Polynomial, RationalFunction, coefficient_rows,
                     condition_rows, diff_vector, linear_form, monomials,
                     var_vector)
from . import linalg
from .dsh_check import prefix_images
from .gens import c_n
from .series import cyclic_sum
from .words import shuffle


# ---------------------------------------------------------------------------
# dimension generating series


def series_coefficients(num_exps, den_factors, bound):
    """Coefficients of s^k, k <= bound, of sum(s^e) / prod(1 - s^f)."""
    coeffs = [0] * (bound + 1)
    for e in num_exps:
        if e <= bound:
            coeffs[e] += 1
    for f in den_factors:
        # multiply by the expansion of 1/(1 - s^f)
        for k in range(f, bound + 1):
            coeffs[k] += coeffs[k - f]
    return coeffs


def dimension_series(name, bound):
    """Named dimension series evaluated to the given bound."""
    if name == "cusp":            # s^12 / ((1-s^4)(1-s^6))
        return series_coefficients([12], [4, 6], bound)
    if name == "ls1":             # s^3 / (1-s^2)
        return series_coefficients([3], [2], bound)
    if name == "ls2":             # s^8 / ((1-s^2)(1-s^6))
        return series_coefficients([8], [2, 6], bound)
    if name == "c2":              # s / (s^4 - s^3 - s + 1) = s/((1-s)(1-s^3))
        return series_coefficients([1], [1, 3], bound)
    if name == "h13":             # s / ((1-s^2)(1-s^6)) - s
        out = series_coefficients([1], [2, 6], bound)
        if bound >= 1:
            out[1] -= 1
        return out
    raise ValueError("unknown series %r" % name)


def lie3_dimensions(gen_dims, bound):
    """Degree-3 part of the free Lie algebra on a graded set.

    gen_dims: coefficient list of the generator series v(s); returns the
    coefficients of (v(s)^3 - v(s^3)) / 3.
    """
    v = list(gen_dims) + [0] * (3 * bound)
    cube = [0] * (bound + 1)
    for a in range(bound + 1):
        if not v[a]:
            continue
        for b in range(bound + 1 - a):
            if not v[b]:
                continue
            for c in range(bound + 1 - a - b):
                if v[c]:
                    cube[a + b + c] += v[a] * v[b] * v[c]
    out = [0] * (bound + 1)
    for k in range(bound + 1):
        sub = v[k // 3] if k % 3 == 0 else 0
        val = cube[k] - sub
        if val % 3:
            raise ArithmeticError("free Lie count not divisible by 3")
        out[k] = val // 3
    return out


# ---------------------------------------------------------------------------
# solution spaces of linear conditions


def _kernel(arity, exps, conditions, den=()):
    """Basis of the combinations of the monomials x^e / den, e in exps,
    that every condition sends to zero, in free-column normal form."""
    den = dict(den)
    return [RationalFunction.from_num_den(
                Polynomial(arity, {m: c for m, c in zip(exps, vec)
                                   if c != 0}), den)
            for vec in linalg.nullspace(
                condition_rows(arity, exps, conditions, den), len(exps))]


# substitution images in two variables x = x1, y = x2; U is the order-three
# element (x, y) -> (x - y, x) of PSL2(Z)
_ID2 = (var_vector(2, 1), var_vector(2, 2))
_SWAP = (var_vector(2, 2), var_vector(2, 1))                   # (y, x)
_U = (diff_vector(2, 1, 2), var_vector(2, 1))                  # (x - y, x)
_U2 = (var_vector(2, 2, negate=True), diff_vector(2, 1, 2))    # (-y, x - y)
_MINUS_U = (diff_vector(2, 2, 1), var_vector(2, 1, negate=True))  # (y - x, -x)

# f(x, y) + f(y, x)
_ANTISYMMETRY = [(1, _ID2, (1, 2)), (1, _ID2, (2, 1))]


# ---------------------------------------------------------------------------
# period polynomials


class PeriodPolynomial:
    """Bivariate homogeneous antisymmetric polynomial with the three-term
    relation; parity refers to evenness of both exponents."""

    __slots__ = ("poly", "parity")

    def __init__(self, poly, parity):
        self.poly = poly
        self.parity = parity

    def degree(self):
        return self.poly.degree()

    def __repr__(self):
        return "PeriodPolynomial(%s, %s)" % (self.poly.text(), self.parity)


def period_space(weight, parity):
    """Basis of the period-polynomial space of the given modular weight.

    parity 'even' or 'odd'; the even space is the primitive one, with the
    value at (1, 0) removed (the cusp-form avatar).
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd', got %r" % (parity,))
    if weight % 2 or weight < 4:
        return []
    odd = parity == "odd"
    # the degree is even, so both exponents of a monomial share a parity
    exps = [m for m in monomials(2, weight - 2) if m[0] % 2 == odd]
    conditions = [_ANTISYMMETRY,
                  [(1, _ID2, (1, 2)), (1, _U, (1, 2)), (1, _U2, (1, 2))]]
    if not odd:
        conditions.append([(1, _ID2, (1, 0))])               # y -> 0
    return [PeriodPolynomial(v.num, parity)
            for v in _kernel(2, exps, conditions)]


def p_even_generator(weight):
    """x^(w-2) - y^(w-2), the Eisenstein-type element of the even space."""
    d = weight - 2
    return Polynomial(2, {(d, 0): QQ(1), (0, d): QQ(-1)})


# ---------------------------------------------------------------------------
# exceptional depth-4 elements


def exceptional_e(f):
    """The depth-4 solution attached to a primitive even period polynomial.

    f must vanish along x = 0, y = 0 and x = y; the result is the reduced
    cyclic sum, a polynomial in four variables.
    """
    if isinstance(f, PeriodPolynomial):
        f = f.poly
    rf = RationalFunction.from_poly(f)
    f0 = rf.divide_form_exact(linear_form(1, 0, 2)) \
           .divide_form_exact(linear_form(2, 0, 2)) \
           .divide_form_exact(linear_form(2, 1, 2)).scale(-1)
    f1 = rf.divide_form_exact(linear_form(1, 0, 2)) \
           .divide_form_exact(linear_form(2, 0, 2))
    if not (f0.is_polynomial() and f1.is_polynomial()):
        raise ValueError("input must vanish along x=0, y=0 and x=y")
    # f1(y_4-y_3, y_2-y_1) + (y_0-y_1) f0(y_2-y_3, y_4-y_3), y_i in slot i+1
    lin = RationalFunction.from_poly(
        Polynomial.variable(5, 1) - Polynomial.variable(5, 2))
    seed = (f1.substitute_affine([diff_vector(5, 5, 4),
                                  diff_vector(5, 3, 2)], 5)
            + lin * f0.substitute_affine([diff_vector(5, 3, 4),
                                          diff_vector(5, 5, 4)], 5))
    return cyclic_sum(seed)


# ---------------------------------------------------------------------------
# linearized double shuffle nullspaces


def _linearized(p, q, sharp):
    """The (p,q) linearized equation: f at x_(w1), .., x_(wn), or at the
    prefix sums along w when sharp, summed over the shuffles w of (1..p)
    and (p+1..p+q) (dsh_check.check_linearized)."""
    n = p + q
    pre = (prefix_images(n) if sharp
           else tuple(var_vector(n, i) for i in range(1, n + 1)))
    return [(c, pre, w) for w, c in
            shuffle(range(1, p + 1), range(p + 1, n + 1)).items()]


# largest monomial ansatz lin_ds_nullspace accepts
_ANSATZ_CAP = 20000


def lin_ds_nullspace(depth, weight, allow_poles=False):
    """Exact basis of linearized double shuffle solutions.

    allow_poles=False solves over polynomials of degree weight - depth;
    allow_poles=True solves over numerators divided by the consecutive
    difference product (the restricted pole shape).
    """
    if allow_poles:
        den = c_n(depth).den
        num_degree = weight + 1
    else:
        den = {}
        num_degree = weight - depth
    exps = monomials(depth, num_degree)
    if len(exps) > _ANSATZ_CAP:
        raise ValueError("ansatz of %d monomials exceeds the cap"
                         % len(exps))
    conditions = [_linearized(p, depth - p, sharp)
                  for p in range(1, depth // 2 + 1) for sharp in (False, True)]
    if depth == 1:
        # evenness constraint from the depth-two stuffle family: the odd
        # part (f(x) - f(-x)) / 2
        conditions.append([(QQ(1, 2), (var_vector(1, 1),), (1,)),
                           (QQ(-1, 2), (var_vector(1, 1, negate=True),),
                            (1,))])
    return _kernel(depth, exps, conditions, den)


def ls_dimension(depth, weight, allow_poles=False):
    return len(lin_ds_nullspace(depth, weight, allow_poles))


# ---------------------------------------------------------------------------
# the depth-2 bracket map and its kernel


def bracket_kernel_ls2(weight):
    """Kernel dimension of the bracket pairing of two depth-1 solutions.

    The domain is spanned by the brackets of x1^(2a) with x1^(2b) for
    a < b, 2a + 2b + 2 = weight.
    """
    from .series import ihara_bracket_component
    if weight % 2:
        return 0, []
    pairs = [(a, (weight - 2) // 2 - a)
             for a in range(1, (weight - 2) // 4 + 1)
             if a < (weight - 2) // 2 - a]
    if not pairs:
        return 0, pairs
    brackets = []
    for a, b in pairs:
        xa = RationalFunction.power_of_var(1, 1, 2 * a)
        xb = RationalFunction.power_of_var(1, 1, 2 * b)
        brackets.append(ihara_bracket_component(xa, xb))
    kernel = linalg.nullspace(coefficient_rows(brackets), len(brackets))
    return len(kernel), pairs


# ---------------------------------------------------------------------------
# the antisymmetric cyclic space in two variables


def pi2(f):
    """Projection onto antisymmetric cyclic-sum-zero polynomials."""
    h = f - f.substitute_affine(_MINUS_U, 2)
    return h - h.substitute_affine(_SWAP, 2)


def c2_space(degree):
    """Basis of antisymmetric polynomials with vanishing cyclic sum."""
    conditions = [_ANTISYMMETRY,
                  [(1, _ID2, (1, 2)), (1, _MINUS_U, (1, 2)),
                   (1, _U2, (1, 2))]]
    return [v.num for v in _kernel(2, monomials(2, degree), conditions)]
