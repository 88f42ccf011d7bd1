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
and the swap.  Every condition's integer rows are built from the images
pre(x^e), one form product per monomial.  Column e holds the cleared
numerator N_e = L * C * r_e, where r_e is the condition's value on
x^e / D, C the lcm of the terms' images of D and L clears the weights;
L * C is nonzero, so the kernel is that of the values (see _kernel).
"""

from __future__ import annotations

from math import lcm

from .rationals import QQ
from .ratfun import (_MASK, PoleOrderError, Polynomial, RationalFunction,
                     _accumulate, _pack, _product, _relabel, _relabelling,
                     _shift, _times_form, coefficient_rows, diff_vector,
                     form_substitute, form_text, linear_form, rf_sum_a,
                     var_vector)
from . import linalg
from .dsh_check import _prefix_images
from .gens import c_n
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


def _monomials(arity, degree):
    if degree < 0:
        return []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, arity)
    return out


def _monomial_images(images, monomials):
    """The integer terms of m(images), the monomial m with x_i ->
    images[i-1] (integer forms in as many variables), for each of the
    monomials, which share one degree.

    The images are built degree by degree: the image of m is the image
    of m / x_i times images[i-1], one form product, for the x_i of m whose
    image has the fewest terms, and only the previous degree's images are
    kept.  No step raises the degree above that of m."""
    arity = len(images)
    keys = [_pack(arity, m) for m in monomials]
    if not keys or images == _identity(arity):
        return [{k: 1} for k in keys]
    steps = [(_shift(arity, i), (1 << _shift(arity, i)) + 1, images[i - 1])
             for i in sorted(range(1, arity + 1),
                             key=lambda i: sum(map(bool, images[i - 1])))]
    layer = {0: {0: 1}}
    for d in range(1, sum(monomials[0]) + 1):
        prev, layer = layer, {}
        for m in _monomials(arity, d):
            k = _pack(arity, m)
            unit, img = next((unit, img) for s, unit, img in steps
                             if k >> s & _MASK)
            layer[k] = _times_form(prev[k - unit], img)
    return [layer[k] for k in keys]


def _identity(n):
    return tuple(var_vector(n, i) for i in range(1, n + 1))


def _term_images(pre, targets):
    """The images of x_1, .., x_n under a term: pre, then x_j ->
    x_targets[j-1]."""
    out = []
    for img in pre:
        v = [img[0]] + [0] * len(targets)
        for c, t in zip(img[1:], targets):
            if t:
                v[t] += c
        out.append(tuple(v))
    return out


def _condition_rows(arity, monomials, images, condition, den):
    """The integer rows of one condition (see _kernel); images[pre][j] is
    the image of monomials[j] under pre.  A cofactor raises the degree
    of the ansatz by a few forms; _ANSATZ_CAP keeps every ansatz that has
    one far below the field limit of a packed monomial."""
    terms = []
    common = {}
    for weight, pre, targets in condition:
        weight = QQ(weight)
        forms = {}
        term_images = _term_images(pre, targets)
        for f, k in den.items():
            s, g = form_substitute(f, term_images, arity)
            if g is None:
                raise PoleOrderError("denominator form %s becomes "
                                     "identically zero" % form_text(f))
            weight /= s ** k
            if g:
                forms[g] = forms.get(g, 0) + k
                common[g] = max(common.get(g, 0), forms[g])
        terms.append((weight, forms, images[pre], targets))
    scale = lcm(*(weight.denominator for weight, _, _, _ in terms))
    parts = []
    for weight, forms, image, targets in terms:
        # the forms of C that the term's image of D lacks
        missing = [g for g, k in common.items()
                   for _ in range(k - forms.get(g, 0))]
        cofactor = {0: 1} if missing else None
        for g in missing:
            cofactor = _times_form(cofactor, g)
        parts.append(((weight * scale).numerator, cofactor, image,
                      _relabelling(arity, targets, arity)))
    columns = []
    for j in range(len(monomials)):
        total = {}
        for weight, cofactor, image, moves in parts:
            ints = _relabel(image[j], moves)
            if cofactor:
                ints = _product(ints, cofactor)
            _accumulate(total, ints, weight)
        columns.append(total)
    keys = sorted(set().union(*columns))
    return [tuple(column.get(k, 0) for column in columns) for k in keys]


def _kernel(arity, monomials, conditions, den=()):
    """Basis of the combinations of monomials / den that every condition
    sends to zero, in free-column normal form.

    A condition is a list of terms (weight, pre, targets); a term sends f
    to weight * (f o pre) relabelled x_j -> x_targets[j-1] (target 0 sends
    x_j to 0), pre being a tuple of integer affine images, and the
    condition sends f to the sum of its terms.  A term sends x^e / D to
    weight / s * relabel(pre(x^e)) / D_t, where D_t is the image of D as
    canonical forms and s its scalar (a form that goes to zero raises
    PoleOrderError, one that goes to a constant joins s).  With C the lcm
    of the D_t of a condition and L the lcm of the denominators of the
    weight / s, column e of the condition's rows holds the integer
    coefficients of
      N_e = sum over terms of L * weight / s * relabel(pre(x^e)) * C / D_t
          = L * C * r_e,
    where r_e is the condition's value on x^e / D.  L * C is nonzero, so
    sum c_e r_e = 0 exactly when sum c_e N_e = 0: the kernel is that of
    the values.  The images pre(x^e) are built once per distinct pre, one
    form product per monomial.
    """
    den = dict(den)
    images = {}
    for condition in conditions:
        for _, pre, _ in condition:
            if pre not in images:
                images[pre] = _monomial_images(pre, monomials)
    # the linearized families repeat many rows, within a condition and
    # across conditions; each distinct row is reduced once
    rows = {}
    for condition in conditions:
        rows.update(dict.fromkeys(_condition_rows(
            arity, monomials, images, condition, den)))
    return [RationalFunction.from_num_den(
                Polynomial(arity, {m: c for m, c in zip(monomials, vec)
                                   if c != 0}), den)
            for vec in linalg.nullspace(list(rows), len(monomials))]


# substitution images in two variables x = x1, y = x2; U is the order-three
# element (x, y) -> (x - y, x) of PSL2(Z)
_ID2 = _identity(2)
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
    monomials = [m for m in _monomials(2, weight - 2) if m[0] % 2 == odd]
    conditions = [_ANTISYMMETRY,
                  [(1, _ID2, (1, 2)), (1, _U, (1, 2)), (1, _U2, (1, 2))]]
    if not odd:
        conditions.append([(1, _ID2, (1, 0))])               # y -> 0
    return [PeriodPolynomial(v.num, parity)
            for v in _kernel(2, monomials, conditions)]


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
    parts = []
    m = 5
    for k in range(5):
        def y(i):
            return (i + k) % 5 + 1
        img1 = [diff_vector(m, y(4), y(3)), diff_vector(m, y(2), y(1))]
        parts.append(f1.substitute_affine(img1, m))
        img0 = [diff_vector(m, y(2), y(3)), diff_vector(m, y(4), y(3))]
        lin = RationalFunction.from_poly(
            Polynomial.variable(m, y(0)) - Polynomial.variable(m, y(1)))
        parts.append(lin * f0.substitute_affine(img0, m))
    total = rf_sum_a(m, parts)
    images = [var_vector(4, 0)] + [var_vector(4, i) for i in range(1, 5)]
    return total.substitute_affine(images, 4)


# ---------------------------------------------------------------------------
# linearized double shuffle nullspaces


def _linearized(p, q, sharp):
    """The (p,q) linearized equation: f at x_(w1), .., x_(wn), or at the
    prefix sums along w when sharp, summed over the shuffles w of (1..p)
    and (p+1..p+q) (dsh_check.check_linearized)."""
    n = p + q
    pre = _prefix_images(n) if sharp else _identity(n)
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
    monomials = _monomials(depth, num_degree)
    if len(monomials) > _ANSATZ_CAP:
        raise ValueError("ansatz of %d monomials exceeds the cap"
                         % len(monomials))
    conditions = [_linearized(p, depth - p, sharp)
                  for p in range(1, depth // 2 + 1) for sharp in (False, True)]
    if depth == 1:
        # evenness constraint from the depth-two stuffle family: the odd
        # part (f(x) - f(-x)) / 2
        conditions.append([(QQ(1, 2), _identity(1), (1,)),
                           (QQ(-1, 2), (var_vector(1, 1, negate=True),),
                            (1,))])
    return _kernel(depth, monomials, conditions, den)


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
    return [v.num for v in _kernel(2, _monomials(2, degree), conditions)]
