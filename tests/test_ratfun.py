import ast
import json
import pathlib
import re
from math import comb, gcd

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import dshuffle
from dshuffle.cli import emit
from dshuffle.rationals import PRIME, QQ
from dshuffle.ratfun import (_MASK, MAX_ARITY, ArityMismatch,
                             ExponentOverflow, ParseError, PoleOrderError,
                             Polynomial, RationalFunction,
                             _DivisibilityTester, _cancel, _pretest_point,
                             _split, _unpack,
                             coefficient_rows, form_normalize, linear_form,
                             rf_sum_a, var_vector)
from dshuffle.gens import psi_zero_component, s_d
from dshuffle.series import ihara_action_component

from conftest import (agrees_pointwise, clear_program_caches, make_rng, mono,
                      random_rf)
from textform import parse


class TestAdd:
    def test_additive_inverse(self):
        f = parse("1/(x1)")
        assert (f + f.scale(-1)).is_zero()

    def test_common_denominator(self):
        got = parse("1/(x1)", 2) + parse("1/(x2)", 2)
        assert got.equals(parse("(x1^1 + x2^1)/(x1*x2)"))

    def test_sum_matches_weight_zero_component(self):
        # brute-force oracle: evaluate both sides at sample points
        a = parse("2/(x1*x2)")
        b = parse("1/(x1*(x1-x2))")
        total = a + b
        for pt in [(QQ(2), QQ(1)), (QQ(5), QQ(3)), (QQ(-7), QQ(2))]:
            assert total.evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
        assert total.equals(s_d(2))
        assert total.equals(psi_zero_component(2).scale(3))

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            parse("1/(x1)") + parse("1/(x2)")


class TestMulScale:
    def test_cancellation(self):
        f = parse("1/(x1)")
        g = parse("x1")
        assert (f * g).equals(RationalFunction.const(1, 1))

    def test_scale_zero(self):
        assert random_rf(make_rng(1), 3).scale(0).is_zero()

    def test_partial_cancellation(self):
        f = parse("1/(x2-x1)")
        sq = parse("x2^2 + -2*x1^1x2^1 + x1^2", 2)
        assert (f * sq).equals(parse("x2 + -1*x1", 2))

    def test_weight_additive_on_homogeneous(self, rng):
        for _ in range(5):
            f = random_rf(rng, 2, num_degree=2, terms=1)
            g = random_rf(rng, 2, num_degree=3, terms=1)
            prod = f * g
            if prod.is_zero():
                continue
            assert prod.degree() == f.degree() + g.degree()
            assert prod.weight() == f.weight() + g.weight() - 2


class TestRingAxioms:
    def test_randomized(self):
        rng = make_rng(77)
        for _ in range(6):
            f = random_rf(rng, 2, 2, 1)
            g = random_rf(rng, 2, 1, 2)
            h = random_rf(rng, 2, 2, 2)
            assert ((f + g) + h).equals(f + (g + h))
            assert (f + g).equals(g + f)
            assert ((f * g) * h).equals(f * (g * h))
            assert (f * g).equals(g * f)
            assert (f * (g + h)).equals(f * g + f * h)

    def test_normal_form_equality_cross_multiplied(self):
        rng = make_rng(99)
        for _ in range(6):
            f = random_rf(rng, 2, 2, 2)
            g = random_rf(rng, 2, 2, 2)
            # equality iff cross-multiplied polynomial identity
            lhs = f.num
            for form, k in g.den.items():
                for _ in range(k):
                    lhs = lhs.mul_form(form)
            rhs = g.num
            for form, k in f.den.items():
                for _ in range(k):
                    rhs = rhs.mul_form(form)
            assert f.equals(g) == (lhs == rhs)


class TestSubstitute:
    def test_sharp_on_x1x2(self):
        f = parse("x1^1x2^1", 2)
        from dshuffle.dsh_check import sharp_eval
        got = sharp_eval(f, (1, 2))
        assert got.equals(parse("x1^2 + x1^1x2^1", 2))

    def test_shift_square(self):
        from dshuffle.ratfun import diff_vector
        f = parse("x1^2")
        got = f.substitute_affine([diff_vector(2, 2, 1)], 2)
        assert got.equals(parse("x2^2 + -2*x1^1x2^1 + x1^2", 2))

    def test_sigma_image_of_monomial(self):
        from dshuffle.series import sigma
        f = parse("x1^2x2^1", 2)
        # r = 2: positive sign, arguments (x2-x1, x2)
        got = sigma(f)
        expect = parse("x2^2 + -2*x1^1x2^1 + x1^2", 2) * parse("x2", 2)
        assert got.equals(expect)

    def test_denominator_vanishes(self):
        from dshuffle.ratfun import var_vector
        f = parse("1/(x2-x1)")
        images = [var_vector(2, 1), var_vector(2, 1)]
        with pytest.raises(PoleOrderError):
            f.substitute_affine(images, 2)

    def test_denominator_becomes_a_constant(self):
        # x1 -> 2, x2 -> x1: the form x1 becomes the scalar 2
        f = parse("x2/(x1)")
        images = [(2, 0), var_vector(1, 1)]
        assert f.substitute_affine(images, 1).equals(parse("x1", 1).scale(
            QQ(1, 2)))


small_rat = st.builds(QQ, st.integers(-6, 6), st.integers(1, 4))
point_rat = st.builds(QQ, st.integers(-60, 60), st.integers(1, 7))


@st.composite
def polynomials(draw, arity):
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(arity))
        terms[exps] = draw(small_rat)
    return Polynomial(arity, {m: c for m, c in terms.items() if c})


@st.composite
def rational_functions(draw, arity):
    pairs = [(a, b) for a in range(1, arity + 1) for b in range(a)]
    den = draw(st.lists(st.sampled_from(pairs), max_size=3))
    return RationalFunction.from_num_den(
        draw(polynomials(arity)), [linear_form(a, b, arity) for a, b in den])


@st.composite
def affine_images(draw, arity):
    """(target arity, images) of one of the kinds the substitution
    kernels tell apart."""
    kind = draw(st.sampled_from(("permutation", "non-injective", "zero",
                                 "sharp", "general")))
    if kind == "permutation":
        perm = draw(st.permutations(range(1, arity + 1)))
        return arity, [var_vector(arity, j) for j in perm]
    target = draw(st.integers(1, 3))
    if kind in ("non-injective", "zero"):
        low = 0 if kind == "zero" else 1
        return target, [var_vector(target, draw(st.integers(low, target)))
                        for _ in range(arity)]
    if kind == "sharp":
        images, acc = [], [0] * (target + 1)
        for _ in range(arity):
            acc = list(acc)
            acc[draw(st.integers(1, target))] += 1
            images.append(tuple(acc))
        return target, images
    return target, [tuple(draw(st.integers(-6, 6))
                          for _ in range(target + 1))
                    for _ in range(arity)]


class TestKernelOracles:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_substitute_affine_commutes_with_evaluation(self, data):
        arity = data.draw(st.integers(1, 3))
        f = data.draw(rational_functions(arity))
        target, images = data.draw(affine_images(arity))
        try:
            g = f.substitute_affine(images, target)
        except PoleOrderError:
            assume(False)
        point = tuple(data.draw(point_rat) for _ in range(target))
        x = tuple(img[0] + sum(img[j] * point[j - 1]
                               for j in range(1, target + 1))
                  for img in images)
        try:
            expected = f.evaluate(x)
        except ZeroDivisionError:
            assume(False)
        assert g.evaluate(point) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mul_form_matches_polynomial_product(self, data):
        arity = data.draw(st.integers(1, 3))
        p = data.draw(polynomials(arity))
        form = tuple(data.draw(st.one_of(st.integers(-3, 3), small_rat))
                     for _ in range(arity + 1))
        as_poly = Polynomial.const(arity, form[0])
        for i in range(1, arity + 1):
            if form[i]:
                as_poly = as_poly + Polynomial.variable(arity, i,
                                                        coeff=form[i])
        assert p.mul_form(form) == p * as_poly

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_pretest_never_rejects_a_divisor(self, data):
        arity = data.draw(st.integers(1, 3))
        q = data.draw(polynomials(arity))
        assume(q)
        coeffs = [data.draw(small_rat) for _ in range(arity + 1)]
        assume(any(coeffs[1:]))
        _, f = form_normalize(coeffs)
        product = q.mul_form(f)
        assert _DivisibilityTester(product).may_divide(f)
        assert product.divide_form(f) == q

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_coefficient_rows_clear_the_sum(self, data):
        arity = data.draw(st.integers(1, 3))
        values = data.draw(st.lists(rational_functions(arity), min_size=1,
                                    max_size=4))
        c = [data.draw(small_rat) for _ in values]
        if data.draw(st.booleans()):
            # minus the sum so far: the total then vanishes
            values.append(-rf_sum_a(arity, [v.scale(ci)
                                            for v, ci in zip(values, c)]))
            c.append(QQ(1))
        rows = coefficient_rows(values)
        dots = [sum(a * ci for a, ci in zip(row, c)) for row in rows]
        total = rf_sum_a(arity, [v.scale(ci) for v, ci in zip(values, c)])
        assert total.is_zero() == all(x == 0 for x in dots)
        # the common denominator multiplied out labels the rows
        common = {}
        for v in values:
            for f, k in v.den.items():
                common[f] = max(common.get(f, 0), k)
        den = Polynomial.const(arity, 1)
        for f, k in common.items():
            for _ in range(k):
                den = den.mul_form(f)
        cleared = [v * RationalFunction.from_poly(den) for v in values]
        assert all(x.is_polynomial() for x in cleared)
        monos = sorted({m for x in cleared for m in x.num.terms})
        assert len(rows) == len(monos)
        # the rows are scaled by the values' common content
        g = _split([v.num.content for v in values])[0]
        numerator = Polynomial(arity, {m: g * x for m, x in zip(monos, dots)
                                       if x})
        assert numerator == (total * RationalFunction.from_poly(den)).num

    def test_division_by_non_monic_pivot(self):
        # 2*x2 - x1 has pivot coefficient 2
        f = (0, -1, 2)
        x1 = Polynomial.variable(2, 1)
        assert x1.mul_form(f).divide_form(f) == x1

    def test_pretest_rejects_when_p_divides_a_denominator(self):
        # 1/p + x1 has the integer numerator 1 + p*x1, which is 1 - p at
        # x1 = -1: nonzero mod p, so x1 + 1 certainly does not divide
        p = (1 << 61) - 1
        num = Polynomial(1, {(0,): QQ(1, p), (1,): QQ(1)})
        assert not _DivisibilityTester(num).may_divide((1, 1))
        assert num.divide_form((1, 1)) is None

    def test_pretest_has_no_bound_when_p_divides_the_pivot(self):
        # p*x2 - x1 is -x1 mod p, with no root on the line of x2
        p = (1 << 61) - 1
        form = (0, -1, p)
        q = parse("x1^2 + x2 + 1", 2).num
        num = q.mul_form(form).mul_form(form)
        tester = _DivisibilityTester(num)
        assert all(tester.may_divide(form) for _ in range(3))
        assert num.divide_form(form).divide_form(form) == q

    def test_division_rejects_an_odd_layer_of_a_non_monic_pivot(self):
        # (p + 2)*x2 - x1 is 2*x2 - x1 mod p, so the pretest passes; the
        # exact division stops at its top layer, p + 2, which the pivot
        # coefficient 2 does not divide
        p = (1 << 61) - 1
        num = Polynomial(2, {(0, 1): QQ(p + 2), (1, 0): QQ(-1)})
        form = (0, -1, 2)
        assert _DivisibilityTester(num).may_divide(form)
        assert num.divide_form(form) is None


@st.composite
def reducible_functions(draw, arity):
    """Rational functions whose numerators carry difference forms, so that
    products and sums have factors to cancel."""
    pairs = [(a, b) for a in range(1, arity + 1) for b in range(a)]
    forms = [linear_form(a, b, arity)
             for a, b in draw(st.lists(st.sampled_from(pairs), max_size=2))]
    den = [linear_form(a, b, arity)
           for a, b in draw(st.lists(st.sampled_from(pairs), max_size=3))]
    return RationalFunction.from_num_den(
        draw(polynomials(arity)).mul_forms(forms), den)


@st.composite
def normalization_images(draw, arity):
    """(target arity, images) of the families that decide whether a
    substitution renormalizes."""
    kind = draw(st.sampled_from(("permutation", "sharp", "collapse", "zero",
                                 "dependent")))
    identity = [var_vector(arity, j) for j in range(1, arity + 1)]
    if kind == "permutation":
        perm = draw(st.permutations(range(1, arity + 1)))
        return arity, [var_vector(arity, j) for j in perm]
    if kind == "sharp":
        target = draw(st.integers(1, 3))
        images, acc = [], [0] * (target + 1)
        for _ in range(arity):
            acc = list(acc)
            acc[draw(st.integers(1, target))] += 1
            images.append(tuple(acc))
        return target, images
    a = draw(st.integers(1, arity))
    if kind == "collapse":
        assume(arity >= 2)
        b = draw(st.sampled_from([j for j in range(1, arity + 1) if j != a]))
        identity[a - 1] = var_vector(arity, b)
        return arity, identity
    if kind == "zero":
        identity[a - 1] = var_vector(arity, 0)
        return arity, identity
    # two random images and a combination of them, all supports distinct
    assume(arity == 3)
    target = draw(st.integers(2, 3))
    coeff = st.integers(-2, 2)
    u, v = [(0,) + tuple(draw(coeff) for _ in range(target))
            for _ in range(2)]
    s, t = draw(st.integers(1, 2)), draw(st.sampled_from((-1, 1)))
    w = tuple(s * x + t * y for x, y in zip(u, v))
    supports = {frozenset(j for j, c in enumerate(img) if c)
                for img in (u, v, w)}
    assume(len(supports) == 3)
    return target, list(draw(st.permutations([u, v, w])))


def _sympy_poly(p, xs):
    return sum((sympy.Rational(int(c.numerator), int(c.denominator))
                * sympy.prod([x ** e for x, e in zip(xs, m)])
                for m, c in p.terms.items()), sympy.Integer(0))


def assert_normalized(g):
    """No denominator form divides the numerator (checked with sympy)."""
    xs = sympy.symbols("x1:%d" % (g.arity + 1))
    num = _sympy_poly(g.num, xs)
    for f in g.den:
        form = f[0] + sum(c * x for c, x in zip(f[1:], xs))
        assert sympy.div(num, form, *xs)[1] != 0, (g, f)


def assert_value(g, expected, point):
    try:
        value = expected(point)
    except ZeroDivisionError:
        return
    assert g.evaluate(point) == value


class TestNormalizationOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_product_and_sum(self, data):
        arity = data.draw(st.integers(1, 3))
        f = data.draw(reducible_functions(arity))
        g = data.draw(reducible_functions(arity))
        h = data.draw(reducible_functions(arity))
        point = tuple(data.draw(point_rat) for _ in range(arity))
        product = f * g
        assert_normalized(product)
        assert_value(product, lambda x: f.evaluate(x) * g.evaluate(x),
                     point)
        total = rf_sum_a(arity, [f, g.scale(-1), h])
        assert_normalized(total)
        assert_value(total, lambda x: f.evaluate(x) - g.evaluate(x)
                     + h.evaluate(x), point)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_substitution(self, data):
        arity = data.draw(st.integers(1, 3))
        f = data.draw(reducible_functions(arity))
        target, images = data.draw(normalization_images(arity))
        try:
            g = f.substitute_affine(images, target)
        except PoleOrderError:
            assume(False)
        assert_normalized(g)
        point = tuple(data.draw(point_rat) for _ in range(target))

        def expected(y):
            return f.evaluate(tuple(
                img[0] + sum(img[j] * y[j - 1] for j in range(1, target + 1))
                for img in images))
        assert_value(g, expected, point)

    def test_dependent_images_renormalize(self):
        # x1/(x2+x3) under x1 -> y1+y2, x2 -> y2+y3, x3 -> y1-y3, where
        # x1 = x2 + x3 holds for the images
        f = RationalFunction.from_num_den(Polynomial.variable(3, 1),
                                          [(0, 0, 1, 1)])
        images = [(0, 1, 1, 0), (0, 0, 1, 1), (0, 1, 0, -1)]
        g = f.substitute_affine(images, 3)
        assert g.den == {}
        assert g.num == Polynomial.const(3, 1)


@st.composite
def pole_sharing_sums(draw, arity):
    """Two to four normalized summands.  Two of them have a pole of one
    order along a difference form and numerators that agree modulo it, so
    that a power of the form cancels, or poles of different orders, so
    that the higher one holds it alone; up to two random summands join
    them."""
    pairs = [(a, b) for a in range(1, arity + 1) for b in range(a)]
    f = linear_form(*draw(st.sampled_from(pairs)), arity)
    k = draw(st.integers(1, 2))
    a, b = draw(polynomials(arity)), draw(polynomials(arity))
    first = RationalFunction.from_num_den(a, {f: k})
    if draw(st.booleans()):
        # a/f^k + (b*f - a)/f^k = b/f^(k-1)
        second = RationalFunction.from_num_den(b.mul_form(f) - a, {f: k})
    else:
        second = RationalFunction.from_num_den(b, {f: k + 1})
    others = draw(st.lists(rational_functions(arity), max_size=2))
    return draw(st.permutations([first, second] + others))


def _sympy_rf(g, xs):
    den = sympy.prod([(f[0] + sum(c * x for c, x in zip(f[1:], xs))) ** k
                      for f, k in g.den.items()])
    return _sympy_poly(g.num, xs), den


def assert_cancel_agrees(g, expr):
    """g is the value of expr in lowest terms, as sympy.cancel finds it."""
    xs = sympy.symbols("x1:%d" % (g.arity + 1))
    num, den = sympy.fraction(sympy.cancel(expr(xs)))
    g_num, g_den = _sympy_rf(g, xs)
    assert sympy.expand(g_num * den - num * g_den) == 0
    assert sympy.Poly(den, *xs).total_degree() == g.den_degree()


class TestCancellation:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_sum_agrees_with_sympy_cancel(self, data):
        arity = data.draw(st.integers(1, 3))
        values = data.draw(pole_sharing_sums(arity))

        def expr(xs):
            return sympy.Add(*(num / den for num, den in
                               (_sympy_rf(v, xs) for v in values)))
        assert_cancel_agrees(rf_sum_a(arity, values), expr)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_product_agrees_with_sympy_cancel(self, data):
        arity = data.draw(st.integers(1, 3))
        f = data.draw(reducible_functions(arity))
        g = data.draw(st.one_of(reducible_functions(arity),
                                rational_functions(arity)))

        def expr(xs):
            (fn, fd), (gn, gd) = _sympy_rf(f, xs), _sympy_rf(g, xs)
            return fn * gn / (fd * gd)
        assert_cancel_agrees(f * g, expr)

    def test_shared_top_pole_cancels(self):
        total = parse("(x1 + x2)/(x1)") + parse("(-1*x2)/(x1)", 2)
        assert total.den == {}
        assert total.num == Polynomial.const(2, 1)

    def test_single_holder_keeps_its_pole(self):
        total = parse("1/(x1*x1)") + parse("1/(x1)")
        assert total.den == {linear_form(1, 0, 1): 2}
        assert total.num == parse("1 + x1").num

    def test_lone_derivative_is_normalized(self):
        # d/dx2 of (x1*x2 + 1)/x1 is x1/x1, and no form involves x2
        g = parse("(x1x2 + 1)/(x1)").partial(2)
        assert g.den == {}
        assert g.num == Polynomial.const(2, 1)

    def test_homogeneous_parts_are_normalized(self):
        f = parse("(x1^2 + x2)/(x1)")
        parts = f.homogeneous_parts()
        for part in parts.values():
            assert_normalized(part)
        assert parts[1].den == {} and parts[1].num == parse("x1", 2).num
        # the Ihara action of f splits over those parts
        g = parse("1/(x1)")
        action = ihara_action_component(f, g)
        assert_normalized(action)
        assert action.equals(ihara_action_component(parse("x1", 2), g)
                             + ihara_action_component(parse("x2/(x1)"), g))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_budget_spans_every_division(self, data):
        arity = data.draw(st.integers(1, 3))
        q = data.draw(polynomials(arity))
        assume(q)
        forms = []
        for _ in range(2):
            coeffs = [data.draw(small_rat) for _ in range(arity + 1)]
            assume(any(coeffs[1:]))
            forms.append(form_normalize(coeffs)[1])
        f, g = forms
        assume(f != g)
        k, j = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 2))
        n = q
        for h in [f] * k + [g] * j:
            n = n.mul_form(h)
        # a fresh tester answers True for the first k units of f and the
        # first j of g
        tester = _DivisibilityTester(n)
        assert all(tester.may_divide(f) for _ in range(k))
        assert all(tester.may_divide(g) for _ in range(j))
        # divisions in any order, through one tester, never see a False
        tester, quotient = _DivisibilityTester(n), n
        for h in data.draw(st.permutations([f] * k + [g] * j)):
            quotient = quotient.divide_form(h, tester)
            assert quotient is not None
        assert quotient == q
        counts = {f: k, g: j}
        assert _cancel(n, counts) == q and counts == {f: 0, g: 0}
        # one unit more of each form: _cancel stops where sympy does
        counts = {f: k + 1, g: j + 1}
        got = RationalFunction(arity, _cancel(n, counts),
                               {h: c for h, c in counts.items() if c})

        def expr(xs):
            sf, sg = (h[0] + sum(c * x for c, x in zip(h[1:], xs))
                      for h in (f, g))
            return _sympy_poly(n, xs) / (sf ** (k + 1) * sg ** (j + 1))
        assert_cancel_agrees(got, expr)

    def test_zero_layers_at_the_degenerate_point(self):
        # x3 - x1 - c, with c = x3 - x1 at the pretest point, vanishes
        # there, so its multiples have the zero layer on the line of x4,
        # whose length - 1 bounds the multiplicity: 0 when the numerator
        # lacks x4
        r = parse("x1^2 + x2x3 + 2", 4).num
        x = _DivisibilityTester(r).point
        f = (-(x[2] - x[0]) % PRIME, -1, 0, 1, 0)
        x4_x1 = linear_form(4, 1, 4)
        n = r.mul_form(f)
        tester = _DivisibilityTester(n)
        assert tester.point == x
        assert tester._layer(4) == [0]
        assert not tester.may_divide(x4_x1)
        counts = {x4_x1: 1, f: 2}
        assert _cancel(n, counts) == r and counts == {x4_x1: 1, f: 1}
        n = n.mul_form(x4_x1).mul_form(x4_x1)
        assert _DivisibilityTester(n)._layer(4) == [0, 0, 0]
        counts = {x4_x1: 3, f: 2}
        assert _cancel(n, counts) == r and counts == {x4_x1: 1, f: 1}

    def test_forms_sharing_a_root_on_the_pivot_line(self):
        # x4 - x3 and x4 - x1 - c, with c = x3 - x1 at the pretest point,
        # share their root on the line of x4, so each one's budget counts
        # the other's factor too
        q = parse("x4^2 + x1x3 + 2", 4).num
        x = _DivisibilityTester(q).point
        a, b = linear_form(4, 3, 4), (-(x[2] - x[0]) % PRIME, -1, 0, 0, 1)
        n = q.mul_form(a)
        tester = _DivisibilityTester(n)
        assert tester.may_divide(b)
        assert n.divide_form(b, tester) is None
        counts = {a: 2, b: 2}
        assert _cancel(n, counts) == q and counts == {a: 1, b: 2}
        both = n.mul_form(b)
        counts = {a: 2, b: 2}
        assert _cancel(both, counts) == q and counts == {a: 1, b: 1}

    @pytest.mark.parametrize("num, form", [
        # an arithmetic progression x_i = i*s puts a root of x2 - 2*x3 on
        # the line of x3 through the root x3 = x1 ...
        ("x2 - 2*x3", linear_form(3, 1, 3)),
        # ... and a geometric one x_i = s^i a root of x3*x4 - x1*x2^2 on
        # the line of x4 through x4 = x2
        ("x3x4 - x1x2^2", linear_form(4, 2, 4))])
    def test_the_pretest_point_has_no_progression(self, num, form):
        n = parse(num).num
        assert n.divide_form(form) is None
        assert _DivisibilityTester(n)._budget(form) == 0

    def test_pretest_point(self):
        # built once per arity; nonzero and distinct mod p, so every form
        # x_a - x_b and x_a is nonzero there
        for arity in (0, 1, 4, MAX_ARITY):
            point = _DivisibilityTester(Polynomial(arity)).point
            assert point is _DivisibilityTester(Polynomial(arity)).point
            assert len(point) == arity == len(set(point))
            assert all(0 < x < PRIME for x in point)
        assert _DivisibilityTester(Polynomial(3)).point == \
            _DivisibilityTester(Polynomial(5)).point[:3]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_cancel_equals_a_plain_division_loop(self, data):
        # q lacks some variables; the numerator q * prod f^k carries forms
        # on any variables, and counts add forms on variables that q lacks
        arity = data.draw(st.integers(2, 4))
        used = data.draw(st.lists(st.integers(1, arity), min_size=1,
                                  max_size=arity - 1, unique=True))
        q = data.draw(polynomials(len(used))).substitute_affine(
            [var_vector(arity, i) for i in sorted(used)], arity)
        assume(q)
        free = [i for i in range(1, arity + 1) if i not in used]
        pairs = [(a, b) for a in range(1, arity + 1) for b in range(a)]
        factors = data.draw(st.lists(st.sampled_from(pairs), max_size=3))
        extra = data.draw(st.lists(st.sampled_from(
            [(a, b) for a, b in pairs if a in free or b in free]),
            max_size=3))
        n = q.mul_forms(linear_form(a, b, arity) for a, b in factors)
        counts = {}
        for a, b in factors + extra + data.draw(st.lists(
                st.sampled_from(pairs), max_size=2)):
            f = linear_form(a, b, arity)
            counts[f] = counts.get(f, 0) + 1
        got_counts = dict(counts)
        got = _cancel(n, got_counts)
        want, want_counts = n, dict(counts)
        for f in sorted(want_counts):
            while want_counts[f] > 0:
                quotient = want.divide_form(f, _NoPretest())
                if quotient is None:
                    break
                want, want_counts[f] = quotient, want_counts[f] - 1
        assert got == want and got_counts == want_counts
        value = RationalFunction(arity, got, {f: k for f, k in
                                              got_counts.items() if k})
        assert_normalized(value)

        def oracle(x):
            v = n.evaluate(x)
            for f, k in counts.items():
                v /= (f[0] + sum(c * y for c, y in zip(f[1:], x))) ** k
            return v
        assert agrees_pointwise(value, oracle,
                                make_rng(data.draw(st.integers(0, 99))),
                                arity)

    def test_a_single_summand_is_its_own_sum(self):
        v = parse("(x1 + x2)/(x1 x2-x1)")
        assert rf_sum_a(2, [v]) is v
        assert rf_sum_a(2, [RationalFunction.zero(2), v]) is v
        with pytest.raises(ArityMismatch):
            rf_sum_a(3, [v])


def _reference_layer(poly, v):
    """The layer of the pivot x_v by its definition, term by term: each
    integer term at the pretest point with x_v left out, mod p, added into
    the slot of its power of x_v; one slot per power up to the highest."""
    x = _pretest_point(poly.arity)
    exps = {k: _unpack(poly.arity, k) for k in poly.ints}
    layer = [0] * (1 + max((e[v - 1] for e in exps.values()), default=0))
    for k, c in poly.ints.items():
        value = c
        for i, e in enumerate(exps[k], 1):
            if i != v:
                value = value * pow(x[i - 1], e, PRIME) % PRIME
        layer[exps[k][v - 1]] = (layer[exps[k][v - 1]] + value) % PRIME
    return layer


def _reference_budget(poly, form):
    """The multiplicity of the form's root in the reference layer, read
    from the Taylor coefficients at the root; a zero layer gives its
    length - 1, and a pivot coefficient that p divides no bound."""
    v = max(i for i, c in enumerate(form) if i and c)
    if not form[v] % PRIME:
        return None
    x = _pretest_point(poly.arity)
    rest = form[0] + sum(c * y for i, (c, y) in enumerate(zip(form[1:], x), 1)
                         if i != v)
    root = -rest * pow(form[v], -1, PRIME) % PRIME
    layer = _reference_layer(poly, v)
    for j in range(len(layer)):
        taylor = sum(comb(i, j) * c * pow(root, i - j, PRIME)
                     for i, c in enumerate(layer) if i >= j) % PRIME
        if taylor:
            return j
    return len(layer) - 1


class TestPretestKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_layers_and_budgets_equal_the_per_term_reference(self, data):
        arity = data.draw(st.integers(1, 4))
        rng = make_rng(data.draw(st.integers(0, 10 ** 6)))
        num = random_rf(rng, arity, num_degree=data.draw(st.integers(0, 4)),
                        terms=data.draw(st.integers(1, 6))).num
        pairs = [(a, b) for a in range(1, arity + 1) for b in range(a)]
        forms = [linear_form(a, b, arity)
                 for a, b in data.draw(st.lists(st.sampled_from(pairs),
                                                max_size=3))]
        for _ in range(data.draw(st.integers(0, 2))):
            coeffs = [data.draw(small_rat) for _ in range(arity + 1)]
            assume(any(coeffs[1:]))
            forms.append(form_normalize(coeffs)[1])
        # some forms divide, some share their root with a factor
        for f in data.draw(st.lists(st.sampled_from(forms), max_size=3)
                           if forms else st.just([])):
            num = num.mul_form(f)
        # a pivot coefficient that p divides
        forms.append((1,) * arity + (PRIME,))
        tester = _DivisibilityTester(num)
        for v in range(1, arity + 1):
            assert tester._layer(v) == _reference_layer(num, v)
        for f in forms:
            assert tester._budget(f) == _reference_budget(num, f)

    def test_layer_vanishing_on_the_pivot_line(self):
        # N = (x1 - P1)(x2 - x1)^2 is zero on the line of x2 through the
        # pretest point P, so the layer is [0, 0, 0]; its length - 1 bounds
        # the multiplicity, and the division succeeds twice
        p1 = _pretest_point(2)[0]
        q = Polynomial.variable(2, 1) - Polynomial.const(2, p1)
        x2_x1 = linear_form(2, 1, 2)
        num = q.mul_form(x2_x1).mul_form(x2_x1)
        tester = _DivisibilityTester(num)
        assert tester._layer(2) == [0, 0, 0]
        assert tester._budget(x2_x1) == 2
        value = RationalFunction.from_num_den(num, {x2_x1: 2})
        assert value.num == q and value.den == {}


class TestPretestWaste:
    def test_no_division_fails_after_the_pretest_passed(self, monkeypatch):
        # counted work: on Ihara brackets and stuffle divided differences
        # every division that the pretest lets through succeeds
        from dshuffle.anatomy import solve_sigma
        from dshuffle.dsh_check import check_stuffle
        from dshuffle.gens import generator
        passed, wasted, divided = [False], [], []
        may_divide = _DivisibilityTester.may_divide
        divide_form = Polynomial.divide_form

        def spy_may_divide(tester, form):
            passed[0] = may_divide(tester, form)
            return passed[0]

        def spy_divide_form(poly, form, tester=None):
            passed[0] = False
            quotient = divide_form(poly, form, tester)
            if quotient is not None:
                divided.append(form)
            elif passed[0]:
                wasted.append((poly, form))
            return quotient
        monkeypatch.setattr(_DivisibilityTester, "may_divide",
                            spy_may_divide)
        monkeypatch.setattr(Polynomial, "divide_form", spy_divide_form)
        clear_program_caches()
        try:
            for basis in ("psi", "chi"):
                solve_sigma(5, 4, basis)
            assert check_stuffle(generator("psi-1", 4), 2, 2).passed
        finally:
            clear_program_caches()
        assert divided
        assert not wasted, "%d of %d divisions failed after the pretest " \
            "passed" % (len(wasted), len(wasted) + len(divided))


class _NoPretest:
    """A pretest that lets every division be attempted."""

    def may_divide(self, form):
        return True


def assert_canonical(p):
    """content * ints with a positive rational content and nonzero int
    terms of gcd 1; zero is content 1 with no terms."""
    assert type(p.content) is QQ and p.content > 0
    assert all(type(c) is int and c for c in p.ints.values())
    if p.ints:
        assert gcd(*p.ints.values()) == 1
    else:
        assert p.content == 1


def check(p, reference):
    """p is canonical and its rational view equals the reference dict."""
    assert_canonical(p)
    assert dict(p.terms.items()) == reference


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def ref_form(arity, form):
    out = {(0,) * arity: QQ(form[0])}
    for i in range(1, arity + 1):
        out[tuple(int(j == i - 1) for j in range(arity))] = QQ(form[i])
    return {m: c for m, c in out.items() if c}


def ref_substitute(a, images, target):
    total = {}
    for m, c in a.items():
        term = {(0,) * target: c}
        for img, e in zip(images, m):
            for _ in range(e):
                term = ref_mul(term, ref_form(target, img))
        total = ref_add(total, term)
    return total


@st.composite
def sharing_polynomials(draw, arity):
    """Polynomials whose coefficients often share a factor, so that sums
    and derivatives change the gcd of the integer terms."""
    return draw(polynomials(arity)).scale(
        draw(st.sampled_from((1, 2, 3, 6, QQ(1, 2), QQ(-4, 9)))))


class TestRepresentation:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ring_kernels(self, data):
        arity = data.draw(st.integers(1, 3))
        p = data.draw(sharing_polynomials(arity))
        q = data.draw(sharing_polynomials(arity))
        a, b = dict(p.terms.items()), dict(q.terms.items())
        check(p + q, ref_add(a, b))
        check(p - p, {})
        check(p - q, ref_add(a, {m: -c for m, c in b.items()}))
        check(p * q, ref_mul(a, b))
        check(-p, {m: -c for m, c in a.items()})
        c = data.draw(st.one_of(st.integers(-4, 4), small_rat))
        check(p.scale(c), {m: c * v for m, v in a.items() if c})
        i = data.draw(st.integers(1, arity))
        check(p.derivative(i), {m[:i - 1] + (m[i - 1] - 1,) + m[i:]: c * m[i - 1]
                                for m, c in a.items() if m[i - 1]})
        forms = [tuple(data.draw(st.one_of(st.integers(-3, 3), small_rat))
                       for _ in range(arity + 1)) for _ in range(2)]
        check(p.mul_form(forms[0]), ref_mul(a, ref_form(arity, forms[0])))
        check(p.mul_forms(forms), ref_mul(ref_mul(a, ref_form(arity, forms[0])),
                                          ref_form(arity, forms[1])))
        offset = data.draw(st.integers(0, 2))
        check(p.extended(arity + offset + 1, offset),
              {(0,) * offset + m + (0,): c for m, c in a.items()})
        parts = p.homogeneous_parts()
        for d, part in parts.items():
            check(part, {m: c for m, c in a.items() if sum(m) == d})

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_substitution_kernels(self, data):
        arity = data.draw(st.integers(1, 3))
        p = data.draw(sharing_polynomials(arity))
        target, images = data.draw(affine_images(arity))
        check(p.substitute_affine(images, target),
              ref_substitute(dict(p.terms.items()), images, target))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_division(self, data):
        arity = data.draw(st.integers(1, 3))
        q = data.draw(sharing_polynomials(arity))
        coeffs = [data.draw(st.integers(-3, 3)) for _ in range(arity + 1)]
        assume(any(coeffs[1:]))
        _, form = form_normalize(coeffs)
        check(q.mul_form(form).divide_form(form), dict(q.terms.items()))
        p = q + data.draw(sharing_polynomials(arity))
        quotient = p.divide_form(form)
        if quotient is not None:
            check(quotient.mul_form(form), dict(p.terms.items()))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_rational_function_kernels(self, data):
        arity = data.draw(st.integers(1, 3))
        f = data.draw(reducible_functions(arity))
        g = data.draw(reducible_functions(arity))
        point = tuple(data.draw(point_rat) for _ in range(arity))
        for h in (f + g, f * g, rf_sum_a(arity, [f, g, f.scale(2)])):
            assert_canonical(h.num)
        # both round trips are lossless
        for h in (RationalFunction.from_json_dict(f.to_json_dict()),
                  parse(f.text(), arity=arity)):
            assert_canonical(h.num)
            assert h.num == f.num and h.den == f.den
        assert_value(f + g, lambda x: f.evaluate(x) + g.evaluate(x), point)
        assert_value(f * g, lambda x: f.evaluate(x) * g.evaluate(x), point)
        # residue along x_a = x_b: (x_a - x_b) f restricted to x_a = x_b,
        # a function of the other arity - 1 variables
        a = data.draw(st.integers(1, arity))
        b = data.draw(st.integers(0, a - 1))
        form = linear_form(a, b, arity)
        assume(f.pole_order(form) <= 1)
        res = f.residue(a, b)
        assert res.arity == arity - 1
        assert_canonical(res.num)
        on = point[:a - 1] + ((point[b - 1] if b else QQ(0)),) + point[a:]
        cleared = f * RationalFunction.from_poly(
            Polynomial.const(arity, 1).mul_form(form))
        assert_value(res, lambda _: cleared.evaluate(on),
                     point[:a - 1] + point[a:])


class TestResidue:
    def test_simple_pole_at_zero(self):
        assert parse("1/(x1)").residue(1).equals(RationalFunction.const(0, 1))

    def test_two_variable(self):
        # x2 moves down to slot 1
        got = parse("1/(x1*x2)").residue(1)
        assert got.equals(parse("1/(x1)", 1))

    def test_s_d_residue_closed_form(self):
        # residue of the weight-zero element along x_i = x_j
        for d in (2, 3):
            for j in range(1, d):
                for i in range(j + 1, d + 1):
                    got = s_d(d).residue(i, j)
                    den = {}
                    sign = 1
                    for a in range(0, d + 1):
                        if a in (i, j):
                            continue
                        hi, lo = (a, j) if a > j else (j, a)
                        if a < j:
                            sign = -sign
                        # the slots above x_i move down one
                        f = linear_form(hi - (hi > i), lo - (lo > i), d - 1)
                        den[f] = den.get(f, 0) + 1
                    expect = RationalFunction.from_num_den(
                        Polynomial.const(d - 1, sign * (i - j)), den)
                    assert got.equals(expect)

    def test_order_two_pole_raises(self):
        with pytest.raises(PoleOrderError):
            parse("1/(x1*x1)").residue(1)

    def test_linearity(self, rng):
        f = random_rf(rng, 2, 2, 1)
        g = random_rf(rng, 2, 2, 1)
        if f.pole_order(linear_form(1, 0, 2)) <= 1 \
                and g.pole_order(linear_form(1, 0, 2)) <= 1:
            lhs = (f + g) if not (f + g).pole_order(linear_form(1, 0, 2)) > 1 \
                else None
            if lhs is not None:
                assert lhs.residue(1).equals(f.residue(1) + g.residue(1))

    def test_product_rule_no_pole_factor(self):
        f = parse("1/(x1)", 2)
        g = parse("x1^1x2^1", 2)
        lhs = (f * g).residue(1)
        # g has no pole along x1 = 0: its constant term there is g at x1 = 0
        assert lhs.equals(g.laurent(1, j=0) * f.residue(1))


class TestDerivative:
    def test_power(self):
        assert parse("x1^2").partial(1).equals(parse("2*x1^1", 1))

    def test_nabla_power(self):
        n = 3
        got = mono(2 * n).nabla()
        assert got.equals(mono(2 * n - 1, 2 * n))

    def test_quotient_rule(self, rng):
        f = random_rf(rng, 2, 2, 2)
        g = random_rf(rng, 2, 1, 1)
        prod = f * g
        lhs = prod.partial(1)
        rhs = f.partial(1) * g + f * g.partial(1)
        assert lhs.equals(rhs)


class TestEqualsZero:
    def test_sign_normalization(self):
        assert parse("1/(x1*(x1-x2))").equals(parse("-1/(x1*(x2-x1))", 2))

    def test_distinct_variables(self):
        assert not parse("x1", 2).equals(parse("x2", 2))

    def test_psi_depth2_closed_form(self):
        from dshuffle.gens import psi_odd_component
        n = 1
        p = psi_odd_component(n, 2)
        closed = (parse("(x2^2)/(x1)")
                  - parse("(x1^2 + -2*x1^1x2^1 + x2^2)/(x1)")
                  + parse("(x1^2 + -2*x1^1x2^1 + x2^2)/(x2)")
                  - parse("(x1^2)/(x2)")
                  + (parse("x2^2", 2) - parse("x1^2", 2)).divide_form_exact(
                      linear_form(2, 1, 2)).scale(-1)).scale(QQ(1, 2))
        assert p.equals(closed)


class TestSerialization:
    def test_text_round_trip(self, rng):
        for _ in range(5):
            f = random_rf(rng, 3, 2, 2)
            assert parse(f.text(), arity=3).equals(f)

    def test_json_round_trip_bit_exact(self, rng):
        f = random_rf(rng, 3, 2, 2)
        blob = emit(f, "json")
        g = RationalFunction.from_json_dict(json.loads(blob))
        assert emit(g, "json") == blob
        assert g.equals(f)

    def test_json_schema_shape(self):
        data = parse("1/(x1*(x2-x1))").to_json_dict()
        assert data["arity"] == 2
        assert data["den"] == [[1, 0], [2, 1]]
        assert data["num"] == [[1, 1, [0, 0]]]

    @pytest.mark.parametrize("terms", [
        [[1, 0, [1, 2]]], [[0, 1, [1, 2]]], [[True, 1, [1, 2]]],
        [[1, 2.0, [1, 2]]],
        [[1, 1, [-1, 2]]],     # printed as x1^-1x2^2, not a monomial
        [[1, 1, [1.5, 2]]],    # printed as x1^1x2^2, losing the input
        [[1, 1, [False, 2]]],
        [[1, 1, [1, 0]], [5, 1, [1, 0]]],   # read as 5*x1, losing a term
    ], ids=["zero-denominator", "zero-numerator", "bool-numerator",
            "float-denominator", "negative-exponent", "float-exponent",
            "bool-exponent", "repeated-exponents"])
    def test_json_rejects_bad_terms(self, terms):
        with pytest.raises(ParseError):
            RationalFunction.from_json_dict(
                {"arity": 2, "num": terms, "den": []})

    @pytest.mark.parametrize("arity", [-1, True, 1.5, "2", None],
                             ids=["negative", "bool", "float", "string",
                                  "null"])
    def test_json_rejects_bad_arity(self, arity):
        with pytest.raises(ParseError):
            RationalFunction.from_json_dict(
                {"arity": arity, "num": [], "den": []})

    def test_json_arity_zero_round_trips(self):
        c = RationalFunction.const(0, QQ(-3, 4))
        assert RationalFunction.from_json_dict(c.to_json_dict()).equals(c)

    @pytest.mark.parametrize("den", [
        [[True, 0]],      # read as x1
        [[2, False]],     # read as x2
        [[1.5, 0]],       # a bare TypeError
        [[2, 0.0]],
        [[3, 0]], [[1, 1]], [[1, 2]], [[2, -1]],
        [[2]], [[2, 1, 0]], [2], ["x2"], [{"a": 2, "b": 1}],
    ], ids=["bool-a", "bool-b", "float-a", "float-b", "a-past-arity",
            "a-equals-b", "a-below-b", "negative-b", "one-entry",
            "three-entries", "bare-int", "string", "object"])
    def test_json_rejects_bad_den(self, den):
        with pytest.raises(ParseError):
            RationalFunction.from_json_dict(
                {"arity": 2, "num": [[1, 1, [0, 0]]], "den": den})

    @pytest.mark.parametrize("term", [
        [1, 1], [1, 1, [0, 0], 0], [], 3, [1, 1, 0], {"p": 1},
    ], ids=["two-entries", "four-entries", "empty", "bare-int",
            "int-exponents", "object"])
    def test_json_rejects_bad_num_term(self, term):
        with pytest.raises(ParseError, match=re.escape(repr(term))):
            RationalFunction.from_json_dict(
                {"arity": 2, "num": [term], "den": []})

    def test_json_rejects_exponents_of_wrong_length(self):
        with pytest.raises(ParseError, match=re.escape("[1, 0, 2]")):
            RationalFunction.from_json_dict(
                {"arity": 2, "num": [[1, 1, [1, 0, 2]]], "den": []})

    def test_widened_denominator_not_serializable(self):
        from dshuffle.dsh_check import sharp_eval
        f = parse("1/(x2)", 2)
        sharp = sharp_eval(f, (1, 2))  # denominator x1+x2
        with pytest.raises(ValueError):
            sharp.to_json_dict()


class TestSumHelper:
    def test_rf_sum_matches_pairwise(self, rng):
        vals = [random_rf(rng, 2, 2, 2) for _ in range(4)]
        total = rf_sum_a(2, vals)
        acc = RationalFunction.zero(2)
        for v in vals:
            acc = acc + v
        assert total.equals(acc)


class TestMonomialBoundary:
    @pytest.mark.parametrize("arity, exps", [(2, (1,)), (1, (1, 0)), (3, ())])
    def test_wrong_length_raises(self, arity, exps):
        with pytest.raises(ArityMismatch):
            Polynomial(arity, {exps: QQ(3)})
        with pytest.raises(ArityMismatch):
            Polynomial.monomial(arity, exps)

    @pytest.mark.parametrize("exps", [
        (-1,), (2, -3), (1.0,), (True, 0), ("1",), (QQ(1),)])
    def test_bad_exponent_raises(self, exps):
        with pytest.raises(ValueError) as info:
            Polynomial.monomial(len(exps), exps)
        assert not isinstance(info.value, ArityMismatch)
        with pytest.raises(ValueError):
            Polynomial(len(exps), {exps: QQ(1)})

    @pytest.mark.parametrize("i", [0, 3])
    def test_variable_out_of_range_raises(self, i):
        # the slot past x_d holds the total degree
        p = Polynomial(2, {(1, 2): QQ(1)})
        with pytest.raises(ArityMismatch):
            p.derivative(i)
        with pytest.raises(ArityMismatch):
            RationalFunction.from_poly(p).residue(i)

    @pytest.mark.parametrize("i", [-1, 0, 3])
    def test_partial_out_of_range_raises(self, i):
        # the denominator forms are read at i, so i is checked first
        with pytest.raises(ArityMismatch):
            parse("x2/(x1)", 2).partial(i)

    def test_negative_power_of_a_variable_raises(self):
        with pytest.raises(ValueError):
            Polynomial.variable(2, 1, -2)


@st.composite
def values_of_arity(draw):
    arity = draw(st.integers(1, 5))
    return arity, draw(st.lists(rational_functions(arity), min_size=1,
                                max_size=3))


class TestPacking:
    """Monomials are packed into one int each (see the ratfun docstring);
    the packing must keep the lex order of exponent tuples and never let
    one field carry into another."""

    @settings(max_examples=40, deadline=None)
    @given(values_of_arity())
    def test_coefficient_rows_keep_the_lex_order(self, drawn):
        arity, values = drawn
        common = {}
        for v in values:
            for f, k in v.den.items():
                common[f] = max(common.get(f, 0), k)
        den = Polynomial.const(arity, 1)
        for f, k in common.items():
            for _ in range(k):
                den = den.mul_form(f)
        cleared = [(v * RationalFunction.from_poly(den)).num.terms
                   for v in values]
        monos = sorted({m for terms in cleared for m in terms})
        g = _split([v.num.content for v in values])[0]
        assert coefficient_rows(values) == [
            [terms.get(m, 0) / g for terms in cleared] for m in monos]

    @settings(max_examples=40, deadline=None)
    @given(values_of_arity())
    def test_coefficient_rows_are_ints(self, drawn):
        _, values = drawn
        rows = coefficient_rows(values)
        assert all(type(x) is int for row in rows for x in row)

    @pytest.mark.parametrize("exps", [
        (_MASK,), (_MASK, 0, 0), (0, 0, _MASK), (1, _MASK - 2, 1),
        (_MASK // 2 + 1, _MASK // 2)])
    def test_exponents_at_the_limit_round_trip(self, exps):
        arity = len(exps)
        p = Polynomial.monomial(arity, exps, QQ(-3, 7))
        assert dict(p.terms.items()) == {exps: QQ(-3, 7)}
        assert p.coefficient(exps) == QQ(-3, 7)
        assert p.degree() == _MASK
        f = RationalFunction.from_poly(p)
        assert RationalFunction.from_json_dict(f.to_json_dict()).num == p
        assert parse(f.text(), arity=arity).num == p
        assert dict(p.extended(arity + 1, 1).terms.items()) == {
            (0,) + exps: QQ(-3, 7)}
        wide = p.extended(arity + 2, 1)
        assert dict(wide.terms.items()) == {(0,) + exps + (0,): QQ(-3, 7)}
        # restricting to x_(arity + 2) = 0, then to x1 = 0, moves the
        # fields back down
        back = RationalFunction.from_poly(wide).laurent(arity + 2, j=0)
        assert back.laurent(1, j=0).num == p

    @pytest.mark.parametrize("exps", [
        (_MASK + 1,), (0, _MASK + 1), (_MASK, 1), (2 ** 40, 0)])
    def test_exponents_past_the_limit_raise(self, exps):
        with pytest.raises(ExponentOverflow):
            Polynomial.monomial(len(exps), exps)

    def test_kernels_at_the_limit_are_exact(self):
        p = Polynomial(2, {(_MASK - 5, 5): QQ(2), (0, 1): QQ(1)})
        # x2 -> x1 merges both fields into one at the limit
        merged = p.substitute_affine([(0, 1), (0, 1)], 1)
        assert dict(merged.terms.items()) == {(_MASK,): 2, (1,): 1}
        assert dict(p.derivative(1).terms.items()) == {
            (_MASK - 6, 5): 2 * (_MASK - 5)}
        q = Polynomial.monomial(2, (_MASK - 1, 1))
        assert q.divide_form(linear_form(1, 0, 2)) == \
            Polynomial.monomial(2, (_MASK - 2, 1))
        low = Polynomial.variable(2, 1, _MASK - 1)
        x2 = Polynomial.variable(2, 2)
        assert dict((low * x2).terms.items()) == {(_MASK - 1, 1): 1}
        assert dict(low.mul_form((0, 0, 1)).terms.items()) == \
            {(_MASK - 1, 1): 1}

    def test_products_past_the_limit_raise(self):
        top = Polynomial.variable(2, 1, _MASK)
        x2 = Polynomial.variable(2, 2)
        with pytest.raises(ExponentOverflow):
            top * x2
        with pytest.raises(ExponentOverflow):
            x2 * top
        half = Polynomial.variable(2, 2, _MASK // 2 + 1)
        with pytest.raises(ExponentOverflow):
            half * half
        # a constant form keeps the degree
        assert top.mul_form((3, 0, 0)) == top.scale(3)

    def test_form_multiplications_past_the_limit_raise(self):
        top = Polynomial.variable(2, 1, _MASK)
        with pytest.raises(ExponentOverflow):
            top.mul_form((0, 0, 1))
        with pytest.raises(ExponentOverflow):
            top.mul_form((1, -1, 1))
        # clearing a sum to its common denominator multiplies by x2
        with pytest.raises(ExponentOverflow):
            rf_sum_a(2, [RationalFunction.from_poly(top), parse("1/(x2)", 2)])
        with pytest.raises(ExponentOverflow):
            coefficient_rows([RationalFunction.from_poly(top),
                              parse("1/(x2-x1)", 2)])


@st.composite
def laurent_poles(draw, arity):
    """(value, a, b) with a pole of order 1 to 3 along x_a = x_b."""
    a = draw(st.integers(1, arity))
    b = draw(st.integers(0, a - 1))
    form = linear_form(a, b, arity)
    den = {form: draw(st.integers(1, 3))}
    pairs = [(i, j) for i in range(1, arity + 1) for j in range(i)
             if (i, j) != (a, b)]
    if pairs:
        for i, j in draw(st.lists(st.sampled_from(pairs), max_size=2)):
            other = linear_form(i, j, arity)
            den[other] = den.get(other, 0) + 1
    g = RationalFunction.from_num_den(draw(polynomials(arity)), den)
    assume(g.pole_order(form) >= 1)
    return g, a, b


@st.composite
def dependent_images(draw, arity):
    """(target arity, images) whose linear parts are dependent: a repeated
    letter, a zero image or x_a -> x_b."""
    kind = draw(st.sampled_from(("repeated", "zero", "collapse")))
    if kind == "repeated":
        assume(arity >= 2)
        # fewer letters than sources, so one letter repeats
        target = draw(st.integers(1, arity - 1))
        return target, [var_vector(target, draw(st.integers(1, target)))
                        for _ in range(arity)]
    images = [var_vector(arity, j) for j in range(1, arity + 1)]
    a = draw(st.integers(1, arity))
    if kind == "zero":
        images[a - 1] = var_vector(arity, 0)
    else:
        assume(arity >= 2)
        images[a - 1] = var_vector(arity, draw(st.sampled_from(
            [j for j in range(1, arity + 1) if j != a])))
    return arity, images


class TestSympyOracles:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_laurent_agrees_with_sympy(self, data):
        arity = data.draw(st.integers(1, 3))
        g, a, b = data.draw(laurent_poles(arity))
        j = data.draw(st.integers(1, 2))
        xs = sympy.symbols("x1:%d" % (arity + 1))
        t = sympy.Symbol("t")
        num, den = _sympy_rf(g, xs)
        line = (xs[b - 1] if b else 0) + t
        # the coefficient of t^(-j) is the residue of t^(j-1) times the value
        expected = sympy.residue(
            (t ** (j - 1) * num / den).subs(xs[a - 1], line), t, 0)
        # the result is a function of every variable but x_a
        rest = xs[:a - 1] + xs[a:]
        got = g.laurent(a, b, j)
        assert got.arity == arity - 1
        got_num, got_den = _sympy_rf(got, rest)
        assert sympy.cancel(got_num / got_den - expected) == 0
        # residue is the strict j = 1 case
        if g.pole_order(linear_form(a, b, arity)) > 1:
            with pytest.raises(PoleOrderError):
                g.residue(a, b)
        elif j == 1:
            assert g.residue(a, b).equals(got)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_dependent_substitution_agrees_with_sympy_cancel(self, data):
        arity = data.draw(st.integers(1, 3))
        f = data.draw(reducible_functions(arity))
        target, images = data.draw(dependent_images(arity))
        try:
            g = f.substitute_affine(images, target)
        except PoleOrderError:
            assume(False)
        us = sympy.symbols("u1:%d" % (arity + 1))
        num, den = _sympy_rf(f, us)

        def expr(xs):
            return (num / den).subs(
                {u: img[0] + sum(c * x for c, x in zip(img[1:], xs))
                 for u, img in zip(us, images)}, simultaneous=True)
        assert_cancel_agrees(g, expr)


class TestBoundary:
    MODULES = sorted(pathlib.Path(dshuffle.__file__).parent.glob("*.py"))

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_no_private_ratfun_import(self, path):
        # no module imports a _ name from another dshuffle module; the
        # test began with ratfun, whose packed keys stay inside it
        names = {p.stem for p in self.MODULES}
        private = [(node.module, alias.name)
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ImportFrom)
                   and (node.module or "").removeprefix("dshuffle.") in names
                   for alias in node.names if alias.name.startswith("_")]
        assert private == []
