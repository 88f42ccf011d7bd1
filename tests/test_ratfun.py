import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from dshuffle.rationals import QQ
from dshuffle.ratfun import (ArityMismatch, ParseError, PoleOrderError,
                             Polynomial, RationalFunction, _DivisibilityTester,
                             coefficient_rows, form_normalize, linear_form,
                             parse, rf_sum_a, var_vector)
from dshuffle.gens import psi_zero_component, s_d

from conftest import make_rng, mono, random_rf


def rf(text, arity=None):
    return parse(text, arity=arity)


class TestAdd:
    def test_additive_inverse(self):
        f = rf("1/(x1)")
        assert (f + f.scale(-1)).is_zero()

    def test_common_denominator(self):
        got = rf("1/(x1)", 2) + rf("1/(x2)", 2)
        assert got.equals(rf("(x1^1 + x2^1)/(x1*x2)"))

    def test_sum_matches_weight_zero_component(self):
        # brute-force oracle: evaluate both sides at sample points
        a = rf("2/(x1*x2)")
        b = rf("1/(x1*(x1-x2))")
        total = a + b
        for pt in [(QQ(2), QQ(1)), (QQ(5), QQ(3)), (QQ(-7), QQ(2))]:
            assert total.evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
        assert total.equals(s_d(2))
        assert total.equals(psi_zero_component(2).scale(3))

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            rf("1/(x1)") + rf("1/(x2)")


class TestMulScale:
    def test_cancellation(self):
        f = rf("1/(x1)")
        g = rf("x1")
        assert (f * g).equals(RationalFunction.const(1, 1))

    def test_scale_zero(self):
        assert random_rf(make_rng(1), 3).scale(0).is_zero()

    def test_partial_cancellation(self):
        f = rf("1/(x2-x1)")
        sq = rf("x2^2 + -2*x1^1x2^1 + x1^2", 2)
        assert (f * sq).equals(rf("x2 + -1*x1", 2))

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
        f = rf("x1^1x2^1", 2)
        from dshuffle.dsh_check import sharp_eval
        got = sharp_eval(f, (1, 2))
        assert got.equals(rf("x1^2 + x1^1x2^1", 2))

    def test_shift_square(self):
        from dshuffle.ratfun import diff_vector
        f = rf("x1^2")
        got = f.substitute_affine([diff_vector(2, 2, 1)], 2)
        assert got.equals(rf("x2^2 + -2*x1^1x2^1 + x1^2", 2))

    def test_sigma_image_of_monomial(self):
        from dshuffle.series import sigma
        f = rf("x1^2x2^1", 2)
        # r = 2: positive sign, arguments (x2-x1, x2)
        got = sigma(f)
        expect = rf("x2^2 + -2*x1^1x2^1 + x1^2", 2) * rf("x2", 2)
        assert got.equals(expect)

    def test_denominator_vanishes(self):
        from dshuffle.ratfun import var_vector
        f = rf("1/(x2-x1)")
        images = [var_vector(2, 1), var_vector(2, 1)]
        with pytest.raises(PoleOrderError):
            f.substitute_affine(images, 2)

    def test_denominator_becomes_a_constant(self):
        # x1 -> 2, x2 -> x1: the form x1 becomes the scalar 2
        f = rf("x2/(x1)")
        images = [(QQ(2), QQ(0)), var_vector(1, 1)]
        assert f.substitute_affine(images, 1).equals(rf("x1", 1).scale(
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
        images, acc = [], [QQ(0)] * (target + 1)
        for _ in range(arity):
            acc = list(acc)
            acc[draw(st.integers(1, target))] += 1
            images.append(tuple(acc))
        return target, images
    return target, [tuple(draw(small_rat) for _ in range(target + 1))
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
        dots = [sum((a * ci for a, ci in zip(row, c)), QQ(0))
                for row in rows]
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
        numerator = Polynomial(arity, {m: x for m, x in zip(monos, dots)
                                       if x})
        assert numerator == (total * RationalFunction.from_poly(den)).num

    def test_division_by_non_monic_pivot(self):
        # 2*x2 - x1 has pivot coefficient 2
        f = (0, -1, 2)
        x1 = Polynomial.variable(2, 1)
        assert x1.mul_form(f).divide_form(f) == x1

    def test_pretest_defers_when_p_divides_a_denominator(self):
        p = (1 << 61) - 1
        num = Polynomial(1, {(0,): QQ(1, p), (1,): QQ(1)})
        assert _DivisibilityTester(num).may_divide((1, 1))


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
        images, acc = [], [QQ(0)] * (target + 1)
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
    u, v = [(QQ(0),) + tuple(QQ(draw(coeff)) for _ in range(target))
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


class TestResidue:
    def test_simple_pole_at_zero(self):
        assert rf("1/(x1)").residue(1).equals(RationalFunction.const(1, 1))

    def test_two_variable(self):
        got = rf("1/(x1*x2)").residue(1)
        assert got.equals(rf("1/(x2)", 2))

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
                        f = linear_form(hi, lo, d)
                        den[f] = den.get(f, 0) + 1
                    expect = RationalFunction.from_num_den(
                        Polynomial.const(d, sign * (i - j)), den)
                    assert got.equals(expect)

    def test_order_two_pole_raises(self):
        with pytest.raises(PoleOrderError):
            rf("1/(x1*x1)").residue(1)

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
        f = rf("1/(x1)", 2)
        g = rf("x1^1x2^1", 2)
        lhs = (f * g).residue(1)
        assert lhs.equals(g.residue_free_subs(1, 0) * f.residue(1))


class TestDerivative:
    def test_power(self):
        assert rf("x1^2").partial(1).equals(rf("2*x1^1", 1))

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
        assert rf("1/(x1*(x1-x2))").equals(rf("-1/(x1*(x2-x1))", 2))

    def test_distinct_variables(self):
        assert not rf("x1", 2).equals(rf("x2", 2))

    def test_psi_depth2_closed_form(self):
        from dshuffle.gens import psi_odd_component
        n = 1
        p = psi_odd_component(n, 2)
        closed = (rf("(x2^2)/(x1)")
                  - rf("(x1^2 + -2*x1^1x2^1 + x2^2)/(x1)")
                  + rf("(x1^2 + -2*x1^1x2^1 + x2^2)/(x2)")
                  - rf("(x1^2)/(x2)")
                  + (rf("x2^2", 2) - rf("x1^2", 2)).divide_form_exact(
                      linear_form(2, 1, 2)).scale(-1)).scale(QQ(1, 2))
        assert p.equals(closed)


class TestSerialization:
    def test_text_round_trip(self, rng):
        for _ in range(5):
            f = random_rf(rng, 3, 2, 2)
            assert parse(f.text(), arity=3).equals(f)

    def test_json_round_trip_bit_exact(self, rng):
        f = random_rf(rng, 3, 2, 2)
        blob = f.to_json()
        g = RationalFunction.from_json(blob)
        assert g.to_json() == blob
        assert g.equals(f)

    def test_json_schema_shape(self):
        data = rf("1/(x1*(x2-x1))").to_json_dict()
        assert data["arity"] == 2
        assert data["den"] == [[1, 0], [2, 1]]
        assert data["num"] == [[1, 1, [0, 0]]]

    def test_parse_rejects_x0(self):
        with pytest.raises(ParseError):
            parse("x0")

    def test_parse_error_position(self):
        with pytest.raises(ParseError):
            parse("1/(x1*(x2-x1)")  # missing closing paren

    def test_widened_denominator_not_serializable(self):
        from dshuffle.dsh_check import sharp_eval
        f = rf("1/(x2)", 2)
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
