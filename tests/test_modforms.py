import itertools

import pytest
import sympy

from dshuffle import linalg, ratfun, series
from dshuffle.rationals import QQ
from dshuffle.ratfun import (Polynomial, RationalFunction, coefficient_rows,
                             monomials, var_vector)
from dshuffle.modforms import (_MINUS_U, _SWAP, _U, _U2,
                               bracket_kernel_ls2, c2_space,
                               dimension_series, exceptional_e,
                               lie3_dimensions, lin_ds_nullspace,
                               ls_dimension, p_even_generator, period_space,
                               pi2)
from dshuffle.dsh_check import all_pass, is_in_pls
from dshuffle.series import ihara_bracket_component

from conftest import mono

S12 = Polynomial(2, {(8, 2): QQ(1), (6, 4): QQ(-3),
                     (4, 6): QQ(3), (2, 8): QQ(-1)})


class TestDimensionSeries:
    def test_cusp_series(self):
        got = dimension_series("cusp", 24)
        assert got[12] == 1 and got[14] == 0 and got[24] == 2
        assert all(got[k] == 0 for k in range(12))

    def test_ls2_series(self):
        got = dimension_series("ls2", 20)
        assert [got[w] for w in range(8, 21, 2)] == [1, 1, 1, 2, 2, 2, 3]

    def test_c2_series_closed_form(self):
        got = dimension_series("c2", 12)
        for n in range(13):
            assert got[n] == (n + 2) // 3

    def test_h13_series(self):
        got = dimension_series("h13", 13)
        assert got[1] == 0 and got[3] == 1 and got[7] == 2


class TestPeriodSpaces:
    def test_even_dimensions_match_cusp_series(self):
        cusp = dimension_series("cusp", 24)
        for w in range(4, 25, 2):
            assert len(period_space(w, "even")) == cusp[w]

    def test_odd_dimensions(self):
        # the full odd solution space carries one extra class in weights
        # 2 mod 4 (e.g. xy(x^2-y^2) in weight 6), on top of the cuspidal
        # dimensions
        cusp = dimension_series("cusp", 24)
        for w in range(4, 25, 2):
            extra = 1 if w % 4 == 2 else 0
            assert len(period_space(w, "odd")) == cusp[w] + extra

    def test_weight6_odd_witness(self):
        basis = period_space(6, "odd")
        assert len(basis) == 1
        witness = Polynomial(2, {(3, 1): QQ(1), (1, 3): QQ(-1)})
        b = basis[0].poly
        ratio = next(iter(witness.terms.values())) / \
            b.terms[next(iter(witness.terms))]
        assert b.scale(ratio) == witness

    def test_unknown_parity_rejected(self):
        for parity in ("Even", "ODD", "", None):
            with pytest.raises(ValueError):
                period_space(12, parity)

    def test_s12_generator(self):
        basis = period_space(12, "even")
        assert len(basis) == 1
        b = basis[0].poly
        ratio = None
        for m, c in S12.terms.items():
            ratio = c / b.terms[m]
            break
        assert b.scale(ratio) == S12

    def test_p_2n_in_full_even_space(self):
        # x^(2n-2) - y^(2n-2) satisfies both defining relations
        for w in (10, 12):
            p = p_even_generator(w)
            f = RationalFunction.from_poly(p)
            from dshuffle.ratfun import var_vector
            swap = f.substitute_affine([var_vector(2, 2), var_vector(2, 1)], 2)
            assert (f + swap).is_zero()
            sub1 = f.substitute_affine([(0, 1, -1), (0, 1, 0)], 2)
            sub2 = f.substitute_affine([(0, 0, -1), (0, 1, -1)], 2)
            assert (f + sub1 + sub2).is_zero()


class TestExceptional:
    def test_divisibility(self):
        f = RationalFunction.from_poly(S12)
        from dshuffle.ratfun import linear_form
        f1 = f.divide_form_exact(linear_form(1, 0, 2)) \
             .divide_form_exact(linear_form(2, 0, 2))
        assert f1.is_polynomial()
        f0 = f1.divide_form_exact(linear_form(2, 1, 2))
        assert f0.is_polynomial()

    def test_e_is_polynomial(self):
        e = exceptional_e(S12)
        assert e.is_polynomial()
        assert e.arity == 4 and e.degree() == 8

    def test_e_in_pls4(self):
        assert all_pass(is_in_pls(exceptional_e(S12)))

    @pytest.mark.parametrize("weight", [16, 18])
    def test_e_in_pls4_beyond_weight12(self, weight):
        # the exceptional element of the first even period polynomial
        # satisfies the linearized double shuffle equations
        e = exceptional_e(period_space(weight, "even")[0])
        assert not e.is_zero()
        assert all_pass(is_in_pls(e))

    def test_bracket_with_x1_squared_in_pls5(self):
        # [x1^2, e_12] is a nonzero polynomial of depth 5 and degree 10
        b = ihara_bracket_component(
            mono(2), exceptional_e(period_space(12, "even")[0]))
        assert b.is_polynomial() and not b.is_zero()
        assert b.arity == 5 and b.degree() == 10
        assert all_pass(is_in_pls(b))

    def test_rejects_nonvanishing_input(self):
        with pytest.raises(ValueError):
            exceptional_e(p_even_generator(12))

    def test_ls4_weight12_is_the_exceptional_element(self):
        # the solver's kernel basis is the element of the weight-12 cusp
        # form, term for term and coefficient for coefficient
        e = exceptional_e(period_space(12, "even")[0])
        basis = lin_ds_nullspace(4, 12)
        assert basis == [e]
        assert basis[0].num.terms == e.num.terms and basis[0].den == e.den


class TestNullspaces:
    def test_depth1_even_powers(self):
        basis = lin_ds_nullspace(1, 5)
        assert len(basis) == 1 and basis[0].equals(mono(4))
        assert lin_ds_nullspace(1, 4) == []

    def test_depth1_polar(self):
        basis = lin_ds_nullspace(1, -1, allow_poles=True)
        assert len(basis) == 1 and basis[0].equals(mono(-2))

    def test_ls2_dimensions(self):
        series = dimension_series("ls2", 20)
        for w in range(2, 21):
            assert ls_dimension(2, w) == series[w]

    def test_parity_vanishing(self):
        for degree in (3, 5, 7):
            assert ls_dimension(2, 2 + degree) == 0

    def test_nullspace_elements_satisfy_equations(self):
        from dshuffle.dsh_check import check_linearized
        for b in lin_ds_nullspace(2, 14):
            assert check_linearized(b, 1, 1, sharp=False).passed
            assert check_linearized(b, 1, 1, sharp=True).passed

    def test_ls3_from_exact_sequence(self):
        # depth-3 dims = free Lie triple count minus cusp x depth-1 count
        ls1 = dimension_series("ls1", 17)
        cusp = dimension_series("cusp", 17)
        lie3 = lie3_dimensions(ls1, 17)
        tensor = [0] * 18
        for a in range(18):
            for b in range(18 - a):
                tensor[a + b] += cusp[a] * ls1[b]
        assert (lie3[15] - tensor[15], lie3[17] - tensor[17]) == (2, 4)
        for w in (9, 11, 13, 15, 17):
            assert ls_dimension(3, w) == lie3[w] - tensor[w]


class TestBracketKernel:
    def test_matches_cusp_dimensions(self):
        cusp = dimension_series("cusp", 20)
        for w in range(8, 21, 2):
            k, _ = bracket_kernel_ls2(w)
            assert k == cusp[w]

    def test_weight12_witness(self):
        k, pairs = bracket_kernel_ls2(12)
        assert k == 1 and pairs == [(1, 4), (2, 3)]


class TestC2:
    def test_dimensions(self):
        for n in range(13):
            assert len(c2_space(n)) == (n + 2) // 3

    def test_elements_satisfy_conditions(self):
        from dshuffle.dsh_check import perm_eval
        for b in c2_space(7):
            f = RationalFunction.from_poly(b)
            assert (f + perm_eval(f, (2, 1))).is_zero()

    def test_pi2_lands_in_c2(self):
        f = RationalFunction.from_poly(Polynomial(2, {(2, 1): QQ(1)}))
        g = pi2(f)
        from dshuffle.dsh_check import perm_eval
        assert (g + perm_eval(g, (2, 1))).is_zero()

    def test_pi2_scaled_idempotent(self):
        f = RationalFunction.from_poly(Polynomial(2, {(4, 1): QQ(1)}))
        assert pi2(pi2(f)).equals(pi2(f).scale(3))

    def test_residue_of_h_is_pi2(self):
        # the depth-3 highest weight vectors project onto the cyclic space
        from dshuffle.resflt import R, highest_weight_h
        for (a, b) in ((1, 2), (2, 3)):
            lhs = R(ihara_bracket_component(
                mono(2 * a),
                ihara_bracket_component(mono(-2), mono(2 * b)))
                .scale(QQ(1, 2 * b)))
            rhs = pi2(RationalFunction.from_poly(
                Polynomial(2, {(2 * a, 2 * b - 1): QQ(1)})))
            assert lhs.equals(rhs) or lhs.equals(-rhs)


# ---------------------------------------------------------------------------
# the condition rows against an independent oracle


def _interleavings(p, q):
    """The shuffles of (1..p) and (p+1..p+q), by choosing the positions of
    the first word."""
    n = p + q
    out = []
    for slots in itertools.combinations(range(n), p):
        first, second = iter(range(1, p + 1)), iter(range(p + 1, n + 1))
        out.append(tuple(next(first) if i in slots else next(second)
                         for i in range(n)))
    return out


def _ls_ansatz(depth, weight, poles):
    """The ansatz x^e / D of lin_ds_nullspace as plain functions of a
    point, D = x1 (x2 - x1) .. (xn - x(n-1)) xn with poles, else 1."""
    degree = weight + 1 if poles else weight - depth
    exps = [e for e in itertools.product(range(max(degree, 0) + 1),
                                         repeat=depth) if sum(e) == degree]

    def element(e):
        def f(x):
            value = QQ(1)
            for xi, k in zip(x, e):
                value *= xi ** k
            if poles:
                den = x[0] * x[-1]
                for i in range(1, depth):
                    den *= x[i] - x[i - 1]
                value /= den
            return value
        return f
    return [element(e) for e in exps]


def _ls_conditions(depth):
    """The linearized conditions as maps f -> (point -> value)."""
    conditions = []
    for p in range(1, depth // 2 + 1):
        words = _interleavings(p, depth - p)
        conditions.append(lambda f, words=words: lambda x: sum(
            f([x[w - 1] for w in word]) for word in words))
        conditions.append(lambda f, words=words: lambda x: sum(
            f(list(itertools.accumulate(x[w - 1] for w in word)))
            for word in words))
    if depth == 1:
        conditions.append(lambda f: lambda x: f(x) - f([-x[0]]))
    return conditions


def _oracle_dimension(elements, conditions, arity, rng):
    """Kernel dimension of the conditions on the span of the elements,
    from their values at random rational points off the poles, by
    sympy's nullspace."""
    n = len(elements)
    if n == 0:
        return 0
    rows = []
    for condition in conditions:
        values = [condition(f) for f in elements]
        points = 0
        while points < n + 3:
            x = [QQ(rng.randint(-40, 40), rng.randint(1, 9))
                 for _ in range(arity)]
            try:
                rows.append([v(x) for v in values])
            except ZeroDivisionError:
                continue
            points += 1
    matrix = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                            for c in row] for row in rows])
    return len(matrix.nullspace())


def _period_conditions(odd):
    conditions = [
        lambda f: lambda x: f(x[0], x[1]) + f(x[1], x[0]),
        lambda f: lambda x: (f(x[0], x[1]) + f(x[0] - x[1], x[0])
                             + f(-x[1], x[0] - x[1]))]
    if not odd:
        conditions.append(lambda f: lambda x: f(x[0], 0))
    return conditions


def _c2_conditions():
    return [lambda f: lambda x: f(x[0], x[1]) + f(x[1], x[0]),
            lambda f: lambda x: (f(x[0], x[1]) + f(x[1] - x[0], -x[0])
                                 + f(-x[1], x[0] - x[1]))]


def _bivariate(exps):
    return [lambda x, y, a=a, b=b: QQ(x) ** a * QQ(y) ** b for a, b in exps]


class TestRowOracle:
    @pytest.mark.parametrize("depth, weight, poles", [
        (1, 5, False), (1, 6, False), (1, -1, True), (1, 3, True),
        (2, 10, False), (2, 14, False), (2, 9, True), (2, 10, True),
        (3, 9, False), (3, 11, False), (3, 5, True), (3, 7, True),
    ])
    def test_lin_ds_dimension_and_checks(self, depth, weight, poles, rng):
        basis = lin_ds_nullspace(depth, weight, allow_poles=poles)
        assert len(basis) == _oracle_dimension(
            _ls_ansatz(depth, weight, poles), _ls_conditions(depth),
            depth, rng)
        for b in basis:
            assert all_pass(is_in_pls(b))

    @pytest.mark.parametrize("weight", range(4, 15, 2))
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_period_space(self, weight, parity, rng):
        odd = parity == "odd"
        d = weight - 2
        exps = [(a, d - a) for a in range(d + 1) if a % 2 == odd]
        basis = period_space(weight, parity)
        assert len(basis) == _oracle_dimension(
            _bivariate(exps), _period_conditions(odd), 2, rng)
        for b in basis:
            f = RationalFunction.from_poly(b.poly)
            assert not f.is_zero()
            assert (f + f.substitute_affine(_SWAP, 2)).is_zero()
            assert (f + f.substitute_affine(_U, 2)
                    + f.substitute_affine(_U2, 2)).is_zero()
            if not odd:
                assert f.substitute_affine(
                    [var_vector(2, 1), var_vector(2, 0)], 2).is_zero()

    @pytest.mark.parametrize("degree", range(2, 13))
    def test_c2_space(self, degree, rng):
        exps = [(a, degree - a) for a in range(degree + 1)]
        basis = c2_space(degree)
        assert len(basis) == _oracle_dimension(
            _bivariate(exps), _c2_conditions(), 2, rng)
        for b in basis:
            f = RationalFunction.from_poly(b)
            assert (f + f.substitute_affine(_SWAP, 2)).is_zero()
            assert (f + f.substitute_affine(_MINUS_U, 2)
                    + f.substitute_affine(_U2, 2)).is_zero()

    def test_no_substitution_or_sum_per_monomial(self, monkeypatch):
        # the rows come from the images of the monomials under each ring
        # map, built one form product per monomial: no value is
        # substituted or summed, and no Horner pass runs
        calls = []

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper
        for cls in (Polynomial, RationalFunction):
            monkeypatch.setattr(cls, "substitute_affine", spy(
                "substitute_affine", cls.substitute_affine))
        monkeypatch.setattr(series, "rf_sum_a",
                            spy("rf_sum_a", series.rf_sum_a))
        monkeypatch.setattr(ratfun, "rf_sum_a",
                            spy("rf_sum_a", ratfun.rf_sum_a))
        monkeypatch.setattr(ratfun, "_horner", spy("_horner", ratfun._horner))
        monkeypatch.setattr(ratfun, "_times_form",
                            spy("_times_form", ratfun._times_form))
        assert len(lin_ds_nullspace(3, 11)) == 1
        assert len(lin_ds_nullspace(3, 7, allow_poles=True)) == 3
        assert len(period_space(12, "even")) == 1
        assert len(c2_space(7)) == 3
        assert "_times_form" in calls
        assert [c for c in calls if c != "_times_form"] == []
        # one form product per monomial of each degree, for each map
        # other than the identity (P in depth 3, U and U2 (twice) in two
        # variables), and a few per term for the cofactors
        bound = 100 + (sum(len(monomials(3, d)) for d in range(1, 9))
                 + sum(len(monomials(3, d)) for d in range(1, 9))
                 + 2 * sum(len(monomials(2, d)) for d in range(1, 11))
                 + 2 * sum(len(monomials(2, d)) for d in range(1, 8)))
        assert calls.count("_times_form") <= bound


class TestDimensionPins:
    """Broadhurst-Kreimer predictions (hep-th/9609128) for the
    depth-graded Lie algebra dimensions, and the exceptional element of
    weight 16 inside ls4."""

    @pytest.fixture(scope="class")
    def ls4_16(self):
        return lin_ds_nullspace(4, 16)

    @pytest.mark.parametrize("depth, weight, dim", [
        (3, 19, 5), (3, 21, 6), (4, 14, 1)])
    def test_predicted_dimension(self, depth, weight, dim):
        assert ls_dimension(depth, weight) == dim

    def test_ls4_weight16(self, ls4_16):
        assert len(ls4_16) == 3

    def test_e16_in_ls4_weight16(self, ls4_16):
        # the rank of the basis plus e_16 stays 3
        e = exceptional_e(period_space(16, "even")[0])
        kernel = linalg.nullspace(coefficient_rows(ls4_16 + [e]), 4)
        assert len(kernel) == 1 and kernel[0][3] != 0


@pytest.mark.slow
class TestSlowDimensionPins:
    """The Broadhurst-Kreimer predictions beyond tier-1 (about 75 s on
    two cores): ls3 to w = 31, ls4 to w = 22, ls5 at w = 15,
    e_18 inside ls4 and [x1^2, e_12] spanning ls5 at w = 15.  Run with
    pytest -m slow."""

    @pytest.fixture(scope="class")
    def ls4_18(self):
        return lin_ds_nullspace(4, 18)

    @pytest.fixture(scope="class")
    def ls5_15(self):
        return lin_ds_nullspace(5, 15)

    @pytest.mark.parametrize("depth, weight, dim", [
        (3, 23, 8), (3, 25, 10), (3, 27, 11), (3, 29, 14), (3, 31, 16),
        (4, 20, 7), (4, 22, 11)])
    def test_predicted_dimension(self, depth, weight, dim):
        assert ls_dimension(depth, weight) == dim

    def test_ls4_weight18(self, ls4_18):
        assert len(ls4_18) == 5

    def test_e18_in_ls4_weight18(self, ls4_18):
        # the rank of the basis plus e_18 stays 5
        e = exceptional_e(period_space(18, "even")[0])
        kernel = linalg.nullspace(coefficient_rows(ls4_18 + [e]), 6)
        assert len(kernel) == 1 and kernel[0][5] != 0

    def test_ls5_weight15(self, ls5_15):
        assert len(ls5_15) == 1

    def test_bracket_spans_ls5_weight15(self, ls5_15):
        # the rank of the one basis vector plus [x1^2, e_12] stays 1, and
        # both enter the kernel vector
        b = ihara_bracket_component(
            mono(2), exceptional_e(period_space(12, "even")[0]))
        kernel = linalg.nullspace(coefficient_rows(ls5_15 + [b]), 2)
        assert len(kernel) == 1 and all(kernel[0])
