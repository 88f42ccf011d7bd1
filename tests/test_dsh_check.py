from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from dshuffle import linalg
from dshuffle.rationals import QQ
from dshuffle.ratfun import (PoleOrderError, Polynomial, RationalFunction,
                             condition_rows, monomials)
from dshuffle.series import (DepthSeries, is_translation_invariant,
                             series_ihara_bracket, unreduce)
from dshuffle.dsh_check import (all_pass, check_dihedral, check_lambda_form,
                                check_linearized, check_shuffle,
                                check_six_term, check_stuffle,
                                condition_value, is_in_pdmr, is_in_pls,
                                linearized_equations, sharp_eval,
                                summary_line)
from dshuffle.gens import (c_n, psi_minus_one, psi_odd, psi_odd_component,
                           psi_zero, z3, Q4)
from dshuffle.words import lie_projector

from conftest import (agrees_pointwise, make_rng, mono, random_rf,
                      spy_substitutions)
from textform import parse


class TestShuffleFamily:
    def test_psi3_depth2(self):
        assert check_shuffle(psi_odd_component(1, 2), 1, 1).passed

    def test_psi3_depth3(self):
        assert check_shuffle(psi_odd_component(1, 3), 1, 2).passed

    def test_negative_control(self):
        f = parse("x1^1x2^1", 2)
        rep = check_shuffle(f, 1, 1)
        assert not rep.passed
        expect = parse("2*x1^1x2^1 + x1^2 + x2^2", 2)
        assert rep.residual.equals(expect)

    def test_expansion_shape_depth3(self):
        # three-term expansion f(x1,x1+x2,x1+x2+x3) + ..
        f = psi_odd_component(1, 3)
        total = (sharp_eval(f, (1, 2, 3)) + sharp_eval(f, (2, 1, 3))
                 + sharp_eval(f, (2, 3, 1)))
        assert total.equals(check_shuffle(f, 1, 2).residual)


def _shuffle_words(p, q):
    """The shuffles of 1..p and p+1..p+q, by the positions of 1..p."""
    n = p + q
    for pos in combinations(range(n), p):
        left, right = iter(range(1, p + 1)), iter(range(p + 1, n + 1))
        yield tuple(next(left) if i in pos else next(right)
                    for i in range(n))


def _prefix_point(x, word):
    """(x_w1, x_w1 + x_w2, ..) for a point x indexed from 1."""
    out, acc = [], 0
    for i in word:
        acc += x[i - 1]
        out.append(acc)
    return tuple(out)


def _sharp_sum_at(f, p, q, x):
    return sum(f.evaluate(_prefix_point(x, w)) for w in _shuffle_words(p, q))


class TestSharpOracle:
    """The sharp checks against evaluation of f at random points."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sharp_eval_every_shuffle_word(self, n):
        rng = make_rng(100 + n)
        f = random_rf(rng, n, 2, 2)
        for p in range(1, n // 2 + 1):
            for w in _shuffle_words(p, n - p):
                assert agrees_pointwise(
                    sharp_eval(f, w),
                    lambda x: f.evaluate(_prefix_point(x, w)), rng, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_shuffle_and_linearized_residuals(self, n):
        rng = make_rng(200 + n)
        f = random_rf(rng, n, 3, 2)
        for p in range(1, n // 2 + 1):
            q = n - p
            sharp_sum = lambda x: _sharp_sum_at(f, p, q, x)
            assert agrees_pointwise(check_shuffle(f, p, q).residual,
                                     sharp_sum, rng, n)
            assert agrees_pointwise(
                check_linearized(f, p, q, sharp=True).residual,
                sharp_sum, rng, n)
            assert agrees_pointwise(
                check_linearized(f, p, q, sharp=False).residual,
                lambda x: sum(f.evaluate(tuple(x[i - 1] for i in w))
                              for w in _shuffle_words(p, q)), rng, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_lambda_form_residual(self, n):
        rng = make_rng(300 + n)
        f = random_rf(rng, n, 2, 2)
        word = tuple(range(1, n + 1))

        def oracle(x):
            total = -n * f.evaluate(_prefix_point(x, word))
            for w, c in lie_projector(word).items():
                total += c * f.evaluate(_prefix_point(x, w))
            return total
        assert agrees_pointwise(check_lambda_form(f, sharp=True).residual,
                                 oracle, rng, n)

    def test_oracle_sees_a_wrong_word(self):
        rng = make_rng(400)
        f = parse("x1^1x2^2/(x3*(x2-x1))", 3)
        assert not agrees_pointwise(
            sharp_eval(f, (2, 1, 3)),
            lambda x: f.evaluate(_prefix_point(x, (1, 2, 3))), rng, 3)


def _term_at(f, term, x):
    """weight * f(pre(y)) with y_j = x_(targets[j-1]) (x_0 = 0), by hand."""
    weight, pre, targets = term
    y = [x[t - 1] if t else 0 for t in targets]
    return weight * f.evaluate(tuple(
        img[0] + sum(c * yj for c, yj in zip(img[1:], y)) for img in pre))


class TestConditionValue:
    """condition_value against evaluation of f term by term."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_the_terms_at_points(self, data):
        n = data.draw(st.integers(1, 3))
        rng = make_rng(data.draw(st.integers(0, 10 ** 6)))
        f = random_rf(rng, n, 2, data.draw(st.integers(0, 2)))
        term = st.tuples(
            st.builds(QQ, st.integers(-4, 4), st.integers(1, 5)),
            st.tuples(*[st.tuples(st.integers(-1, 1),
                                  *[st.integers(-3, 3)] * n)] * n),
            st.tuples(*[st.integers(0, n)] * n))
        condition = data.draw(st.lists(term, min_size=1, max_size=4))
        try:
            value = condition_value(f, condition)
        except PoleOrderError:
            # some pre or target sends a pole of f to zero
            assume(False)
        assert agrees_pointwise(
            value, lambda x: sum(_term_at(f, t, x) for t in condition),
            make_rng(n), n)

    def test_every_kind_of_term(self):
        # a rational weight, non-unit and affine pre images, a target 0 and
        # a repeated target, with the same pre in two terms
        f = parse("x1^2x2^1/(x2*(x3-x1))", 3)
        pre = ((0, 2, 0, 0), (1, 0, 3, 0), (0, 1, 0, -2))
        condition = [(QQ(2, 3), pre, (2, 2, 0)), (QQ(-5, 2), pre, (3, 1, 2)),
                     (1, ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
                      (3, 2, 1))]
        value = condition_value(f, condition)
        assert not value.is_zero()
        assert agrees_pointwise(
            value, lambda x: sum(_term_at(f, t, x) for t in condition),
            make_rng(600), 3)

    def test_shuffle_needs_p_plus_q_variables(self):
        f = psi_odd_component(1, 3)
        for p, q in ((1, 1), (2, 2), (1, 3)):
            with pytest.raises(ValueError):
                check_shuffle(f, p, q)


class TestCheckerAgainstSolver:
    """Each family's report from is_in_pls passes exactly when the
    coefficients are orthogonal to the rows that the solver builds from
    that one condition, on random combinations of the solver's ansatz,
    solutions of each family and non-solutions alike."""

    @pytest.mark.parametrize("depth, weight, poles", [
        (1, 5, False), (1, 6, False), (2, 10, False), (3, 9, False),
        (3, 7, True)])
    def test_report_passes_on_the_kernel_of_the_rows(self, depth, weight,
                                                     poles, rng):
        den = c_n(depth).den if poles else {}
        exps = monomials(depth, weight + 1 if poles else weight - depth)
        equations = linearized_equations(depth)
        rows = [condition_rows(depth, exps, [condition], den)
                for _, _, condition in equations]
        vectors = [[QQ(rng.randint(-3, 3)) for _ in exps]]
        for family_rows in rows:
            kernel = linalg.nullspace(family_rows, len(exps))
            coeffs = [rng.randint(-3, 3) for _ in kernel]
            vectors.append([sum(c * v[i] for c, v in zip(coeffs, kernel))
                            for i in range(len(exps))])
        verdicts = set()
        for vec in vectors:
            f = RationalFunction.from_num_den(
                Polynomial(depth, {e: c for e, c in zip(exps, vec) if c}),
                den)
            reports = is_in_pls(f)
            for (family, indices, _), family_rows, report in zip(
                    equations, rows, reports):
                assert (report.family, report.indices) == (family, indices)
                orthogonal = all(sum(r * c for r, c in zip(row, vec)) == 0
                                 for row in family_rows)
                assert report.passed == orthogonal, (family, indices, vec)
                verdicts.add(orthogonal)
        if (depth, weight) != (1, 5):
            # x1^4 is even, so only in depth one and weight 5 does every
            # combination pass
            assert verdicts == {True, False}


class TestOneSubstitutionPerCheck:
    def test_shuffle_substitutes_f_once(self, monkeypatch):
        f = random_rf(make_rng(500), 5, 2, 2)
        seen = spy_substitutions(monkeypatch)
        for p in (1, 2):
            check_shuffle(f, p, 5 - p)
        assert seen == [f, f]

    def test_lambda_and_linearized(self, monkeypatch):
        f = random_rf(make_rng(501), 4, 2, 2)
        seen = spy_substitutions(monkeypatch)
        check_lambda_form(f, sharp=True)
        check_linearized(f, 2, 2, sharp=True)
        assert seen == [f, f]
        check_lambda_form(f, sharp=False)
        check_linearized(f, 1, 3, sharp=False)
        assert seen == [f, f]


class TestStuffleFamily:
    def test_psi3_depth2(self):
        assert check_stuffle(psi_odd(1, 2), 1, 1).passed

    def test_psi3_depth3(self):
        assert check_stuffle(psi_odd(1, 3), 1, 2).passed

    def test_depth1_odd_component_fails(self):
        # an odd depth-1 part cannot extend: residual stays nonzero for
        # every candidate polynomial depth-2 component of the right degree
        from dshuffle.ratfun import Polynomial
        base = {1: mono(1)}
        found = False
        for a in range(3):
            for b in range(3 - a):
                comp2 = Polynomial(2, {(a, b): QQ(1)})
                series = DepthSeries(
                    {1: mono(1),
                     2: RationalFunction.from_poly(comp2)}, 2)
                if check_stuffle(series, 1, 1).passed:
                    found = True
        assert not found

    def test_missing_component_raises(self):
        series = psi_odd(1, 2)
        with pytest.raises(ValueError):
            check_stuffle(series, 2, 2)


class TestLinearized:
    def test_c2_antisymmetry(self):
        rep = check_linearized(c_n(2), 1, 1, sharp=False)
        assert rep.passed

    def test_c_n_is_linearized_stuffle(self):
        for n in (2, 3, 4):
            f = c_n(n)
            for p in range(1, n // 2 + 1):
                assert check_linearized(f, p, n - p, sharp=False).passed

    def test_z3_mixed(self):
        z = z3()
        assert check_linearized(z, 1, 2, sharp=False).passed
        rep = check_linearized(z, 1, 2, sharp=True)
        assert not rep.passed
        assert rep.residual.equals(RationalFunction.const(3, 1))

    def test_Q4_all_families(self):
        q = Q4()
        for p in (1, 2):
            assert check_linearized(q, p, 4 - p, sharp=False).passed
            assert check_linearized(q, p, 4 - p, sharp=True).passed


class TestLambdaForm:
    def test_antisymmetric_depth2(self):
        f = parse("x1 + -1*x2", 2)
        assert check_lambda_form(f, sharp=False).passed

    def test_equivalence_with_family_form(self):
        # the projector identity holds exactly when all (p,q) equations do
        cases = [c_n(3), psi_odd_component(1, 3),
                 parse("x1^2x2^1x3^1", 3)]
        for f in cases:
            fam = all(check_linearized(f, p, 3 - p, sharp=False).passed
                      for p in (1,))
            lam = check_lambda_form(f, sharp=False).passed
            assert fam == lam

    def test_sharp_equivalence(self):
        for f in [psi_odd_component(1, 3), parse("x1^1x2^1x3^1", 3)]:
            fam = all(check_linearized(f, p, 3 - p, sharp=True).passed
                      for p in (1,))
            lam = check_lambda_form(f, sharp=True).passed
            assert fam == lam

    def test_lambda3_replays_displayed_expansion(self):
        from dshuffle.dsh_check import perm_eval
        from dshuffle.ratfun import rf_sum_a
        f = c_n(3)
        lam = rf_sum_a(3, [
            f, -perm_eval(f, (1, 3, 2)), -perm_eval(f, (3, 1, 2)),
            perm_eval(f, (3, 2, 1))])
        rep = check_lambda_form(f, sharp=False)
        assert (lam - f.scale(3)).equals(rep.residual)


class TestSymmetryChecks:
    def test_translation_invariance(self):
        assert is_translation_invariant(unreduce(mono(2)))
        assert not is_translation_invariant(parse("x1^2", 2))

    def test_cyclic_invariance_of_c_n(self):
        from dshuffle.series import sigma, tau
        f = c_n(3)
        assert tau(sigma(f)).equals(f)

    def test_dihedral_of_linearized_solution(self):
        from dshuffle.series import ihara_bracket_component
        f = ihara_bracket_component(mono(2), mono(6))
        assert check_dihedral(f).passed
        # the purely stuffle-side element is tau-antisymmetric only
        from dshuffle.series import tau
        c2 = c_n(2)
        assert (c2 + tau(c2)).is_zero()


class TestDepthOneParity:
    @staticmethod
    def parity_report(f):
        return next(r for r in is_in_pls(f) if r.family == "parity")

    def test_powers_of_x1(self):
        # the parity of x1^n is that of n, poles included
        for n in range(-3, 4):
            rep = self.parity_report(mono(n))
            assert rep.passed == (n % 2 == 0), n
            assert rep.residual.equals(
                mono(n) if n % 2 else RationalFunction.zero(1))

    def test_residual_is_reduced_odd_part(self):
        f = parse("(1 + x1^3)/( x1 )", 1)
        rep = self.parity_report(f)
        assert not rep.passed
        assert rep.residual.text() == "(1)/( x1 )"


class TestSixTerm:
    def test_psi0_small_depths(self):
        series = psi_zero(3)
        for d in (2, 3):
            assert check_six_term(series, d).passed

    def test_bracket_weight8(self):
        br = series_ihara_bracket(psi_odd(1, 3), psi_odd(2, 3))
        assert check_six_term(br, 3).passed

    def test_depth1_only_series_residual(self):
        series = DepthSeries({1: mono(2)}, 2, weight=3)
        with pytest.raises(ValueError):
            check_six_term(series, 2)  # odd weight rejected

    def test_explicit_residual_depth2(self):
        # a pure depth-1 even-weight series: the depth-1 terms survive
        series = DepthSeries({1: mono(3)}, 2, weight=4)
        rep = check_six_term(series, 2)
        assert not rep.passed
        # residual is built from the depth-1 component alone
        assert rep.residual.arity == 2


class TestMembership:
    def test_psi3_pdmr_depth4(self):
        assert all_pass(is_in_pdmr(psi_odd(1, 4), 4))

    def test_psi_minus_one_pdmr_depth4(self):
        assert all_pass(is_in_pdmr(psi_minus_one(4), 4))

    def test_racinet_closure_brackets(self):
        br = series_ihara_bracket(psi_odd(1, 4), psi_odd(2, 4))
        assert all_pass(is_in_pdmr(br, 4))
        br2 = series_ihara_bracket(psi_minus_one(4), psi_odd(1, 4))
        assert all_pass(is_in_pdmr(br2, 4))

    def test_pls_closure_on_depth1(self):
        from dshuffle.series import ihara_bracket_component
        for (a, b) in [(2, 4), (2, -2), (4, -2)]:
            f = ihara_bracket_component(mono(a), mono(b))
            if f.is_zero():
                continue
            assert all_pass(is_in_pls(f))

    def test_solutions_dihedrally_antisymmetric(self):
        from dshuffle.series import ihara_bracket_component
        f = ihara_bracket_component(mono(2), mono(4))
        assert check_dihedral(f).passed

    def test_negative_control_membership(self):
        series = DepthSeries({1: mono(1)}, 2, weight=2)
        reps = is_in_pdmr(series.truncated(1), 1)
        assert reps == []  # no equations in depth <= 1
        bad = DepthSeries({1: mono(1), 2: mono(1).extended(2)}, 2)
        assert not all_pass(is_in_pdmr(bad, 2))

    def test_summary_line(self):
        reps = is_in_pdmr(psi_odd(1, 3), 3)
        assert summary_line(reps) == "all %d checks passed" % len(reps)


@pytest.mark.slow
class TestSlowDepthSix:
    """The first depth-6 membership pins (about 20 s on two cores): the
    sharp (1,5) and (2,4) shuffle sums of psi3 vanish.  (3,3) takes about
    a minute and is left out.  Run with pytest -m slow."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_psi3_sharp_shuffle(self, p):
        assert check_shuffle(psi_odd_component(1, 6), p, 6 - p).passed
