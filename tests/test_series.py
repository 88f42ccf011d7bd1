import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dshuffle import series
from dshuffle.cli import emit
from dshuffle.rationals import QQ
from dshuffle.ratfun import (Polynomial, RationalFunction, linear_form,
                             rf_sum_a)
from dshuffle.series import (DepthSeries, cyclic_sum,
                             dihedral_bracket, ihara_action_component,
                             ihara_bracket_component, is_translation_invariant,
                             plus_truncate, reduce_y, rotations,
                             series_ihara_action,
                             series_ihara_bracket, series_stuffle,
                             shuffle_concat, sigma, stuffle_concat,
                             stuffle_exp, tau, unreduce)
from dshuffle.gens import (chi, mu_minus, mu_plus, nu_series, psi_minus_one,
                           psi_odd, psi_odd_component, s_d, vine_rat, Vine)

from conftest import (agrees_pointwise, make_rng, mono, random_poly,
                      random_rf, spy_substitutions)
from textform import parse


class TestCoordinates:
    def test_reduce_square(self):
        # (y1 - y0)^2 reduces to x1^2
        f = parse("x2^2 + -2*x1^1x2^1 + x1^2", 2)  # (y1-y0)^2, slots y0 y1
        assert reduce_y(f).equals(mono(2))

    def test_unreduce_product(self):
        f = parse("x1^1x2^1", 2)
        got = unreduce(f)
        # (y1-y0)(y2-y0) with slots 1..3 holding y0..y2
        expect = (parse("x2", 3) - parse("x1", 3)) * \
            (parse("x3", 3) - parse("x1", 3))
        assert got.equals(expect)

    def test_round_trip_on_psi(self):
        f = psi_odd_component(1, 2)
        assert reduce_y(unreduce(f)).equals(f)
        assert is_translation_invariant(unreduce(f))

    def test_reduce_requires_invariance(self):
        from dshuffle.series import TranslationError
        with pytest.raises(TranslationError):
            reduce_y(parse("x1^2", 2))


class TestConcatenation:
    def test_shuffle_unit(self):
        f = random_rf(make_rng(5), 2)
        unit = RationalFunction.const(0, 1)
        assert shuffle_concat(unit, f).equals(f)

    def test_shuffle_concat_basic(self):
        got = shuffle_concat(mono(1), mono(1))
        assert got.equals(parse("x1^1x2^1 + -1*x1^2", 2))

    def test_ell_concatenation(self):
        # 1/((y0-y1)..(y_{r-1}-y_r)) multiplies like a monoid under the
        # shuffle concatenation; check in reduced coordinates at r = s = 1
        ell1 = RationalFunction.from_num_den(
            parse("-1", 1).num, {linear_form(1, 0, 1): 1})
        prod = shuffle_concat(ell1, ell1)
        expect = RationalFunction.from_num_den(
            parse("1", 2).num, {linear_form(1, 0, 2): 1,
                                linear_form(2, 1, 2): 1})
        assert prod.equals(expect)

    def test_stuffle_concat(self):
        got = stuffle_concat(mono(-1), mono(-1))
        assert got.equals(parse("1/(x1*x2)"))

    def test_stuffle_unit_series(self):
        one = DepthSeries.unit(4)
        f = psi_odd(1, 4)
        assert series_stuffle(one, f).equals(f)
        assert series_stuffle(f, one).equals(f)

    def test_mu_plus_is_iterated_concat(self):
        k = 4
        acc = mono(-1)
        for _ in range(k - 1):
            acc = stuffle_concat(acc, mono(-1))
        assert acc.equals(mu_plus(k).component(k))


class TestIharaAction:
    def test_unit_right_action(self):
        f = psi_odd(1, 3)
        one = DepthSeries.unit(3)
        assert series_ihara_action(f, one).equals(f)

    def test_depth2_cross_check_with_dihedral(self):
        # the two bracket formulas must agree on symmetric depth-1 inputs
        for (a, b) in [(1, 2), (1, 3), (2, 3)]:
            f, g = mono(2 * a), mono(2 * b)
            assert dihedral_bracket(f, g).equals(ihara_bracket_component(f, g))

    def test_dihedral_with_polar_input(self):
        f, g = mono(-2), mono(4)
        assert dihedral_bracket(f, g).equals(ihara_bracket_component(f, g))

    def test_dihedral_with_depth2_inputs(self):
        f2 = ihara_bracket_component(mono(2), mono(4))
        g2 = ihara_bracket_component(mono(2), mono(6))
        assert dihedral_bracket(f2, mono(6)).equals(
            ihara_bracket_component(f2, mono(6)))
        assert dihedral_bracket(f2, g2).equals(
            ihara_bracket_component(f2, g2))

    def test_double_pole_cancels_in_dihedral(self):
        got = dihedral_bracket(mono(-2), mono(4))
        assert got.pole_order(linear_form(2, 1, 2)) <= 1

    def test_action_on_grape(self):
        # s_d acting on the inverse grape monomial
        for d in (1, 2):
            for n in (1, 2):
                pg = vine_rat(Vine((n,)))
                lhs = ihara_action_component(s_d(d), pg)
                rhs = stuffle_concat(pg, s_d(d)) \
                    + vine_rat(Vine((n + d,))).scale(n)
                assert lhs.equals(rhs)

    def test_witt_algebra(self):
        s = {d: s_d(d) for d in range(1, 7)}
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                if m + n > 6:
                    continue
                br = ihara_bracket_component(s[m], s[n])
                assert br.equals(s[m + n].scale(n - m))

    def test_bracket_antisymmetry(self):
        f = mono(4)
        assert ihara_bracket_component(f, f).is_zero()

    def test_ihara_relation(self):
        br1 = ihara_bracket_component(mono(2), mono(8))
        br2 = ihara_bracket_component(mono(4), mono(6))
        assert (br1 - br2.scale(3)).is_zero()

    def test_pre_lie_symmetry(self, rng):
        def A(a, b, c):
            return ihara_action_component(
                a, ihara_action_component(b, c)) \
                - ihara_action_component(ihara_action_component(a, b), c)
        for _ in range(3):
            a = random_rf(rng, 1, 2, 1, terms=2)
            b = mono(2 * rng.randint(1, 3))
            c = random_rf(rng, 2, 1, 1, terms=2)
            assert A(a, b, c).equals(A(b, a, c))

    def test_jacobi(self, rng):
        def br(x, y):
            return ihara_bracket_component(x, y)
        a, b, c = mono(2), mono(-2), random_rf(rng, 1, 4, 0, terms=1)
        total = rf_sum_a(3, [br(a, br(b, c)), br(b, br(c, a)),
                             br(c, br(a, b))])
        assert total.is_zero()

    def test_derivation_laws(self, rng):
        f = random_rf(rng, 1, 2, 1, terms=2)
        g = mono(2)
        h = random_rf(rng, 2, 1, 1, terms=2)
        n = f.arity + g.arity + h.arity
        lhs = ihara_action_component(f, shuffle_concat(g, h))
        rhs = rf_sum_a(n, [
            shuffle_concat(ihara_action_component(f, g), h),
            shuffle_concat(g, ihara_action_component(f, h)),
            shuffle_concat(shuffle_concat(g, f), h).scale(-1)])
        assert lhs.equals(rhs)
        lhs = ihara_action_component(f, stuffle_concat(g, h))
        rhs = rf_sum_a(n, [
            stuffle_concat(ihara_action_component(f, g), h),
            stuffle_concat(g, ihara_action_component(f, h)),
            stuffle_concat(stuffle_concat(g, f), h).scale(-1)])
        assert lhs.equals(rhs)

    def test_weight_additivity(self):
        f, g = mono(2), psi_odd_component(1, 2)
        out = ihara_action_component(f, g)
        assert out.weight() == f.weight() + g.weight()


def _circ_at(f, g, deg_f, x):
    """The circ formula for homogeneous f of degree deg_f acting on g,
    evaluated at the point x (x_0 = 0) by evaluating f and g."""
    r, s = f.arity, g.arity
    xs = (0,) + tuple(x)
    sign = 1 if (deg_f + r) % 2 == 0 else -1
    total = 0
    for i in range(s + 1):
        f_at = tuple(xs[i + k] - xs[i] for k in range(1, r + 1))
        g_at = xs[1:i + 1] + xs[i + r + 1:]
        total += f.evaluate(f_at) * g.evaluate(g_at)
    for i in range(1, s + 1):
        f_at = tuple(xs[i + r - k] - xs[i + r] for k in range(1, r + 1))
        g_at = xs[1:i] + xs[i + r:]
        total += sign * f.evaluate(f_at) * g.evaluate(g_at)
    return total


class TestIharaOracle:
    """ihara_action_component against the circ formula evaluated at
    random rational points off the poles."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_random_polar_inputs(self, r, s):
        rng = make_rng(10 * r + s)
        for num_degree in (2, 3):   # both signs of the second sum
            f = random_rf(rng, r, num_degree, 1, terms=2)
            g = random_rf(rng, s, 2, 1, terms=2)
            assert agrees_pointwise(
                ihara_action_component(f, g),
                lambda x: _circ_at(f, g, f.degree(), x), rng, r + s)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_polar_monomials(self, s):
        rng = make_rng(40 + s)
        g = random_rf(rng, s, 3, 2, terms=2)
        for k in (-2, -1, 3):
            assert agrees_pointwise(
                ihara_action_component(mono(k), g),
                lambda x: _circ_at(mono(k), g, k, x), rng, 1 + s)
        if s == 1:
            assert agrees_pointwise(
                ihara_action_component(g, mono(-2)),
                lambda x: _circ_at(g, mono(-2), g.degree(), x), rng, 2)

    def test_inhomogeneous_left_argument(self):
        # each homogeneous piece acts with its own sign
        rng = make_rng(50)
        g = random_rf(rng, 2, 2, 1, terms=2)
        assert agrees_pointwise(
            ihara_action_component(mono(-2) + mono(3), g),
            lambda x: _circ_at(mono(-2), g, -2, x)
            + _circ_at(mono(3), g, 3, x), rng, 3)

    def test_one_substitution_per_homogeneous_piece(self, monkeypatch):
        # every other substitution is a relabel: each image is 0 or x_j
        seen = spy_substitutions(monkeypatch)
        rng = make_rng(60)
        f = random_rf(rng, 3, 2, 1, terms=2)
        ihara_action_component(f, random_rf(rng, 3, 2, 1, terms=2))
        assert [h.arity for h in seen] == [3]
        del seen[:]
        ihara_action_component(mono(-2) + mono(3), random_rf(rng, 2, 2, 1))
        assert [h.arity for h in seen] == [1, 1]


def _uncached(f, g):
    """The action computed without looking at the cache."""
    return series._ihara_action.__wrapped__(series._key(f), series._key(g))


@pytest.fixture
def cold_action():
    """An empty action cache before the test and after it, so no other
    test sees the entries made here."""
    series._ihara_action.cache_clear()
    yield series._ihara_action
    series._ihara_action.cache_clear()


class TestIharaActionCache:
    """The cached action against a cold recomputation, against its
    homogeneous pieces evaluated by hand, and keyed on the representation."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 10 ** 6), r=st.integers(1, 3),
           s=st.integers(1, 2), second_degree=st.sampled_from([None, 0, 3]))
    def test_cached_equals_recomputed(self, cold_action, seed, r, s,
                                      second_degree):
        rng = make_rng(seed)
        f = random_rf(rng, r, 2, rng.randint(0, 2), terms=2)
        if second_degree is not None:
            # a second homogeneous piece, over the same denominator
            f = f + RationalFunction.from_num_den(
                random_poly(rng, r, second_degree + f.den_degree(), 2),
                f.den)
        g = random_rf(rng, s, 2, rng.randint(0, 1), terms=2)
        first = ihara_action_component(f, g)
        assert ihara_action_component(f, g) is first
        cold_action.cache_clear()
        again = ihara_action_component(f, g)
        assert again is not first
        assert emit(again, "json") == emit(first, "json")
        pieces = f.homogeneous_parts()
        assert agrees_pointwise(
            first,
            lambda x: sum((series._ihara_action_homogeneous(p, g, deg)
                           .evaluate(x) for deg, p in pieces.items()),
                          QQ(0)),
            rng, r + s)

    def test_distinct_representations_get_distinct_entries(self,
                                                           cold_action):
        rng = make_rng(70)
        f = random_rf(rng, 2, 2, 2, terms=2)
        g = random_rf(rng, 1, 2, 1, terms=2)
        form = next(iter(f.den))
        higher = RationalFunction(f.arity, f.num,
                                  {**f.den, form: f.den[form] + 1})
        # sign, content, one form's multiplicity; then arity alone
        variants = [(f, g), (-f, g), (f.scale(3), g), (higher, g),
                    (g, f), (g, -f), (g, f.scale(3)), (g, higher),
                    (RationalFunction.const(1, 2), g),
                    (RationalFunction.const(2, 2), g)]
        values = []
        for n, (a, b) in enumerate(variants, 1):
            values.append(ihara_action_component(a, b))
            assert cold_action.cache_info().currsize == n
            assert emit(values[-1], "json") == emit(_uncached(a, b), "json")
        assert len({emit(v, "json") for v in values}) == len(variants)
        for (a, b), value in zip(variants, values):
            assert ihara_action_component(a, b) is value
        info = cold_action.cache_info()
        assert (info.hits, info.misses) == (len(variants), len(variants))

    def test_equal_values_of_another_representation_miss(self, cold_action):
        # the key is the representation, not the value: a numerator that
        # a denominator form divides is a second entry with an equal value
        f = RationalFunction.const(1, 1)
        form = linear_form(1, 0, 1)
        wide = RationalFunction(1, Polynomial.variable(1, 1), {form: 1})
        g = mono(-2)
        a, b = ihara_action_component(f, g), ihara_action_component(wide, g)
        assert cold_action.cache_info().misses == 2
        assert a.equals(b)


class TestDihedralOperators:
    def test_sigma_involution(self, rng):
        f = random_rf(rng, 3, 2, 2)
        assert sigma(sigma(f)).equals(f)

    def test_tau_involution(self, rng):
        f = random_rf(rng, 3, 2, 2)
        assert tau(tau(f)).equals(f)

    def test_cyclic_rotation_order(self):
        # tau sigma has order r+1 on even-weight inputs
        f = psi_odd_component(1, 3) * psi_odd_component(1, 3)  # even weight
        g = f
        for _ in range(4):
            g = tau(sigma(g))
        assert g.equals(f)

    def test_sigma_of_grape_inverse(self):
        d = 3
        pg = vine_rat(Vine((d,)))
        got = sigma(pg)
        den = {linear_form(d, 0, d): 1}
        for j in range(1, d):
            den[linear_form(d, j, d)] = 1
        from dshuffle.ratfun import Polynomial
        expect = RationalFunction.from_num_den(
            Polynomial.const(d, (-1) ** d), den)
        assert got.equals(expect)


class TestRotationOracle:
    """rotations and cyclic_sum against u evaluated at the relabelled
    points, at random rational points off the poles."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_rotations(self, m):
        rng = make_rng(60 + m)
        u = random_rf(rng, m, 2, 2)
        turns = rotations(u)
        assert len(turns) == m
        for k, turn in enumerate(turns):
            # y_i -> y_(i+k mod m)
            assert agrees_pointwise(
                turn, lambda y: u.evaluate(
                    tuple(y[(i + k) % m] for i in range(m))), rng, m)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_cyclic_sum(self, m):
        rng = make_rng(70 + m)
        u = random_rf(rng, m, 2, 2)

        def oracle(x):
            y = (QQ(0),) + x
            return sum(u.evaluate(tuple(y[(i + k) % m] for i in range(m)))
                       for k in range(m))
        assert agrees_pointwise(cyclic_sum(u), oracle, rng, m - 1)


class TestExpAndTruncation:
    def test_exp_of_nu(self):
        one = DepthSeries.unit(4)
        assert stuffle_exp(nu_series(4), 4).equals(one + mu_plus(4))

    def test_telescoping(self):
        one = DepthSeries.unit(5)
        prod = series_stuffle(one + mu_plus(5), one - mu_minus(5))
        assert prod.equals(one)

    def test_plus_truncate_kills_negative_weight(self):
        assert plus_truncate(psi_minus_one(4)).is_zero()

    def test_plus_truncate_weight_bound(self):
        f = psi_odd(2, 6)  # weight 5
        out = plus_truncate(f)
        assert 4 in out.components
        assert 5 not in out.components and 6 not in out.components

    def test_plus_truncate_needs_weight(self):
        series = DepthSeries({1: mono(2)}, 3)
        with pytest.raises(ValueError):
            plus_truncate(series)


class TestSingleSumBracket:
    """series_ihara_bracket sums both actions of each depth at once; it
    must give exactly the series of the definition f o g - g o f."""

    @staticmethod
    def pairs():
        rng = make_rng(25)
        loose = DepthSeries({1: mono(2), 2: random_rf(rng, 2)}, 3)
        return [
            (psi_odd(1, 4), psi_odd(2, 4)),
            (psi_minus_one(5), psi_odd(1, 5)),
            (chi(-1, 5), chi(3, 5)),
            # truncated: f's order 2 caps the exact range at depth 3
            (psi_odd(1, 2), psi_odd(2, 5)),
            # incomplete with no weight, against a complete single depth
            (loose, DepthSeries.single(mono(-2), 5)),
            (DepthSeries.single(mono(4), 4), loose),
        ]

    def test_equals_the_difference_of_actions(self):
        for f, g in self.pairs():
            got = series_ihara_bracket(f, g)
            want = series_ihara_action(f, g) - series_ihara_action(g, f)
            assert got.to_json_dict() == want.to_json_dict()
            assert (got.max_depth, got.weight, got.complete, got.const) \
                == (want.max_depth, want.weight, want.complete, want.const)

    def test_one_sum_per_depth(self, monkeypatch):
        for f, g in self.pairs():
            series_ihara_bracket(f, g)  # the actions are now cached
            calls = []

            def counting(arity, values):
                calls.append(arity)
                return rf_sum_a(arity, values)
            monkeypatch.setattr(series, "rf_sum_a", counting)
            got = series_ihara_bracket(f, g)
            monkeypatch.undo()
            assert calls == list(range(1, got.max_depth + 1))

    def test_scalar_part_raises(self):
        for f, g in self.pairs()[:2]:
            with_const = f + DepthSeries.unit(f.max_depth)
            for left, right in ((with_const, g), (g, with_const),
                                (with_const, with_const)):
                with pytest.raises(ValueError, match="scalar"):
                    series_ihara_bracket(left, right)


class TestSeriesBracketStructure:
    def test_bracket_weight(self):
        br = series_ihara_bracket(psi_odd(1, 3), psi_odd(2, 3))
        assert br.weight == 8

    def test_truncation_tracking(self):
        f = psi_odd(1, 2)
        g = psi_odd(2, 4)
        br = series_ihara_bracket(f, g)
        assert br.max_depth == 3  # limited by f's truncation

    def test_json_round_trip(self):
        f = psi_odd(1, 3)
        blob = f.to_json_dict()
        g = DepthSeries.from_json_dict(blob)
        assert g.equals(f)
        assert g.to_json_dict() == blob

    def test_json_round_trip_keeps_const_and_complete(self):
        for f in (DepthSeries.unit(2), DepthSeries.unit(3).scale(QQ(-2, 3)),
                  DepthSeries.single(mono(2), 3)):
            g = DepthSeries.from_json_dict(f.to_json_dict())
            assert (g.const, g.complete, g.max_depth) == \
                (f.const, f.complete, f.max_depth)
            assert g.equals(f)
