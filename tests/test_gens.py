import time

import pytest

from dshuffle.rationals import QQ
from dshuffle.ratfun import (Polynomial, RationalFunction, linear_form,
                             rf_sum_a)
from dshuffle.series import ihara_bracket_component, shuffle_concat, sigma
from dshuffle.dsh_check import sharp_eval
from dshuffle.gens import (CHI_MAX_DEPTH, SD_MAX_DEPTH, Q4, Vine, c_n, chi,
                           enumerate_vines, lift_ell, lift_tilde, mu_minus,
                           mu_plus, psi_minus_one, psi_minus_one_component,
                           psi_odd, psi_odd_component, psi_zero_component,
                           s_d, s_vineyard, twist_by_psi0, vine_poly,
                           vine_rat, x_AB_inverse, z3, generator)

from conftest import mono
from textform import parse


class TestXAB:
    def test_singletons(self):
        # 1/x_{A,B}, with x_a - x_b oriented as written
        assert x_AB_inverse([1], [0], 2).equals(parse("1/(x1)", 2))
        assert x_AB_inverse([1, 2], [0], 2).equals(parse("1/(x1*x2)"))
        assert x_AB_inverse([1], [2], 2).equals(parse("-1/(x2-x1)"))

    def test_empty_set_is_one(self):
        assert x_AB_inverse([], [1], 2).equals(RationalFunction.const(2, 1))
        assert x_AB_inverse([1], [], 2).equals(RationalFunction.const(2, 1))


class TestPsiOdd:
    def test_depth_one(self):
        for n in (1, 2, 3):
            assert psi_odd_component(n, 1).equals(mono(2 * n))

    def test_depth_two_polynomial(self):
        for n in (1, 2):
            p = psi_odd_component(n, 2)
            assert p.is_polynomial()
            assert p.degree() == 2 * n - 1

    def test_depth_three_has_poles(self):
        assert not psi_odd_component(1, 3).is_polynomial()

    def test_weight(self):
        assert psi_odd_component(2, 3).weight() == 5


class TestVines:
    def test_enumeration_count(self):
        for n in range(1, 6):
            assert len(enumerate_vines(n)) == 2 ** (n - 1)

    def test_v3_contents(self):
        got = {v.composition for v in enumerate_vines(3)}
        assert got == {(3,), (1, 2), (2, 1), (1, 1, 1)}

    def test_vine_polynomials(self):
        x = Polynomial.variable
        g12 = vine_poly(Vine((1, 2)))
        expect = x(3, 1).mul_form((0, -1, 1, 0)).mul_form((0, -1, 0, 1))
        assert g12 == expect
        g111 = vine_poly(Vine((1, 1, 1)))
        expect = x(3, 1).mul_form((0, -1, 1, 0)).mul_form((0, 0, -1, 1))
        assert g111 == expect

    def test_grape_realization(self):
        # a single bunch realizes to the inverse coordinate product
        pg = vine_rat(Vine((3,)))
        assert pg.equals(parse("1/(x1*x2*x3)"))

    def test_grape_shuffle_factorization(self):
        # the sharp word sum of an inverse bunch splits as a product
        from dshuffle.rationals import ZERO
        from dshuffle.words import shuffle

        def sharp_in_slots(f, slots, n):
            images = []
            acc = [ZERO] * (n + 1)
            for idx in slots:
                acc = list(acc)
                acc[idx] += 1
                images.append(tuple(acc))
            return f.substitute_affine(images, n)

        for n in (2, 3, 4, 5):
            for k in range(1, n):
                pg = vine_rat(Vine((n,)))
                u = tuple(range(1, k + 1))
                v = tuple(range(k + 1, n + 1))
                total = rf_sum_a(n, [sharp_eval(pg, w)
                                     for w in shuffle(u, v)])
                left = sharp_in_slots(vine_rat(Vine((k,))), u, n)
                right = sharp_in_slots(vine_rat(Vine((n - k,))), v, n)
                assert total.equals(left * right)


class TestPsiMinusOne:
    def test_depth_one(self):
        assert psi_minus_one_component(1).equals(mono(-2))

    def test_depth_two_display(self):
        expect = parse("1/(x1*x2*x2)") \
            - parse("1/(x1*(x2-x1)*x2)").scale(QQ(1, 2))
        assert psi_minus_one_component(2).equals(expect)

    def test_double_pole_only_at_last_variable(self):
        for d in (2, 3, 4):
            f = psi_minus_one_component(d)
            assert f.pole_order(linear_form(d, 0, d)) == 2
            for i in range(1, d):
                assert f.pole_order(linear_form(i, 0, d)) <= 1


class TestWeightZero:
    def test_depth_one(self):
        assert psi_zero_component(1).equals(mono(-1))

    def test_depth_two_display(self):
        expect = (parse("2/(x1*x2)") + parse("1/(x1*(x1-x2))")).scale(QQ(1, 3))
        assert psi_zero_component(2).equals(expect)

    def test_vineyard_recursion(self):
        assert s_vineyard(2) == {(2,): QQ(2), (1, 1): QQ(-1)}
        assert s_vineyard(3) == {(3,): QQ(3), (1, 2): QQ(-2),
                                 (2, 1): QQ(-1), (1, 1, 1): QQ(1)}

    def test_witt_bracket(self):
        assert ihara_bracket_component(s_d(1), s_d(2)).equals(s_d(3))

    def test_s_d_bound(self):
        # 9! = 362,880 numerator terms: refused, and so is psi0 past depth
        # 8 (the twist that needs it stops earlier, see test_chi_bound)
        assert SD_MAX_DEPTH == 8
        for call in (lambda: s_d(9), lambda: s_d(10 ** 9),
                     lambda: generator("sd:9", 2),
                     lambda: psi_zero_component(12)):
            with pytest.raises(ValueError, match="s_d needs d <= 8"):
                call()

    def test_chi_bound(self):
        # the twist past depth 7 is refused before any bracket is built,
        # also where it would need psi0 past the s_d bound
        assert CHI_MAX_DEPTH == 7
        for call in (lambda: chi(3, 8), lambda: chi(-1, 9),
                     lambda: chi(3, 10), lambda: generator("chi-1", 12),
                     lambda: twist_by_psi0(mono(2), 8)):
            start = time.perf_counter()
            with pytest.raises(ValueError,
                               match=r"needs max_depth <= 7, got \d+"):
                call()
            assert time.perf_counter() - start < 1


class TestLifts:
    def test_tilde_depth1_formula(self):
        lt = lift_tilde(RationalFunction.const(1, 1), 3)
        expect = RationalFunction.from_num_den(
            Polynomial.const(3, 1),
            {linear_form(2, 1, 3): 1, linear_form(3, 1, 3): 1})
        assert lt.component(3).equals(expect)

    def test_tilde_partition_count(self):
        # depth 3 lift of a depth-2 input sums over two interval splits
        f = c_n(2)
        lt = lift_tilde(f, 3)
        from dshuffle.ratfun import var_vector
        t1 = f.substitute_affine([var_vector(3, 1), var_vector(3, 2)], 3) \
            * RationalFunction.from_num_den(
                Polynomial.const(3, 1), {linear_form(3, 2, 3): 1})
        t2 = f.substitute_affine([var_vector(3, 1), var_vector(3, 3)], 3) \
            * RationalFunction.from_num_den(
                Polynomial.const(3, 1), {linear_form(2, 1, 3): 1})
        assert lt.component(3).equals(t1 + t2)

    def test_ell_depth1(self):
        ell = lift_ell(mono(2), 3)
        assert ell.component(1).equals(mono(2))

    def test_ell_of_x_depth2_is_constant(self):
        ell = lift_ell(mono(1), 2)
        assert ell.component(2).equals(RationalFunction.const(2, QQ(-1, 2)))


class TestConjugation:
    def test_mu_values(self):
        assert mu_minus(3).component(1).equals(mono(-1))
        assert mu_minus(3).component(2).is_zero()
        assert mu_plus(3).component(3).equals(parse("1/(x1*x2*x3)"))


class TestTwist:
    def test_chi3_matches_psi3_low_depth(self):
        c = chi(3, 3)
        p = psi_odd(1, 3)
        assert c.component(1).equals(p.component(1))
        assert c.component(2).equals(p.component(2))
        assert not c.component(3).equals(p.component(3))

    def test_chi_minus_one_matches_low_depth(self):
        c = chi(-1, 5)
        p = psi_minus_one(5)
        for d in (1, 2, 3, 4):
            assert c.component(d).equals(p.component(d))
        assert not c.component(5).equals(p.component(5))

    def test_twist_q4_counterterm(self):
        c = chi(-1, 5)
        p = psi_minus_one(5)
        diff = p.component(5) - c.component(5)
        br = ihara_bracket_component(Q4(), mono(-2)).scale(QQ(1, 240))
        assert diff.equals(br)

    def test_twisted_series_is_pdmr(self):
        from dshuffle.dsh_check import all_pass, is_in_pdmr
        assert all_pass(is_in_pdmr(chi(3, 4), 4))


class TestSporadic:
    def test_c1(self):
        assert c_n(1).equals(mono(-2))

    def test_c_n_cyclic(self):
        # every plain (unsigned) rotation of the y labels fixes c_n
        from dshuffle.series import reduce_y, rotations, unreduce
        for n in (2, 3, 4):
            f = c_n(n)
            for rotated in rotations(unreduce(f)):
                assert reduce_y(rotated).equals(f)

    def test_q4_residue(self):
        # x4 moves down to slot 3 of the residue
        q = Q4()
        expect = RationalFunction.from_num_den(
            Polynomial.const(3, 1),
            {linear_form(1, 0, 3): 1, linear_form(2, 0, 3): 1,
             linear_form(3, 0, 3): 1})
        assert q.residue(3).equals(expect)

    def test_z3_weight(self):
        z = z3()
        assert z.arity == 3 and z.weight() == 3

    def test_generator_lookup(self):
        assert generator("psi3", 2).component(1).equals(mono(2))
        assert generator("mono:-2", 2).component(1).equals(mono(-2))
        with pytest.raises(ValueError):
            generator("psi4", 2)


class TestResidueStructureOfGenerators:
    def test_sigma_of_bunch(self):
        d = 4
        pg = vine_rat(Vine((d,)))
        got = sigma(pg)
        den = {linear_form(d, 0, d): 1}
        for j in range(1, d):
            den[linear_form(d, j, d)] = 1
        expect = RationalFunction.from_num_den(
            Polynomial.const(d, (-1) ** d), den)
        assert got.equals(expect)

    def test_grape_action_special_cases(self):
        from dshuffle.series import ihara_action_component, stuffle_concat
        for n in (1, 2, 3):
            pg = vine_rat(Vine((n,)))
            lhs = ihara_action_component(s_d(1), pg)
            assert lhs.equals(vine_rat(Vine((n + 1,))).scale(n + 1))
        for n in (1, 2):
            pg = vine_rat(Vine((n,)))
            lhs = ihara_action_component(s_d(2), pg)
            rhs = vine_rat(Vine((n + 2,))).scale(n + 2) \
                - shuffle_concat(vine_rat(Vine((n + 1,))), vine_rat(Vine((1,))))
            assert lhs.equals(rhs)
