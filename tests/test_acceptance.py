"""Acceptance suite: every headline identity at its exact value.

Each test prints one line per criterion.  All assertions are exact (zero
tolerance); the expected values are frozen rationals checked against
independent computations where the sources disagree (see the project
notes for the three display corrections: the Witt orientation, the basic
residue exponent, and one sigma_9 / one mod-7 coefficient).
"""

import pytest

from dshuffle.rationals import QQ
from dshuffle.ratfun import (Polynomial, RationalFunction, linear_form,
                             rf_sum_a, var_vector)
from dshuffle.series import (DepthSeries, dihedral_bracket,
                             ihara_action_component, ihara_bracket_component,
                             plus_truncate, series_ihara_bracket,
                             series_stuffle, shuffle_concat, stuffle_concat,
                             stuffle_exp)
from dshuffle.dsh_check import (all_pass, check_lambda_form,
                                check_linearized, check_shuffle,
                                check_six_term, check_stuffle, is_in_pdmr,
                                is_in_pls)
from dshuffle.gens import (P_series, Q4, Q_series, c_n, c_tilde, chi,
                           enumerate_vines, lift_ell, lift_tilde, mu_minus,
                           mu_plus, nu_series, psi_minus_one, psi_odd,
                           psi_odd_component, psi_pieces_ABC, psi_pieces_DEF,
                           psi_zero, s_d, s_vineyard, series_tau,
                           star_conjugate, vine_rat, vineyard_realize, z3)
from dshuffle.resflt import (R, filtration_degree, h3, h4, highest_weight_h,
                             multi_residue_check, res_nabla,
                             res_nabla_commute, res_of_action,
                             res_of_stuffle, residue_structure_check, sl2_e,
                             sl2_f, total_residue)
from dshuffle.modforms import (bracket_kernel_ls2, c2_space,
                               dimension_series, exceptional_e,
                               lie3_dimensions, ls_dimension,
                               p_even_generator, period_space, pi2)
from dshuffle.anatomy import (chi_q4_decomposition, coefficient_of_word,
                              evaluate, solve_sigma)

from conftest import make_rng, mono, random_rf


def report(name, passed):
    print("ACCEPTANCE %-50s %s" % (name, "PASS" if passed else "FAIL"))
    assert passed, name


S12 = Polynomial(2, {(8, 2): QQ(1), (6, 4): QQ(-3),
                     (4, 6): QQ(3), (2, 8): QQ(-1)})


class TestCriterion01PsiMembership:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_psi_odd_depth5(self, n):
        reports = is_in_pdmr(psi_odd(n, 5), 5)
        report("1: psi_%d double shuffle to depth 5" % (2 * n + 1),
               all_pass(reports))

    def test_psi_minus_one_depth5(self):
        reports = is_in_pdmr(psi_minus_one(5), 5)
        report("1: psi_-1 double shuffle to depth 5", all_pass(reports))


class TestCriterion02PsiZero:
    def test_psi_zero_depth4(self):
        reports = is_in_pdmr(psi_zero(4), 4)
        report("2: psi_0 double shuffle to depth 4", all_pass(reports))


class TestCriterion03IharaRelation:
    def test_weight12_relation(self):
        br1 = ihara_bracket_component(mono(2), mono(8))
        br2 = ihara_bracket_component(mono(4), mono(6))
        report("3: weight-12 depth-2 bracket relation",
               (br1 - br2.scale(3)).is_zero())


class TestCriterion04Witt:
    def test_witt_relations(self):
        # the orientation consistent with the action formulas and the
        # explicit generators: bracket of s_m with s_n gives (n-m) s_(m+n)
        ok = True
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                if m + n > 6:
                    continue
                br = ihara_bracket_component(s_d(m), s_d(n))
                ok = ok and br.equals(s_d(m + n).scale(n - m))
        report("4: Witt relations to depth 6", ok)


class TestCriterion05SigmaCoefficients:
    def test_sigma5(self):
        expr = solve_sigma(5, 4)
        ok = (expr.terms.get((-1, -1, 7)) == QQ(-1, 60)
              and expr.terms.get((3, 3, -1)) == QQ(-1, 5)
              and expr.kernel_dim == 0)
        report("5: sigma_5 coefficients -1/60, -1/5", ok)

    def test_sigma7(self):
        expr = solve_sigma(7, 4)
        ok = (expr.terms.get((-1, -1, 9)) == QQ(-1, 112)
              and expr.terms.get((5, 3, -1)) == QQ(-1, 14)
              and expr.terms.get((3, 5, -1)) == QQ(-29, 224)
              and expr.kernel_dim == 0)
        report("5: sigma_7 coefficients -1/112, -1/14, -29/224", ok)

    def test_sigma9(self):
        # the (3,7,-1) value is pinned by the word-coefficient criterion:
        # -113/1080, not the displayed -113/180
        expr = solve_sigma(9, 4)
        ok = (expr.terms.get((-1, -1, 11)) == QQ(-1, 180)
              and expr.terms.get((7, 3, -1)) == QQ(-7, 180)
              and expr.terms.get((3, 7, -1)) == QQ(-113, 1080)
              and expr.terms.get((5, 5, -1)) == QQ(-1, 16)
              and expr.kernel_dim == 0)
        report("5: sigma_9 coefficients (exact solve)", ok)

    def test_sigma11(self):
        expr = solve_sigma(11, 4)
        ok = (expr.terms.get((-1, -1, 13)) == QQ(-1, 264)
              and expr.terms.get((9, 3, -1)) == QQ(-241, 2112)
              and expr.terms.get((7, 5, -1)) == QQ(479, 2112)
              and expr.terms.get((5, 7, -1)) == QQ(-2053, 6336)
              and (3, 9, -1) not in expr.terms
              and expr.kernel_dim == 1)
        report("5: sigma_11 constrained coefficients", ok)


class TestCriterion06WordCoefficient:
    def test_sigma9_522(self):
        xi = evaluate(solve_sigma(9, 4), 3)
        value = coefficient_of_word(xi, (5, 2, 2))
        report("6: sigma_9 word (5,2,2) = -3319/72",
               value == QQ(-3319, 72))


class TestCriterion07ChiBasis:
    def test_sigma5_chi(self):
        expr = solve_sigma(5, 4, basis="chi")
        ok = expr.terms == {(5,): QQ(1), (3, 3, -1): QQ(-5, 24)}
        report("7: sigma_5 chi coefficient -5/24", ok)

    def test_sigma7_q4_counterterm(self):
        expr, q4c = chi_q4_decomposition(7)
        # +1/240 on the bracket of the exceptional element with x1^6
        ok = (q4c == QQ(-1, 240)
              and expr.terms.get((5, 3, -1)) == QQ(-7, 48)
              and expr.terms.get((3, 5, -1)) == QQ(-7, 96))
        report("7: sigma_7 exceptional counterterm 1/240", ok)

    def test_remq4_identity(self):
        diff = psi_minus_one(5).component(5) - chi(-1, 5).component(5)
        br = ihara_bracket_component(Q4(), mono(-2)).scale(QQ(1, 240))
        report("7: psi_-1 vs chi_-1 depth-5 defect", diff.equals(br))


class TestCriterion08Dimensions:
    def test_period_dimensions(self):
        cusp = dimension_series("cusp", 24)
        ok = all(len(period_space(w, "even")) == cusp[w]
                 for w in range(4, 25, 2))
        report("8: even period dims match to 24", ok)

    def test_ls2_dimensions(self):
        series = dimension_series("ls2", 20)
        ok = all(ls_dimension(2, w) == series[w] for w in range(2, 21))
        report("8: depth-2 solution dims match to 20", ok)

    def test_c2_dimensions(self):
        ok = all(len(c2_space(n)) == (n + 2) // 3 for n in range(13))
        report("8: cyclic antisymmetric dims floor((n+2)/3)", ok)

    def test_bracket_kernel(self):
        cusp = dimension_series("cusp", 20)
        ok = all(bracket_kernel_ls2(w)[0] == cusp[w]
                 for w in range(8, 21, 2))
        report("8: depth-2 bracket kernel = cusp dims", ok)


class TestCriterion09Exceptional:
    def test_e_s12_in_pls4(self):
        reports = is_in_pls(exceptional_e(S12))
        report("9: exceptional weight-12 element in pls_4",
               all_pass(reports))


class TestCriterion10ResidueCalculus:
    def test_basic_residues(self):
        ok = True
        for n in range(1, 6):
            br = ihara_bracket_component(mono(-2), mono(2 * n))
            ok = ok and R(br).equals(mono(2 * n - 1, -2 * n))
        report("10: residues of basic brackets -2n x^(2n-1)", ok)

    def test_res_nabla_randomized(self):
        cases = [mono(2), mono(4), mono(6),
                 ihara_bracket_component(mono(2), mono(4)),
                 ihara_bracket_component(mono(2), mono(6)),
                 highest_weight_h(1, 2)]
        ok = all(res_nabla(f).passed for f in cases)
        report("10: action-residue / gradient identity", ok)

    def test_residue_structure(self):
        ok = True
        for series in (psi_odd(1, 5), psi_minus_one(5)):
            for d in range(2, 6):
                for i in range(1, d):
                    ok = ok and residue_structure_check(series, d, i).passed
        report("10: residue factorization psi_3, psi_-1 to depth 5", ok)


class TestCriterion11Sl2:
    def test_highest_weight_vectors(self):
        ok = all(sl2_f(highest_weight_h(a, b)).is_zero()
                 for a in (1, 2, 3) for b in (1, 2, 3))
        report("11: lowering kills h_(a,b) for a,b <= 3", ok)

    def test_z3(self):
        z = z3()
        ok = (sl2_f(z).is_zero()
              and check_linearized(z, 1, 2, sharp=False).passed
              and check_linearized(z, 1, 2, sharp=True).residual.equals(
                  RationalFunction.const(3, 1)))
        report("11: z_3 highest weight and mixed word sums", ok)


class TestCriterion12Congruences:
    def test_congruences(self):
        from dshuffle.anatomy import congruence_check

        def br(a, b):
            return ihara_bracket_component(mono(a), mono(b))

        ok = congruence_check(br(-2, 4), 2)
        ok = ok and congruence_check(
            br(-2, 12) + br(2, 8).scale(2) + br(4, 6), 3)
        ok = ok and congruence_check(br(-2, 10) + br(2, 6).scale(2), 5)
        # exact weight-15 congruence (middle coefficient 6)
        ok = ok and congruence_check(
            br(-2, 14) + br(2, 10).scale(6) + br(4, 8).scale(5), 7)
        report("12: displayed congruences mod 2, 3, 5, 7", ok)


class TestCriterion13SixTerm:
    def test_bracket_weight8(self):
        series = series_ihara_bracket(psi_odd(1, 4), psi_odd(2, 4))
        ok = check_six_term(series, 3).passed \
            and check_six_term(series, 4).passed
        report("13: six-term relation for weight-8 bracket at d=3,4", ok)


class TestCriterion14PropertySuites:
    def test_pre_lie(self):
        rng = make_rng(41)
        ok = True
        for _ in range(4):
            a = random_rf(rng, 1, 2, 1, terms=2)
            b = mono(2 * rng.randint(1, 3))
            c = random_rf(rng, 2, 1, 1, terms=2)

            def A(x, y, z):
                return ihara_action_component(
                    x, ihara_action_component(y, z)) - \
                    ihara_action_component(ihara_action_component(x, y), z)
            ok = ok and A(a, b, c).equals(A(b, a, c))
        report("14: pre-Lie symmetry (randomized)", ok)

    def test_derivation_laws(self):
        rng = make_rng(42)
        ok = True
        for _ in range(3):
            f = random_rf(rng, 1, 2, 1, terms=2)
            g = random_rf(rng, 1, 1, 1, terms=2)
            h = random_rf(rng, 2, 1, 1, terms=2)
            n = 4
            lhs = ihara_action_component(f, shuffle_concat(g, h))
            rhs = rf_sum_a(n, [
                shuffle_concat(ihara_action_component(f, g), h),
                shuffle_concat(g, ihara_action_component(f, h)),
                shuffle_concat(shuffle_concat(g, f), h).scale(-1)])
            ok = ok and lhs.equals(rhs)
            lhs = ihara_action_component(f, stuffle_concat(g, h))
            rhs = rf_sum_a(n, [
                stuffle_concat(ihara_action_component(f, g), h),
                stuffle_concat(g, ihara_action_component(f, h)),
                stuffle_concat(stuffle_concat(g, f), h).scale(-1)])
            ok = ok and lhs.equals(rhs)
        report("14: derivation laws (randomized)", ok)

    def test_dihedral_oracle_equivalence(self):
        ok = True
        for (a, b) in [(2, 4), (2, 6), (-2, 4), (-2, 8), (4, 6)]:
            f, g = mono(a), mono(b)
            ok = ok and dihedral_bracket(f, g).equals(
                ihara_bracket_component(f, g))
        report("14: dihedral bracket equals general bracket", ok)

    def test_lambda_equivalence(self):
        cases = [c_n(3), psi_odd(1, 3).component(3),
                 RationalFunction.from_poly(Polynomial.monomial(3, (2, 1, 1))),
                 z3()]
        ok = True
        for f in cases:
            for sharp in (False, True):
                fam = all(check_linearized(f, p, 3 - p, sharp).passed
                          for p in (1,))
                lam = check_lambda_form(f, sharp).passed
                ok = ok and fam == lam
        report("14: projector form matches family form", ok)

    def test_parity_nullspaces(self):
        ok = all(ls_dimension(2, 2 + deg) == 0 for deg in (3, 5, 7, 9))
        report("14: no depth-2 solutions at odd degree", ok)

    def test_racinet_closure(self):
        br1 = series_ihara_bracket(psi_odd(1, 4), psi_odd(2, 4))
        br2 = series_ihara_bracket(psi_minus_one(4), psi_odd(1, 4))
        ok = all_pass(is_in_pdmr(br1, 4)) and all_pass(is_in_pdmr(br2, 4))
        report("14: bracket closure of double shuffle solutions", ok)


class TestCriterion15PsiPieces:
    def test_piece_regroupings(self):
        ok = True
        for n in (1, 2):
            for d in (1, 2, 3, 4):
                A, B, C = psi_pieces_ABC(n, d)
                D, E, F = psi_pieces_DEF(n, d)
                psi = psi_odd_component(n, d)
                ok = ok and (A + B + C).scale(QQ(1, 2)).equals(psi) \
                    and (D + E + F).scale(QQ(1, 2)).equals(psi)
        report("15: psi = (A+B+C)/2 = (D+E+F)/2 to depth 4", ok)

    def test_A_is_lift(self):
        lt = lift_tilde(mono(4), 4)
        ok = all(psi_pieces_ABC(2, d)[0].equals(lt.component(d))
                 for d in (1, 2, 3, 4))
        report("15: A = interval-partition lift of x1^(2n)", ok)

    def test_B_is_star_conjugate_of_tau_A(self):
        B_star = star_conjugate(series_tau(lift_tilde(mono(2), 4)), 4)
        ok = all(B_star.component(d).equals(psi_pieces_ABC(1, d)[1])
                 for d in (1, 2, 3, 4))
        report("15: B = star conjugate of tau(A)", ok)

    def test_DEF_pieces_satisfy_shuffle(self):
        ok = all(check_shuffle(piece, p, d - p).passed
                 for d in (2, 3) for piece in psi_pieces_DEF(1, d)
                 for p in range(1, d // 2 + 1))
        report("15: D, E, F each satisfy shuffle", ok)


class TestCriterion16Vines:
    def test_primitive_vineyards_give_shuffle_solutions(self):
        ok = True
        for n in (2, 3, 4, 5):
            f = vineyard_realize({v.composition: QQ((-1) ** v.height,
                                                    v.height)
                                  for v in enumerate_vines(n)})
            ok = ok and all(check_shuffle(f, p, n - p).passed
                            for p in range(1, n // 2 + 1))
        report("16: log-type vineyards realize shuffle solutions", ok)

    def test_realization_matches_s_d(self):
        ok = all(vineyard_realize(s_vineyard(n)).equals(s_d(n))
                 for n in (1, 2, 3, 4))
        report("16: realized primitive vineyard s_n = s_d(n)", ok)

    def test_alternating_height_decomposition(self):
        acc = DepthSeries.zero(4)
        for n in range(1, 5):
            acc = acc + P_series(n, 4).scale(QQ((-1) ** (n + 1), n))
        report("16: psi_-1 = sum (-1)^(n+1)/n P_n",
               psi_minus_one(4).equals(acc))

    def test_Q_is_restriction_of_P(self):
        # independent recount: the vines of height n starting with g_1
        ok = True
        for n in (1, 2):
            for d in (n, n + 1, n + 2):
                expect = rf_sum_a(d, [
                    vine_rat(v).divide_form_exact(linear_form(d, 0, d))
                    for v in enumerate_vines(d)
                    if v.height == n and v.composition[0] == 1])
                ok = ok and Q_series(n, d).component(d).equals(expect)
        report("16: Q_n = P_n restricted to vines g_1 w", ok)

    def test_c_tilde_telescoping(self):
        one = DepthSeries.unit(5)
        ok = all(series_stuffle(c_tilde(n, 5), one - mu_minus(5)).equals(
                     Q_series(n, 5) + Q_series(n + 1, 5))
                 for n in (1, 2, 3))
        report("16: c~_n stuffle (1 - mu_-) = Q_n + Q_(n+1)", ok)


class TestCriterion17LiftsAndConjugation:
    def test_tilde_of_stuffle_solution_is_stuffle_solution(self):
        tilde = lift_tilde(c_n(2), 4)
        ok = all(check_stuffle(tilde, p, q).passed
                 for p, q in [(1, 2), (1, 3), (2, 2)])
        report("17: interval-partition lift of c_2 solves stuffle", ok)

    def test_ell_is_stuffle_solution(self):
        ell = lift_ell(mono(2), 4)
        ok = all(check_stuffle(ell, p, q).passed
                 for p, q in [(1, 1), (1, 2), (1, 3), (2, 2)])
        report("17: marked lift of x1^2 solves stuffle", ok)

    def test_ell_of_inverse_is_nu(self):
        report("17: ell(x^-1) = nu",
               lift_ell(mono(-1), 4).equals(nu_series(4)))

    def test_exp_star(self):
        one = DepthSeries.unit(4)
        report("17: exp_*(nu) = 1 + mu_+",
               stuffle_exp(nu_series(4), 4).equals(one + mu_plus(4)))

    def test_star_conjugation_preserves_stuffle(self):
        conj = star_conjugate(lift_tilde(mono(2), 4), 4)
        ok = all(check_stuffle(conj, p, q).passed
                 for p, q in [(1, 1), (1, 2), (1, 3), (2, 2)])
        report("17: star conjugation preserves stuffle", ok)


class TestCriterion18ResidueFiltration:
    def test_filtration_degrees(self):
        ok = (filtration_degree(mono(4)) == 0
              and filtration_degree(mono(-2)) == 1
              and filtration_degree(
                  ihara_bracket_component(mono(-2), mono(4))) == 1)
        report("18: filtration degrees of x^4, x^-2, [x^-2, x^4]", ok)

    def test_filtration_additive_on_brackets(self):
        # two weight -1 generators push the level to two at most
        inner = ihara_bracket_component(mono(-2), mono(8))
        report("18: filtration additive on brackets",
               filtration_degree(
                   ihara_bracket_component(mono(-2), inner)) <= 2)

    def test_res_of_action(self):
        f = ihara_bracket_component(mono(2), mono(4))
        g = ihara_bracket_component(mono(-2), mono(2))
        report("18: Res(f o g) = f o Res g - Res g * f",
               res_of_action(f, g).passed)

    def test_res_of_stuffle(self):
        f = ihara_bracket_component(mono(2), mono(4))
        g = ihara_bracket_component(mono(-2), mono(4))
        report("18: Res(f * g) = f * Res g (stuffle)",
               res_of_stuffle(f, g).passed)

    def test_res_nabla_commute(self):
        f = ihara_bracket_component(mono(-2), mono(6))
        report("18: Res nabla = nabla Res", res_nabla_commute(f).passed)

    @staticmethod
    def in_kernel(xi):
        return all(v.is_zero() for v in total_residue(xi).values())

    def test_sigma5_in_kernel(self):
        xi = plus_truncate(evaluate(solve_sigma(5, 4), 4))
        report("18: sigma_5+ in ker Res", self.in_kernel(xi))

    def test_psi3_plus_in_kernel(self):
        report("18: psi_3+ in ker Res",
               self.in_kernel(plus_truncate(psi_odd(1, 4))))

    def test_psi7_plus_not_in_kernel(self):
        report("18: psi_7+ not in ker Res",
               not self.in_kernel(plus_truncate(psi_odd(3, 4))))

    def test_multi_residue(self):
        psi3 = psi_odd(1, 4)
        ok = (multi_residue_check(psi3.component(4), psi3.component(3),
                                  3, 1).passed
              and multi_residue_check(psi3.component(4), psi3.component(2),
                                      4, 1).passed)
        report("18: two-index residue factorization of psi_3", ok)


class TestCriterion19Sl2Raising:
    def test_h4_and_h3_are_highest_weight(self):
        report("19: h4 and h3 are highest weight",
               sl2_f(h4(2, 10)).is_zero() and sl2_f(h3(2, 2, 6)).is_zero())

    def test_e_raises_filtration(self):
        report("19: raising operator lifts filtration 0 to 1",
               filtration_degree(sl2_e(mono(4))) == 1)


class TestCriterion20PeriodPolynomials:
    def test_residue_of_h_is_pi2(self):
        # the depth-3 highest weight vectors project onto the cyclic space
        ok = True
        for (a, b) in ((1, 2), (2, 3)):
            lhs = R(ihara_bracket_component(
                mono(2 * a),
                ihara_bracket_component(mono(-2), mono(2 * b)))
                .scale(QQ(1, 2 * b)))
            rhs = pi2(RationalFunction.from_poly(
                Polynomial(2, {(2 * a, 2 * b - 1): QQ(1)})))
            ok = ok and (lhs.equals(rhs) or lhs.equals(-rhs))
        report("20: R of depth-3 h_(a,b) = +-pi2 of a monomial", ok)

    def test_p_2n_in_full_even_space(self):
        # x^(w-2) - y^(w-2) satisfies both defining relations
        ok = True
        for w in (10, 12):
            f = RationalFunction.from_poly(p_even_generator(w))
            swap = f.substitute_affine([var_vector(2, 2), var_vector(2, 1)],
                                       2)
            sub1 = f.substitute_affine([(0, 1, -1), (0, 1, 0)], 2)
            sub2 = f.substitute_affine([(0, 0, -1), (0, 1, -1)], 2)
            ok = ok and (f + swap).is_zero() \
                and (f + sub1 + sub2).is_zero()
        report("20: x^(w-2) - y^(w-2) is a period, w = 10, 12", ok)

    def test_rejects_nonvanishing_input(self):
        # the exceptional construction refuses x^10 - y^10
        try:
            exceptional_e(p_even_generator(12))
            ok = False
        except ValueError:
            ok = True
        report("20: x^10 - y^10 has no exceptional element", ok)

    def test_ls3_from_exact_sequence(self):
        # depth-3 dims = free Lie triple count minus cusp x depth-1 count
        ls1 = dimension_series("ls1", 17)
        cusp = dimension_series("cusp", 17)
        lie3 = lie3_dimensions(ls1, 17)
        tensor = [0] * 18
        for a in range(18):
            for b in range(18 - a):
                tensor[a + b] += cusp[a] * ls1[b]
        ok = (lie3[15] - tensor[15], lie3[17] - tensor[17]) == (2, 4)
        ok = ok and all(ls_dimension(3, w) == lie3[w] - tensor[w]
                        for w in (9, 11, 13, 15, 17))
        report("20: dim ls3 = Lie3(ls1) - cusp x ls1, w = 9..17", ok)
