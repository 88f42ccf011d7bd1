import pytest

from dshuffle.ratfun import PoleOrderError, RationalFunction, linear_form
from dshuffle.series import (ihara_bracket_component, plus_truncate,
                             series_ihara_bracket)
from dshuffle.resflt import (R, highest_weight_h, iterated_R, res_nabla,
                             residue_structure_check, sl2_e, sl2_f,
                             total_residue)
from dshuffle.gens import psi_minus_one, psi_odd, psi_odd_component, z3
from dshuffle.anatomy import evaluate, solve_sigma

from conftest import mono
from textform import parse


class TestR:
    def test_weight_minus_one_exception(self):
        assert R(mono(-2)).equals(RationalFunction.const(0, 1))

    def test_basic_bracket_residues(self):
        for n in range(1, 6):
            br = ihara_bracket_component(mono(-2), mono(2 * n))
            assert R(br).equals(mono(2 * n - 1, -2 * n))

    def test_polynomial_killed(self):
        assert R(psi_odd_component(1, 2)).is_zero()

    def test_order_two_beyond_depth_one_raises(self):
        f = parse("1/(x1*x2*x2)")
        with pytest.raises(PoleOrderError):
            R(f)

    def test_iterated(self):
        g = sl2_e(sl2_e(mono(4)))
        expect = mono(4).nabla().scale(-1).nabla().scale(-1)
        assert iterated_R(g, 2).equals(expect)


class TestResidueCalculus:
    def test_res_nabla_small(self):
        assert res_nabla(mono(2)).passed
        assert res_nabla(mono(4)).passed

    def test_res_nabla_randomized_dihedral_inputs(self):
        # brackets of depth-one solutions lie in the dihedral algebra
        for (a, b) in [(1, 2), (2, 3), (1, 3)]:
            f = ihara_bracket_component(mono(2 * a), mono(2 * b))
            if f.is_zero():
                continue
            assert res_nabla(f).passed


class TestTotalResidue:
    def test_kernel_iff_polynomial(self):
        xi = plus_truncate(psi_odd(3, 4))
        res = total_residue(xi)
        for d, comp in xi.components.items():
            assert res[d].is_zero() == comp.is_polynomial()


class TestSl2:
    def test_lowering_kills_depth_one(self):
        assert sl2_f(mono(-2)).is_zero()
        assert sl2_f(mono(6)).is_zero()

    def test_basic_lowering_values(self):
        for a in (1, 2, 3):
            br = ihara_bracket_component(mono(-2), mono(2 * a))
            assert sl2_f(br).equals(mono(2 * a, 2 * a))

    def test_highest_weight_vectors(self):
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                assert sl2_f(highest_weight_h(a, b)).is_zero()

    def test_z3_highest_weight(self):
        assert sl2_f(z3()).is_zero()

    def test_commutator_acts_by_degree(self):
        f = ihara_bracket_component(mono(2), mono(4))
        comm = sl2_f(sl2_e(f)) - sl2_e(sl2_f(f))
        assert comm.equals(f.scale(f.degree()))
        g = mono(6)
        assert sl2_f(sl2_e(g)).equals(g.scale(6))

    def test_f_commutes_with_R(self):
        g = sl2_e(sl2_e(mono(4)))
        assert sl2_f(R(g)).equals(R(sl2_f(g)))

    def test_lowering_via_cyclic_rotations_even_weight(self):
        # cross-check on even-weight elements with the restricted pole
        # shape: rotate the top residue around the cyclic labels
        from dshuffle.resflt import sl2_f_via_rotations
        for g in (sl2_e(ihara_bracket_component(mono(2), mono(4))),
                  sl2_e(ihara_bracket_component(mono(2), mono(6))),
                  highest_weight_h(1, 2)):
            assert sl2_f(g).equals(sl2_f_via_rotations(g))


class TestResidueStructure:
    def test_psi3_structure(self):
        psi3 = psi_odd(1, 5)
        for d in (2, 3, 4, 5):
            for i in range(1, d):
                assert residue_structure_check(psi3, d, i).passed

    def test_psi_minus_one_structure(self):
        psim1 = psi_minus_one(5)
        for d in (2, 3, 4, 5):
            for i in range(1, d):
                assert residue_structure_check(psim1, d, i).passed

    def test_bracket_structure(self):
        br = series_ihara_bracket(psi_minus_one(4), psi_odd(1, 4))
        for i in (1, 2, 3):
            assert residue_structure_check(br, 4, i).passed

    def test_cyclic_pole_theorem_on_solved_sigma(self):
        # once lower depths are polynomial, the first polar depth has poles
        # only along the cyclic orbit of consecutive differences
        expr = solve_sigma(7, 4)
        xi = evaluate(expr, 5)
        comp = xi.component(5)
        allowed = {linear_form(1, 0, 5), linear_form(5, 0, 5)}
        for i in range(2, 6):
            allowed.add(linear_form(i, i - 1, 5))
        for form in comp.den:
            assert form in allowed

    def test_double_poles_cancel_in_brackets(self):
        br = series_ihara_bracket(psi_minus_one(4), psi_odd(1, 4))
        for d, comp in br.components.items():
            for form, k in comp.den.items():
                assert k <= 1
