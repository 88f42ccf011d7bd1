import json

import pytest

from dshuffle import series
from dshuffle.cli import emit
from dshuffle.rationals import QQ
from dshuffle.series import series_ihara_bracket, ihara_bracket_component
from dshuffle.anatomy import (BracketExpression, SolveError, bracket_basis,
                              chi_q4_decomposition, coefficient_of_word,
                              congruence_check, evaluate, evaluate_word,
                              generator_series, solve_sigma)
from dshuffle.gens import psi_odd

from conftest import clear_program_caches, mono, program_caches


class TestBasis:
    def test_weight5_words(self):
        words = bracket_basis(5, 3)
        assert words == [(-1, -1, 7), (3, 3, -1)]

    def test_weight7_words(self):
        assert bracket_basis(7, 3) == [(-1, -1, 9), (5, 3, -1), (3, 5, -1)]

    def test_weight11_words(self):
        assert bracket_basis(11, 3) == [(-1, -1, 13), (9, 3, -1),
                                        (7, 5, -1), (5, 7, -1), (3, 9, -1)]

    def test_even_weight_rejected(self):
        with pytest.raises(SolveError):
            bracket_basis(6, 3)


class TestEvaluate:
    def test_single_generator(self):
        expr = BracketExpression({(3,): QQ(1)}, 3)
        ev = evaluate(expr, 2)
        psi3 = psi_odd(1, 2)
        assert ev.equals(psi3)

    def test_word_leading_depth(self):
        word = (3, 3, -1)
        series = evaluate_word(word, 4)
        assert series.component(1).is_zero()
        assert series.component(2).is_zero()
        assert not series.component(3).is_zero()

    def test_word_matches_component_bracket(self):
        series = evaluate_word((3, 5), 2)
        comp = ihara_bracket_component(mono(2), mono(4))
        assert series.component(2).equals(comp)


class TestSolve:
    def test_sigma3_trivial(self):
        expr = solve_sigma(3, 2)
        assert expr.terms == {(3,): QQ(1)}

    def test_sigma5(self):
        expr = solve_sigma(5, 4)
        assert expr.terms == {(5,): QQ(1), (-1, -1, 7): QQ(-1, 60),
                              (3, 3, -1): QQ(-1, 5)}
        assert expr.kernel_dim == 0

    def test_sigma5_evaluation_polynomial(self):
        expr = solve_sigma(5, 4)
        xi = evaluate(expr, 4)
        for d in (1, 2, 3, 4):
            assert xi.component(d).is_polynomial()

    def test_solved_sigma_is_double_shuffle_solution(self):
        from dshuffle.dsh_check import all_pass, is_in_pdmr
        xi = evaluate(solve_sigma(5, 4), 4)
        assert all_pass(is_in_pdmr(xi, 4))

    def test_depth_bound_guard(self):
        with pytest.raises(SolveError):
            solve_sigma(5, 5)

    def test_chi_basis_sigma5(self):
        expr = solve_sigma(5, 4, basis="chi")
        assert expr.terms == {(5,): QQ(1), (3, 3, -1): QQ(-5, 24)}


class TestWordCoefficients:
    def test_depth1(self):
        series = evaluate(BracketExpression({(3,): QQ(1)}, 3), 1)
        assert coefficient_of_word(series, (3,)) == QQ(1)

    def test_longer_than_support(self):
        series = evaluate(BracketExpression({(3,): QQ(1)}, 3), 2)
        with pytest.raises(ValueError):
            coefficient_of_word(series, (1, 1, 1))

    def test_nonpolynomial_component_rejected(self):
        series = psi_odd(1, 3)
        with pytest.raises(ValueError):
            coefficient_of_word(series, (1, 1, 1))


class TestCongruences:
    def test_weight5_mod2(self):
        br = ihara_bracket_component(mono(-2), mono(4))
        assert congruence_check(br, 2)

    def test_displayed_mod3(self):
        combo = ihara_bracket_component(mono(-2), mono(12)) \
            + ihara_bracket_component(mono(2), mono(8)).scale(2) \
            + ihara_bracket_component(mono(4), mono(6))
        assert congruence_check(combo, 3)

    def test_displayed_mod5(self):
        combo = ihara_bracket_component(mono(-2), mono(10)) \
            + ihara_bracket_component(mono(2), mono(6)).scale(2)
        assert congruence_check(combo, 5)

    def test_weight15_mod7(self):
        # the exact weight-15 congruence has middle coefficient 6
        combo = ihara_bracket_component(mono(-2), mono(14)) \
            + ihara_bracket_component(mono(2), mono(10)).scale(6) \
            + ihara_bracket_component(mono(4), mono(8)).scale(5)
        assert congruence_check(combo, 7)
        off = ihara_bracket_component(mono(-2), mono(14)) \
            + ihara_bracket_component(mono(2), mono(10)).scale(4) \
            + ihara_bracket_component(mono(4), mono(8)).scale(5)
        assert not congruence_check(off, 7)

    def test_non_congruence(self):
        br = ihara_bracket_component(mono(-2), mono(4))
        assert not congruence_check(br, 5)

    def test_series_congruence(self):
        lhs = series_ihara_bracket(generator_series(-1, 3),
                                   generator_series(5, 3))
        # psi brackets carry half-integral terms; clear the content first
        assert congruence_check(lhs.component(2).scale(2), 2)

    def test_denominator_collision_raises(self):
        f = mono(2).scale(QQ(1, 2))
        with pytest.raises(ValueError):
            congruence_check(f, 2)


class TestRelations:
    def test_ihara_takao_bracket_relation(self):
        # the depth-two relation propagates to weight-11 triple brackets
        # through depth four
        lhs = evaluate_word((3, 9, -1), 4) - evaluate_word((9, 3, -1), 4)
        rhs = (evaluate_word((5, 7, -1), 4)
               - evaluate_word((7, 5, -1), 4)).scale(3)
        assert lhs.max_depth == 4 and lhs.equals(rhs)
        assert not lhs.equals(rhs.scale(2))


class TestChiQ4:
    def test_sigma7_counterterm(self):
        expr, q4c = chi_q4_decomposition(7)
        assert expr.terms == {(7,): QQ(1), (5, 3, -1): QQ(-7, 48),
                              (3, 5, -1): QQ(-7, 96)}
        assert abs(q4c) == QQ(1, 240)
        assert expr.kernel_dim == 0

    def test_sigma9_highest_weight_pairing(self):
        expr, q4c = chi_q4_decomposition(9)
        assert abs(q4c) == QQ(1, 240)
        # pairing pattern: coefficients of (2a+1, 2b+1, -1) and its swap
        # stand in the ratio a : b
        c73 = expr.terms[(7, 3, -1)]
        c37 = expr.terms[(3, 7, -1)]
        assert c73 / c37 == QQ(3, 1)
        assert expr.terms[(7, 3, -1)] == QQ(-5, 36)
        assert expr.terms[(3, 7, -1)] == QQ(-5, 108)
        assert expr.terms[(5, 5, -1)] == QQ(-7, 144)


class TestSerialization:
    def test_expression_json(self):
        expr = solve_sigma(5, 4)
        data = expr.to_json_dict()
        assert data["weight"] == 5
        assert {"word": [3, 3, -1], "coeff": "-1/5"} in data["terms"]

    def test_expression_text(self):
        expr = BracketExpression({(5,): QQ(1), (3, 3, -1): QQ(-1, 5)}, 5)
        assert "psi[{3,3,-1}]" in expr.text()


def _canonical(value):
    """Exact JSON text of a cached value: a series, a component or the
    rational dict of words._lie_projector."""
    if hasattr(value, "to_json_dict"):
        return json.dumps(value.to_json_dict(), sort_keys=True)
    return json.dumps(sorted((list(k), str(c)) for k, c in value.items()))


def _solve_all():
    for basis in ("psi", "chi"):
        for weight in (5, 7, 9):
            solve_sigma(weight, 4, basis)


class TestCacheState:
    """Results do not depend on what the program caches hold, and no
    cached value is changed in place by a later caller."""

    def test_cold_and_warm_caches_give_the_same_bytes(self):
        clear_program_caches()
        cold = emit(solve_sigma(9, 4, "chi"), "json")
        clear_program_caches()
        for weight in (5, 7, 9):
            solve_sigma(weight, 4, "psi")
        assert series._ihara_action.cache_info().currsize > 0
        warm = emit(solve_sigma(9, 4, "chi"), "json")
        assert series._ihara_action.cache_info().hits > 0
        assert warm == cold

    def test_cached_values_are_never_mutated(self, monkeypatch):
        clear_program_caches()
        returned = {}   # id -> (value, its JSON when first returned)

        def recording(fn):
            def spy(*args, **kwargs):
                value = fn(*args, **kwargs)
                if id(value) not in returned:
                    returned[id(value)] = (value, _canonical(value))
                return value
            return spy

        caches = list(program_caches())
        assert {"_ihara_action", "evaluate_word", "s_d"} <= {
            name for _, name, _ in caches}
        for module, name, fn in caches:
            monkeypatch.setattr(module, name, recording(fn))
        _solve_all()
        before = {k: text for k, (_, text) in returned.items()}
        _solve_all()
        after = {k: _canonical(value) for k, (value, _) in returned.items()
                 if k in before}
        assert len(before) > 100
        assert after == before
