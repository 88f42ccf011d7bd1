"""Exact linear algebra against sympy as an independent oracle."""

import sympy
from hypothesis import given, settings, strategies as st

from dshuffle.linalg import _primes, nullspace, rref, solve_affine
from dshuffle.rationals import PRIME, QQ

small_int = st.integers(-12, 12)
tall_int = st.integers(-2 ** 80, 2 ** 80)


@st.composite
def matrices(draw, extra_cols=0, size=6, scalars=small_int):
    """A rows x (cols + extra_cols) matrix of the given integers, at most
    size x size before the extra columns, biased towards rank
    deficiency."""
    rows = draw(st.integers(1, size))
    cols = draw(st.integers(1, size))
    entry = st.one_of(st.just(0), scalars)
    m = [[draw(entry) for _ in range(cols + extra_cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        # a combination of earlier rows, so the rank drops
        c = draw(scalars)
        m[-1] = [a + c * b for a, b in zip(m[0], m[-2])]
    return m


def _sympy(m):
    return sympy.Matrix([[sympy.Rational(int(v.numerator),
                                         int(v.denominator)) for v in row]
                         for row in m])


def _times(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def _assert_rref(m):
    rows, pivots = rref(m)
    expected, expected_pivots = _sympy(m).rref()
    assert tuple(pivots) == expected_pivots
    assert _sympy(rows) == expected


class TestRref:
    @settings(max_examples=80, deadline=None)
    @given(matrices())
    def test_matches_sympy(self, m):
        rows, pivots = rref(m)
        expected, expected_pivots = _sympy(m).rref()
        assert tuple(pivots) == expected_pivots
        assert _sympy(rows) == expected

    @settings(max_examples=60, deadline=None)
    @given(matrices(size=5, scalars=tall_int))
    def test_tall_entries_match_sympy(self, m):
        _assert_rref(m)

    def test_entries_taller_than_one_prime(self):
        # the kernel entry needs CRT over two or more primes
        m = [[3 ** 50, 2 ** 70 + 1]]
        _assert_rref(m)
        assert rref(m)[0] == [[1, QQ(2 ** 70 + 1, 3 ** 50)]]

    def test_unlucky_prime(self):
        # over Q the pivot is column 0; modulo 2^61 - 1 it is column 2
        m = [[PRIME, 0, 1]]
        _assert_rref(m)
        assert rref(m)[1] == [0]

    def test_denominator_divisible_by_the_prime(self):
        # [[1/p, 1, 2], [3, 1/(2p), -1], [3/p, 3, 6]] with each row
        # cleared of its denominators, so p divides most entries
        p = PRIME
        m = [[1, p, 2 * p], [6 * p, 1, -2 * p], [3, 3 * p, 6 * p]]
        _assert_rref(m)

    def test_prime_sequence_matches_sympy(self):
        primes = _primes()
        expected = [PRIME]
        for _ in range(4):
            expected.append(sympy.prevprime(expected[-1]))
        assert [next(primes) for _ in expected] == expected


class TestNullspace:
    @settings(max_examples=80, deadline=None)
    @given(matrices())
    def test_kernel_vectors(self, m):
        n = len(m[0])
        basis = nullspace(m, n)
        assert len(basis) == n - _sympy(m).rank()
        for v in basis:
            assert _times(m, v) == [0] * len(m)
        if basis:
            assert _sympy(basis).rank() == len(basis)

    def test_empty_matrix_is_identity(self):
        assert nullspace([], 2) == [[1, 0], [0, 1]]


class TestSolveAffine:
    @settings(max_examples=80, deadline=None)
    @given(matrices(extra_cols=1))
    def test_against_ranks(self, aug):
        m = [row[:-1] for row in aug]
        a = [row[-1] for row in aug]
        n = len(m[0])
        rank = _sympy(m).rank()
        solved = solve_affine(aug, n)
        if rank < _sympy(aug).rank():
            assert solved is None
        else:
            x, kernel_dim = solved
            assert _times(m, x) == [-b for b in a]
            assert kernel_dim == n - rank

    def test_empty_system(self):
        x, kernel_dim = solve_affine([], 3)
        assert x == [0, 0, 0] and kernel_dim == 3

    def test_inconsistent_without_unknowns(self):
        assert solve_affine([[1]], 0) is None
        assert solve_affine([[0]], 0) == ([], 0)

    def test_free_coordinates_pinned_to_zero(self):
        # x + y - 2 = 0 with y free
        assert solve_affine([[1, 1, -2]], 2) == ([2, 0], 1)
