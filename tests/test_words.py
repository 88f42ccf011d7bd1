from math import comb

import pytest

from dshuffle.words import (OverlappingIndices, iter_shuffles,
                            lie_projector, shuffle, stuffle)


def apply_lie_projector(terms):
    """The projector extended linearly to a word sum."""
    out = {}
    for w, c in terms.items():
        for ww, cc in lie_projector(w).items():
            out[ww] = out.get(ww, 0) + c * cc
    return {w: c for w, c in out.items() if c != 0}


class TestShuffle:
    def test_two_letters(self):
        assert shuffle((1,), (2,)) == {(1, 2): 1, (2, 1): 1}

    def test_three_letters(self):
        got = shuffle((1,), (2, 3))
        assert got == {(1, 2, 3): 1, (2, 1, 3): 1, (2, 3, 1): 1}

    def test_empty_unit(self):
        assert shuffle((), (1, 2)) == {(1, 2): 1}

    def test_counts_all_coefficients_one(self):
        for m, n in [(1, 1), (1, 2), (2, 2), (2, 3)]:
            u = tuple(range(1, m + 1))
            v = tuple(range(m + 1, m + n + 1))
            got = shuffle(u, v)
            assert len(got) == comb(m + n, m)
            assert all(c == 1 for c in got.values())

    def test_lazy_enumeration_matches(self):
        u, v = (1, 2), (3, 4)
        assert sorted(iter_shuffles(u, v)) == sorted(shuffle(u, v))

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingIndices):
            shuffle((1,), (1, 2))


class TestStuffle:
    def test_two_letters(self):
        got = stuffle((1,), (2,))
        assert got == {(1, 2): 1, (2, 1): 1, ((1, 2),): 1}

    def test_three_letters_five_terms(self):
        got = stuffle((1,), (2, 3))
        assert got == {(1, 2, 3): 1, (2, 1, 3): 1, (2, 3, 1): 1,
                       ((1, 2), 3): 1, (2, (1, 3)): 1}

    def test_empty_unit(self):
        assert stuffle((), (1, 2)) == {(1, 2): 1}

    def test_counts_match_recursion_replay(self):
        # independent replay of the recursion, counting terms only
        def count(m, n):
            if m == 0 or n == 0:
                return 1
            return count(m - 1, n) + count(m, n - 1) + count(m - 1, n - 1)

        for m in range(5):
            for n in range(5):
                if m and n:
                    u = tuple(range(1, m + 1))
                    v = tuple(range(m + 1, m + n + 1))
                    assert sum(stuffle(u, v).values()) == count(m, n)


class TestLieProjector:
    def test_length_one(self):
        assert lie_projector((1,)) == {(1,): 1}

    def test_length_two(self):
        assert lie_projector((1, 2)) == {(1, 2): 1, (2, 1): -1}

    def test_length_three_display(self):
        got = lie_projector((1, 2, 3))
        assert got == {(1, 2, 3): 1, (1, 3, 2): -1, (3, 1, 2): -1,
                       (3, 2, 1): 1}

    def test_kills_shuffle_products(self):
        # kernel contains all shuffle-decomposables, words of length <= 5
        for split in range(1, 5):
            total = 5
            u = tuple(range(1, split + 1))
            v = tuple(range(split + 1, total + 1))
            assert apply_lie_projector(shuffle(u, v)) == {}

    def test_idempotent_up_to_length(self):
        for n in range(1, 6):
            w = tuple(range(1, n + 1))
            lam = lie_projector(w)
            assert apply_lie_projector(lam) == {w: n * c
                                                for w, c in lam.items()}

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            lie_projector(())

