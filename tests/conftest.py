import importlib
import pkgutil
import random

import pytest

from dshuffle.rationals import QQ
from dshuffle.ratfun import Polynomial, RationalFunction, linear_form


def mono(n, coeff=1):
    """coeff * x1^n in one variable (negative n allowed)."""
    return RationalFunction.power_of_var(1, 1, n, coeff)


def make_rng(seed):
    return random.Random(seed)


def random_poly(rng, arity, degree, terms=4):
    out = Polynomial(arity)
    for _ in range(terms):
        exps = [0] * arity
        for _ in range(degree):
            exps[rng.randrange(arity)] += 1
        c = QQ(rng.randint(-5, 5), rng.randint(1, 4))
        out = out + Polynomial.monomial(arity, tuple(exps), c)
    return out


def random_rf(rng, arity, num_degree=2, den_factors=2, terms=3):
    """Random rational function with difference-form poles."""
    num = random_poly(rng, arity, num_degree, terms)
    if num.is_zero():
        num = Polynomial.const(arity, 1)
    den = {}
    pool = [(a, b) for a in range(1, arity + 1) for b in range(0, a)]
    for _ in range(den_factors):
        a, b = pool[rng.randrange(len(pool))]
        f = linear_form(a, b, arity)
        den[f] = den.get(f, 0) + 1
    return RationalFunction.from_num_den(num, den)


def agrees_pointwise(value, oracle, rng, arity, points=3):
    """Whether value and oracle agree at random rational points off the
    poles; the oracle evaluates by hand, with no substitution kernel."""
    checked = 0
    for _ in range(20 * points):
        x = tuple(QQ(rng.randint(-60, 60), rng.randint(1, 17))
                  for _ in range(arity))
        try:
            expect = oracle(x)
            got = value.evaluate(x)
        except ZeroDivisionError:
            continue
        if got != expect:
            return False
        checked += 1
        if checked == points:
            return True
    raise AssertionError("no point off the poles")


def spy_substitutions(monkeypatch):
    """Record every value substituted with an image other than 0 or a
    single variable x_j, i.e. every substitution that is not a relabel."""
    seen = []
    substitute = RationalFunction.substitute_affine

    def spy(self, images, target_arity):
        if not all(img[0] == 0 and min(img) >= 0 and sum(img) <= 1
                   for img in images):
            seen.append(self)
        return substitute(self, images, target_arity)
    monkeypatch.setattr(RationalFunction, "substitute_affine", spy)
    return seen


def program_caches():
    """(module, name, function) of every lru_cache of the program, found
    as the benchmark finds them: module-level names with cache_info."""
    import dshuffle
    for info in pkgutil.iter_modules(dshuffle.__path__):
        module = importlib.import_module("dshuffle." + info.name)
        for name, value in vars(module).items():
            if (hasattr(value, "cache_info")
                    and value.__module__ == module.__name__):
                yield module, name, value


def clear_program_caches():
    for _, _, fn in program_caches():
        fn.cache_clear()


@pytest.fixture
def rng():
    return make_rng(20240817)
