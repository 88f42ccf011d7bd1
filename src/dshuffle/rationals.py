"""Exact rational scalars.

All coefficients in this package are arbitrary-precision rationals of the
standard library's ``fractions.Fraction``, named ``QQ`` here.  Polynomials
keep one rational content each and integer coefficients (see ``ratfun``),
so a scalar operation runs once per polynomial rather than once per term.
"""

from fractions import Fraction as QQ

ZERO = QQ(0)
ONE = QQ(1)

# the word-size prime of all modular arithmetic (a Mersenne prime)
PRIME = (1 << 61) - 1


def rat_str(c):
    p, q = c.numerator, c.denominator
    return str(p) if q == 1 else "%d/%d" % (p, q)


def rat_from_str(s):
    s = s.strip()
    if "/" in s:
        p, q = s.split("/")
        return QQ(int(p), int(q))
    return QQ(int(s))
