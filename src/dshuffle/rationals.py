"""Exact rational scalars.

All coefficients in this package are arbitrary-precision rationals.  We use
gmpy2.mpq when available (it is considerably faster than the stdlib), and
fall back to fractions.Fraction otherwise.  Code elsewhere should construct
scalars through ``rat`` and never mix the two backends.
"""

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ

ZERO = QQ(0)
ONE = QQ(1)

# the word-size prime of all modular arithmetic (a Mersenne prime)
_P = (1 << 61) - 1


def rat(p, q=1):
    return QQ(p, q)


def as_int_pair(c):
    """(numerator, denominator) as plain ints, for serialization."""
    return int(c.numerator), int(c.denominator)


def rat_str(c):
    p, q = as_int_pair(c)
    return str(p) if q == 1 else "%d/%d" % (p, q)


def rat_from_str(s):
    s = s.strip()
    if "/" in s:
        p, q = s.split("/")
        return QQ(int(p), int(q))
    return QQ(int(s))
