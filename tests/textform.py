"""Test literals in the text form that RationalFunction.text() prints.

parse("(x1^2 + -1/2*x2)/( x1 x2-x1 )", 2) reads a sum of terms
[-]c*x_i^e.. over a product of forms x_a or x_a - x_b, the forms
separated by spaces or '*' and each optionally in parentheses; the arity
defaults to the highest variable.  Parentheses around the numerator, '*'
after a coefficient and '^1' may be left out, and "a - b" reads as
"a + -b".  This is notation for tests, built on the public constructors;
it checks nothing and bounds nothing.
"""

import re

from dshuffle.rationals import QQ
from dshuffle.ratfun import Polynomial, RationalFunction, linear_form

_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?\*?((?:x\d+(?:\^\d+)?)*)")
_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?")
_FORM = re.compile(r"x(\d+)(?:-x(\d+))?")


def parse(text, arity=None):
    if arity is None:
        arity = max(map(int, re.findall(r"x(\d+)", text)), default=0)
    num, _, den = re.sub(r"\s", "", text).partition("/(")
    sign, forms = 1, []
    for a, b in _FORM.findall(den):
        a, b = int(a), int(b or 0)
        if b > a:
            a, b, sign = b, a, -sign
        forms.append(linear_form(a, b, arity))
    total = Polynomial(arity)
    for term in re.findall(r"[+-]?[^+-]+", num.strip("()")):
        minus, coeff, factors = _TERM.fullmatch(term).groups()
        exps = [0] * arity
        for i, e in _FACTOR.findall(factors):
            exps[int(i) - 1] += int(e or 1)
        c = QQ(coeff or 1) * (-sign if minus == "-" else sign)
        total = total + Polynomial.monomial(arity, exps, c)
    return RationalFunction.from_num_den(total, forms)
