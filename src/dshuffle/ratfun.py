"""Exact arithmetic for multivariate rational functions over Q.

Values live in the ring of functions of x_1..x_d whose denominators are
products of the linear forms x_a - x_b (convention x_0 = 0, so x_a itself
is allowed).  Substitution of affine forms can transiently produce wider
affine denominators such as x_1 + x_2; those are representable here but are
only meant to appear inside equation checking, never in stored elements.

Representation:
  * Monomial  -- exponent tuple, one entry per variable.  This is the
                  public form: constructors, `coefficient`, the `terms`
                  view, `sorted_terms` and JSON take or give tuples, and
                  text gives them (JSON is the only serialized input).
  * key       -- the packed form of a Monomial inside a Polynomial, one
                  int (Monagan & Pearce, POLY: a new polynomial data
                  structure for Maple 17, 2013).  Each variable has a
                  16-bit field, x_1 in the most significant one, and the
                  lowest field holds the total degree:
                  key = sum e_i << 16*(d + 1 - i) + sum e_i.  At a fixed
                  arity the order of keys is the lex order of the tuples
                  (the degree field comes last and is fixed by the other
                  fields, so it never decides), so sorting keys sorts
                  monomials.  Overflow rule: the total degree of
                  every stored monomial is at most _MASK = 2^16 - 1, and
                  then so is every exponent.  A larger total degree is
                  rejected at the boundary and by any kernel that would
                  produce it (ExponentOverflow); a negative exponent, one
                  that is not an int or a tuple of the wrong length is
                  rejected at the boundary.
  * Polynomial -- content times a primitive integer polynomial, fixed
                  arity: `content` is a positive rational and `ints` a
                  sparse dict key -> nonzero int whose values have
                  gcd 1 (the content / primitive-part split of Geddes,
                  Czapor & Labahn, Algorithms for Computer Algebra, ch. 2).
                  The split is unique, so equality compares content and
                  ints.  Zero has content 1 and no terms.  `terms` is the
                  read-only rational view content * ints over tuples.
  * forms      -- a denominator factor is a canonical integer tuple
                  (c0, c1, .., cd) meaning c0 + c1*x1 + .. + cd*xd,
                  primitive, with its highest-index nonzero entry positive.
  * RationalFunction -- Polynomial numerator over a multiset of forms,
                  normalized so that no denominator form divides the
                  numerator.

Monomial order used for printing and serialization is graded lex:
sort key (total degree, exponent tuple).

Kernels:
  * Kernels combine packed keys by integer arithmetic.  Multiplying by
    x_i adds the key of x_i, unit_i = 2^(16*(d + 1 - i)) + 1 (a form
    multiplication, a Horner step, a division carry); a product of
    monomials is the sum of their keys; the exponent of x_i is
    key >> 16*(d + 1 - i) & _MASK, so a layer in a pivot variable is a
    shift and a mask; re-embedding and relabelling move fields.  Only a
    product, a form multiplication and the clearing of a sum to a common
    denominator can raise the degree; each checks the degree of its
    inputs first, so no field ever carries into its neighbour.  Every
    other kernel (Horner substitution, relabelling, exact division,
    derivative) yields terms of at most the input's degree, and the
    total degree bounds every field.
  * Every kernel works on the integer terms; a rational operation runs
    once per polynomial, on the content.  A sum is taken over a common
    content, the gcd of the summands' content numerators over the lcm of
    their denominators, and one gcd pass over its integer terms restores
    gcd 1; a derivative, a substitution and a homogeneous part get the
    same gcd pass.
    By Gauss's lemma a product of primitive polynomials is primitive, so
    a product, a product by a canonical form and an exact quotient by one
    need no gcd pass.
  * Affine substitution has one path with two kernels, chosen from the
    images, which are integer coefficient tuples.  When every image is a
    single variable x_j with coefficient 1, or zero, the monomials are
    relabelled: exponents move to their new slots, terms that land on one
    monomial are merged and a monomial that uses a zero image is dropped.
    Any other images run a Horner scheme over the source variables whose
    every step multiplies integer terms by an integer form.
  * condition_rows turns linear conditions given by ring maps into
    integer rows without substituting a value: one form product per
    ansatz monomial builds its image under a map, and each term relabels
    the images and clears them by its cofactor, as _over clears a sum.
  * A substituted value is normalized again (its numerator divided by
    each denominator form that divides it) only when the images' linear
    parts are dependent, e.g. x_a -> x_b, a zero image or a repeated letter.
    Independent images make the substitution an embedding of polynomial
    rings after an affine change of coordinates: non-proportional forms
    stay non-proportional, and a substituted form divides the substituted
    numerator only if the form divided the numerator, so a normalized
    value stays normalized.  Independence is decided exactly by
    fraction-free integer elimination.
  * Exact division by a canonical form runs layer by layer in the
    pivot variable.  The quotient of a primitive polynomial by a
    primitive form is integral (Gauss's lemma), so with a pivot
    coefficient other than 1 each layer is divided by divmod, and a
    nonzero remainder proves that the form does not divide.
  * Divisibility by a form is pretested modulo the prime p = 2^61 - 1
    on the line through a fixed point along the form's pivot variable.
    There the integer terms (no denominator for p to divide) collapse to
    a polynomial in the pivot and the form to a linear factor, and the
    multiplicity of its root bounds how often the form divides; a pivot
    coefficient that p divides gives no bound.  The bound is read once
    per numerator and form, and each attempted division spends one unit
    of it.  Distinct canonical forms are coprime, so the numerator and
    every quotient it is divided into share one pretest.  Each term's
    value at the point is reduced mod p once; a pivot's layer adds up
    the values of each exponent e of the pivot and multiplies each of
    these sums once by x_v^-e, so a layer costs one pass over the terms
    and one product per exponent.  The pretest only decides whether an
    exact division is attempted, never its outcome, so it cannot change a
    result.
    The point must be generic for the numerators built here, which are
    sums of products of differences with small integer coefficients.  On
    an arithmetic progression x_i = i*s such a numerator often vanishes
    at a wrong root on the pivot line: x2 - 2*x3 is zero at x3 = x1,
    the root of x3 - x1, which does not divide it.  A geometric
    progression x_i = s^i fails in the same way on monomial relations
    (x3*x4 - x1*x2^2 at x4 = x2).  The point is therefore drawn from a
    pseudorandom generator whose steps mix xor and multiplication, which
    follows no linear or multiplicative pattern mod p.
  * Normalization tries only the forms that can divide, by three
    structural certificates.  Sum and Product rely on every stored value
    being normalized, so no trusted constructor may skip a division that
    could succeed.
    Sum: a form whose top multiplicity in the common denominator belongs
    to one summand only cannot divide the summed numerator.  Modulo the
    form every other summand carries a factor of it, and the holder's
    numerator times the other, non-proportional forms is not divisible
    by it, since the holder is normalized and the form is prime.
    Product: a normalized factor's numerator is divisible by none of its
    own forms, so it is divided only by the other factor's forms that it
    does not share.
    Support: a form whose linear part involves a variable x_j that the
    numerator lacks cannot divide it, since form * Q = N with Q nonzero
    gives deg_(x_j) N = 1 + deg_(x_j) Q >= 1.  The variables present are
    the nonzero fields of the or of the numerator's keys, read once per
    numerator; a quotient lacks every variable its dividend lacks.  Every
    normalization goes through one cancellation loop (_cancel), so this
    check also settles the products of factors in separate or translated
    variable blocks, as in the Ihara action and the concatenations.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import accumulate
from math import factorial, gcd, lcm

from .rationals import QQ, ZERO, ONE, PRIME, rat_str


class ArityMismatch(ValueError):
    pass


class ExponentOverflow(ValueError):
    """A total degree that does not fit the fields of a packed monomial."""


# a monomial key holds x_1 .. x_d in _W-bit fields from the most
# significant down and its total degree in the lowest field; _MASK is one
# field and also the largest total degree
_W = 16
_MASK = (1 << _W) - 1

# the largest arity, or max_depth of a series, that JSON may declare: a
# dense form has arity + 1 entries, so a few bytes could ask for gigabytes.
# The costliest res calls within it take 0.2 s on a 2-vCPU host (one R of
# a depth-64 value over all 2080 forms x_a - x_b, or R iterated down
# 1/(x_1 .. x_64)); their cost grows as the cube of the arity (0.9 s at 100)
MAX_ARITY = 64

# the increment of the splitmix64 generator (Steele, Lea & Flood, Fast
# splittable pseudorandom number generators, OOPSLA 2014), which draws the
# coordinates of the divisibility pretest's point (_pretest_point)
_STEP = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1


class PoleOrderError(ValueError):
    pass


class ParseError(ValueError):
    """A JSON value that is not a valid serialized form."""


# ---------------------------------------------------------------------------
# polynomials


class _Terms(Mapping):
    """Read-only view Monomial -> rational coefficient of a Polynomial."""

    __slots__ = ("_arity", "_content", "_ints")

    def __init__(self, arity, content, ints):
        self._arity = arity
        self._content = content
        self._ints = ints

    def __getitem__(self, m):
        return self._content * self._ints[_pack(self._arity, m)]

    def __iter__(self):
        arity = self._arity
        return (_unpack(arity, k) for k in self._ints)

    def __len__(self):
        return len(self._ints)


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients,
    stored as content * ints over packed monomial keys (see the module
    docstring)."""

    __slots__ = ("arity", "content", "ints")

    def __init__(self, arity, terms=None):
        """terms: dict Monomial -> rational; zero coefficients are dropped.

        A monomial of the wrong length raises ArityMismatch; a negative
        exponent, one that is not an int, or a total degree above the
        field limit raises ValueError."""
        packed = {}
        for m, c in (terms or {}).items():
            k = _pack(arity, m)
            if c:
                packed[k] = c
        content, ints = _split(packed.values())
        self.arity = arity
        self.content = content if packed else ONE
        self.ints = dict(zip(packed, ints))

    # -- constructors

    @classmethod
    def const(cls, arity, c):
        return cls(arity, {(0,) * arity: QQ(c)})

    @classmethod
    def variable(cls, arity, i, power=1, coeff=1):
        if not 1 <= i <= arity:
            raise ArityMismatch("variable x%d out of range for arity %d" % (i, arity))
        exps = [0] * arity
        exps[i - 1] = power
        return cls.monomial(arity, tuple(exps), coeff)

    @classmethod
    def monomial(cls, arity, exps, coeff=1):
        return cls(arity, {tuple(exps): QQ(coeff)})

    # -- basic queries

    @property
    def terms(self):
        """The coefficients as a read-only dict-like Monomial -> rational."""
        return _Terms(self.arity, self.content, self.ints)

    def coefficient(self, m):
        """The rational coefficient of the monomial m (0 when absent)."""
        c = self.ints.get(_pack(self.arity, m))
        return ZERO if c is None else self.content * c

    def is_zero(self):
        return not self.ints

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.arity == other.arity
                and self.ints == other.ints and self.content == other.content)

    def __hash__(self):
        return hash((self.arity, self.content, frozenset(self.ints.items())))

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return _degree(self.ints) if self.ints else -1

    def is_homogeneous(self):
        return len({k & _MASK for k in self.ints}) <= 1

    def homogeneous_parts(self):
        """dict degree -> Polynomial."""
        parts = {}
        for k, c in self.ints.items():
            parts.setdefault(k & _MASK, {})[k] = c
        return {d: _primitive(self.arity, self.content, t)
                for d, t in parts.items()}

    # -- arithmetic

    def _check(self, other):
        if self.arity != other.arity:
            raise ArityMismatch("polynomial arities differ: %d vs %d"
                                % (self.arity, other.arity))

    def __add__(self, other):
        self._check(other)
        if not other.ints:
            return self
        if not self.ints:
            return other
        content, (ka, kb) = _split((self.content, other.content))
        out = {}
        _accumulate(out, self.ints, ka)
        _accumulate(out, other.ints, kb)
        return _primitive(self.arity, content, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _poly(self.arity, self.content,
                     {m: -c for m, c in self.ints.items()})

    def scale(self, c):
        if not c or not self.ints:
            return Polynomial(self.arity)
        content = self.content * c
        if content > 0:
            return _poly(self.arity, content, self.ints)
        return _poly(self.arity, -content, {m: -v for m, v in self.ints.items()})

    def __mul__(self, other):
        # a product of primitive polynomials is primitive (Gauss's lemma)
        self._check(other)
        a, b = self.ints, other.ints
        if not a or not b:
            return Polynomial(self.arity)
        _check_degree(a, _degree(b))
        return _poly(self.arity, self.content * other.content,
                     _product(a, b))

    def mul_form(self, form):
        """Multiply by the affine form c0 + sum ci*xi (rational entries
        allowed)."""
        scalar, form = _split(form)
        if not scalar or not self.ints:
            return Polynomial(self.arity)
        if any(form[1:]):
            _check_degree(self.ints, 1)
        return _poly(self.arity, self.content * scalar,
                     _times_form(self.ints, form))

    def mul_forms(self, forms):
        """Multiply by each affine form of an iterable in turn."""
        p = self
        for form in forms:
            p = p.mul_form(form)
        return p

    def derivative(self, i):
        """Partial derivative with respect to x_i (1-based)."""
        s = _shift(self.arity, i)
        unit = (1 << s) + 1
        out = {}
        for k, c in self.ints.items():
            e = k >> s & _MASK
            if e:
                out[k - unit] = c * e
        return _primitive(self.arity, self.content, out)

    # -- substitution and evaluation

    def substitute_affine(self, images, target_arity):
        """Compose with x_i -> images[i-1], each an integer coefficient
        tuple (c0, c1, .., cD) of an affine form in target_arity
        variables."""
        if len(images) != self.arity:
            raise ArityMismatch("need one image per variable")
        if not self.ints:
            return Polynomial(target_arity)
        targets = []
        for img in images:
            support = [j for j, c in enumerate(img) if c]
            if not support:
                targets.append(0)
            elif len(support) == 1 and support[0] and img[support[0]] == 1:
                targets.append(support[0])
            else:
                break
        else:
            return _primitive(target_arity, self.content,
                              _relabel(self.ints, _relabelling(
                                  self.arity, targets, target_arity)))
        return _primitive(target_arity, self.content,
                          _horner(self.ints, self.arity, images, target_arity))

    def evaluate(self, point):
        """Evaluate at a tuple of rationals."""
        if len(point) != self.arity:
            raise ArityMismatch("point has wrong length")
        shifts = _shifts(self.arity)
        total = 0
        for k, c in self.ints.items():
            v = c
            for x, s in zip(point, shifts):
                e = k >> s & _MASK
                if e:
                    v *= x ** e
            total += v
        return self.content * total

    def divide_form(self, form, tester=None):
        """Exact division by an affine form; returns the quotient or None.

        The form must be canonical (see form_normalize); in particular it
        is primitive and its pivot coefficient is a positive integer.
        tester, a _DivisibilityTester, lets callers share one pretest
        across forms and divisions: it may belong to this polynomial, or
        to a multiple of it by forms that it has since been divided by
        through the same tester.
        """
        if not self.ints:
            return self
        arity = self.arity
        v = _form_pivot(form)
        cv = form[v]
        s = _shift(arity, v)
        unit = (1 << s) + 1
        if cv == 1 and form[0] == 0 and \
                all(form[i] == 0 for i in range(1, arity + 1) if i != v):
            # plain variable x_v: divisible iff every monomial contains it
            if any(not k >> s & _MASK for k in self.ints):
                return None
            return _poly(arity, self.content,
                         {k - unit: c for k, c in self.ints.items()})
        if tester is None:
            tester = _DivisibilityTester(self)
        if not tester.may_divide(form):
            return None
        # form = cv*x_v - h  with h affine in the remaining variables; the
        # layer q_k of the quotient sends h*q_k down to the next layer.  A
        # quotient by a primitive form is integral (Gauss's lemma), so a
        # layer that cv does not divide proves that the form does not.
        # No key can overflow: every intermediate term has at most the
        # degree of the dividend.
        h = tuple(-c for c in form[:v]) + (0,) * (arity + 1 - v)
        layers = _layers(self.ints, s)
        carry = {}
        quotient = {}
        for k in range(max(layers), -1, -1):
            pk = layers.get(k, {})
            _accumulate(pk, carry)
            if k == 0:
                return None if pk else _poly(arity, self.content, quotient)
            if cv != 1:
                for m, c in pk.items():
                    q, r = divmod(c, cv)
                    if r:
                        return None
                    pk[m] = q
            carry = _times_form(pk, h) if any(h) else {}
            up = (k - 1) * unit
            for m, c in pk.items():
                quotient[m + up] = c
        return None  # pragma: no cover

    def extended(self, target_arity, offset=0):
        """Re-embed into a larger variable ring, shifting x_i -> x_(i+offset)."""
        if target_arity < self.arity + offset:
            raise ArityMismatch("target arity too small")
        # the fields of x_1..x_d move up past the pad; the leading fields
        # of the offset are zero, and the degree field stays
        pad = _W * (target_arity - self.arity - offset)
        ints = self.ints
        if pad:
            ints = {((k >> _W) << (_W + pad)) | (k & _MASK): c
                    for k, c in ints.items()}
        return _poly(target_arity, self.content, ints)

    # -- output

    def sorted_terms(self):
        """(Monomial, rational) pairs in graded lex order."""
        arity, content = self.arity, self.content
        graded = sorted(self.ints.items(),
                        key=lambda kc: (kc[0] & _MASK, kc[0]))
        return [(_unpack(arity, k), content * c) for k, c in graded]

    def text(self):
        if not self.ints:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = "".join("x%d^%d" % (i + 1, e)
                              for i, e in enumerate(m) if e)
            parts.append(rat_str(c) + "*" + factors if factors else rat_str(c))
        return " + ".join(parts)

    def __repr__(self):
        return "Polynomial(%d, %s)" % (self.arity, self.text())


def _shift(arity, i):
    """Bit offset of the field of x_i (1-based) in a key of the arity."""
    if not 1 <= i <= arity:
        raise ArityMismatch("variable x%d out of range for arity %d"
                            % (i, arity))
    return _W * (arity + 1 - i)


def _shifts(arity):
    """The field offsets of x_1, .., x_arity."""
    return range(_W * arity, 0, -_W)


def _pack(arity, m):
    """The key of the exponent tuple m, checked at the boundary."""
    if len(m) != arity:
        raise ArityMismatch("exponent tuple %r has wrong length for arity %d"
                            % (m, arity))
    key = deg = 0
    for e in m:
        if type(e) is not int or e < 0:
            raise ValueError("exponent %r is not a non-negative int" % (e,))
        key = (key + e) << _W
        deg += e
    if deg > _MASK:
        raise ExponentOverflow("total degree %d of %r exceeds %d"
                               % (deg, m, _MASK))
    return key + deg


def _unpack(arity, key):
    """The exponent tuple of a key."""
    return tuple(key >> s & _MASK for s in _shifts(arity))


def _degree(ints):
    """The total degree of nonempty terms."""
    return max(map(_MASK.__and__, ints))


def _check_degree(ints, extra):
    """Raise ExponentOverflow unless the terms' total degree plus extra
    still fits the degree field."""
    if ints and _degree(ints) + extra > _MASK:
        raise ExponentOverflow("total degree %d exceeds %d"
                               % (_degree(ints) + extra, _MASK))


def _split(values):
    """(content, ints) with values = content * ints for a collection of
    rationals: the content is the gcd of the numerators over the lcm of
    the denominators (0 when every value is 0) and ints is a list of
    integers with gcd 1."""
    den = lcm(*(c.denominator for c in values))
    ints = [c.numerator * (den // c.denominator) for c in values]
    g = gcd(*ints)
    if g == 0:
        return ZERO, ints
    if g != 1:
        ints = [c // g for c in ints]
    return (ONE if g == den else QQ(g, den)), ints


def _poly(arity, content, ints):
    """The polynomial content * ints, trusting that the content is
    positive and the nonzero ints have gcd 1 (content 1 when empty)."""
    p = Polynomial.__new__(Polynomial)
    p.arity = arity
    p.content = content
    p.ints = ints
    return p


def _primitive(arity, content, ints):
    """The polynomial content * ints for a positive content and any
    nonzero ints: the gcd of the ints moves into the content."""
    if not ints:
        return Polynomial(arity)
    g = gcd(*ints.values())
    if g != 1:
        ints = {m: c // g for m, c in ints.items()}
        content *= g
    return _poly(arity, content, ints)


def _accumulate(out, ints, k=1):
    """out += k * ints in place, dropping monomials that cancel."""
    if not out:
        out.update(ints if k == 1 else {m: k * c for m, c in ints.items()})
        return
    get = out.get
    items = ints.items() if k == 1 else ((m, k * c) for m, c in ints.items())
    for m, c in items:
        old = get(m)
        if old is None:
            out[m] = c
        else:
            s = old + c
            if s:
                out[m] = s
            else:
                del out[m]


def _product(a, b):
    """The integer terms of a * b; the caller makes sure that the sum of
    their degrees stays below the field limit."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            s = get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _times_form(ints, form):
    """ints * (form[0] + form[1]*x1 + ..) for an integer form; the caller
    makes sure that the degree of ints is below the field limit."""
    top = _W * len(form)
    out = {}
    for i, ci in enumerate(form):
        if not ci:
            continue
        unit = (1 << top - _W * i) + 1 if i else 0
        if not out:
            # adding one unit keeps distinct keys distinct
            out = {m + unit: ci * c for m, c in ints.items()}
            get = out.get
            continue
        for m, c in ints.items():
            mm = m + unit
            old = get(mm)
            if old is None:
                out[mm] = ci * c
            else:
                s = old + ci * c
                if s:
                    out[mm] = s
                else:
                    del out[mm]
    return out


def _relabelling(arity, targets, target_arity):
    """The moves of x_i -> x_targets[i-1], where target 0 means x_i -> 0,
    for _relabel: the field of x_i and the unit of its target (0 for 0)."""
    return [(_shift(arity, i), t and (1 << _shift(target_arity, t)) + 1)
            for i, t in enumerate(targets, 1)]


def _relabel(ints, moves):
    """The terms relabelled by the moves of _relabelling."""
    out = {}
    get = out.get
    for k, c in ints.items():
        mm = 0
        for shift, unit in moves:
            e = k >> shift & _MASK
            if e:
                if not unit:
                    break
                mm += e * unit
        else:
            old = get(mm)
            if old is None:
                out[mm] = c
            else:
                s = old + c
                if s:
                    out[mm] = s
                else:
                    del out[mm]
    return out


def _layers(ints, s):
    """The terms grouped by the exponent e of the variable whose field
    is at offset s: e -> {key without that variable: coefficient}."""
    unit = (1 << s) + 1
    layers = {}
    for k, c in ints.items():
        e = k >> s & _MASK
        layers.setdefault(e, {})[k - e * unit] = c
    return layers


def _horner(ints, arity, images, target_arity):
    """Affine substitution of integer images by Horner's scheme in the
    last source variable x_arity: (..(p_top*img + p_(top-1))*img + ..)*img
    + p_0, recursing into the layers p_k.  The keys have the layout of
    len(images) variables, of which those after x_arity are absent.  No
    step raises the degree above that of ints, so no key can overflow."""
    if arity == 0:
        return {0: c for c in ints.values()}
    layers = _layers(ints, _shift(len(images), arity))
    img = images[arity - 1]
    result = {}
    for k in range(max(layers), -1, -1):
        if result:
            result = _times_form(result, img)
        layer = layers.get(k)
        if layer:
            _accumulate(result, _horner(layer, arity - 1, images,
                                        target_arity))
    return result


# ---------------------------------------------------------------------------
# denominator forms


def _form_pivot(form):
    """Index of the highest nonzero coefficient (the canonical pivot)."""
    for i in range(len(form) - 1, 0, -1):
        if form[i]:
            return i
    raise ValueError("constant form cannot appear in a denominator")


def form_normalize(coeffs):
    """Canonicalize an affine form given as rational or integer coefficients.

    Returns (scalar, form) with scalar a rational and form a primitive
    integer tuple whose highest-index nonzero entry is positive, so that
    input = scalar * form.  Returns (0, None) for the zero form and
    (c, ()) for the nonzero constant c.
    """
    scalar, ints = _split(coeffs)
    if not scalar:
        return ZERO, None
    if not any(ints[1:]):
        return scalar * ints[0], ()
    if ints[_form_pivot(ints)] < 0:
        return -scalar, tuple(-v for v in ints)
    return scalar, tuple(ints)


def linear_form(a, b, arity):
    """The canonical form x_a - x_b (b = 0 encodes plain x_a)."""
    if not (0 <= b < a <= arity):
        raise ArityMismatch("need 0 <= b < a <= arity, got a=%d b=%d" % (a, b))
    coeffs = [0] * (arity + 1)
    coeffs[a] = 1
    if b:
        coeffs[b] = -1
    return tuple(coeffs)


def form_difference_pair(form):
    """(a, b) if the form is x_a - x_b (or x_a when b = 0), else None."""
    if form[0] != 0:
        return None
    pos = [i for i in range(1, len(form)) if form[i] == 1]
    neg = [i for i in range(1, len(form)) if form[i] == -1]
    other = [i for i in range(1, len(form)) if form[i] not in (-1, 0, 1)]
    if other:
        return None
    if len(pos) == 1 and not neg:
        return pos[0], 0
    if len(pos) == 1 and len(neg) == 1:
        return pos[0], neg[0]
    return None


def form_text(form):
    pair = form_difference_pair(form)
    if pair:
        a, b = pair
        return "x%d" % a if b == 0 else "x%d-x%d" % (a, b)
    parts = []
    for i in range(1, len(form)):
        c = form[i]
        if not c:
            continue
        s = "x%d" % i if abs(c) == 1 else "%dx%d" % (abs(c), i)
        parts.append(("-" if c < 0 else "+") + s)
    if form[0]:
        parts.append(("+" if form[0] > 0 else "-") + str(abs(form[0])))
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


def form_substitute(form, images, target_arity):
    """Substitute affine images (coefficient tuples) into a form.

    images[i-1] is the coefficient tuple (c0, c1, .., cD) of the image of
    x_i.  Returns (scalar, canonical form or None).
    """
    out = [form[0]] + [0] * target_arity
    for i in range(1, len(form)):
        if not form[i]:
            continue
        img = images[i - 1]
        for j in range(len(img)):
            out[j] += form[i] * img[j]
    return form_normalize(out)


def _den_image(den, images, target_arity):
    """(scalar, counts), the forms of den (form -> power) under the images
    as in RationalFunction.substitute_affine."""
    scalar = ONE
    counts = {}
    for f, k in den.items():
        s, g = form_substitute(f, images, target_arity)
        if g is None:
            raise PoleOrderError(
                "denominator form %s becomes identically zero" % form_text(f))
        scalar *= s ** k
        if g:
            counts[g] = counts.get(g, 0) + k
    return scalar, counts


def var_vector(arity, i, negate=False):
    """Integer coefficient tuple of x_i (or -x_i; i = 0 gives 0)."""
    vec = [0] * (arity + 1)
    if i:
        vec[i] = -1 if negate else 1
    return tuple(vec)


def diff_vector(arity, i, j):
    """Integer coefficient tuple of x_i - x_j (0 means absent)."""
    vec = [0] * (arity + 1)
    if i:
        vec[i] += 1
    if j:
        vec[j] -= 1
    return tuple(vec)


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """num / prod(den forms), normalized: no den form divides num.

    Values are shared: the caches of gens, anatomy and series hand the
    same object to every caller, so nothing may mutate .num or .den (or
    the numerator's ints) in place; every operation builds a new value.
    """

    __slots__ = ("arity", "num", "den")

    def __init__(self, arity, num, den):
        # internal: trusted inputs; use from_num_den for normalization
        self.arity = arity
        self.num = num
        self.den = den

    @classmethod
    def from_num_den(cls, num, den=()):
        """den: iterable of canonical forms, or dict form -> multiplicity."""
        arity = num.arity
        counts = {}
        if isinstance(den, dict):
            items = den.items()
        else:
            items = ((f, 1) for f in den)
        for f, k in items:
            if k < 0:
                raise ValueError("negative multiplicity")
            if k:
                counts[f] = counts.get(f, 0) + k
        return cls._normalized(arity, num, counts)

    @classmethod
    def _normalized(cls, arity, num, counts, forms=None):
        """num over counts, divided by each form of counts (or only by
        those of forms, when no other form can divide num)."""
        if num.is_zero():
            return cls(arity, num, {})
        num = _cancel(num, counts, forms)
        return cls(arity, num, {f: k for f, k in counts.items() if k > 0})

    # -- constructors

    @classmethod
    def zero(cls, arity):
        return cls(arity, Polynomial(arity), {})

    @classmethod
    def const(cls, arity, c):
        return cls(arity, Polynomial.const(arity, c), {})

    @classmethod
    def from_poly(cls, p):
        return cls(p.arity, p, {})

    @classmethod
    def power_of_var(cls, arity, i, n, coeff=1):
        """coeff * x_i^n for any integer n (negative allowed)."""
        if n >= 0:
            return cls.from_poly(Polynomial.variable(arity, i, n, coeff))
        return cls.from_num_den(Polynomial.const(arity, coeff),
                                {linear_form(i, 0, arity): -n})

    # -- queries

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return not self.den

    def has_structured_denominator(self):
        return all(form_difference_pair(f) for f in self.den)

    def den_degree(self):
        return sum(self.den.values())

    def degree(self):
        """Degree of a homogeneous value (num degree minus den degree)."""
        if self.num.is_zero():
            return None
        if not self.num.is_homogeneous() or any(f[0] for f in self.den):
            return None
        return self.num.degree() - self.den_degree()

    def weight(self):
        """degree + arity, the natural grading on depth-d components."""
        d = self.degree()
        return None if d is None else d + self.arity

    def pole_order(self, form):
        return self.den.get(form, 0)

    # -- arithmetic

    def _check(self, other):
        if self.arity != other.arity:
            raise ArityMismatch("rational function arities differ: %d vs %d"
                                % (self.arity, other.arity))

    def __add__(self, other):
        self._check(other)
        return rf_sum_a(self.arity, [self, other])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalFunction(self.arity, -self.num, dict(self.den))

    def scale(self, c):
        c = QQ(c)
        if c == 0:
            return RationalFunction.zero(self.arity)
        return RationalFunction(self.arity, self.num.scale(c), dict(self.den))

    def __mul__(self, other):
        self._check(other)
        # a form divides the product numerator iff it divides one factor
        # (linear forms cut irreducible hyperplanes), so cancellation can be
        # settled factor by factor before multiplying; a normalized factor
        # can only be divided by the other factor's forms
        if self.is_zero() or other.is_zero():
            return RationalFunction.zero(self.arity)
        counts = dict(self.den)
        for f, k in other.den.items():
            counts[f] = counts.get(f, 0) + k
        num = (_cancel(self.num, counts,
                       [f for f in other.den if f not in self.den])
               * _cancel(other.num, counts,
                         [f for f in self.den if f not in other.den]))
        return RationalFunction(self.arity, num,
                                {f: k for f, k in counts.items() if k > 0})

    def divide_form_exact(self, form):
        """Divide by the form (adds to the denominator, then normalizes)."""
        counts = dict(self.den)
        counts[form] = counts.get(form, 0) + 1
        return RationalFunction._normalized(self.arity, self.num, counts,
                                            (form,))

    def equals(self, other):
        self._check(other)
        return (self - other).is_zero()

    def __eq__(self, other):
        return isinstance(other, RationalFunction) and self.equals(other)

    def __hash__(self):  # pragma: no cover
        raise TypeError("RationalFunction is not hashable")

    # -- calculus

    def partial(self, i):
        """Exact partial derivative with respect to x_i."""
        # first: it rejects i out of range.  Over the same denominator it
        # need not be normalized; in a sum with the pieces it shares the
        # top multiplicity of every form it may be divided by
        derivative = self.num.derivative(i)
        # each piece of a form involving x_i raises that form's
        # multiplicity over the normalized numerator, so is normalized
        pieces = [RationalFunction(self.arity, self.num.scale(-k * f[i]),
                                   {**self.den, f: k + 1})
                  for f, k in self.den.items() if f[i]]
        if not pieces:
            return RationalFunction._normalized(self.arity, derivative,
                                                dict(self.den))
        return rf_sum_a(self.arity, [RationalFunction(
            self.arity, derivative, dict(self.den))] + pieces)

    def nabla(self):
        """Sum of all partial derivatives."""
        return rf_sum_a(self.arity,
                        [self.partial(i) for i in range(1, self.arity + 1)])

    def residue(self, a, b=0):
        """Residue along x_a = x_b (b = 0: along x_a = 0), a function of
        the other variables: slots above x_a move down one, as in laurent.
        Raises PoleOrderError when the pole order exceeds one.
        """
        form = linear_form(a, b, self.arity)
        k = self.den.get(form, 0)
        if k > 1:
            raise PoleOrderError("pole of order %d along %s"
                                 % (k, form_text(form)))
        return self.laurent(a, b)

    def laurent(self, a, b=0, j=1):
        """Coefficient of (x_a - x_b)^(-j) in the Laurent expansion along
        the hyperplane x_a = x_b, for a pole of any order m.

        It is the numerator over the other forms, differentiated m - j
        times in x_a and divided by (m - j)!, at x_a = x_b, in arity - 1
        variables: x_a -> x_b and x_i -> x_(i-1) for i > a.
        """
        form = linear_form(a, b, self.arity)
        m = self.den.get(form, 0)
        n = self.arity - 1
        if m < j:
            return RationalFunction.zero(n)
        # num stays normalized against the remaining forms
        rest = RationalFunction(self.arity, self.num,
                                {f: k for f, k in self.den.items()
                                 if f != form})
        for _ in range(m - j):
            rest = rest.partial(a)
        images = [var_vector(n, b if i == a else i - (i > a))
                  for i in range(1, self.arity + 1)]
        value = rest.substitute_affine(images, n)
        return value if m == j else value.scale(QQ(1, factorial(m - j)))

    # -- substitution

    def substitute_affine(self, images, target_arity):
        """Compose with x_i -> affine image (integer coefficient tuples).

        Denominator forms are re-derived by factoring the substituted
        forms; a form substituting to zero raises PoleOrderError, and one
        substituting to a nonzero constant joins the scalar.  The
        result is normalized again unless the value has no denominator or
        the images have independent linear parts (see the module docstring).
        """
        if len(images) != self.arity:
            raise ArityMismatch("need one affine image per variable")
        scalar, counts = _den_image(self.den, images, target_arity)
        num = self.num.substitute_affine(images, target_arity)
        if scalar != 1:
            num = num.scale(ONE / scalar)
        if counts and not _independent(images):
            return RationalFunction._normalized(target_arity, num, counts)
        if num.is_zero():
            return RationalFunction.zero(target_arity)
        return RationalFunction(target_arity, num, counts)

    def extended(self, target_arity, offset=0):
        """View in a larger ring, with variables shifted up by offset."""
        num = self.num.extended(target_arity, offset)
        den = {}
        for f, k in self.den.items():
            nf = (f[0],) + (0,) * offset + f[1:] + (0,) * (target_arity - self.arity - offset)
            den[nf] = k
        return RationalFunction(target_arity, num, den)

    def evaluate(self, point):
        """Exact evaluation at a rational point off the polar locus."""
        num = self.num.evaluate(point)
        for f, k in self.den.items():
            v = f[0] + sum(f[i] * point[i - 1] for i in range(1, self.arity + 1))
            if v == 0:
                raise ZeroDivisionError("point lies on %s" % form_text(f))
            num /= v ** k
        return num

    def homogeneous_parts(self):
        """dict degree -> normalized RationalFunction (degree = num part
        deg - den deg)."""
        if any(f[0] for f in self.den):
            raise ValueError("inhomogeneous denominator form")
        dd = self.den_degree()
        parts = self.num.homogeneous_parts()
        if len(parts) == 1:
            return {d - dd: RationalFunction(self.arity, p, dict(self.den))
                    for d, p in parts.items()}
        # a part of the numerator may be divisible by a form
        return {d - dd: RationalFunction._normalized(self.arity, p,
                                                     dict(self.den))
                for d, p in parts.items()}

    # -- serialization

    def _den_sorted(self):
        def key(f):
            pair = form_difference_pair(f)
            return (0, pair) if pair else (1, f)
        return sorted(self.den, key=key)

    def text(self):
        num = "(%s)" % self.num.text()
        if not self.den:
            return num
        forms = []
        for f in self._den_sorted():
            forms.extend([form_text(f)] * self.den[f])
        return "%s/( %s )" % (num, " ".join(forms))

    def __repr__(self):
        return "RF[%d] %s" % (self.arity, self.text())

    def to_json_dict(self):
        if not self.has_structured_denominator():
            raise ValueError("widened affine denominators are not serializable")
        num = []
        for m, c in self.num.sorted_terms():
            num.append([c.numerator, c.denominator, list(m)])
        den = []
        for f in self._den_sorted():
            den.extend([list(form_difference_pair(f))] * self.den[f])
        return {"arity": self.arity, "num": num, "den": den}

    @classmethod
    def from_json_dict(cls, data):
        arity = data["arity"]
        if not (type(arity) is int and 0 <= arity <= MAX_ARITY):
            raise ParseError("arity %r is not an integer from 0 to %d"
                             % (arity, MAX_ARITY))
        terms = {}
        for entry in data["num"]:
            if not (type(entry) is list and len(entry) == 3
                    and type(entry[2]) is list):
                raise ParseError("numerator term %r is not a list [p, q, "
                                 "exponents]" % (entry,))
            p, q, exps = entry
            if not (type(p) is int and type(q) is int and p and q):
                raise ParseError("coefficient %r/%r is not a ratio of nonzero "
                                 "integers" % (p, q))
            if len(exps) != arity:
                raise ParseError("exponents %r do not have length %d"
                                 % (exps, arity))
            if not all(type(e) is int and e >= 0 for e in exps):
                raise ParseError("exponents %r are not non-negative integers"
                                 % (exps,))
            if tuple(exps) in terms:
                raise ParseError("exponents %r appear in two terms" % (exps,))
            terms[tuple(exps)] = QQ(p, q)
        den = []
        for pair in data["den"]:
            # x_a - x_b, or x_a when b = 0
            if not (type(pair) is list and len(pair) == 2
                    and all(type(i) is int for i in pair)
                    and 0 <= pair[1] < pair[0] <= arity):
                raise ParseError("denominator %r is not a pair a, b of "
                                 "integers with 0 <= b < a <= %d"
                                 % (pair, arity))
            den.append(linear_form(pair[0], pair[1], arity))
        return cls.from_num_den(Polynomial(arity, terms), den)


class _DivisibilityTester:
    """Modular divisibility pretest of one numerator N, shared by the
    forms tested on N and on the quotients N is divided into.

    The integer terms of N are reduced mod p and the variables set to a
    fixed point mod p.  For a pivot variable v, N then collapses to a
    one-variable polynomial sum(S_e t^e) in t = x_v, its layer, and a
    form with pivot v to a + b*t.  If f^k divides N, then (a + b*t)^k
    divides the layer mod p, so the multiplicity of the root -a/b in the
    layer bounds k; a layer that vanishes mod p has the degree of N in
    x_v, its length - 1, as the bound.  With b = 0 mod p there is no
    bound.  The reduction waits for the first form tested.

    A form's bound is read once, the first time it is asked about, and
    may_divide spends one unit of it each time it answers True.  Distinct
    canonical forms are coprime, so the bound less the j units spent
    still bounds the multiplicity in N / f^j, whatever other forms N has
    since been divided by, as long as each True answer is followed by
    the division of the current numerator by the form.
    """

    __slots__ = ("poly", "point", "values", "layers", "budgets")

    def __init__(self, poly):
        self.poly = poly
        self.point = _pretest_point(poly.arity)
        self.values = None
        self.layers = {}
        self.budgets = {}

    def _term_values(self):
        """(monomial, its term's value mod p at the point) for each term."""
        ints = self.poly.ints
        # the total degree bounds every exponent
        top = _degree(ints)
        powers = []
        for x, s in zip(self.point, _shifts(self.poly.arity)):
            row = [1]
            for _ in range(top):
                row.append(row[-1] * x % PRIME)
            powers.append((s, row))
        values = []
        for k, val in ints.items():
            for s, row in powers:
                e = k >> s & _MASK
                if e:
                    val *= row[e]
            values.append((k, val % PRIME))
        return values

    def _layer(self, v):
        """The layer [S_0, S_1, ..] mod p of the numerator for the pivot
        x_v, one entry per exponent of x_v up to the highest present."""
        layer = self.layers.get(v)
        if layer is not None:
            return layer
        if self.values is None:
            self.values = self._term_values()
        s = _shift(self.poly.arity, v)
        sums = {}
        for k, val in self.values:
            e = k >> s & _MASK
            sums[e] = sums.get(e, 0) + val
        x_inv = pow(self.point[v - 1], -1, PRIME)
        layer = []
        inv_power = 1
        for e in range(max(sums, default=0) + 1):
            layer.append(sums.get(e, 0) * inv_power % PRIME)
            inv_power = inv_power * x_inv % PRIME
        self.layers[v] = layer
        return layer

    def _budget(self, form):
        """A bound on the multiplicity of the form in the numerator, or
        None when the form's pivot coefficient vanishes mod p."""
        v = _form_pivot(form)
        b = form[v]
        if not b % PRIME:
            return None
        # the form is b*(t - root) on the line of x_v through the point
        value = form[0] + sum(c * x for c, x in zip(form[1:], self.point))
        root = (self.point[v - 1] - value * pow(b, -1, PRIME)) % PRIME
        layer = self._layer(v)
        k = 0
        while len(layer) > 1:
            # synthetic division by t - root: Horner's partial sums are
            # the quotient's coefficients, from the top, and the remainder
            sums = list(accumulate(reversed(layer),
                                   lambda r, c: (r * root + c) % PRIME))
            if sums[-1]:
                break
            layer = sums[-2::-1]
            k += 1
        return k

    def may_divide(self, form):
        """False only if the form certainly does not divide; a True
        answer spends one unit of the form's budget."""
        if form not in self.budgets:
            self.budgets[form] = self._budget(form)
        budget = self.budgets[form]
        if budget == 0:
            return False
        if budget is not None:
            self.budgets[form] = budget - 1
        return True


_POINTS = {}


def _pretest_point(arity):
    """The point of the divisibility pretest in the arity, built once: x_i
    is the i-th splitmix64 output reduced into 1 .. p - 1.  The mixing
    steps alternate xor and multiplication, so the coordinates follow no
    linear or multiplicative pattern mod p (see the module docstring)."""
    point = _POINTS.get(arity)
    if point is None:
        coords = []
        for i in range(1, arity + 1):
            z = i * _STEP & _M64
            z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _M64
            z = (z ^ z >> 27) * 0x94D049BB133111EB & _M64
            coords.append((z ^ z >> 31) % (PRIME - 1) + 1)
        point = _POINTS[arity] = tuple(coords)
    return point


def _cancel(num, counts, forms=None):
    """Divide the nonzero num by each form of counts (or only by those of
    forms) while the form divides it, lowering counts in place; returns
    the quotient.  One pretest serves every division, and a form on a
    variable that num lacks is not tried (see the module docstring)."""
    forms = sorted(counts if forms is None else forms)
    if not forms:
        return num
    tester = _DivisibilityTester(num)
    # a field of the or of the keys is nonzero iff its variable is present
    support = 0
    for k in num.ints:
        support |= k
    absent = [i for i, s in enumerate(_shifts(num.arity), 1)
              if not support >> s & _MASK]
    for f in forms:
        if any(f[i] for i in absent):
            continue
        while counts[f] > 0:
            q = num.divide_form(f, tester)
            if q is None:
                break
            num = q
            counts[f] -= 1
    return num


def _independent(images):
    """Whether the linear parts of the integer images are linearly
    independent, decided exactly by fraction-free elimination."""
    pivots = []
    for img in images:
        row = img[1:]
        for col, prow in pivots:
            if row[col]:
                p, r = prow[col], row[col]
                row = [p * a - r * b for a, b in zip(row, prow)]
        col = next((j for j, c in enumerate(row) if c), None)
        if col is None:
            return False
        pivots.append((col, row))
    return True


def _common_den(dens):
    """Least common multiple of denominators (form -> power)."""
    common = {}
    for den in dens:
        for f, k in den.items():
            if common.get(f, 0) < k:
                common[f] = k
    return common


def _over(ints, den, common):
    """The integer terms ints over den written over the common
    denominator: ints times each form that den lacks."""
    extra = sum(common.values()) - sum(den.values())
    if extra:
        _check_degree(ints, extra)
    for f, k in common.items():
        for _ in range(k - den.get(f, 0)):
            ints = _times_form(ints, f)
    return ints


def _rows(columns, weights):
    """One integer row per monomial of the columns, in sorted order;
    entry i of a row is weights[i] times the monomial's coefficient in
    columns[i]."""
    return [[k * ints[m] if m in ints else 0
             for k, ints in zip(weights, columns)]
            for m in sorted(set().union(*columns))]


def rf_sum_a(arity, values):
    values = [v for v in values if not v.is_zero()]
    if not values:
        return RationalFunction.zero(arity)
    if any(v.arity != arity for v in values):
        raise ArityMismatch("mixed arities in sum")
    if len(values) == 1:
        # a normalized summand is its own sum
        return values[0]
    common = _common_den(v.den for v in values)
    # a form held at its top multiplicity by one summand only cannot
    # divide the sum (see the module docstring)
    holders = dict.fromkeys(common, 0)
    for v in values:
        for f, k in v.den.items():
            if k == common[f]:
                holders[f] += 1
    content, factors = _split([v.num.content for v in values])
    total = {}
    for v, k in zip(values, factors):
        _accumulate(total, _over(v.num.ints, v.den, common), k)
    return RationalFunction._normalized(
        arity, _primitive(arity, content, total), dict(common),
        [f for f, n in holders.items() if n > 1])


def coefficient_rows(values):
    """Linear conditions on c for sum c_i values_i = 0, as integer rows.

    The values are cleared to their common denominator; there is one row
    per monomial of the cleared numerators, in sorted order, and entry i
    of a row is that monomial's coefficient in the numerator of
    values_i, every row scaled by one common positive factor (the common
    content of the values is dropped).  The sum vanishes exactly when c
    is orthogonal to every row.
    """
    common = _common_den(v.den for v in values)
    _, factors = _split([v.num.content for v in values])
    return _rows([_over(v.num.ints, v.den, common) for v in values],
                 factors)


# ---------------------------------------------------------------------------
# rows of linear conditions given by ring maps


def monomials(arity, degree):
    """The exponent tuples of the given total degree, in lex order."""
    if degree < 0:
        return []
    if arity == 1:
        return [(degree,)]
    return [(e,) + m for e in range(degree + 1)
            for m in monomials(arity - 1, degree - e)]


def _monomial_images(images, exps):
    """The integer terms of m(images), the monomial m with x_i ->
    images[i-1] (integer forms in as many variables), for each m of exps,
    which share one degree.

    The images are built degree by degree: the image of m is the image
    of m / x_i times images[i-1], one form product, for the x_i of m whose
    image has the fewest terms, and only the previous degree's images are
    kept.  No step raises the degree above that of m."""
    arity = len(images)
    keys = [_pack(arity, m) for m in exps]
    if not keys or images == tuple(var_vector(arity, i)
                                   for i in range(1, arity + 1)):
        return [{k: 1} for k in keys]
    steps = [(_shift(arity, i), (1 << _shift(arity, i)) + 1, images[i - 1])
             for i in sorted(range(1, arity + 1),
                             key=lambda i: sum(map(bool, images[i - 1])))]
    layer = {0: {0: 1}}
    for d in range(1, sum(exps[0]) + 1):
        prev, layer = layer, {}
        for m in monomials(arity, d):
            k = _pack(arity, m)
            unit, img = next((unit, img) for s, unit, img in steps
                             if k >> s & _MASK)
            layer[k] = _times_form(prev[k - unit], img)
    return [layer[k] for k in keys]


def _term_images(pre, targets):
    """The images of x_1, .., x_n under a term: pre, then x_j ->
    x_targets[j-1]."""
    out = []
    for img in pre:
        v = [img[0]] + [0] * len(targets)
        for c, t in zip(img[1:], targets):
            if t:
                v[t] += c
        out.append(tuple(v))
    return out


def condition_rows(arity, exps, conditions, den):
    """Integer rows whose right kernel is the set of vectors c with
    sum c_e x^e / den sent to zero by every condition; the exponent
    tuples exps share one degree and den maps forms to powers.

    A condition is a list of terms (weight, pre, targets); a term sends f
    to weight * (f o pre) relabelled x_j -> x_targets[j-1] (target 0 sends
    x_j to 0), pre being a tuple of integer affine images, and the
    condition sends f to the sum of its terms.  A term sends x^e / D to
    weight / s * relabel(pre(x^e)) / D_t, where D_t is the image of D as
    canonical forms and s its scalar (_den_image).  With C the lcm of the
    D_t of a condition and L the lcm of the denominators of the
    weight / s, column e of the condition's rows holds the integer
    coefficients of
      N_e = sum over terms of L * weight / s * relabel(pre(x^e)) * C / D_t
          = L * C * r_e,
    where r_e is the condition's value on x^e / D.  L * C is nonzero, so
    sum c_e r_e = 0 exactly when sum c_e N_e = 0.  The images pre(x^e)
    are built once per distinct pre, one form product per monomial; a
    row repeated within or across conditions is kept once.
    """
    images = {}
    degree = sum(exps[0]) if exps else 0
    rows = {}
    for condition in conditions:
        terms = []
        for weight, pre, targets in condition:
            if pre not in images:
                images[pre] = _monomial_images(pre, exps)
            scalar, forms = _den_image(den, _term_images(pre, targets), arity)
            terms.append((QQ(weight) / scalar, forms, images[pre],
                          _relabelling(arity, targets, arity)))
        common = _common_den(forms for _, forms, _, _ in terms)
        scale = lcm(*(weight.denominator for weight, _, _, _ in terms))
        parts = []
        for weight, forms, image, moves in terms:
            # C / D_t, the forms of C that the term's image of D lacks
            cofactor = _over({0: 1}, forms, common)
            _check_degree(cofactor, degree)
            parts.append(((weight * scale).numerator,
                          cofactor if cofactor != {0: 1} else None,
                          image, moves))
        columns = []
        for j in range(len(exps)):
            total = {}
            for weight, cofactor, image, moves in parts:
                ints = _relabel(image[j], moves)
                if cofactor:
                    ints = _product(ints, cofactor)
                _accumulate(total, ints, weight)
            columns.append(total)
        # the linearized families repeat many rows, within a condition
        # and across conditions
        rows.update(dict.fromkeys(map(tuple, _rows(columns,
                                                   [1] * len(columns)))))
    return list(rows)
