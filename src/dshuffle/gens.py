"""Construction of the explicit generator families.

Everything here produces exact RationalFunction components or DepthSeries:
the odd-weight solutions psi_(2n+1) with their stuffle-side (A, B, C) and
shuffle-side (D, E, F) pieces, the vine-indexed element psi_(-1) with its
height pieces P_n and Q_n, the weight-zero element psi_0 = s_d up to
normalization, depth-splitting lifts, stuffle conjugation, twisting, the
chi family, and the sporadic elements z_3, Q_4, c_n.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .rationals import QQ
from .ratfun import (Polynomial, RationalFunction, diff_vector, linear_form,
                     rf_sum_a, var_vector)
from .series import (DepthSeries, cyclic_sum, ihara_action_component,
                     series_stuffle, tau)


# ---------------------------------------------------------------------------
# depth bound


# s_d(d) has d! numerator terms over its common denominator: 40,320 at
# d = 8, which the CLI builds and prints in about 2 s and 47 MB on a 2-vCPU
# host, and 362,880 at d = 9, nine times as many.  psi_3 and psi_-1 grow
# faster, about tenfold per depth to some 350,000 terms at depth 8: gen psi
# --weight 3 --depth 8 takes 15 s and prints 14 MB, and depth 9 does not
# finish in 30 s.  gen vine --n prints the 2^(n-1) vines of n grapes with
# their expanded x_T, 26 MB at n = 11.  Each family stops at this one
# bound, which follows from those sizes; MAX_ARITY = 64 is far above it.
SD_MAX_DEPTH = 8


def _bound_depth(family, name, value, cause):
    if value > SD_MAX_DEPTH:
        raise ValueError("%s needs %s <= %d (%s), got %d"
                         % (family, name, SD_MAX_DEPTH, cause, value))


# ---------------------------------------------------------------------------
# x_{A,B} products


def x_AB_inverse(A, B, arity, num=None):
    """num / x_{A,B} as a normalized rational function."""
    sign = 1
    den = []
    for a in A:
        for b in B:
            if a < b:
                sign = -sign
            den.append(linear_form(max(a, b), min(a, b), arity))
    if num is None:
        num = Polynomial.const(arity, 1)
    if sign < 0:
        num = num.scale(-1)
    return RationalFunction.from_num_den(num, den)


def _diff_power(arity, i, j, n):
    """(x_i - x_j)^n as a polynomial, with x_0 = 0."""
    return Polynomial.const(arity, 1).mul_forms([diff_vector(arity, i, j)] * n)


# ---------------------------------------------------------------------------
# psi_(2n+1)


def _psi_families(n, d):
    """The term lists (e, d, f1, f2) of psi_(2n+1) at depth d, with
    psi = (sum of all terms)/2."""
    e = [x_AB_inverse(range(0, i - 1), [i - 1], d,
                      _diff_power(d, i, i - 1, 2 * n))
         * x_AB_inverse(range(i + 1, d + 1), [i], d)
         for i in range(1, d + 1)]
    dd = [x_AB_inverse(range(1, i), [0], d, Polynomial.variable(d, d, 2 * n))
          * x_AB_inverse(range(i, d), [d], d)
          for i in range(1, d + 1)]
    f1 = [x_AB_inverse(range(2, i + 1), [1], d, _diff_power(d, 1, d, 2 * n))
          * x_AB_inverse(range(i + 1, d), [d], d)
          * x_AB_inverse([d], [0], d)
          for i in range(1, d)]
    f2 = [-(x_AB_inverse([d] + list(range(1, i)), [0], d,
                         Polynomial.variable(d, d - 1, 2 * n))
            * x_AB_inverse(range(i, d - 1), [d - 1], d))
          for i in range(1, d)]
    return e, dd, f1, f2


@lru_cache(maxsize=None)
def psi_odd_component(n, d):
    """Depth-d component of psi_(2n+1) (weight 2n+1, n >= 1)."""
    if d == 0:
        return RationalFunction.zero(0)
    e, dd, f1, f2 = _psi_families(n, d)
    return rf_sum_a(d, e + dd + f1 + f2).scale(QQ(1, 2))


def psi_odd(n, max_depth):
    """The weight-(2n+1) solution as a depth series."""
    _bound_depth("psi_%d" % (2 * n + 1), "max_depth", max_depth,
                 "its terms grow tenfold per depth")
    comps = {d: psi_odd_component(n, d) for d in range(1, max_depth + 1)}
    return DepthSeries(comps, max_depth, weight=2 * n + 1)


def psi_pieces_ABC(n, d):
    """The three stuffle-side pieces with psi = (A + B + C)/2 at depth d."""
    e, dd, f1, f2 = _psi_families(n, d)
    return e[0], rf_sum_a(d, dd + f2), rf_sum_a(d, e[1:] + f1)


def psi_pieces_DEF(n, d):
    """The three shuffle-side pieces with psi = (D + E + F)/2 at depth d."""
    e, dd, f1, f2 = _psi_families(n, d)
    return rf_sum_a(d, dd), rf_sum_a(d, e), rf_sum_a(d, f1 + f2)


# ---------------------------------------------------------------------------
# vines


class Vine:
    """Rooted labeled tree encoded by its composition g_(i1)..g_(ik)."""

    __slots__ = ("composition",)

    def __init__(self, composition):
        composition = tuple(composition)
        if not composition or any(i < 1 for i in composition):
            raise ValueError("a vine needs a nonempty positive composition")
        self.composition = composition

    @property
    def grapes(self):
        return sum(self.composition)

    @property
    def height(self):
        return len(self.composition)

    def edges(self):
        """Edge list (i, j) with i < j; each bunch hangs off the previous
        highest label."""
        out = []
        stalk = 0
        label = 0
        for bunch in self.composition:
            for _ in range(bunch):
                label += 1
                out.append((stalk, label))
            stalk = label
        return out

    def __repr__(self):
        return "Vine(%s)" % "".join("g%d" % i for i in self.composition)


def enumerate_vines(n):
    """All vines with n grapes (one per composition of n)."""
    _bound_depth("a vine list", "n", n, "there are 2^(n-1) vines")
    out = []

    def rec(prefix, rest):
        if rest == 0:
            out.append(Vine(prefix))
            return
        for i in range(1, rest + 1):
            rec(prefix + (i,), rest - i)

    rec((), n)
    return out


def vine_poly(v):
    """x_T, the product of (x_j - x_i) over tree edges."""
    n = v.grapes
    return Polynomial.const(n, 1).mul_forms(diff_vector(n, j, i)
                                            for i, j in v.edges())


def vine_rat(v):
    """p_v = 1 / x_T."""
    n = v.grapes
    return RationalFunction.from_num_den(
        Polynomial.const(n, 1), [linear_form(j, i, n) for i, j in v.edges()])


def _vine_rat_over_xd(v):
    """1 / (x_v x_d)."""
    return vine_rat(v).divide_form_exact(linear_form(v.grapes, 0, v.grapes))


@lru_cache(maxsize=None)
def psi_minus_one_component(d):
    parts = [_vine_rat_over_xd(v).scale(QQ((-1) ** (v.height + 1), v.height))
             for v in enumerate_vines(d)]
    return rf_sum_a(d, parts)


def psi_minus_one(max_depth):
    _bound_depth("psi_-1", "max_depth", max_depth,
                 "its terms grow tenfold per depth")
    comps = {d: psi_minus_one_component(d) for d in range(1, max_depth + 1)}
    return DepthSeries(comps, max_depth, weight=-1)


@lru_cache(maxsize=None)
def P_component(n, d):
    """Depth-d part of P_n: sum over height-n vines of 1/(x_v x_d)."""
    parts = [_vine_rat_over_xd(v) for v in enumerate_vines(d)
             if v.height == n]
    return rf_sum_a(d, parts)


def P_series(n, max_depth):
    comps = {d: P_component(n, d) for d in range(1, max_depth + 1)}
    return DepthSeries(comps, max_depth, weight=-1)


@lru_cache(maxsize=None)
def Q_component(n, d):
    """Like P_n but restricted to vines of the form g_1 w."""
    parts = [_vine_rat_over_xd(v) for v in enumerate_vines(d)
             if v.height == n and v.composition[0] == 1]
    return rf_sum_a(d, parts)


def Q_series(n, max_depth):
    comps = {d: Q_component(n, d) for d in range(1, max_depth + 1)}
    return DepthSeries(comps, max_depth, weight=-1)


# ---------------------------------------------------------------------------
# s_d / psi_0 and the vineyard recursion


@lru_cache(maxsize=None)
def s_d(d):
    """The weight-zero components: sum of (d-k)/x_({0..d}-k, k)."""
    _bound_depth("s_d", "d", d, "it has d! numerator terms")
    parts = []
    for k in range(0, d):
        others = [a for a in range(0, d + 1) if a != k]
        parts.append(x_AB_inverse(others, [k], d,
                                  Polynomial.const(d, d - k)))
    return rf_sum_a(d, parts)


def psi_zero_component(d):
    from math import comb
    return s_d(d).scale(QQ(1, comb(d + 1, 2)))


def psi_zero(max_depth):
    comps = {d: psi_zero_component(d) for d in range(1, max_depth + 1)}
    return DepthSeries(comps, max_depth, weight=0)


def s_vineyard(n):
    """The primitive vineyard with n g_n minus lower products, recursively."""
    if n < 1:
        raise ValueError("n >= 1")
    out = {(n,): QQ(n)}
    for i in range(1, n):
        for word, c in s_vineyard(n - i).items():
            key = (i,) + word
            out[key] = out.get(key, QQ(0)) - c
    return {w: c for w, c in out.items() if c != 0}


def vineyard_realize(vy):
    """Rational realization of a vineyard (finite, homogeneous in grapes)."""
    degrees = {sum(w) for w in vy}
    if len(degrees) != 1:
        raise ValueError("vineyard must be homogeneous in grape count")
    n = degrees.pop()
    return rf_sum_a(n, [vine_rat(Vine(w)).scale(c) for w, c in vy.items()])


# ---------------------------------------------------------------------------
# depth-splitting lifts


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _lift(f, max_depth, marked):
    """Sum over the splittings of x_1..x_d into f.arity consecutive blocks
    of f at one mark per block times the blocks' coefficients.  Unmarked,
    the mark is the block's first slot with coefficient 1/prod (x_j - x_mark);
    marked, every slot is a mark with coefficient
    (-1)^(slots before the mark) / (block length * prod |x_j - x_mark|)."""
    s = f.arity
    comps = {}
    for d in range(s, max_depth + 1):
        parts = []
        for comp in _compositions(d, s):
            choices = []
            pos = 1
            for m in comp:
                block = range(pos, pos + m)
                options = []
                for mark in (block if marked else block[:1]):
                    scalar = QQ((-1) ** (mark - pos), m) if marked else QQ(1)
                    options.append((mark, scalar, [
                        linear_form(max(j, mark), min(j, mark), d)
                        for j in block if j != mark]))
                choices.append(options)
                pos += m
            for choice in product(*choices):
                scalar, den = QQ(1), []
                for _, c, forms in choice:
                    scalar *= c
                    den += forms
                term = f.substitute_affine(
                    [var_vector(d, mark) for mark, _, _ in choice], d)
                parts.append(term * RationalFunction.from_num_den(
                    Polynomial.const(d, scalar), den))
        comps[d] = rf_sum_a(d, parts)
    return DepthSeries(comps, max_depth, weight=f.weight())


def lift_tilde(f, max_depth):
    """Interval-partition lift splitting the depth filtration at f's depth."""
    return _lift(f, max_depth, marked=False)


def lift_ell(f, max_depth):
    """Marked-interval lift; the depth-1 case is the classical one."""
    return _lift(f, max_depth, marked=True)


# ---------------------------------------------------------------------------
# stuffle conjugation


def nu_series(max_depth):
    """Components 1/(r x_1..x_r)."""
    return DepthSeries({r: f.scale(QQ(1, r)) for r, f
                        in mu_plus(max_depth).components.items()},
                       max_depth, weight=0)


def mu_plus(max_depth):
    """Components 1/(x_1..x_r); equals exp_stuffle(nu) minus 1."""
    comps = {}
    for r in range(1, max_depth + 1):
        den = {linear_form(i, 0, r): 1 for i in range(1, r + 1)}
        comps[r] = RationalFunction.from_num_den(Polynomial.const(r, 1), den)
    return DepthSeries(comps, max_depth, weight=0)


def mu_minus(max_depth):
    comps = {1: RationalFunction.power_of_var(1, 1, -1)}
    return DepthSeries(comps, max_depth, weight=0, complete=True)


def star_conjugate(rho, max_depth=None):
    """(1 + mu_+) stuffle rho stuffle (1 - mu_-)."""
    md = max_depth if max_depth is not None else rho.max_depth
    left = DepthSeries.unit(md) + mu_plus(md)
    right = DepthSeries.unit(md) - mu_minus(md)
    return series_stuffle(series_stuffle(left, rho.truncated(md)), right)


def series_tau(f):
    """Apply the stuffle reversal componentwise (no sign!), i.e. x-reversal.

    tau on components carries (-1)^r; the series-level conjugation of the
    lifts uses the plain argument reversal f(x_r..x_1), so we undo the sign.
    """
    comps = {}
    for d, c in f.components.items():
        t = tau(c)
        comps[d] = t if d % 2 == 0 else -t
    return DepthSeries(comps, f.max_depth, weight=f.weight, const=f.const,
                       complete=f.complete)


# ---------------------------------------------------------------------------
# twisting and the chi family


# The twist's depth-d component is a sum of brackets with the psi_0
# components, and its cost grows much faster than d: gen chi --weight 3
# --depth 7 takes 12-13 s and prints 3.9 MB on a 2-vCPU host, and depth 8
# does not finish in 60 s.  The bound follows from that cost; the s_d bound
# alone would stop the twist only from depth 10 on.
CHI_MAX_DEPTH = 7


def twist_by_psi0(alpha, max_depth):
    """Recursive twist lifting a linearized solution to all depths."""
    if max_depth > CHI_MAX_DEPTH:
        raise ValueError("chi (the twist by psi0) needs max_depth <= %d, "
                         "got %d"
                         % (CHI_MAX_DEPTH, max_depth))
    d0 = alpha.arity
    psi0 = [psi_zero_component(i) for i in range(1, max_depth - d0 + 1)]
    comps = {d0: alpha}
    for k in range(1, max_depth - d0 + 1):
        # the brackets {psi0^(i), alpha^(d0+k-i)} as one sum of actions
        parts = []
        for i in range(1, k + 1):
            p, a = psi0[i - 1], comps[d0 + k - i]
            parts += [ihara_action_component(p, a),
                      -ihara_action_component(a, p)]
        comps[d0 + k] = rf_sum_a(d0 + k, parts).scale(QQ(1, 2 * k))
    w = alpha.weight()
    return DepthSeries(comps, max_depth, weight=w)


def chi(k, max_depth):
    """chi_(-1) = twist of x1^(-2); chi_(2n+1) = twist of x1^(2n)."""
    if k == -1:
        seed = RationalFunction.power_of_var(1, 1, -2)
    elif k >= 3 and k % 2 == 1:
        seed = RationalFunction.power_of_var(1, 1, k - 1)
    else:
        raise ValueError("chi weight must be -1 or odd >= 3")
    return twist_by_psi0(seed, max_depth)


# ---------------------------------------------------------------------------
# sporadic elements


def z3():
    """The depth-3 weight-3 derivation element.

    Built as one quarter of the cyclic orbit of (y_2-y_1)/(y_3-y_0) under
    rotation of the labels y_0..y_3, reduced at y_0 = 0; the first orbit
    member is (x_2-x_1)/x_3.  This normalization makes the plain word sum
    vanish and the sharp word sum equal to 1 in the (1,2) family.
    """
    seed = RationalFunction.from_num_den(
        Polynomial.variable(4, 3) - Polynomial.variable(4, 2),
        [linear_form(4, 1, 4)])
    return cyclic_sum(seed).scale(QQ(1, 4))


def Q4():
    """Cyclic depth-4 element with poles beyond the consecutive pattern.

    Built as minus the cyclic orbit (on the labels y_0..y_4) of the seed
    1/((y_1-y_0)(y_3-y_2)(y_3-y_0)(y_4-y_0)), reduced at y_0 = 0; the
    orientation is normalized so that the residue at x_3 = 0 equals
    +1/(x_1 x_2 x_4).
    """
    return cyclic_sum(RationalFunction.from_num_den(
        Polynomial.const(5, -1),
        [linear_form(2, 1, 5), linear_form(4, 3, 5), linear_form(4, 1, 5),
         linear_form(5, 1, 5)]))


def c_n(n):
    """1/(x_1 (x_2-x_1) .. (x_n-x_(n-1)) x_n)."""
    den = ([linear_form(1, 0, n)]
           + [linear_form(i, i - 1, n) for i in range(2, n + 1)]
           + [linear_form(n, 0, n)])
    return RationalFunction.from_num_den(Polynomial.const(n, 1), den)


def c_tilde(n, max_depth):
    """Lift of c_n through the interval-partition lift."""
    return lift_tilde(c_n(n), max_depth)


# ---------------------------------------------------------------------------
# named access used by the CLI


def generator(name, max_depth):
    """Series for a generator name like psi3, psi-1, psi0, chi5, chi-1."""
    if name.startswith("psi"):
        k = int(name[3:])
        if k == 0:
            return psi_zero(max_depth)
        if k == -1:
            return psi_minus_one(max_depth)
        if k >= 3 and k % 2 == 1:
            return psi_odd((k - 1) // 2, max_depth)
        raise ValueError("unknown psi weight %d" % k)
    if name.startswith("chi"):
        return chi(int(name[3:]), max_depth)
    if name.startswith("mono:"):
        n = int(name.split(":")[1])
        f, weight = RationalFunction.power_of_var(1, 1, n), n + 1
    elif name.startswith("sd:"):
        d = int(name.split(":")[1])
        if d < 1:
            raise ValueError("sd:D needs D >= 1, got %d" % d)
        f, weight = s_d(d), 0
    elif name == "z3":
        f, weight = z3(), 3
    elif name == "Q4":
        f, weight = Q4(), 0
    elif name.startswith("cn:"):
        n = int(name.split(":")[1])
        if n < 1:
            raise ValueError("cn:N needs N >= 1, got %d" % n)
        f, weight = c_n(n), -1
    else:
        raise ValueError("unknown generator %r" % name)
    # a single component still has stuffle checks through max_depth
    _bound_depth(name, "max_depth", max_depth,
                 "its stuffle checks grow exponentially")
    return DepthSeries.single(f, max_depth, weight=weight)
