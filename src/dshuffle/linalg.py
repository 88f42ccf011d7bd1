"""Exact linear algebra over the rationals: certified multi-modular RREF.

A matrix M comes in as integer rows (scaling a row by a nonzero factor
changes neither its kernel nor its reduced echelon form); the echelon form
and the kernel vectors come out as rationals.  M is row-reduced mod
word-size primes, its echelon form R is rebuilt over Q by rational
reconstruction, and each kernel vector v_f (1 at a free column f, -R[r][f]
at the pivot of row r) is checked by M v_f = 0 in ints:
  rank M mod p <= rank over Q, and the certified v_f give the converse;
  v_f lives on f and earlier pivots, so f is free over Q: the pivots agree;
  the reduced echelon form is unique, so R is exact.
A failed reconstruction or check adds a prime.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm

from .rationals import ONE, PRIME, QQ, ZERO

# Miller-Rabin with these bases is deterministic below 3.3 * 10**24
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n):
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """PRIME, then the primes below it in descending order."""
    q = PRIME
    while q > 2:
        if _is_prime(q):
            yield q
        q -= 2


def _rref_mod(rows, n_cols, p):
    """Reduced echelon form of the integer rows mod p.

    Returns {pivot column: {free column: entry}}: each reduced row is
    kept on its non-pivot columns only, so a row that depends on the
    current ones costs one pass over their short supports.  The reduced
    form mod p is unique, so the order of the rows does not matter.
    """
    basis = {}
    for row in rows:
        v = list(row)
        for c, b in basis.items():
            a = v[c] % p
            if a:
                for col, x in b.items():
                    v[col] -= a * x
        for c in range(n_cols):
            if c not in basis and v[c] % p:
                break
        else:
            continue
        inv = pow(v[c], -1, p)
        new = {}
        for col in range(c + 1, n_cols):
            if col not in basis:
                x = v[col] * inv % p
                if x:
                    new[col] = x
        for b in basis.values():
            t = b.pop(c, 0)
            if t:
                for col, x in new.items():
                    b[col] = (b.get(col, 0) - t * x) % p
        basis[c] = new
        if len(basis) == n_cols:
            break
    return basis


def _reconstruct(a, m, bound):
    """n / d with |n|, d <= bound and n = a d mod m, or None (Wang)."""
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lift(residues, modulus):
    """The rationals behind the nonzero residues, or None."""
    bound = isqrt(modulus >> 1)
    out = {}
    for key, a in residues.items():
        if a:
            q = _reconstruct(a, modulus, bound)
            if q is None:
                return None
            out[key] = q
    return out


def _certified(rows, pivots, entries, n_cols):
    """Whether M v_f = 0 in integers for the kernel vector of every free
    column f: 1 at f and -R[r][f] at the pivot column of row r."""
    pivots = set(pivots)
    column = {f: [] for f in range(n_cols) if f not in pivots}
    for (c, f), q in entries.items():
        column[f].append((c, q))
    for f, parts in column.items():
        den = lcm(*[d for _, (_, d) in parts])
        vec = [(f, den)] + [(c, -n * (den // d)) for c, (n, d) in parts]
        for row in rows:
            if sum(row[c] * x for c, x in vec):
                return False
    return True


def rref(rows):
    """Reduced row echelon form of integer rows over Q; returns
    (rational rows, pivot_columns)."""
    if not rows:
        return [], []
    n_cols = len(rows[0])
    best = None
    for p in _primes():
        basis = _rref_mod(rows, n_cols, p)
        pattern = (-len(basis), sorted(basis))
        image = {(c, f): x for c, b in basis.items() for f, x in b.items()}
        if best is None or pattern < best:
            best, modulus, residues = pattern, p, image
        elif pattern > best:
            continue       # an unlucky prime
        else:              # CRT with the primes of the same pattern
            scale = pow(modulus, -1, p)
            for key in residues.keys() | image.keys():
                r = residues.get(key, 0)
                residues[key] = r + modulus * (
                    (image.get(key, 0) - r) * scale % p)
            modulus *= p
        pivots = best[1]
        entries = _lift(residues, modulus)
        if entries is not None and _certified(rows, pivots, entries,
                                              n_cols):
            break
    out = {}
    for c in pivots:
        out[c] = [ZERO] * n_cols
        out[c][c] = ONE
    for (c, f), (num, den) in entries.items():
        out[c][f] = QQ(num, den)
    out = list(out.values())
    out.extend([ZERO] * n_cols for _ in range(len(rows) - len(pivots)))
    return out, pivots


def nullspace(rows, n_cols):
    """Basis of the right kernel of integer rows, as lists of rationals."""
    m, pivots = rref(rows)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ZERO] * n_cols
        vec[fc] = QQ(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis


def solve_affine(rows, n_cols):
    """Solve M x + a = 0 exactly for integer rows [M | a] with n_cols
    unknowns, as the kernel of the rows.

    Returns (solution, kernel_dim), or None when the system is
    inconsistent.  The augmented column is the last free column exactly
    when the system is consistent; its basis vector is (x, 1) with the
    other free coordinates pinned to zero (deterministic choice), and
    kernel_dim counts those other free coordinates.
    """
    basis = nullspace(rows, n_cols + 1)
    if not basis or not basis[-1][n_cols]:
        return None
    return basis[-1][:n_cols], len(basis) - 1
