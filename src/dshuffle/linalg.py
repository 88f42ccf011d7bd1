"""Small exact linear algebra over the rationals.

Deterministic row reduction (first nonzero pivot, left-to-right columns),
which keeps every nullspace basis and solution reproducible across runs.
"""

from __future__ import annotations

from .rationals import QQ, ZERO


def rref(matrix):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = [list(row) for row in matrix]
    if not m:
        return m, []
    n_cols = len(m[0])
    piv_rows = 0
    pivots = []
    for col in range(n_cols):
        pivot = None
        for r in range(piv_rows, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[piv_rows], m[pivot] = m[pivot], m[piv_rows]
        pv = m[piv_rows][col]
        m[piv_rows] = [v / pv for v in m[piv_rows]]
        for r in range(len(m)):
            if r != piv_rows and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[piv_rows])]
        pivots.append(col)
        piv_rows += 1
        if piv_rows == len(m):
            break
    return m, pivots


def nullspace(matrix, n_cols):
    """Basis of the right kernel, as lists of rationals."""
    if not matrix:
        return [[QQ(1) if i == j else ZERO for i in range(n_cols)]
                for j in range(n_cols)]
    m, pivots = rref(matrix)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ZERO] * n_cols
        vec[fc] = QQ(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis


def solve_affine(matrix, rhs, n_cols):
    """Solve M x = rhs exactly as the kernel of the augmented [M | -rhs].

    Returns (solution, kernel_dim), or None when the system is
    inconsistent.  The augmented column is the last free column exactly
    when the system is consistent; its basis vector is (x, 1) with the
    other free coordinates pinned to zero (deterministic choice), and
    kernel_dim counts those other free coordinates.
    """
    basis = nullspace([list(row) + [-b] for row, b in zip(matrix, rhs)],
                      n_cols + 1)
    if not basis or not basis[-1][n_cols]:
        return None
    return basis[-1][:n_cols], len(basis) - 1
