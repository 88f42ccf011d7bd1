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


def solve_affine(matrix, rhs):
    """Solve M x = rhs exactly.

    Returns (solution, kernel_dim, consistent).  When the system is
    underdetermined, free coordinates are pinned to zero (deterministic
    choice) and kernel_dim reports the ambiguity.
    """
    if not matrix:
        return [], 0, True
    n_cols = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    m, pivots = rref(aug)
    pivots_in_cols = [p for p in pivots if p < n_cols]
    consistent = n_cols not in pivots
    sol = [ZERO] * n_cols
    for r, pc in enumerate(pivots_in_cols):
        sol[pc] = m[r][n_cols]
    kernel_dim = n_cols - len(pivots_in_cols)
    return sol, kernel_dim, consistent
