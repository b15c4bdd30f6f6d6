"""Exact Gaussian elimination over F_{q^n}, for matrices whose entries lie in
F_{q^n}: the Moore determinant, the Moore nullspace and the q-circulant rank.
F_q-linear algebra (codes, idealisers, duals, F_q-ranks) runs on F_p
coordinates through fields.rref_modp instead.

Matrices are lists of row lists of packed field elements.  Pivoting is
deterministic: the first row (top to bottom) with a nonzero entry in the
current column.  Division by a pivot is exact in a finite field, so plain
forward elimination suffices.
"""

from __future__ import annotations


def row_reduce(tower, rows, ncols):
    """Reduced row echelon form.  Returns (rref_rows, pivot_cols)."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = tower.inv(m[r][c])
        m[r] = [tower.mul(inv, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [tower.sub(a, tower.mul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank(tower, rows, ncols):
    return len(row_reduce(tower, rows, ncols)[1])


def det(tower, mat):
    """Determinant of a square matrix by elimination."""
    n = len(mat)
    m = [list(r) for r in mat]
    d = 1
    sign = 1
    for c in range(n):
        sel = None
        for i in range(c, n):
            if m[i][c] != 0:
                sel = i
                break
        if sel is None:
            return 0
        if sel != c:
            m[c], m[sel] = m[sel], m[c]
            sign = -sign
        piv = m[c][c]
        d = tower.mul(d, piv)
        inv = tower.inv(piv)
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = tower.mul(m[i][c], inv)
                m[i] = [tower.sub(a, tower.mul(f, b)) for a, b in zip(m[i], m[c])]
    return d if sign == 1 else tower.neg(d)


def nullspace(tower, rows, ncols):
    """Basis of {v : rows . v = 0}, one vector per free column, echelon order."""
    rref, pivots = row_reduce(tower, rows, ncols)
    pivot_of = {c: i for i, c in enumerate(pivots)}
    free = [c for c in range(ncols) if c not in pivot_of]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for c, i in pivot_of.items():
            v[c] = tower.neg(rref[i][fc])
        basis.append(v)
    return basis

