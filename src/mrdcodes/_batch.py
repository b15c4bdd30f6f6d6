"""Vectorized mod-p kernels for the scan engines.

Codewords of a support code are F_p-linear in their coefficient coordinates,
so a whole batch of codeword matrices is one integer matmul: for coefficient
coordinate rows A (batch x k*d) and the precomputed block matrix L
(k*d x d*d), the batch of d x d map matrices is (A @ L) % p.  Ranks are then
taken by masked Gauss-Jordan vectorized over the batch dimension.

Element order everywhere is the canonical one from fields: element #m has
coordinates c_i = (m // p^(d-1-i)) % p.
"""

from __future__ import annotations

import numpy as np


def inverse_table(p: int) -> np.ndarray:
    inv = np.zeros(p, dtype=np.int64)
    for a in range(1, p):
        inv[a] = pow(a, p - 2, p)
    return inv


def batch_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks over F_p of a batch of matrices, shape (B, r, c).  Destroys input.

    Gauss-Jordan vectorized over the batch: per column, each matrix picks its
    first unused row with a nonzero entry, normalizes it, and clears the
    column from every other row.  Matrices without a pivot in the column are
    masked out of the update.
    """
    # products of two entries below p must fit the working dtype
    dtype = np.int32 if (p - 1) ** 2 < 1 << 31 else np.int64
    m = np.ascontiguousarray(mats, dtype=dtype)
    B, r, c = m.shape
    used = np.zeros((B, r), dtype=bool)
    inv = inverse_table(p).astype(dtype)
    bindex = np.arange(B)
    tmp = np.empty_like(m)
    for col in range(c):
        cand = (~used) & (m[:, :, col] != 0)
        has = cand.any(axis=1)
        if not has.any():
            continue
        sel = cand.argmax(axis=1)
        rows = np.take_along_axis(m, sel[:, None, None], axis=1)[:, 0, :]
        rows = rows * inv[rows[:, col]][:, None] % p
        factors = np.where(has[:, None], m[:, :, col], 0)
        factors[bindex, sel] = 0
        np.multiply(factors[:, :, None], rows[:, None, :], out=tmp)
        m -= tmp
        m %= p
        used[bindex, sel] |= has
    return used.sum(axis=1)


def element_coord_columns(idx: np.ndarray, p: int, d: int) -> np.ndarray:
    """Coordinates (column-major) of canonical elements #idx: shape (len, d)."""
    out = np.empty((idx.shape[0], d), dtype=np.int64)
    for i in range(d):
        out[:, i] = (idx // p ** (d - 1 - i)) % p
    return out


class SupportBlockMatrix:
    """Precomputed L with rows (i*d + j) = flatten(Mult(g^j) @ Frob(u_i)) for a
    support-code with q-exponents u_0 < ... < u_{k-1}."""

    def __init__(self, tower, q_exponents):
        self.tower = tower
        self.exps = tuple(q_exponents)
        d = tower.degree
        k = len(self.exps)
        L = np.zeros((k * d, d * d), dtype=np.int64)
        g = tower.generator
        for i, u in enumerate(self.exps):
            F = tower.frob_q_matrix(u)
            b = 1
            for j in range(d):
                L[i * d + j] = (tower.mult_matrix(b) @ F % tower.p).reshape(-1)
                b = tower.mul(b, g)
        self.L = L
        self.k = k
        self.d = d

    def matrices(self, coeff_coords: np.ndarray) -> np.ndarray:
        """(B, k*d) coordinate rows -> (B, d, d) map matrices mod p."""
        t = self.tower
        flat = coeff_coords @ self.L % t.p
        return flat.reshape(-1, self.d, self.d)


class SpanBlockMatrix:
    """Same idea for F_q-combinations of arbitrary basis polynomials:
    rows (i*e + j) = flatten(Mult(u_j) @ Mat(poly_i))."""

    def __init__(self, tower, polys):
        self.tower = tower
        d, e = tower.degree, tower.e
        k = len(polys)
        L = np.zeros((k * e, d * d), dtype=np.int64)
        fq_basis = tower.fq_basis_fp
        for i, f in enumerate(polys):
            M = f.map_matrix_fp()
            for j in range(e):
                L[i * e + j] = (tower.mult_matrix(fq_basis[j]) @ M % tower.p).reshape(-1)
        self.L = L
        self.k = k
        self.d = d
        self.e = e

    def matrices(self, scalar_coords: np.ndarray) -> np.ndarray:
        flat = scalar_coords @ self.L % self.tower.p
        return flat.reshape(-1, self.d, self.d)


def projective_blocks(tower, k, batch_size):
    """Stream of (lead, tail_start, tail_count) covering the projective
    representatives of F_{q^n}^k: lead coefficient = 1 at position `lead`,
    earlier coefficients zero, remaining k-1-lead coefficients odometer-counted
    (last support position fastest) in canonical element order."""
    Q = tower.order
    for lead in range(k):
        total = Q ** (k - 1 - lead)
        start = 0
        while start < total:
            count = min(batch_size, total - start)
            yield lead, start, count
            start += count


def projective_coords(tower, k, lead, start, count):
    """Coordinate rows (count, k*d) for one block of representatives."""
    Q, p, d = tower.order, tower.p, tower.degree
    out = np.zeros((count, k * d), dtype=np.int64)
    # leading 1
    out[:, lead * d] = 1
    idx = np.arange(start, start + count, dtype=np.int64)
    ntails = k - 1 - lead
    for w in range(ntails):
        pos = lead + 1 + w
        sub = (idx // Q ** (ntails - 1 - w)) % Q
        out[:, pos * d:(pos + 1) * d] = element_coord_columns(sub, p, d)
    return out


def projective_index_total(tower, k) -> int:
    Q = tower.order
    return (Q ** k - 1) // (Q - 1)


def rep_to_coefficients(tower, k, lead, tail_index):
    """Packed coefficient tuple of representative (lead, tail_index)."""
    Q = tower.order
    coeffs = [0] * k
    coeffs[lead] = 1
    ntails = k - 1 - lead
    for w in range(ntails):
        sub = (tail_index // Q ** (ntails - 1 - w)) % Q
        coeffs[lead + 1 + w] = tower.element_at(int(sub))
    return tuple(coeffs)


def fq_projective_blocks(tower, k, batch_size):
    """Projective representatives over F_q of F_q^k (for general-code scans)."""
    q = tower.q
    for lead in range(k):
        total = q ** (k - 1 - lead)
        start = 0
        while start < total:
            count = min(batch_size, total - start)
            yield lead, start, count
            start += count


def fq_scalar_coords(tower, k, lead, start, count):
    """Scalar coordinate rows (count, k*e) over F_p for one F_q block.

    F_q element #m is sum of base-p digits of m (reversed, lex order over the
    digit tuple) against the subfield F_p-basis.
    """
    q, p, e = tower.q, tower.p, tower.e
    out = np.zeros((count, k * e), dtype=np.int64)
    out[:, lead * e:(lead + 1) * e] = _one_scalar_coords(tower)[None, :]
    idx = np.arange(start, start + count, dtype=np.int64)
    ntails = k - 1 - lead
    for w in range(ntails):
        pos = lead + 1 + w
        sub = (idx // q ** (ntails - 1 - w)) % q
        out[:, pos * e:(pos + 1) * e] = element_coord_columns(sub, p, e)
    return out


def _one_scalar_coords(tower):
    """Coordinates of the F_q element 1 in the subfield F_p-basis."""
    bas = tower.fq_basis_fp
    # solve 1 = sum c_j u_j over F_p by elimination on the small basis
    import itertools
    p, e = tower.p, tower.e
    for combo in itertools.product(range(p), repeat=e):
        acc = 0
        for c, u in zip(combo, bas):
            acc = tower.add(acc, tower.mul(tower.embed_fp(c), u))
        if acc == 1:
            return np.array(combo, dtype=np.int64)
    raise RuntimeError("1 not in subfield basis span (internal fault)")


# ---- vector field ops on packed-int arrays (Zech tables required) ------------

def vec_mul(tower, a, b):
    exp, log = tower.tables
    Qm1 = tower.order - 1
    a = np.asarray(a)
    b = np.asarray(b)
    nz = (a != 0) & (b != 0)
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    la = log[np.where(a == 0, 1, a)]
    lb = log[np.where(b == 0, 1, b)]
    vals = exp[(la + lb) % Qm1]
    out[nz] = np.broadcast_to(vals, out.shape)[nz]
    return out


def vec_pow(tower, a, k: int):
    exp, log = tower.tables
    Qm1 = tower.order - 1
    a = np.asarray(a)
    out = np.zeros_like(a)
    nz = a != 0
    out[nz] = exp[(log[a[nz]] * (k % Qm1)) % Qm1]
    if k == 0:
        out[~nz] = 1
    return out


def vec_frob_q(tower, a, i: int):
    return vec_pow(tower, a, pow(tower.q, i % tower.n, tower.order - 1))


def vec_add(tower, a, b):
    if tower.p == 2:
        return np.asarray(a) ^ np.asarray(b)
    p, d = tower.p, tower.degree
    a = np.asarray(a).copy()
    b = np.asarray(b).copy()
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    mult = 1
    for _ in range(d):
        out += (a + b) % p * mult
        a = a // p
        b = b // p
        mult *= p
    return out


def vec_neg(tower, a):
    if tower.p == 2:
        return np.asarray(a)
    p, d = tower.p, tower.degree
    a = np.asarray(a).copy()
    out = np.zeros(a.shape, dtype=np.int64)
    mult = 1
    for _ in range(d):
        out += (-a) % p * mult
        a = a // p
        mult *= p
    return out


def vec_sub(tower, a, b):
    return vec_add(tower, a, vec_neg(tower, b))
