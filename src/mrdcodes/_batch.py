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

import math

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


class OrbitSweep:
    """Canonical projective representatives of a support code's codewords.

    f -> b*f(a*x) keeps rank and acts on coefficients as
    c_i -> b * c_i * a^(q^u_i).  A projective representative has its lead
    (first nonzero) coefficient 1 at position `lead`, which fixes b; on the
    tail the action is log c_i -> log c_i + d_i * alpha with a = g^alpha and
    d_i = q^u_i - q^u_lead mod G, G = Q - 1.  The canonical representative
    of an orbit is its member of smallest raw index (tail coefficients
    compared by canonical element index, first tail position most
    significant), so the canonical representatives of an orbit-reduced
    sweep come in raw order and the first bad one is the raw sweep's first
    witness.

    Walking the tail with the stabiliser "multiples of m in Z/G" (m = 1 at
    the start), a nonzero c_i is canonical iff its index is the smallest in
    the coset log c_i + gcd(G, m*d_i)Z, and then m <- G / gcd(G/m, d_i); a
    zero keeps m.  The orbit size is the final m.  The allowed set at a
    position depends only on m, and m only on the zero pattern so far, so
    representatives are unranked position by position from the subtree
    sizes.  Without Zech tables the group is taken trivial (every d_i = 0):
    every representative is canonical with orbit size 1.
    """

    def __init__(self, tower, q_exponents):
        self.tower = tower
        self.k = len(q_exponents)
        G = self.G = tower.order - 1
        acts = tower.tables is not None
        qpow = [pow(tower.q, u, G) for u in q_exponents]
        self.diffs = [[(qu - qpow[lead]) % G * acts for qu in qpow[lead + 1:]]
                      for lead in range(self.k)]
        self._canon_of_log = None
        self._allowed = {}
        self._sizes = {}
        self.counts = [self._size(lead, 0, 1) for lead in range(self.k)]

    def _step(self, lead, j, m):
        """(coset step s, next m) at tail position j under stabiliser step m."""
        G, dj = self.G, self.diffs[lead][j]
        return math.gcd(G, m * dj), G // math.gcd(G // m, dj)

    def _size(self, lead, j, m):
        """Number of canonical tails from position j on, given step m."""
        key = (lead, j, m)
        if key not in self._sizes:
            if j == len(self.diffs[lead]):
                self._sizes[key] = 1
            else:
                s, m2 = self._step(lead, j, m)
                self._sizes[key] = (self._size(lead, j + 1, m)
                                    + s * self._size(lead, j + 1, m2))
        return self._sizes[key]

    def _allowed_values(self, s):
        """Sorted canonical indices of the nonzero elements that are the
        smallest of their coset log + sZ (s a proper divisor of G)."""
        if s not in self._allowed:
            if self._canon_of_log is None:
                exp, _ = self.tower.tables
                self._canon_of_log = self.tower.canonical_index(exp[:self.G])
            mins = self._canon_of_log.reshape(self.G // s, s).min(axis=0)
            self._allowed[s] = np.sort(mins)
        return self._allowed[s]

    def representatives(self, lead, start, count):
        """Canonical representatives #start..#start+count-1 of one lead:
        (tails, raw, orbit), with tails the (count, k-1-lead) canonical
        element indices of the tail coefficients, raw their raw tail
        indices and orbit their orbit sizes."""
        Q = self.tower.order
        ntails = len(self.diffs[lead])
        r = np.arange(start, start + count, dtype=np.int64)
        m = np.ones(count, dtype=np.int64)
        tails = np.zeros((count, ntails), dtype=np.int64)
        for j in range(ntails):
            m_next = m.copy()
            for mv in np.unique(m).tolist():
                idx = np.flatnonzero(m == mv)
                n0 = self._size(lead, j + 1, mv)
                idx = idx[r[idx] >= n0]
                if idx.size == 0:
                    continue
                s, m2 = self._step(lead, j, mv)
                n1 = self._size(lead, j + 1, m2)
                rest = r[idx] - n0
                which = rest // n1
                tails[idx, j] = which + 1 if s == self.G else \
                    self._allowed_values(s)[which]
                r[idx] = rest % n1
                m_next[idx] = m2
            m = m_next
        raw = tails @ (Q ** np.arange(ntails - 1, -1, -1, dtype=np.int64))
        return tails, raw, m

    def chunks(self, first, cap):
        """(lead, start, count) blocks covering every canonical
        representative in raw order; sizes start at `first` and double up
        to `cap`, so an early witness costs little."""
        size = min(first, cap)
        for lead, total in enumerate(self.counts):
            start = 0
            while start < total:
                count = min(size, total - start)
                yield lead, start, count
                start += count
                size = min(2 * size, cap)

    def lead_offset(self, lead):
        """Raw projective index of the first representative of `lead`."""
        Q = self.tower.order
        return sum(Q ** (self.k - 1 - i) for i in range(lead))


def projective_coords(tower, lead, tails):
    """Coordinate rows (count, k*d) of representatives with lead coefficient
    1 at `lead` and tail coefficients of canonical indices `tails`, shape
    (count, k-1-lead)."""
    d = tower.degree
    k = lead + 1 + tails.shape[1]
    out = np.zeros((tails.shape[0], k * d), dtype=np.int64)
    out[:, lead * d] = 1
    for w in range(tails.shape[1]):
        pos = lead + 1 + w
        out[:, pos * d:(pos + 1) * d] = element_coord_columns(tails[:, w], tower.p, d)
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
