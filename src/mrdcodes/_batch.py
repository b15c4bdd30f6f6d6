"""Vectorized mod-p kernels for the scan engines.

Codewords of a support code are F_p-linear in their coefficient coordinates:
for coefficient coordinate rows A (batch x k*d) and the precomputed block
matrix L (k*d x d*d), the batch of d x d map matrices is (A @ L) % p.  A
general code's maps come from the same L on the full support {0, ..., n-1},
taken on the F_q-span of its basis (codes.GeneralCode.min_distance), and
the curve engine's from L on the coefficients of its line maps, so
SupportBlockMatrix is the one block matrix, and its rep_ranks() is the one
entry of the rank sweeps.  The sweeps never form A or the product: a map is
named by an index whose base-p digits are its coordinates, and it is the
sum of one row per block of digits from tables of L's digit combinations
(the table idea of the Method of Four Russians), built batch-last.
Ranks are taken by Gauss-Jordan vectorized over the batch dimension, which
is laid out last, (r, c, B), so that every step is a sweep over contiguous
rows of the batch.  Every batch is held in that layout and reduced through
eliminate(); only batch_rank, for batch-first (B, r, c) batches, transposes
to it and back.  At odd p the entries grow lazily between reductions
mod p, in the smallest integer dtype their bound fits (lazy_dtype; int8 at
p = 3 up to 31 columns).  At p = 2 the batch dimension is packed into bits,
eight matrices to a byte, and elimination is AND, OR and XOR on the packed
rows (bit slicing, as in M4RI); both follow the same pivot rule and leave
the same reduced batch.  rep_ranks() builds that packed batch from the bits
of the indices: a map entry is the XOR of the packed bit rows whose row of
L has a 1 there.

Element order everywhere is the canonical one from fields: element #m has
coordinates c_i = (m // p^(d-1-i)) % p.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fields import span_modp

INVERSE_TABLE_MAX = 1 << 20   # largest p whose inverses come from a table
TABLE_SPAN = 256              # most rows of a digit table of two or more digits


@functools.lru_cache(maxsize=None)
def inverse_table(p: int) -> np.ndarray:
    """inv[a] = a^{-1} mod p (inv[0] = 0); built once per p, read-only."""
    inv = np.zeros(p, dtype=np.int64)
    for a in range(1, p):
        inv[a] = pow(a, p - 2, p)
    inv.setflags(write=False)
    return inv


def inverses(a: np.ndarray, p: int) -> np.ndarray:
    """a^{-1} mod p entrywise (0 -> 0) for residues a, in a's dtype: read
    from inverse_table(p) up to INVERSE_TABLE_MAX, by pow(a, p - 2, p) per
    entry past it, where a table would not fit in memory."""
    if p <= INVERSE_TABLE_MAX:
        return inverse_table(p)[a].astype(a.dtype)
    return np.array([pow(int(x), p - 2, p) for x in a.flat],
                    dtype=a.dtype).reshape(a.shape)


def lazy_dtype(p: int, c: int):
    """The dtype eliminate works in on matrices of c columns, in which
    SupportBlockMatrix.index_maps builds its maps.  The entries start as
    residues and each of the c column steps subtracts at most one product
    of two residues, so every entry stays within (p-1) + c*(p-1)^2: the
    first of int8, int16, int32 and int64 that holds that bound, else
    Python ints (object).  int8 holds it at p = 3 up to c = 31, at p = 5 up
    to c = 7."""
    bound = (p - 1) + c * (p - 1) ** 2
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return object


def eliminate(m: np.ndarray, p: int) -> np.ndarray:
    """Ranks over F_p of the B matrices of residues m[:, :, b], shape
    (r, c, B) of dtype lazy_dtype(p, c), which are reduced in place.

    Gauss-Jordan vectorized over the batch: per column, each matrix picks
    its first unused row with a nonzero entry and clears the column from
    every other row with it.  At odd p that is _modp_eliminate; at p = 2
    the batch is packed into bits, eight matrices to a byte, eliminated by
    _gf2_eliminate and unpacked back into m.  Both leave the same reduced
    batch: pivot rows unnormalized, every used row with its first nonzero
    entry at its pivot column, that column zero in every other row, and
    the unused rows zero.
    """
    if p != 2:
        return _modp_eliminate(m, p)
    B = m.shape[2]
    bits = np.packbits(m, axis=2)                              # (r, c, ceil(B/8))
    ranks = _gf2_eliminate(bits, B)
    m[...] = np.unpackbits(bits, axis=2, count=B)
    return ranks


def batch_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks over F_p of a batch of matrices of residues in the batch-first
    layout (B, r, c), which is reduced in place: eliminate on a batch-last
    copy, written back."""
    m = np.ascontiguousarray(mats.transpose(1, 2, 0), dtype=lazy_dtype(p, mats.shape[2]))
    ranks = eliminate(m, p)
    mats[...] = m.transpose(2, 0, 1)
    return ranks


def _modp_eliminate(m: np.ndarray, p: int) -> np.ndarray:
    """Ranks of the B matrices of residues m[:, :, b], shape (r, c, B) of
    dtype lazy_dtype(p, c), which are reduced in place.

    Entries are reduced mod p lazily: column col is reduced just before it
    is tested, and after its step it is final, so the batch ends reduced
    with no pass of its own.  Per column a matrix's candidate rows are its
    unused rows with a nonzero entry there; the first one (no candidate
    above it: a prefix OR) is its pivot row, gathered by a masked sum over
    the rows and normalized.  Its entries left of col are zero, so only
    columns col.. of the other rows are updated.  A matrix without a
    candidate gathers a zero pivot row, which leaves it unchanged.
    """
    r, c, B = m.shape
    used = np.zeros((r, B), dtype=bool)
    for col in range(c):
        v = m[:, col]
        _reduce(v, p)
        cand = (v != 0) & ~used
        sel = cand.copy()
        sel[1:] &= ~np.logical_or.accumulate(cand[:-1], axis=0)
        pivot = (m[:, col:] * sel[:, None, :]).sum(axis=0, dtype=m.dtype)
        _reduce(pivot, p)
        pivot *= inverses(pivot[0], p)
        _reduce(pivot, p)
        m[:, col:] -= (v * ~sel)[:, None, :] * pivot
        used |= sel
    return used.sum(axis=0)


def _reduce(a: np.ndarray, p: int) -> None:
    """a %= p in place, as a -= a // p * p: numpy divides an integer array
    by a scalar with vectorized code, and its remainder is not, 13 times
    slower on int8 and 2 times on int64.  A product a // p * p that wraps
    is harmless, since the result is exact mod 2^bits and lies in [0, p)."""
    a -= a // p * p


def _gf2_eliminate(bits: np.ndarray, B: int) -> np.ndarray:
    """Ranks of the B matrices packed in bits, shape (r, c, ceil(B/8)),
    which are reduced in place.

    Bit b of byte w of bits[i, j] is entry (i, j) of matrix 8w + b, and
    used[i] holds the same bit for "row i is a pivot row".  Per column a
    matrix's candidate rows are its unused rows with a 1 there; the first
    one (no candidate above it: a prefix OR) is its pivot row, gathered by
    an OR over the rows, and XORed into every other row with a 1 in the
    column.  A matrix without a candidate gathers a zero pivot row.
    """
    r, c, _ = bits.shape
    used = np.zeros((r, bits.shape[2]), dtype=np.uint8)
    for col in range(c):
        cand = bits[:, col] & ~used
        sel = cand.copy()
        sel[1:] &= ~np.bitwise_or.accumulate(cand[:-1], axis=0)
        pivot = np.bitwise_or.reduce(bits & sel[:, None, :], axis=0)
        bits ^= (bits[:, col] & ~sel)[:, None, :] & pivot
        used |= sel
    return np.unpackbits(used, axis=1, count=B).sum(axis=0, dtype=np.int64)


def stacked_ranks(top: np.ndarray, bottom: np.ndarray, p: int):
    """(rank top, rank [top; bottom]) of two batch-last batches of shapes
    (r1, c, B) and (r2, c, B), from one elimination of the stacked batch,
    which concatenating the rows makes a fresh array.  A lower row becomes a
    pivot only where every unused top row is zero in its column, so the top
    block is reduced exactly as it would be alone and its rank is the number
    of its rows left nonzero."""
    m = np.concatenate([top, bottom]).astype(lazy_dtype(p, top.shape[1]), copy=False)
    both = eliminate(m, p)
    return m[:top.shape[0]].any(axis=1).sum(axis=0), both


def batch_kernels(mats: np.ndarray, p: int):
    """(ranks, kernels) over F_p of a batch-last batch of matrices, shape
    (r, c, B), which is left as it is.

    kernels has shape (B, c, c); for matrix b its first c - ranks[b] rows
    are a basis of {v : mats[:, :, b] v = 0}, one vector per free column fc
    in increasing order, and its other rows are zero.  They are read off a
    copy reduced by eliminate, seen as (B, r, c) and called m:
    v[fc] = 1, v[pc] = -m[i, fc] / m[i, pc] for the row i with pivot column
    pc, and 0 at the other free columns.
    """
    c = mats.shape[1]
    m = np.array(mats, dtype=lazy_dtype(p, c))
    ranks = eliminate(m, p)
    m = m.transpose(2, 0, 1)
    nz = m != 0
    lead = nz.argmax(axis=2)                                   # (B, r)
    pivot = (lead[:, :, None] == np.arange(c)) & nz.any(axis=2)[:, :, None]
    scale = inverses(np.take_along_axis(m, lead[:, :, None], axis=2)[:, :, 0], p)
    normed = m * scale[:, :, None] % p                         # pivots 1, unused rows 0
    # row fc: e_fc - sum_i normed[i, fc] e_{pivot column of i}; pivot rows vanish
    full = (np.eye(c, dtype=np.int64)
            - normed.transpose(0, 2, 1) @ pivot.astype(np.int64)) % p
    order = np.argsort(pivot.any(axis=1), axis=1, kind="stable")
    return ranks, np.take_along_axis(full, order[:, :, None], axis=1)


def element_coord_columns(idx: np.ndarray, p: int, d: int) -> np.ndarray:
    """Coordinates (column-major) of canonical elements #idx: shape (len, d)."""
    out = np.empty((idx.shape[0], d), dtype=np.int64)
    for i in range(d):
        out[:, i] = (idx // p ** (d - 1 - i)) % p
    return out


def distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-d array, as np.unique, which
    imports numpy.ma (about 14 ms) the first time it runs in a process."""
    s = np.sort(a)
    keep = np.ones(s.shape, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def _block_digits(p: int) -> int:
    """Digits per digit table: the largest b >= 1 with p^b <= TABLE_SPAN."""
    b = 1
    while p ** (b + 1) <= TABLE_SPAN:
        b += 1
    return b


class SupportBlockMatrix:
    """Precomputed L with rows (i*d + j) = flatten(Mult(g^j) @ Frob(u_i)) for a
    support-code with q-exponents u_0 < ... < u_{k-1}; Mult(g^j) is the j-th
    power of the companion matrix Mult(g) (FieldTower.mult_powers).  Given
    `rows` (m x k*d) over F_p, L is rows @ L instead: the block of the m
    codewords with those coordinates, whose F_p-combinations it maps.

    The sweeps name their maps by index: index_maps(idx, lead) is row `lead`
    of L plus the F_p-combination of L's last rows whose coefficients are
    the base-p digits of idx, the last row taking the least significant
    one.  A scan representative is lead = the first row of its lead
    coefficient and idx = its raw tail index: Q = p^d, so the tail's
    base-p digits are its coefficients' coordinates.  The maps are gathered
    from digit tables (`tables`; the table idea of the Method of Four
    Russians), and no coordinate rows are formed; matrices() forms the
    product of coordinate rows and L, as the tests' oracle.

    rep_ranks() is the rank sweeps' one entry.  At odd p it eliminates
    index_maps() in place.  At p = 2 the digits are bits: the bit rows of
    the indices are packed along the batch axis, eight to a byte, and each
    packed map entry is the XOR of the packed rows that L's boolean masks
    select, built straight in the layout _gf2_eliminate reduces (bit
    slicing, as in M4RI).
    """

    def __init__(self, tower, q_exponents, rows=None):
        self.tower = tower
        d, p = tower.degree, tower.p
        # entries here and in matrices() sum k*d products of two residues:
        # Python ints (object dtype) past int64, as in fields._matmul_modp
        dtype = np.int64 if len(q_exponents) * d * (p - 1) ** 2 < 1 << 63 else object
        powers = tower.mult_powers.astype(dtype, copy=False)
        L = np.stack([powers @ tower.frob_q_matrix(u) % p
                      for u in q_exponents]).reshape(-1, d * d)
        self.L = L if rows is None else rows @ L % p
        self.d = d
        # the map entries each coordinate row feeds, for the packed build
        self._masks = self.L.astype(bool) if p == 2 else None

    def matrices(self, coeff_coords: np.ndarray) -> np.ndarray:
        """(B, k*d) coordinate rows -> (B, d, d) map matrices mod p."""
        t = self.tower
        flat = coeff_coords @ self.L % t.p
        return flat.reshape(-1, self.d, self.d)

    @functools.cached_property
    def tables(self) -> list:
        """The digit tables of L, built on first use.  L's rows are cut into
        blocks of b = _block_digits(p) consecutive rows counted from the
        last one, so that table i takes digits i*b .. i*b+b-1 of an index
        (L's first block may be shorter).  Row v of table i, shape
        (p^b, d*d) in lazy_dtype(p, d), is the map of the block's rows
        combined with v's base-p digits as coefficients, reduced mod p:
        fields.span_modp of the block, outer sums with no product."""
        p, L, b = self.tower.p, self.L, _block_digits(self.tower.p)
        return [span_modp(L[max(end - b, 0):end], p).astype(lazy_dtype(p, self.d))
                for end in range(len(L), 0, -b)]

    def index_maps(self, idx: np.ndarray, lead=None) -> np.ndarray:
        """The maps L[lead] + sum_i digit_i(idx) L[m-1-i] over F_p, digit_i
        the base-p digit of weight p^i of idx < p^D, L of m rows and D of
        them after row lead (all m when lead is None, which drops the lead
        row).  Shape (d*d, B) in lazy_dtype(p, d), reduced mod p: column b
        is map b flattened, the batch-last layout _modp_eliminate reduces.

        One table row is gathered per block of digits; the rows are summed,
        reduced once and written batch-last.  An int64 idx has at most 40
        base-p digits at p = 3, 28 at p = 5, 23 at p = 7 and 19 at p = 11,
        so with p^b <= TABLE_SPAN the sum holds at most 11 residues where
        lazy_dtype is int8 (p <= 11), and it fits every wider one."""
        tables, p, dd = self.tables, self.tower.p, self.d * self.d
        m = self.L.shape[0]
        D = m if lead is None else m - 1 - lead
        b = _block_digits(p)
        acc = np.zeros((idx.shape[0], dd), dtype=tables[0].dtype)
        if lead is not None:
            acc += self.L[lead].astype(acc.dtype)
        rest = idx
        for table in tables[:-(-D // b)]:
            rest, digits = np.divmod(rest, p ** b)
            acc += table.take(digits, axis=0)
        _reduce(acc, p)
        return np.ascontiguousarray(acc.T)

    def rep_ranks(self, lead, idx: np.ndarray) -> np.ndarray:
        """Ranks over F_p of the maps index_maps(idx, lead), one per index."""
        d, p = self.d, self.tower.p
        if p != 2:
            return _modp_eliminate(self.index_maps(idx, lead).reshape(d, d, -1), p)
        B = idx.shape[0]
        D = self.L.shape[0] - 1 - lead
        # bit j of idx at column D-1-j of (B, D), then packed along the batch
        planes = np.unpackbits(np.ascontiguousarray(idx, dtype="<u8").view(np.uint8)
                               .reshape(B, 8), axis=1, count=D, bitorder="little")
        rows = np.packbits(planes[:, ::-1], axis=0).T              # (D, ceil(B/8))
        ones = np.packbits(np.ones(B, dtype=np.uint8))
        bits = np.zeros((d * d, (B + 7) // 8), dtype=np.uint8)
        for mask, row in [(self._masks[lead], ones),
                          *zip(self._masks[self.L.shape[0] - D:], rows)]:
            bits[mask] ^= row
        return _gf2_eliminate(bits.reshape(d, d, -1), B)


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
            for mv in distinct(m).tolist():
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
    out[nz] = exp[log[a[nz]].astype(np.int64) * (k % Qm1) % Qm1]   # can pass int32
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
