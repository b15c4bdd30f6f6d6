"""Exact arithmetic in the tower F_p < F_q = F_{p^e} < F_{q^n} = F_{p^{en}}.

Field elements are packed integers: x = sum(c_i * p**i) encodes the
coordinate vector (c_0, ..., c_{d-1}) of x in the power basis
{1, g, ..., g^{d-1}} of the residue class g of X modulo the tower modulus,
where d = e*n.  The modulus is the lexicographically smallest monic
irreducible of degree d over F_p, low-degree coefficients compared first,
so a tower is reproducible from (p, e, n) alone; no external polynomial
tables (Conway or otherwise) are consulted, and any constants appearing in
serialized certificates are relative to this modulus.

One matrix carries the p-power Frobenius: Q, the d x d matrix over F_p of
x -> x^p on F_p[X]/(m), column j the coordinates of X^(jp) mod m.  A
candidate modulus m is irreducible exactly when Q is injective and fixes
only F_p (Berlekamp's criterion: rank Q = d and rank(Q - I) = d - 1); the
tower caches Q and its powers as the matrices of the i-fold Frobenius, and
without Zech tables the scalar Frobenius is a product with them.

The subfield F_q is realized as the fixed field of the e-fold p-power
Frobenius; F_{q^n} is an n-dimensional F_q-space in the power basis of g.
Multiplication uses discrete-log (Zech) tables for fields up to TABLE_CAP
elements and falls back to polynomial arithmetic above that.  The tables
are int32, 8 bytes per element (exp holds Q-1 entries, log Q): every
packed element and every log is below Q <= TABLE_CAP = 2^23 < 2^31.  exp
is stored once, so a sum of logs is reduced mod Q-1 before it indexes
exp; a difference of two logs lies in (-(Q-1), Q-1) and indexes exp as
it is, since numpy counts a negative index from the end.  A product of a
log with an exponent can pass 2^31, so such products are taken in int64
or Python ints.  The tables are built in blocks of _ZECH_BLOCK powers of
the primitive element, each block the first one times a multiplication
matrix, with no scalar field arithmetic in the loop: at odd p in digits
reduced by floor division, at p = 2 packed, as XORs of byte tables of the
matrix's packed columns.  Without tables, a power a^k is column 0 of
Mult(a)^k, by square-and-multiply on matrices.

Enumeration always uses the canonical element order: element #m has
coordinates c_i = (m // p**(d-1-i)) % p, i.e. coordinate tuples in ascending
lexicographic order with the constant term compared first.
"""

from __future__ import annotations

import functools

import numpy as np

ENUM_CAP = 1 << 24    # full-field enumeration guard
TABLE_CAP = 1 << 23   # discrete-log table guard
_ZECH_BLOCK = 1 << 14  # powers per block of the Zech table build


class CapExceeded(RuntimeError):
    """An enumeration or search exceeded its configured cap."""


MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_EXACT_BELOW = 318665857834031151167461   # no strong pseudoprime to all MR_BASES below it


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin over the first twelve prime bases, exact
    below MR_EXACT_BELOW (about 3.2e23, past every p a tower accepts); an m
    at or above it with no factor among the bases raises ValueError."""
    if m < 2:
        return False
    if m in MR_BASES:
        return True
    if any(m % b == 0 for b in MR_BASES):
        return False
    if m >= MR_EXACT_BELOW:
        raise ValueError(f"is_prime is exact only below {MR_EXACT_BELOW}")
    s, t = 0, m - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for b in MR_BASES:
        x = pow(b, t, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def factorize(m: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs stay below 2**64 here)."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= m:
        while m % f == 0:
            out[f] = out.get(f, 0) + 1
            m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


# ----------------------------------------------------------------------------
# Dense polynomials over F_p: tuples of ints, constant term first, no
# trailing zeros.  Only used for the powers of X modulo a candidate modulus.
# ----------------------------------------------------------------------------

def _ptrim(f):
    i = len(f)
    while i > 0 and f[i - 1] == 0:
        i -= 1
    return tuple(f[:i])


def _pmod(f, m, p):
    # m monic
    f = list(f)
    dm = len(m) - 1
    for i in range(len(f) - 1, dm - 1, -1):
        c = f[i] % p
        if c:
            for j in range(dm + 1):
                f[i - dm + j] = (f[i - dm + j] - c * m[j]) % p
    return _ptrim(f[:dm])


def _x_power(k, m, p):
    """Coordinates (c_0, ..., c_{d-1}) of X^k modulo the monic m over F_p:
    the leading bits of k, while they stay at most 2d - 2, give one monomial
    reduced once; each further bit squares the residue and, for a 1,
    multiplies it by X."""
    d = len(m) - 1
    s = 0
    while k >> s > max(2 * d - 2, 1):
        s += 1
    r = _pmod((0,) * (k >> s) + (1,), m, p)
    for i in reversed(range(s)):
        bit = k >> i & 1
        sq = [0] * (2 * len(r) - 1 + bit)
        for a, x in enumerate(r):
            if x:
                for b, y in enumerate(r):
                    sq[a + b + bit] += x * y
        r = _pmod([c % p for c in sq], m, p)
    return tuple(r) + (0,) * (d - len(r))


def _frobenius_matrix(m, p):
    """Q, the d x d matrix over F_p of x -> x^p on F_p[X]/(m): column j
    holds the coordinates of X^(jp) mod m."""
    d = len(m) - 1
    return np.array([_x_power(j * p, m, p) for j in range(d)], dtype=np.int64).T


def _is_irreducible(m, p):
    """Monic m irreducible over F_p, by Berlekamp's criterion on
    A = F_p[X]/(m): A is a field exactly when its Frobenius Q is injective
    (A has no nilpotents, so m is squarefree) and fixes only F_p (a
    squarefree m has as many irreducible factors as Q - I has kernel
    dimensions).  rank(Q - I) goes first: one elimination rejects most
    reducible m."""
    d = len(m) - 1
    Q = _frobenius_matrix(m, p)
    return (len(rref_modp(Q - np.eye(d, dtype=np.int64), p)[1]) == d - 1
            and len(rref_modp(Q, p)[1]) == d)


def _lex_smallest_irreducible(p, d):
    """Smallest monic irreducible of degree d, coefficients (c_0,...,c_{d-1})
    compared lexicographically, constant term first."""
    if d == 1:
        return (0, 1)  # X itself
    # c_0 = 0 would make X a factor, so start past that block.  Berlekamp's
    # test alone decides; a root among 1..15 rejects a candidate more
    # cheaply, and the fixed bound keeps that prefilter's cost flat in p.
    for idx in range(p ** (d - 1), p ** d):
        coeffs = tuple((idx // p ** (d - 1 - i)) % p for i in range(d))
        m = coeffs + (1,)
        if any(sum(c * pow(r, i, p) for i, c in enumerate(m)) % p == 0
               for r in range(1, min(p, 16))):
            continue
        if _is_irreducible(m, p):
            return m
    raise RuntimeError("no irreducible polynomial found (internal fault)")


# ----------------------------------------------------------------------------
# The tower
# ----------------------------------------------------------------------------

class FieldTower:
    """Immutable description of F_p < F_q = F_{p^e} < F_{q^n}, with arithmetic.

    Safe to share across worker processes: construction fixes everything,
    operations are pure functions of their inputs.  Heavy lookup tables are
    built lazily on first use and never mutated afterwards.
    """

    def __init__(self, p: int, e: int, n: int):
        if e < 1 or n < 1:
            raise ValueError("extension degrees must be positive")
        d = e * n
        if p ** d > 1 << 64:
            raise ValueError("field too large for exact packed arithmetic")
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        self.p = p
        self.e = e
        self.n = n
        self.q = p ** e
        self.degree = d
        self.order = p ** d
        self.modulus = _lex_smallest_irreducible(p, d)
        # residue class of X; for d = 1 this is the degree-1 root -c_0
        self.generator = p % self.order if d > 1 else (-self.modulus[0]) % p
        self._pw = tuple(p ** i for i in range(d))
        # reduction rows: coords of g^(d+t) for t = 0..d-2, for fallback mul
        self._red = [_x_power(d + t, self.modulus, p) for t in range(d - 1)]
        self._tables = None
        self._frob_exp = None
        self._lazy = {}
        self._check_construction()

    # ---- construction helpers -------------------------------------------

    def _check_construction(self):
        # power basis of g spans over F_q: the change-of-basis matrix over
        # F_p must be invertible (verified when building it); the generator's
        # first n q-power-basis coordinates being independent follows.
        if self.degree > 1 and self._pow_fallback(self.generator, self.order - 1) != 1:
            raise RuntimeError("generator fails Lagrange check (internal fault)")

    # ---- packed coordinate plumbing --------------------------------------

    def coords(self, x: int) -> list[int]:
        """Power-basis coordinate vector (c_0, ..., c_{d-1}) of x over F_p."""
        p = self.p
        out = []
        for _ in range(self.degree):
            x, c = divmod(x, p)
            out.append(c)
        return out

    def element(self, coords) -> int:
        if len(coords) != self.degree:
            raise ValueError("coordinate vector has wrong length")
        p = self.p
        v = 0
        for c in reversed(coords):
            c = int(c) % p
            v = v * p + c
        return v

    def element_at(self, m: int) -> int:
        """The m-th element in canonical order (lexicographic on coords)."""
        p, d = self.p, self.degree
        v = 0
        for i in range(d):
            c = (m // p ** (d - 1 - i)) % p
            v += c * self._pw[i]
        return v

    def canonical_index(self, x: int) -> int:
        p, d = self.p, self.degree
        m = 0
        for i in range(d):
            x, c = divmod(x, p)
            m += c * p ** (d - 1 - i)
        return m

    # ---- scalar arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        out = 0
        mult = 1
        for _ in range(self.degree):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        out = 0
        mult = 1
        for _ in range(self.degree):
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        t = self.tables
        if t is not None:
            exp, log = t
            s = int(log[a]) + int(log[b])
            return int(exp[s - len(exp) if s >= len(exp) else s])
        return self._mul_fallback(a, b)

    def _mul_fallback(self, a, b):
        p, d = self.p, self.degree
        ca, cb = self.coords(a), self.coords(b)
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    conv[i + j] = (conv[i + j] + x * y) % p
        out = conv[:d]
        for t, c in enumerate(conv[d:]):
            if c:
                row = self._red[t]
                for j in range(d):
                    out[j] = (out[j] + c * row[j]) % p
        return self.element(out)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        t = self.tables
        if t is not None:
            exp, log = t
            return int(exp[-int(log[a])])   # h^-i is exp[Q-1-i], exp[0] at i = 0
        return self.pow(a, self.order - 2)

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        if a == 0:
            return 0 if k else 1
        t = self.tables
        if t is not None:
            exp, log = t
            return int(exp[(int(log[a]) * k) % (self.order - 1)])
        return self._pow_fallback(a, k)

    def frobenius_q(self, x: int, i: int = 1) -> int:
        """x^(q^i), exponent reduced mod n."""
        i %= self.n
        if x == 0 or i == 0:
            return x
        t = self.tables
        if t is not None:
            exp, log = t
            if self._frob_exp is None:
                self._frob_exp = tuple(pow(self.q, j, self.order - 1)
                                       for j in range(self.n))
            return int(exp[(int(log[x]) * self._frob_exp[i]) % (self.order - 1)])
        return self._apply(self.frob_q_matrix(i), x)

    def frobenius_p(self, x: int, i: int = 1) -> int:
        """x^(p^i)."""
        i %= self.degree
        if x == 0 or i == 0:
            return x
        if self.tables is not None:
            return self.pow(x, pow(self.p, i, self.order - 1))
        return self._apply(self.frob_p_matrix(i), x)

    def _apply(self, M, x: int) -> int:
        """The element with coordinates M @ coords(x)."""
        return self.element(_matmul_modp(M, np.array(self.coords(x)), self.p).tolist())

    def rel_trace(self, x: int) -> int:
        """Trace from F_{q^n} onto the embedded F_q: x + x^q + ... + x^{q^{n-1}}."""
        acc = 0
        y = x
        for _ in range(self.n):
            acc = self.add(acc, y)
            y = self.frobenius_q(y, 1)
        return acc

    # ---- lazy heavy structures --------------------------------------------

    @property
    def tables(self):
        """(exp, log) Zech tables, or None when the field exceeds TABLE_CAP.
        Both int32 (values below Q <= 2^23), 8 bytes per element:
        exp[i] = h^i for 0 <= i < Q-1, and log[x] is the i < Q-1 with
        h^i = x, log[0] = -1.  A sum of two logs is reduced mod Q-1 before
        it indexes exp."""
        if self._tables is None:
            if self.order > TABLE_CAP:
                return None
            self._tables = self._build_tables()
        return self._tables

    def _find_primitive(self) -> int:
        """Smallest element (canonical order) of multiplicative order p^d - 1."""
        fac = factorize(self.order - 1)
        cofactors = [(self.order - 1) // ell for ell in fac]
        for m in range(1, self.order):
            h = self.element_at(m)
            if all(self._pow_fallback(h, c) != 1 for c in cofactors):
                return h
        raise RuntimeError("no primitive element found (internal fault)")

    def _pow_fallback(self, a, k):
        """a^k without tables: column 0 of Mult(a)^k, the coordinates of
        a^k * 1, by square-and-multiply on matrices through _matmul_modp.
        The powers of Mult(a) commute, so the column is carried as one
        vector and each set bit of k costs a matrix-vector product."""
        p = self.p
        col = np.zeros(self.degree, dtype=np.int64)
        col[0] = 1
        M = self.mult_matrix(a)
        while k:
            if k & 1:
                col = _matmul_modp(M, col, p)
            k >>= 1
            if k:
                M = _matmul_modp(M, M, p)
        return self.element(col.tolist())

    @property
    def mult_powers(self) -> np.ndarray:
        """Mult(g^j) for j = 0..d-1, shape (d, d, d), read-only: the powers
        of the companion matrix Mult(g).  Column i of Mult(g^j) holds the
        coordinates of g^(i+j), a unit vector below d and a reduction row
        (_red) from there, so no product is needed."""
        key = "multpow"
        if key not in self._lazy:
            d = self.degree
            cols = np.concatenate([np.eye(d, dtype=np.int64),
                                   np.array(self._red, dtype=np.int64).reshape(-1, d)])
            P = np.stack([cols[j:j + d].T for j in range(d)])
            P.setflags(write=False)
            self._lazy[key] = P
        return self._lazy[key]

    def mult_matrix(self, a: int) -> np.ndarray:
        """d x d matrix over F_p of y -> a*y, columns indexed by power basis:
        sum_j a_j Mult(g^j) for the coordinates a_j of a."""
        return self._mult_of_coords(np.array(self.coords(a)))

    def _mult_of_coords(self, c: np.ndarray) -> np.ndarray:
        """mult_matrix of the element with coordinate vector c."""
        d = self.degree
        return _matmul_modp(c, self.mult_powers.reshape(d, d * d), self.p).reshape(d, d)

    def _build_tables(self):
        """The `tables` of h, the smallest primitive element, built block by
        block into exp, so no Q-sized digit matrix or int64 array is formed.
        The first _ZECH_BLOCK powers are built by doubling (h^s.. from h^0..
        by one product with Mult(h^s)); every later block is that first
        block times Mult(h^start).  Each multiplier comes from the last
        power already held: its coordinates times Mult(h), with no scalar
        field arithmetic.  At odd p a block is a digit-major array, packed
        by Horner's rule into its slice of exp; at p = 2 it is packed from
        the start, and a product is an XOR of byte tables of Mult's packed
        columns (_times_packed_gf2)."""
        Q, d, p = self.order, self.degree, self.p
        mult_h = self.mult_matrix(self._find_primitive())
        size = min(_ZECH_BLOCK, Q - 1)
        if p == 2:
            first = np.zeros(size, dtype=np.int32)   # packed: entry i is h^i
        else:
            # the digit matmul sums d products of digits below p
            dtype = np.int16 if d * (p - 1) ** 2 < 1 << 15 else np.int64
            first = np.zeros((d, size), dtype=dtype)   # digit-major: column i is h^i
        first.flat[0] = 1   # the element 1

        def times_next(last, X):
            # X times Mult(h^(k+1)), for last the held power h^k
            if p == 2:
                last = int(last) >> np.arange(d) & 1
            M = self._mult_of_coords(_matmul_modp(mult_h, last, p))
            return _times_packed_gf2(M, X) if p == 2 else _times_digits(M, X, p)

        filled = 1
        while filled < size:
            step = min(filled, size - filled)
            first[..., filled:filled + step] = times_next(first[..., filled - 1],
                                                          first[..., :step])
            filled += step
        exp = np.empty(Q - 1, dtype=np.int32)
        log = np.full(Q, -1, dtype=np.int32)
        for start in range(0, Q - 1, size):
            cnt = min(size, Q - 1 - start)
            block = first[..., :cnt]
            if start:
                block = times_next(last, block)
            # a copy: a view would keep the whole block alive
            last = block[..., -1].copy()
            out = exp[start:start + cnt]
            if p == 2:
                out[:] = block
            else:
                out[:] = block[d - 1]
                for j in range(d - 2, -1, -1):   # Horner's rule
                    out *= p
                    out += block[j]
            log[out] = np.arange(start, start + cnt, dtype=np.int32)
        if log[1] != 0 or int(exp[0]) != 1:
            raise RuntimeError("table construction failed (internal fault)")
        return exp, log

    # ---- subfield and q-coordinates ----------------------------------------

    def fixed_field(self, k: int) -> tuple:
        """The p^k elements with x^(p^k) = x (k dividing the degree),
        canonical order."""
        key = ("fixed", k)
        if key not in self._lazy:
            p, d = self.p, self.degree
            if k < 1 or d % k:
                raise ValueError(f"k={k} must divide the degree {d}")
            span = span_modp(self._fixed_basis(k), p).tolist()
            self._lazy[key] = tuple(sorted(map(self.element, span),
                                           key=self.canonical_index))
        return self._lazy[key]

    def _fixed_basis(self, k: int) -> list:
        """F_p-basis of the fixed field of the k-fold p-Frobenius: the kernel
        of (phi_p^k - id) as an F_p-linear map, as coordinate vectors."""
        mat = self.frob_p_matrix(k) - np.eye(self.degree, dtype=np.int64)
        basis = nullspace_modp(mat, self.p)
        if len(basis) != k:
            raise RuntimeError("fixed field has wrong size (internal fault)")
        return basis

    @property
    def subfield_elements(self) -> tuple:
        """All q elements of the embedded F_q, canonical order."""
        return self.fixed_field(self.e)

    def embed_fp(self, c: int) -> int:
        """The prime-field constant c*1 as a field element."""
        return c % self.p

    def frob_p_matrix(self, i: int = 1) -> np.ndarray:
        """d x d F_p matrix of the i-fold p-power Frobenius: Q^i, for Q the
        matrix of x -> x^p (column j the coordinates of g^(jp)), cached
        power by power."""
        i %= self.degree
        key = ("frobp", i)
        if key not in self._lazy:
            if i == 0:
                M = np.eye(self.degree, dtype=np.int64)
            elif i == 1:
                M = _frobenius_matrix(self.modulus, self.p)
            else:
                M = _matmul_modp(self.frob_p_matrix(i - 1), self.frob_p_matrix(1), self.p)
            self._lazy[key] = M
        return self._lazy[key]

    def frob_q_matrix(self, i: int = 1) -> np.ndarray:
        return self.frob_p_matrix((self.e * i) % self.degree)

    @property
    def q_basis(self) -> tuple:
        """Power basis (1, g, ..., g^{n-1}) of F_{q^n} over F_q."""
        return tuple(self.pow(self.generator, i) for i in range(self.n))

    @property
    def _qcoord_machinery(self):
        """Inverse change-of-basis from power-basis F_p coords to (q-coord blocks)."""
        key = "qcoords"
        if key not in self._lazy:
            d, e, n, p = self.degree, self.e, self.n, self.p
            # F_p-basis of F_q: the reduced echelon rows of the fixed-field
            # kernel, last pivot first (the greedy choice of the first e
            # nonzero subfield elements, in canonical order, that raise the
            # F_p-rank, without listing F_q)
            rows = rref_modp(self._fixed_basis(e), p)[0][::-1]
            bas = [self.element(r.tolist()) for r in rows]
            B = np.zeros((d, d), dtype=np.int64)
            qb = self.q_basis
            for i in range(n):
                for j in range(e):
                    B[:, i * e + j] = self.coords(self.mul(bas[j], qb[i]))
            Binv = inverse_modp(B, p)
            self._lazy[key] = (tuple(bas), Binv)
        return self._lazy[key]

    @property
    def fq_basis_fp(self) -> tuple:
        """An F_p-basis (u_0..u_{e-1}) of the embedded F_q."""
        return self._qcoord_machinery[0]

    def fq_span_rows(self, vecs) -> np.ndarray:
        """The F_p rows u*v, u in fq_basis_fp, of the vectors v in `vecs`
        (shape (m, b*d): b blocks of d power-basis coordinates, each block
        multiplied by u); row i*e + j is u_j*v_i.  They span the F_q-span of
        the vectors, whose F_q-rank is therefore their F_p-rank over e."""
        key = "fqmults"
        if key not in self._lazy:
            # row-vector form: coords(u*x) = coords(x) @ Mult(u)^T
            self._lazy[key] = np.stack([self.mult_matrix(u).T
                                        for u in self.fq_basis_fp])
        v = np.asarray(vecs, dtype=np.int64)
        m, width = v.shape
        blocks = v.reshape(m, 1, width // self.degree, self.degree)
        return (blocks @ self._lazy[key] % self.p).reshape(m * self.e, width)

    def q_coords(self, x: int) -> tuple:
        """Coordinates of x over F_q in the power basis, as embedded F_q elements."""
        bas, Binv = self._qcoord_machinery
        v = np.array(self.coords(x), dtype=np.int64)
        w = Binv @ v % self.p
        out = []
        for i in range(self.n):
            acc = 0
            for j in range(self.e):
                c = int(w[i * self.e + j])
                if c:
                    acc = self.add(acc, self.mul(self.embed_fp(c), bas[j]))
            out.append(acc)
        return tuple(out)

    def from_q_coords(self, v) -> int:
        if len(v) != self.n:
            raise ValueError("q-coordinate vector has wrong length")
        acc = 0
        for i, c in enumerate(v):
            acc = self.add(acc, self.mul(c, self.q_basis[i]))
        return acc

    # ---- enumeration --------------------------------------------------------

    def enumerate_field(self):
        """All elements, canonical order.  Requires order <= ENUM_CAP."""
        if self.order > ENUM_CAP:
            raise CapExceeded(f"field of {self.order} elements exceeds ENUM_CAP")
        for m in range(self.order):
            yield self.element_at(m)

    def elements_array(self) -> np.ndarray:
        """Packed values in canonical order (numpy, cached)."""
        key = "elems"
        if key not in self._lazy:
            if self.order > ENUM_CAP:
                raise CapExceeded(f"field of {self.order} elements exceeds ENUM_CAP")
            p, d = self.p, self.degree
            idx = np.arange(self.order, dtype=np.int64)
            v = np.zeros_like(idx)
            for i in range(d):
                v += (idx // p ** (d - 1 - i)) % p * p ** i
            self._lazy[key] = v
        return self._lazy[key]

    # ---- serialization -------------------------------------------------------

    def descriptor(self) -> dict:
        return {"p": self.p, "e": self.e, "n": self.n,
                "modulus": list(self.modulus)}

    def element_to_json(self, x: int) -> list[int]:
        return self.coords(x)

    def element_from_json(self, coords) -> int:
        return self.element([int(c) for c in coords])

    def __repr__(self):
        return f"FieldTower(p={self.p}, e={self.e}, n={self.n})"


# ----------------------------------------------------------------------------
# exact mod-p linear algebra: one Gauss-Jordan and its uses
# ----------------------------------------------------------------------------

def _matmul_modp(a, b, p):
    """a @ b mod p for residue arrays, as int64: the sum of inner-dimension
    products of residues runs in Python ints (object dtype) past int64."""
    dtype = np.int64 if a.shape[-1] * (p - 1) ** 2 < 1 << 63 else object
    return (a.astype(dtype, copy=False) @ b.astype(dtype, copy=False) % p).astype(np.int64)


def _times_digits(M, X, p):
    """M @ X mod p for a d x d matrix M over F_p and a digit-major block X
    (d, B) whose dtype holds d(p-1)^2, as d rank-one updates: numpy runs
    them as vector operations, where its integer matmul, which has no BLAS,
    took seven to nine times as long at d = 8 to 22 and B = 2^14 (2-vCPU
    Xeon, numpy 2.4).  The sum is reduced in place by floor division, as
    _batch._reduce does, into the one scratch block: numpy's integer
    remainder is not vectorized, and out -= out // p * p would allocate
    two more blocks."""
    M = M.astype(X.dtype)
    out = M[:, :1] * X[0]
    tmp = np.empty_like(out)
    for j in range(1, len(X)):
        out += np.multiply(M[:, j:j + 1], X[j], out=tmp)
    np.floor_divide(out, p, out=tmp)
    tmp *= p
    out -= tmp
    return out


def _times_packed_gf2(M, x):
    """M @ x over F_2 for a d x d matrix M and packed int32 elements x (bit
    i is coordinate i), as packed int32: the XOR over k of T_k[(x >> 8k) &
    255], where T_k[b] is the XOR of the packed columns 8k + i of M for
    the set bits i of b (M4RI's tables; Albrecht, Bard and Hart, ACM TOMS
    37(1), 2010)."""
    d = len(M)
    cols = (M << np.arange(d)[:, None]).sum(axis=0)   # packed columns
    out = np.zeros_like(x)
    idx = np.empty_like(x)
    for k in range(0, d, 8):
        chunk = cols[k:k + 8]
        table = np.zeros(1 << len(chunk), dtype=x.dtype)
        for i, c in enumerate(chunk):   # T[b + 2^i] = T[b] ^ column i
            table[1 << i:2 << i] = table[:1 << i] ^ c
        np.right_shift(x, k, out=idx)
        idx &= len(table) - 1
        out ^= table[idx]
    return out


def _residue_dtype(p):
    """int64 while the product of two residues fits it, Python ints (object
    dtype) for larger p, so that elimination is exact for every prime."""
    return np.int64 if (p - 1) ** 2 < 1 << 63 else object


def rref_modp(mat, p):
    """Reduced row echelon form of mat over F_p and its pivot columns.
    Deterministic: each column's pivot is the first row at or below the
    current one with a nonzero entry."""
    m = np.array(mat, dtype=_residue_dtype(p)) % p
    rows, cols = m.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        sel = r + int(nz[0])
        m[[r, sel]] = m[[sel, r]]
        m[r] = m[r] * pow(int(m[r, c]), p - 2, p) % p
        factors = m[:, c].copy()
        factors[r] = 0
        m = (m - np.outer(factors, m[r])) % p
        pivots.append(c)
    return m, pivots


def span_modp(basis, p):
    """All p^k F_p-combinations of the k basis vectors, as rows; row m has
    the coefficients of m's base-p digits, most significant first.  Built
    by an outer sum per basis vector, the last one first, in the smallest
    unsigned dtype that holds the sum of two residues."""
    basis = np.asarray(basis, dtype=np.int64)
    out = np.zeros((1, basis.shape[1]), dtype=np.min_scalar_type(2 * (p - 1)))
    for row in basis[::-1]:
        multiples = (np.arange(p)[:, None] * row % p).astype(out.dtype)
        out = subtract_p_once(multiples[:, None, :] + out, p).reshape(-1, basis.shape[1])
    return out


def subtract_p_once(a, p):
    """Entries below 2p of an unsigned array reduced mod p, in place and
    without a division: a - p wraps around above every entry below p, so
    the minimum subtracts p exactly where a >= p."""
    return np.minimum(a, a - a.dtype.type(p), out=a)


def nullspace_modp(mat, p):
    """Echelon-form nullspace basis of mat over F_p, one vector per free
    column (deterministic)."""
    m, pivots = rref_modp(mat, p)
    cols = m.shape[1]
    basis = []
    for fc in sorted(set(range(cols)) - set(pivots)):
        v = np.zeros(cols, dtype=m.dtype)
        v[fc] = 1
        for r, c in enumerate(pivots):
            v[c] = (-m[r, fc]) % p
        basis.append(v)
    return basis


def solve_modp(A, b, p):
    """One solution of A x = b over F_p, or None when there is none."""
    dtype = _residue_dtype(p)
    A = np.asarray(A, dtype=dtype)
    cols = A.shape[1]
    m, pivots = rref_modp(np.concatenate([A, np.reshape(np.asarray(b, dtype=dtype),
                                                        (-1, 1))], axis=1), p)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=m.dtype)
    for r, c in enumerate(pivots):
        x[c] = m[r, cols]
    return x


def inverse_modp(mat, p):
    """Inverse of a square matrix over F_p; ValueError when it is singular."""
    d = len(mat)
    dtype = _residue_dtype(p)
    m, pivots = rref_modp(np.concatenate([np.asarray(mat, dtype=dtype),
                                          np.eye(d, dtype=dtype)], axis=1), p)
    if pivots[:d] != list(range(d)):
        raise ValueError("matrix is singular mod p")
    return m[:, d:]


@functools.lru_cache(maxsize=None)
def make_tower(p: int, e: int, n: int) -> FieldTower:
    """Deterministic tower for F_p < F_{p^e} < F_{p^{en}} (cached)."""
    return FieldTower(p, e, n)


def tower_from_descriptor(desc: dict) -> FieldTower:
    t = make_tower(int(desc["p"]), int(desc["e"]), int(desc["n"]))
    if "modulus" in desc and list(t.modulus) != [int(c) for c in desc["modulus"]]:
        raise ValueError("descriptor modulus does not match the deterministic tower")
    return t
