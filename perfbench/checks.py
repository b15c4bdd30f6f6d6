"""Checks on the program's outputs, computed apart from the engines.

Nothing here calls into mrdcodes.  Field arithmetic is schoolbook
polynomial multiplication modulo the tower modulus that a certificate
records, roots are counted by evaluating a codeword at every field element,
totals are recomputed from their formulas, and the classification is
checked against Burnside's count and progressions built from their
definition.  Every check returns a list of error strings; an empty list
means the output passed.
"""

from __future__ import annotations

import math

import numpy as np


class Field:
    """F_{p^d} as F_p[X] modulo a monic modulus (constant term first).

    Elements are coordinate vectors in the power basis of X; the packed
    integer form sum(c_i p^i) is used only to compare with the program.
    """

    def __init__(self, p: int, e: int, n: int, modulus):
        self.p, self.e, self.n = p, e, n
        self.d = e * n
        self.q = p ** e
        self.order = p ** self.d
        self.modulus = [int(c) % p for c in modulus]
        if len(self.modulus) != self.d + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree e*n")

    @classmethod
    def from_descriptor(cls, desc):
        return cls(desc["p"], desc["e"], desc["n"], desc["modulus"])

    def unpack(self, x: int) -> list[int]:
        out = []
        for _ in range(self.d):
            x, c = divmod(int(x), self.p)
            out.append(c)
        return out

    def pack(self, coords) -> int:
        v = 0
        for c in reversed(list(coords)):
            v = v * self.p + int(c) % self.p
        return v

    def mul(self, a, b) -> list[int]:
        """Schoolbook product of two coordinate vectors, reduced."""
        p, d, m = self.p, self.d, self.modulus
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        for top in range(2 * d - 2, d - 1, -1):
            c = conv[top] % p
            if c:
                for j in range(d + 1):
                    conv[top - d + j] -= c * m[j]
        return [v % p for v in conv[:d]]

    def basis_power(self, k: int) -> list[int]:
        """Coordinates of X^k."""
        r = [1] + [0] * (self.d - 1)
        x = [0, 1] + [0] * (self.d - 2) if self.d > 1 else [(-self.modulus[0]) % self.p]
        while k:
            if k & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            k >>= 1
        return r

    def mult_matrix(self, c) -> np.ndarray:
        """d x d matrix of y -> c*y acting on coordinate columns."""
        cols = [self.mul(c, self.basis_power(j)) for j in range(self.d)]
        return np.array(cols, dtype=np.int64).T

    def frob_p_matrix(self) -> np.ndarray:
        """d x d matrix of y -> y^p (F_p-linear): column j is X^{jp}."""
        cols = [self.basis_power(j * self.p) for j in range(self.d)]
        return np.array(cols, dtype=np.int64).T

    def frob_q_matrix(self) -> np.ndarray:
        """d x d matrix of y -> y^q, the e-th power of the p-Frobenius."""
        Fp = self.frob_p_matrix()
        Fq = np.eye(self.d, dtype=np.int64)
        for _ in range(self.e):
            Fq = Fq @ Fp % self.p
        return Fq

    def linear_map(self, coeffs) -> np.ndarray:
        """Matrix of x -> sum_i c_i x^{q^i} for coefficient vectors c_i."""
        p, d = self.p, self.d
        Fq = self.frob_q_matrix()
        A = np.zeros((d, d), dtype=np.int64)
        Fi = np.eye(d, dtype=np.int64)
        for c in coeffs:
            if any(c):
                A = (A + self.mult_matrix(c) @ Fi) % p
            Fi = Fq @ Fi % p
        return A

    def count_roots(self, coeffs) -> int:
        """Number of x in F_{p^d} with f(x) = 0, by evaluating f at every
        element of the field."""
        p, d = self.p, self.d
        A = self.linear_map(coeffs)
        idx = np.arange(self.order, dtype=np.int64)
        vals = np.zeros((self.order, d), dtype=np.int64)
        for j in range(d):
            vals += ((idx // p ** j) % p)[:, None] * A[:, j][None, :]
        return int((~(vals % p).any(axis=1)).sum())


def lex_smallest_irreducible(p: int, d: int) -> list[int]:
    """The monic irreducible of degree d over F_p that is smallest with
    low-degree coefficients compared first, found by trial division."""
    def divides(g, f):
        r = list(f)
        for top in range(len(r) - 1, len(g) - 2, -1):
            c = r[top] % p
            if c:
                for j in range(len(g)):
                    r[top - len(g) + 1 + j] -= c * g[j]
        return not any(v % p for v in r[:len(g) - 1])

    def monic(deg):
        for m in range(p ** deg):
            yield [(m // p ** (deg - 1 - i)) % p for i in range(deg)] + [1]

    for f in monic(d):
        if not any(divides(g, f) for k in range(1, d // 2 + 1) for g in monic(k)):
            return f
    raise ValueError(f"no irreducible of degree {d} over F_{p}")


def projective_total(q: int, n: int, k: int) -> int:
    Q = q ** n
    return (Q ** k - 1) // (Q - 1)


def check_zech(tower, rng, draws: int) -> list[str]:
    """Products from the program's tables against schoolbook products."""
    desc = tower.descriptor()
    F = Field.from_descriptor(desc)
    errors = []
    for _ in range(draws):
        a = rng.randrange(1, F.order)
        b = rng.randrange(1, F.order)
        want = F.pack(F.mul(F.unpack(a), F.unpack(b)))
        got = tower.mul(a, b)
        if got != want:
            errors.append(f"zech product {a}*{b} at p={F.p} e={F.e} n={F.n}: "
                          f"{got} != schoolbook {want}")
            break
    return errors


def check_certificate(cert: dict) -> list[str]:
    """Scan totals, trinomial totals and witnesses of one certificate."""
    desc, tw = cert["code"], cert["tower"]
    p, e, n = tw["p"], tw["e"], tw["n"]
    q = p ** e
    where = f"{desc.get('T')} at q={q} n={n} ({cert['method']})"
    T = sorted(int(t) % n for t in desc["T"])
    support = {(int(desc.get("s", 1)) * t) % n for t in T}
    k = len(T)
    if cert["verdict"] == "MRD":
        if cert["method"] == "scan" and cert["scanned"] != projective_total(q, n, k):
            return [f"MRD scan of {where} covered {cert['scanned']} "
                    f"of {projective_total(q, n, k)} representatives"]
        if cert["method"] == "trinomial" and cert["scanned"] != q ** n:
            return [f"MRD trinomial sweep of {where} covered {cert['scanned']} "
                    f"of {q ** n} values of t"]
        if cert["method"] == "curve" and cert["scanned"] != q ** (2 * n):
            return [f"MRD curve scan of {where} covered {cert['scanned']} "
                    f"of {q ** (2 * n)} affine points"]
        return []
    if cert["verdict"] != "NOT_MRD":
        return [f"verdict {cert['verdict']} for {where}"]
    codeword = cert["witness"]["codeword"]
    if len(codeword) != n:
        return [f"witness of {where} has {len(codeword)} coefficients"]
    off = [i for i, c in enumerate(codeword) if any(c) and i not in support]
    if off:
        return [f"witness of {where} has terms outside the support: {off}"]
    if not any(any(c) for c in codeword):
        return [f"witness of {where} is zero"]
    roots = Field.from_descriptor(tw).count_roots(codeword)
    if roots < q ** k:
        return [f"witness of {where} has {roots} roots, fewer than q^k = {q ** k}"]
    return []


# ---- the paper's verdicts ------------------------------------------------------

def support013_expected(q: int, n: int) -> str:
    """{0,1,3} is MRD at n=7 iff q is odd, at n=8 iff q = 1 (mod 3), and
    never at n=9."""
    if n == 7:
        return "MRD" if q % 2 else "NOT_MRD"
    if n == 8:
        return "MRD" if q % 3 == 1 else "NOT_MRD"
    if n == 9:
        return "NOT_MRD"
    raise ValueError(f"no stated verdict for n={n}")


# ---- classification ----------------------------------------------------------------

def necklace_count(n: int, k: int) -> int:
    """k-subsets of Z_n up to rotation, by Burnside's formula."""
    g = math.gcd(n, k)
    total = 0
    for dd in range(1, g + 1):
        if g % dd == 0:
            phi = sum(1 for a in range(1, dd + 1) if math.gcd(a, dd) == 1)
            total += phi * math.comb(n // dd, k // dd)
    return total // n


def progressions(n: int, k: int) -> set:
    """All {a, a+s, ..., a+(k-1)s} mod n with s a unit mod n."""
    return {frozenset((a + i * s) % n for i in range(k))
            for a in range(n) for s in range(1, n) if math.gcd(s, n) == 1}


def check_classification(cl: dict, q: int) -> list[str]:
    """Entry count, distinct rotation classes, Gabidulin flags, and the
    paper's verdicts: only progressions are MRD, apart from {0,1,3} over F_3
    at n=7; nothing is UNKNOWN."""
    n, k = cl["n"], cl["k"]
    entries = cl["entries"]
    errors = []
    where = f"classify q={q} n={n} k={k}"
    want = necklace_count(n, k)
    if len(entries) != want:
        errors.append(f"{where}: {len(entries)} entries, Burnside gives {want}")
    classes = set()
    for ent in entries:
        T = frozenset(ent["T"])
        cls = min(tuple(sorted((t + s) % n for t in T)) for s in range(n))
        if cls in classes:
            errors.append(f"{where}: {sorted(T)} repeats a rotation class")
        classes.add(cls)
    progs = progressions(n, k)
    for ent in entries:
        T = frozenset(ent["T"])
        if ent["gabidulin"] != (T in progs):
            errors.append(f"{where}: gabidulin flag of {sorted(T)} is {ent['gabidulin']}")
        cert = ent["certificate"]
        if cert is None:
            continue
        exceptional = q == 3 and n == 7 and sorted(T) == [0, 1, 3]
        want_v = "MRD" if (ent["gabidulin"] or exceptional) else "NOT_MRD"
        if cert["verdict"] != want_v:
            errors.append(f"{where}: {sorted(T)} is {cert['verdict']}, expected {want_v}")
        errors += check_certificate(cert)
    return errors


# ---- CLI outputs ---------------------------------------------------------------------

def stabilizer(T, n):
    U = {t % n for t in T}
    return [d for d in range(n) if {(u + d) % n for u in U} == U]


def check_curve_report(rep: dict) -> list[str]:
    """The README's values: no F_{q^n}-rational affine intersection for odd
    n, q^2(q^2-1) over the closure, q^2-q points at infinity, and H has a
    point off W exactly when the {0,1,3} support is not MRD."""
    q, n = rep["q"], rep["n"]
    errors = []
    if n % 2 and rep["affine_V_cap_W"] != 0:
        errors.append(f"curve-count q={q} n={n}: affine count {rep['affine_V_cap_W']}")
    if rep["affine_V_cap_W_closure"] != q * q * (q * q - 1):
        errors.append(f"curve-count q={q} n={n}: closure {rep['affine_V_cap_W_closure']}")
    if rep["points_at_infinity_V"] != q * q - q:
        errors.append(f"curve-count q={q} n={n}: infinity {rep['points_at_infinity_V']}")
    mrd = support013_expected(q, n) == "MRD"
    if (rep["h_minus_w_total"] == 0) != mrd or not rep["mrd_consistent"]:
        errors.append(f"curve-count q={q} n={n}: H-off-W total {rep['h_minus_w_total']}")
    return errors


def check_moore_det(out: dict, p: int, e: int, n: int, modulus) -> list[str]:
    """det of the Moore matrix (a_i^{q^{s t_j}}) recomputed by cofactor
    expansion with schoolbook arithmetic."""
    F = Field(p, e, n, modulus)
    A, T, s = out["A"], out["T"], out["s"]
    Fq = F.frob_q_matrix()

    def frob(x, i):
        v = np.array(x, dtype=np.int64)
        for _ in range(i % n):
            v = Fq @ v % p
        return [int(c) for c in v]

    M = [[frob(a, s * t) for t in T] for a in A]

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        acc = [0] * F.d
        for j in range(len(rows)):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = F.mul(rows[0][j], det(minor))
            sign = 1 if j % 2 == 0 else p - 1
            acc = [(x + sign * y) % p for x, y in zip(acc, term)]
        return acc

    want = det(M)
    return [] if list(out["det"]) == want else [f"moore-det {out['det']} != {want}"]


def check_roots(out: dict, p: int, e: int, n: int, modulus, fixed_deg: int) -> list[str]:
    """Roots of X^{q^m} + X in characteristic 2, where it is X^{q^m} - X:
    the fixed field of Frob^m, of size q^gcd(m, n); every returned root must
    satisfy x^{q^m} = x."""
    if p != 2:
        raise ValueError("X^{q^m} + X is X^{q^m} - X only in characteristic 2")
    F = Field(p, e, n, modulus)
    want = F.q ** math.gcd(fixed_deg, n)
    errors = []
    if out["count"] != want or len(out["roots"]) != want:
        errors.append(f"roots: count {out['count']}, expected {want}")
    A = F.linear_map([[1] + [0] * (F.d - 1) if i in (0, fixed_deg) else [0] * F.d
                      for i in range(n)])
    for r in out["roots"]:
        if (A @ np.array(r, dtype=np.int64) % p).any():
            errors.append(f"roots: {r} is not a root")
            break
    return errors

