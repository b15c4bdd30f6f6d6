"""Rank-metric codes as F_q-subspaces of linearized polynomials.

Two shapes: SupportCode spans monomials X^(sigma^t) over F_{q^n} for a
support set T and twist sigma = q^s; GeneralCode is an arbitrary F_q-span of
polynomials.  A GeneralCode lives as the F_p row space of n*d-long
coefficient vectors (d power-basis coordinates per coefficient slot), closed
under F_q through FieldTower.fq_span_rows, and membership, duals and
idealisers are F_p elimination on those vectors by fields.rref_modp; the
scalar eliminator over F_{q^n} (_linalg) is not used here.  Whether an
idealiser is a field is decided by algebra (the q-power map on it), with no
sweep over its elements and no size cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _batch
from .fields import CapExceeded, FieldTower, nullspace_modp, rref_modp
from .linpoly import LinPoly, fq_independent

GENERAL_SCAN_CAP = 1 << 26     # codeword cap for general-code distance scans
SUPPORT_SCAN_CAP = 1 << 28     # representative cap for support-code sweeps


def support_exponents(T, n: int) -> tuple:
    """T reduced mod n and sorted.  ValueError unless n >= 1 and T holds
    between 1 and n exponents, distinct mod n."""
    if n < 1:
        raise ValueError(f"n={n} must be positive")
    T = tuple(sorted(int(t) % n for t in T))
    if len(set(T)) != len(T):
        raise ValueError("support exponents must be distinct mod n")
    if not 1 <= len(T) <= n:
        raise ValueError("support size must be between 1 and n")
    return T


def dual_support(T, n: int) -> tuple:
    """Support of the Delsarte dual of C_T: the complement of T mod n."""
    return support_exponents(set(range(n)) - set(support_exponents(T, n)), n)


def adjoint_support(T, n: int) -> tuple:
    """Support of the adjoint of C_T: T reflected, {(n - t) mod n}."""
    return tuple(sorted({(n - t) % n for t in support_exponents(T, n)}))


def ds_support(s: int) -> tuple:
    """The n = 9 support {0, s, 2s, 4s} (s in {1, 4, 7}) reduced mod 9, sorted."""
    if s not in (1, 4, 7):
        raise ValueError("Ds needs s in {1, 4, 7}")
    return tuple(sorted({0, s % 9, 2 * s % 9, 4 * s % 9}))


@dataclass(frozen=True)
class IdealiserReport:
    side: str
    fq_dimension: int
    is_field: bool
    is_max: bool

    def to_json(self):
        return {"side": self.side, "fq_dimension": self.fq_dimension,
                "is_field": self.is_field, "is_max": self.is_max}


class SupportCode:
    """The span over F_{q^n} of {X^(sigma^t) : t in T}, sigma = q^s."""

    def __init__(self, tower: FieldTower, T, s: int = 1):
        T = support_exponents(T, tower.n)
        if math.gcd(s, tower.n) != 1:
            raise ValueError(f"twist s={s} must be coprime to n={tower.n}")
        self.tower = tower
        self.T = T
        self.s = s % tower.n

    @property
    def k(self) -> int:
        return len(self.T)

    def q_support(self) -> tuple:
        """The support as plain q-power exponents {s*t mod n}, sorted."""
        n = self.tower.n
        return tuple(sorted((self.s * t) % n for t in self.T))

    def monomials(self) -> list[LinPoly]:
        return [LinPoly.monomial(self.tower, 1, u) for u in self.q_support()]

    def contains(self, f: LinPoly) -> bool:
        if f.tower is not self.tower:
            raise ValueError("tower mismatch")
        supp = set(self.q_support())
        return all(c == 0 for i, c in enumerate(f.coeffs) if i not in supp)

    def to_general(self) -> "GeneralCode":
        t = self.tower
        basis = [LinPoly.monomial(t, b, u)
                 for u in self.q_support() for b in t.q_basis]
        return GeneralCode(t, basis)

    def delsarte_dual(self) -> "SupportCode":
        """Complement support: the dual of C_T is C_{{0..n-1} minus T}."""
        return SupportCode(self.tower, dual_support(self.q_support(), self.tower.n), 1)

    def adjoint_code(self) -> "SupportCode":
        """Reflected support {0} u {n - u : u in T, u != 0}."""
        return SupportCode(self.tower, adjoint_support(self.q_support(), self.tower.n), 1)

    def idealiser(self, side: str) -> IdealiserReport:
        return self.to_general().idealiser(side)

    def min_distance(self, budget: int = SUPPORT_SCAN_CAP) -> int:
        """Minimum rank over the (q^{kn}-1)/(q^n-1) projective representatives,
        taken over one canonical representative per rank-preserving orbit."""
        t, k = self.tower, self.k
        total = _batch.projective_index_total(t, k)
        if total > budget:
            raise CapExceeded(f"{total} representatives exceed the scan budget")
        sb = _batch.SupportBlockMatrix(t, self.q_support())
        sweep = _batch.OrbitSweep(t, self.q_support())
        best = t.n
        for lead, start, count in sweep.chunks(1 << 16, 1 << 16):
            _, raw, _ = sweep.representatives(lead, start, count)
            ranks = sb.rep_ranks(lead * t.degree, raw)
            best = min(best, int(ranks.min()) // t.e)
        return best

    def stabilizer(self) -> tuple:
        """The subgroup D = {d : d + U = U (mod n)} of shifts fixing the
        q-support.  Both idealisers are spanned by the monomials with
        exponents in D, so they are fields (isomorphic to F_{q^n}) exactly
        when D is trivial; periodic supports (unions of cosets of a proper
        subgroup) have |D|*n-dimensional idealisers with zero divisors.  Such
        a d takes min U into U: the candidates are the k values u - min U."""
        n, U = self.tower.n, self.q_support()
        return tuple(d for d in (u - U[0] for u in U)
                     if {(u + d) % n for u in U} == set(U))

    def descriptor(self) -> dict:
        return {"kind": "support", "T": list(self.T), "s": self.s}

    def __repr__(self):
        return f"SupportCode(T={self.T}, s={self.s}, n={self.tower.n})"

    def __eq__(self, other):
        return (isinstance(other, SupportCode) and other.tower is self.tower
                and other.q_support() == self.q_support())


class GeneralCode:
    """An F_q-subspace of linearized polynomials given by an independent basis.

    It is held as the F_p row space of the n*d-long coefficient vectors of
    {u*f : u in fq_basis_fp, f in the basis}, in reduced echelon form."""

    def __init__(self, tower: FieldTower, basis):
        self.tower = tower
        self.basis = tuple(basis)   # empty basis = the zero code
        rows = tower.fq_span_rows(self._vecs(self.basis))
        rref, pivots = rref_modp(rows, tower.p)
        if len(pivots) != tower.e * len(self.basis):
            raise ValueError("basis polynomials are F_q-dependent")
        self._rref = rref[:len(pivots)]
        self._pivots = pivots

    @property
    def dim(self) -> int:
        """Dimension over F_q (the code has q^dim elements)."""
        return len(self.basis)

    def _vecs(self, polys) -> np.ndarray:
        """(len(polys), n*d) F_p coefficient vectors, slot-major."""
        t = self.tower
        return np.array([[c for a in f.coeffs for c in t.coords(a)] for f in polys],
                        dtype=np.int64).reshape(-1, t.n * t.degree)

    def _polys(self, vecs) -> list[LinPoly]:
        """An F_q-basis, as polynomials, of the F_q-closed F_p-span of the
        coefficient vectors `vecs`."""
        t, d = self.tower, self.tower.degree
        return [LinPoly(t, (t.element(vecs[i][s * d:(s + 1) * d].tolist())
                            for s in range(t.n)))
                for i in fq_independent(t, vecs)]

    def contains(self, f: LinPoly) -> bool:
        """f reduces to zero against the echelon rows."""
        if f.tower is not self.tower:
            raise ValueError("tower mismatch")
        v = self._vecs([f])[0]
        return not ((v - v[self._pivots] @ self._rref) % self.tower.p).any()

    def parity_rows(self) -> np.ndarray:
        """F_p-basis of the complement under the standard dot product of the
        coefficient vectors: v is in the code iff parity_rows() @ v = 0."""
        t = self.tower
        return np.array(nullspace_modp(self._rref, t.p),
                        dtype=np.int64).reshape(-1, t.n * t.degree)

    def delsarte_dual(self) -> "GeneralCode":
        """Orthogonal complement under b(f, g) = Tr_{q^n/q}(sum a_i b_i).  For
        an F_q-subspace it is the F_p-complement under the absolute trace
        Tr_{q^n/p}, whose Gram matrix on the power basis is `gram`."""
        t, p = self.tower, self.tower.p
        g = t.generator
        # Tr_{q^n/p} lands in F_p, the first power-basis coordinate, so row 0
        # of its matrix is the functional x -> Tr(x)
        absolute = sum(t.frob_p_matrix(i) for i in range(t.degree)) % p
        gram = np.stack([absolute[0] @ t.mult_matrix(t.pow(g, a)) % p
                         for a in range(t.degree)])
        form = self._rref @ np.kron(np.eye(t.n, dtype=np.int64), gram) % p
        return GeneralCode(t, self._polys(nullspace_modp(form, p)))

    def adjoint_code(self) -> "GeneralCode":
        return GeneralCode(self.tower, [f.adjoint() for f in self.basis])

    # ---- idealisers ----------------------------------------------------------

    def idealiser(self, side: str) -> IdealiserReport:
        """The left idealiser {phi : phi o f in C for all f in C} or the right
        one {phi : f o phi in C for all f in C} (the convention of Lunardon,
        Trombetti and Zhou).  Its F_p-coefficient vectors a are the solutions
        of parity @ M_f @ a = 0 for every basis f, M_f the matrix of
        a -> phi_a o f (left) or a -> f o phi_a (right); then field-ness is
        tested on an F_q-basis of the solutions."""
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        t, n = self.tower, self.tower.n
        parity = self.parity_rows()
        if not len(parity):
            # the full ring: everything is a solution
            return IdealiserReport(side, n * n, n == 1, n == 1)
        constraints = np.array([parity @ self._compose_matrix(f, side) % t.p
                                for f in self.basis]).reshape(-1, parity.shape[1])
        sol = self._polys(nullspace_modp(constraints, t.p))
        dim = len(sol)
        is_field = GeneralCode(t, sol)._is_field() if 0 < dim <= n else False
        return IdealiserReport(side, dim, is_field, is_field and dim == n)

    def _compose_matrix(self, f: LinPoly, side: str) -> np.ndarray:
        """(n*d x n*d) F_p matrix of a -> phi_a o f (left) or a -> f o phi_a
        (right), phi_a the polynomial with coefficient vector a.  Block (k, i)
        is Mult(f_{k-i}^{q^i}) on the left, Mult(f_{k-i}) Frob_q^{k-i} on the
        right."""
        t, n, d = self.tower, self.tower.n, self.tower.degree
        M = np.zeros((n * d, n * d), dtype=np.int64)
        for k in range(n):
            for i in range(n):
                c = f.coeffs[(k - i) % n]
                if not c:
                    continue
                if side == "left":
                    blk = t.mult_matrix(t.frobenius_q(c, i))
                else:
                    blk = t.mult_matrix(c) @ t.frob_q_matrix(k - i) % t.p
                M[k * d:(k + 1) * d, i * d:(i + 1) * d] = blk
        return M

    def _is_field(self) -> bool:
        """Whether the code, under composition, is a field whose unit is the
        identity map.  A finite commutative F_q-algebra with identity is a
        field exactly when x -> x^q (q-fold composition) is injective on it
        and fixes only F_q: injective means no nilpotents, so the algebra is
        a product of fields, each with its own fixed F_q.  Past the identity
        and closure and commutativity on basis pairs, x -> x^q is F_q-linear,
        so the images of the m basis maps must have F_q-rank m and their
        differences from the basis maps F_q-rank m - 1."""
        t, basis = self.tower, self.basis
        if not self.contains(LinPoly.identity(t)):
            return False
        for i, a in enumerate(basis):
            for b in basis[i:]:
                ab = a.compose(b)
                if ab != b.compose(a) or not self.contains(ab):
                    return False
        powers = self._vecs([_compose_power(a, t.q) for a in basis])
        return (len(fq_independent(t, powers)) == self.dim
                and len(fq_independent(t, powers - self._vecs(basis))) == self.dim - 1)

    # ---- distance -------------------------------------------------------------

    def min_distance(self, budget: int = GENERAL_SCAN_CAP) -> int:
        """Minimum rank over nonzero codewords, one per F_q-line: lead scalar
        u_0 (the first of fq_basis_fp) and every F_q tail after it.  The
        maps of u_j*f_i are the rows of one block (the full support's
        SupportBlockMatrix on the fq_span_rows), and a codeword's map is its
        F_p-coordinates times that block.  The block's rep_ranks() ranks the
        codewords of lead row lead*e from their tail indices, whose base-p
        digits are the tails' F_p-coordinates."""
        t, k, e = self.tower, self.dim, self.tower.e
        if k == 0:
            raise ValueError("the zero code has no minimum distance")
        if t.q ** k > budget:
            raise CapExceeded("code too large for a general distance scan")
        maps = _batch.SupportBlockMatrix(t, range(t.n),
                                         t.fq_span_rows(self._vecs(self.basis)))
        best = t.n
        for lead in range(k):
            tails = k - 1 - lead
            for start in range(0, t.q ** tails, 1 << 16):
                idx = np.arange(start, min(start + (1 << 16), t.q ** tails))
                best = min(best, int(maps.rep_ranks(lead * e, idx).min()) // e)
        return best

    def descriptor(self) -> dict:
        return {"kind": "general", "basis": [f.to_json() for f in self.basis]}

    def equals(self, other: "GeneralCode") -> bool:
        """Span equality."""
        if other.tower is not self.tower or other.dim != self.dim:
            return False
        return all(self.contains(f) for f in other.basis)


def _compose_power(f: LinPoly, k: int) -> LinPoly:
    """f composed with itself k times, by square-and-multiply."""
    out = LinPoly.identity(f.tower)
    while k:
        if k & 1:
            out = out.compose(f)
        f, k = f.compose(f), k >> 1
    return out


# ---- families -----------------------------------------------------------------

def gabidulin(tower: FieldTower, k: int, s: int = 1) -> SupportCode:
    """The classical family: sigma-support {0, 1, ..., k-1} with sigma = q^s."""
    if math.gcd(s, tower.n) != 1:
        raise ValueError(f"gcd(s={s}, n={tower.n}) must be 1")
    if not 1 <= k <= tower.n:
        raise ValueError("k out of range")
    return SupportCode(tower, range(k), s)


_FAMILY_SUPPORTS = {
    "C7": (7, (0, 1, 3)),
    "C7'": (7, (0, 3, 5, 6)),
    "C8": (8, (0, 1, 3)),
    "C8'": (8, (0, 2, 3, 4, 5)),
}


def named_family(name: str, tower: FieldTower, s: int | None = None) -> SupportCode:
    """The named supports; Ds takes n = 9 and s in {1, 4, 7} and returns the
    q-exponent support {0, s, 2s, 4s} reduced mod 9."""
    name = {"C7p": "C7'", "C8p": "C8'"}.get(name, name)
    if name in _FAMILY_SUPPORTS:
        n_req, T = _FAMILY_SUPPORTS[name]
        if tower.n != n_req:
            raise ValueError(f"family {name} needs n={n_req}, tower has n={tower.n}")
        return SupportCode(tower, T, 1)
    if name == "Cn":
        if tower.n < 4:
            raise ValueError("Cn needs n >= 4")
        return SupportCode(tower, (0, 1, 3), 1)
    if name == "Ds":
        if tower.n != 9:
            raise ValueError("Ds needs n = 9")
        return SupportCode(tower, ds_support(s), 1)
    raise ValueError(f"unknown family {name!r}")


def code_from_json(tower: FieldTower, obj: dict):
    if obj.get("kind") == "support":
        return SupportCode(tower, obj["T"], int(obj.get("s", 1)))
    if obj.get("kind") == "general":
        return GeneralCode(tower, [LinPoly.from_json(tower, b) for b in obj["basis"]])
    raise ValueError("unknown code kind")
