"""Rank-metric codes as F_q-subspaces of linearized polynomials.

Two shapes: SupportCode spans monomials X^(sigma^t) over F_{q^n} for a
support set T and twist sigma = q^s; GeneralCode is an arbitrary F_q-span of
polynomials.  Codes live as F_q-row-spaces of n^2-long coordinate vectors
(q-coordinates taken per coefficient slot), and dual/idealiser computations
are exact F_q Gaussian elimination on those vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _batch, _linalg
from .fields import CapExceeded, FieldTower
from .linpoly import LinPoly

GENERAL_SCAN_CAP = 1 << 26     # codeword cap for general-code distance scans
SUPPORT_SCAN_CAP = 1 << 28     # representative cap for support-code sweeps
FIELDNESS_CAP = 1 << 22        # enumeration cap for idealiser field checks


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
            tails, _, _ = sweep.representatives(lead, start, count)
            coords = _batch.projective_coords(t, lead, tails)
            ranks = _batch.batch_rank(sb.matrices(coords), t.p)
            best = min(best, int(ranks.min()) // t.e)
        return best

    def stabilizer(self) -> tuple:
        """The subgroup D = {d : d + U = U (mod n)} of shifts fixing the
        q-support.  Both idealisers are spanned by the monomials with
        exponents in D, so they are fields (isomorphic to F_{q^n}) exactly
        when D is trivial; periodic supports (unions of cosets of a proper
        subgroup) have |D|*n-dimensional idealisers with zero divisors."""
        n = self.tower.n
        U = set(self.q_support())
        return tuple(d for d in range(n)
                     if {(u + d) % n for u in U} == U)

    def descriptor(self) -> dict:
        return {"kind": "support", "T": list(self.T), "s": self.s}

    def __repr__(self):
        return f"SupportCode(T={self.T}, s={self.s}, n={self.tower.n})"

    def __eq__(self, other):
        return (isinstance(other, SupportCode) and other.tower is self.tower
                and other.q_support() == self.q_support())


class GeneralCode:
    """An F_q-subspace of linearized polynomials given by an independent basis."""

    def __init__(self, tower: FieldTower, basis):
        self.tower = tower
        self.basis = tuple(basis)   # empty basis = the zero code
        rows = [self._vec(f) for f in self.basis]
        rref, pivots = _linalg.row_reduce(tower, rows, tower.n * tower.n)
        if len(pivots) != len(self.basis):
            raise ValueError("basis polynomials are F_q-dependent")
        self._rref = rref
        self._pivots = pivots

    @property
    def dim(self) -> int:
        """Dimension over F_q (the code has q^dim elements)."""
        return len(self.basis)

    def _vec(self, f: LinPoly) -> list[int]:
        """n^2-long vector of embedded F_q coordinates, slot-major."""
        t = self.tower
        out = []
        for c in f.coeffs:
            out.extend(t.q_coords(c))
        return out

    def _poly(self, v) -> LinPoly:
        t, n = self.tower, self.tower.n
        return LinPoly(t, (t.from_q_coords(v[i * n:(i + 1) * n]) for i in range(n)))

    def contains(self, f: LinPoly) -> bool:
        if f.tower is not self.tower:
            raise ValueError("tower mismatch")
        return _linalg.in_row_space(self.tower, self._rref, self._pivots, self._vec(f))

    def parity_rows(self) -> list[list[int]]:
        """Basis of the orthogonal complement under the standard dot product;
        v is in the code iff it is orthogonal to all parity rows."""
        n2 = self.tower.n ** 2
        return _linalg.nullspace(self.tower, self._rref, n2)

    def delsarte_dual(self) -> "GeneralCode":
        """Orthogonal complement under b(f, g) = Tr(sum a_i b_i)."""
        t, n = self.tower, self.tower.n
        qb = t.q_basis
        gram = [[t.rel_trace(t.mul(qb[r], qb[s])) for s in range(n)] for r in range(n)]
        rows = []
        for f in self.basis:
            v = self._vec(f)
            row = []
            for slot in range(n):
                blk = v[slot * n:(slot + 1) * n]
                for s in range(n):
                    acc = 0
                    for r in range(n):
                        if blk[r]:
                            acc = t.add(acc, t.mul(blk[r], gram[r][s]))
                    row.append(acc)
            rows.append(row)
        basis = [self._poly(v) for v in _linalg.nullspace(t, rows, n * n)]
        return GeneralCode(t, basis)

    def adjoint_code(self) -> "GeneralCode":
        return GeneralCode(self.tower, [f.adjoint() for f in self.basis])

    # ---- idealisers ----------------------------------------------------------

    def idealiser(self, side: str) -> IdealiserReport:
        """Solve the F_q-linear membership system over the n^2 coefficient
        coordinates of the unknown map, then test field-ness by exhausting the
        solution space (all nonzero elements invertible + closure on basis
        pairs)."""
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        t, n = self.tower, self.tower.n
        units = [LinPoly.monomial(t, b, m) for m in range(n) for b in t.q_basis]
        parity = self.parity_rows()
        if not parity:
            # the full ring: everything is a solution
            return IdealiserReport(side, n * n, n == 1, n == 1)
        constraints = []
        for f in self.basis:
            cols = []
            for u in units:
                h = f.compose(u) if side == "left" else u.compose(f)
                cols.append(self._vec(h))
            for prow in parity:
                crow = []
                for uidx in range(n * n):
                    acc = 0
                    col = cols[uidx]
                    for v in range(n * n):
                        if prow[v] and col[v]:
                            acc = t.add(acc, t.mul(prow[v], col[v]))
                    crow.append(acc)
                constraints.append(crow)
        sol = _linalg.nullspace(t, constraints, n * n)
        dim = len(sol)
        sol_polys = [self._poly(v) for v in sol]
        is_field = self._solution_space_is_field(sol_polys) if 0 < dim <= n else False
        return IdealiserReport(side, dim, is_field, is_field and dim == n)

    def _solution_space_is_field(self, basis_polys) -> bool:
        t, n = self.tower, self.tower.n
        m = len(basis_polys)
        # closure under composition on a spanning set of pairs
        rows = [self._vec(f) for f in basis_polys]
        rref, pivots = _linalg.row_reduce(t, rows, n * n)
        for a in basis_polys:
            for b in basis_polys:
                if not _linalg.in_row_space(t, rref, pivots, self._vec(a.compose(b))):
                    return False
        # every nonzero element invertible: basis elements via the q-circulant,
        # the full space via the batched F_p rank engine
        for f in basis_polys:
            if f.rank() != n:
                return False
        if t.q ** m > FIELDNESS_CAP:
            raise CapExceeded("solution space too large to exhaust for field-ness")
        span = _batch.SpanBlockMatrix(t, basis_polys)
        q, e, d = t.q, t.e, t.degree
        total = q ** m
        start = 1  # skip the zero combination
        while start < total:
            count = min(1 << 16, total - start)
            idx = np.arange(start, start + count, dtype=np.int64)
            coords = np.zeros((count, m * e), dtype=np.int64)
            for w in range(m):
                sub = (idx // q ** (m - 1 - w)) % q
                coords[:, w * e:(w + 1) * e] = _batch.element_coord_columns(sub, t.p, e)
            ranks = _batch.batch_rank(span.matrices(coords), t.p)
            if int(ranks.min()) != d:
                return False
            start += count
        return True

    # ---- distance -------------------------------------------------------------

    def min_distance(self, budget: int = GENERAL_SCAN_CAP) -> int:
        """Minimum rank over nonzero codewords, scanning the (q^dim-1)/(q-1)
        projective representatives over F_q."""
        t = self.tower
        if self.dim == 0:
            raise ValueError("the zero code has no minimum distance")
        if t.q ** self.dim > budget:
            raise CapExceeded("code too large for a general distance scan")
        span = _batch.SpanBlockMatrix(t, list(self.basis))
        best = t.n
        for lead, start, count in _batch.fq_projective_blocks(t, self.dim, 1 << 16):
            coords = _batch.fq_scalar_coords(t, self.dim, lead, start, count)
            ranks = _batch.batch_rank(span.matrices(coords), t.p)
            best = min(best, int(ranks.min()) // t.e)
        return best

    def descriptor(self) -> dict:
        return {"kind": "general", "basis": [f.to_json() for f in self.basis]}

    def equals(self, other: "GeneralCode") -> bool:
        """Span equality."""
        if other.tower is not self.tower or other.dim != self.dim:
            return False
        return all(self.contains(f) for f in other.basis)


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
        if s not in (1, 4, 7):
            raise ValueError("Ds needs s in {1, 4, 7}")
        return SupportCode(tower, sorted({0, s % 9, 2 * s % 9, 4 * s % 9}), 1)
    raise ValueError(f"unknown family {name!r}")


def code_from_json(tower: FieldTower, obj: dict):
    if obj.get("kind") == "support":
        return SupportCode(tower, obj["T"], int(obj.get("s", 1)))
    if obj.get("kind") == "general":
        return GeneralCode(tower, [LinPoly.from_json(tower, b) for b in obj["basis"]])
    raise ValueError("unknown code kind")
