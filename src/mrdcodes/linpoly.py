"""q-polynomials sum(c_i X^(q^i)) over F_{q^n}, modulo X^(q^n) - X.

A LinPoly is an immutable coefficient vector of length n over the tower's
top field; it acts on F_{q^n} as an F_q-linear map.  Rank questions are
answered through the associated n x n q-circulant matrix, whose rank over
F_{q^n} equals the rank of the polynomial as an F_q-linear transformation;
roots() enumerates the field and exists only as a brute-force oracle.
"""

from __future__ import annotations

import numpy as np

from . import _batch, _linalg
from .fields import CapExceeded, FieldTower, rref_modp


def fq_independent(tower, vecs) -> list[int]:
    """Indices, in order, of the F_p vectors in `vecs` (d-long coordinate
    blocks) that raise the F_q-rank of those before them.  Vector i does
    exactly when one of its e columns in the transpose of
    tower.fq_span_rows(vecs) is a pivot column."""
    if not len(vecs):
        return []
    pivots = rref_modp(tower.fq_span_rows(vecs).T, tower.p)[1]
    return sorted({c // tower.e for c in pivots})


class LinPoly:
    """A linearized polynomial c_0 X + c_1 X^q + ... + c_{n-1} X^(q^{n-1})."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: FieldTower, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != tower.n:
            raise ValueError(f"expected {tower.n} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("LinPoly is immutable")

    def __eq__(self, other):
        return (isinstance(other, LinPoly) and other.tower is self.tower
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((id(self.tower), self.coeffs))

    def __repr__(self):
        terms = [f"{c}*X^q{i}" for i, c in enumerate(self.coeffs) if c]
        return "LinPoly(" + (" + ".join(terms) if terms else "0") + ")"

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # ---- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, tower):
        return cls(tower, (0,) * tower.n)

    @classmethod
    def monomial(cls, tower, a: int, i: int):
        """a * X^(q^i)."""
        c = [0] * tower.n
        c[i % tower.n] = a
        return cls(tower, c)

    @classmethod
    def identity(cls, tower):
        return cls.monomial(tower, 1, 0)

    @classmethod
    def trace(cls, tower):
        """The relative trace X + X^q + ... + X^(q^{n-1})."""
        return cls(tower, (1,) * tower.n)

    @classmethod
    def from_support(cls, tower, exponents, coefficients):
        c = [0] * tower.n
        for i, a in zip(exponents, coefficients):
            c[i % tower.n] = tower.add(c[i % tower.n], a)
        return cls(tower, c)

    # ---- algebra ------------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        t = self.tower
        return LinPoly(t, (t.add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        t = self.tower
        return LinPoly(t, (t.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        t = self.tower
        return LinPoly(t, (t.neg(a) for a in self.coeffs))

    def scale(self, a: int):
        """a * f, the map x -> a * f(x)."""
        t = self.tower
        return LinPoly(t, (t.mul(a, c) for c in self.coeffs))

    def _check(self, other):
        if other.tower is not self.tower:
            raise ValueError("tower mismatch")

    def eval(self, x: int) -> int:
        t = self.tower
        acc = 0
        y = x
        for c in self.coeffs:
            if c:
                acc = t.add(acc, t.mul(c, y))
            y = t.frobenius_q(y, 1)
        return acc

    def compose(self, other: "LinPoly") -> "LinPoly":
        """f o g modulo X^(q^n) - X: coefficient k is sum over i+j=k (mod n)
        of f_i * g_j^(q^i)."""
        self._check(other)
        t, n = self.tower, self.tower.n
        out = [0] * n
        for i, fi in enumerate(self.coeffs):
            if not fi:
                continue
            for j, gj in enumerate(other.coeffs):
                if not gj:
                    continue
                k = (i + j) % n
                out[k] = t.add(out[k], t.mul(fi, t.frobenius_q(gj, i)))
        return LinPoly(t, out)

    def adjoint(self) -> "LinPoly":
        """The adjoint for the form <x,y> = Tr(xy): coefficient a_i moves to
        slot (n-i) mod n raised to the q^(n-i) power."""
        t, n = self.tower, self.tower.n
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            if a:
                j = (n - i) % n
                out[j] = t.add(out[j], t.frobenius_q(a, j))
        return LinPoly(t, out)

    # ---- rank through the q-circulant ----------------------------------------

    def dickson(self):
        """The n x n q-circulant: entry (i, j) = c_{(j-i) mod n}^(q^i)."""
        t, n = self.tower, self.tower.n
        return [[t.frobenius_q(self.coeffs[(j - i) % n], i) for j in range(n)]
                for i in range(n)]

    def rank(self) -> int:
        """Rank of the associated q-circulant over F_{q^n} (= rank of the map)."""
        return _linalg.rank(self.tower, self.dickson(), self.tower.n)

    def kernel_dim(self) -> int:
        return self.tower.n - self.rank()

    # ---- the F_q-linear-map view ----------------------------------------------

    def map_matrix_fp(self) -> np.ndarray:
        """d x d matrix over F_p of x -> f(x), d = e*n."""
        t = self.tower
        d = t.degree
        M = np.zeros((d, d), dtype=np.int64)
        for i, c in enumerate(self.coeffs):
            if c:
                M = M + t.mult_matrix(c) @ t.frob_q_matrix(i)
        return M % t.p

    def roots(self) -> set[int]:
        """Brute-force root set {x : f(x) = 0}; oracle only, enumerates the field."""
        t = self.tower
        if t.order > 1 << 20:
            raise CapExceeded("field too large for brute-force roots")
        if t.tables is None:
            raise CapExceeded("brute-force roots need the Zech tables")
        # vectorized evaluation over the whole field
        elems = t.elements_array()
        exp, log = t.tables
        acc = np.zeros_like(elems)
        Qm1 = t.order - 1
        lx = log[elems].astype(np.int64)   # lx * q^i passes int32
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            val = np.where(elems == 0, 0,
                           exp[(lx * pow(t.q, i, Qm1) + int(log[c])) % Qm1])
            acc = _batch.vec_add(t, acc, val)
        return set(int(v) for v in elems[acc == 0])

    # ---- serialization ----------------------------------------------------------

    def to_json(self) -> list:
        return [self.tower.coords(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, tower, obj) -> "LinPoly":
        """Dense form: list of n coordinate arrays.  Sparse form:
        {"terms": [{"i": exponent, "c": coordinate array}, ...]}."""
        if isinstance(obj, dict):
            c = [0] * tower.n
            for term in obj["terms"]:
                i = int(term["i"]) % tower.n
                c[i] = tower.add(c[i], tower.element_from_json(term["c"]))
            return cls(tower, c)
        return cls(tower, (tower.element_from_json(v) for v in obj))

