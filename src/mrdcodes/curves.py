"""Point counting for the plane curves attached to the {0,1,3} support.

With u = x^q - x and v = y^q - y, the three affine polynomials are

    H(1,x,y) = (x^q - x^{q^3}) v + (y^{q^3} - y^q) u        (support {0,1,3})
    W(1,x,y) = (x^q - x^{q^2}) v + (y^{q^2} - y^q) u        (support {0,1,2})
    V(x,y)   = prod_{gamma in F_{q^2} minus F_q} (u - gamma v) + 1

V is the quotient H/W off W; the support code with exponents {0,1,3} is MRD
exactly when H has no rational point off W.  The product over gamma is the
reference semantics and needs the quadratic extension; the counting loops use
the closed form

    v = 0            ->  u^{q^2-q}
    u/v in F_q       ->  v^{q^2-q}
    otherwise        ->  (u^{q^2} - u v^{q^2-1}) / (u^q - u v^{q-1})

whose equality with the product is exercised by the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import _batch
from .fields import CapExceeded, make_tower
from .codes import SupportCode

PAIR_BUDGET = 1 << 28
POINT_SAMPLE_LIMIT = 200


def eval_H(tower, x: int, y: int) -> int:
    t = tower
    u = t.sub(t.frobenius_q(x, 1), x)
    v = t.sub(t.frobenius_q(y, 1), y)
    a = t.sub(t.frobenius_q(x, 1), t.frobenius_q(x, 3))
    c = t.sub(t.frobenius_q(y, 3), t.frobenius_q(y, 1))
    return t.add(t.mul(a, v), t.mul(c, u))


def eval_W(tower, x: int, y: int) -> int:
    t = tower
    u = t.sub(t.frobenius_q(x, 1), x)
    v = t.sub(t.frobenius_q(y, 1), y)
    a = t.sub(t.frobenius_q(x, 1), t.frobenius_q(x, 2))
    c = t.sub(t.frobenius_q(y, 2), t.frobenius_q(y, 1))
    return t.add(t.mul(a, v), t.mul(c, u))


# ----------------------------------------------------------------------------
# the product over gamma: reference (big tower) and closed form
# ----------------------------------------------------------------------------

class QuadraticLift:
    """Embedding of F_{q^n} into F_{q^{2n}}, where F_{q^2} also lives."""

    def __init__(self, tower):
        self.base = tower
        self.big = make_tower(tower.p, tower.e, 2 * tower.n)
        self.root = self._modulus_root()
        self.gammas = quadratic_gammas(self.big)

    def _modulus_root(self) -> int:
        tb, tB = self.base, self.big
        mod = tb.modulus
        # candidates: the index-2 subfield of the big tower
        for x in tB.fixed_field(tb.degree):
            acc = 0
            xp = 1
            for c in mod:
                if c:
                    acc = tB.add(acc, tB.mul(tB.embed_fp(c), xp))
                xp = tB.mul(xp, x)
            if acc == 0:
                return x
        raise RuntimeError("modulus has no root in the doubled tower")

    def lift(self, x: int) -> int:
        tb, tB = self.base, self.big
        acc = 0
        rp = 1
        for c in tb.coords(x):
            if c:
                acc = tB.add(acc, tB.mul(tB.embed_fp(c), rp))
            rp = tB.mul(rp, self.root)
        return acc

    def drop(self, X: int) -> int:
        """Inverse of lift for elements in the embedded copy of F_{q^n}."""
        tb = self.base
        for m in range(tb.order):
            x = tb.element_at(m)
            if self.lift(x) == X:
                return x
        raise ValueError("element is not in the embedded base field")


def quadratic_gammas(tower) -> list[int]:
    """F_{q^2} minus F_q inside a tower of even n, canonical order."""
    sub = set(tower.subfield_elements)
    return [g for g in tower.fixed_field(2 * tower.e) if g not in sub]


def v_product(lift: QuadraticLift, x: int, y: int) -> int:
    """The literal product over gamma, evaluated upstairs, plus 1; the result
    is returned as an element of the base field."""
    tb, tB = lift.base, lift.big
    u = tB.sub(tB.frobenius_p(lift.lift(x), tb.e), lift.lift(x))
    Y = lift.lift(y)
    v = tB.sub(tB.frobenius_p(Y, tb.e), Y)
    acc = 1
    for gamma in lift.gammas:
        acc = tB.mul(acc, tB.sub(u, tB.mul(gamma, v)))
    val = tB.add(acc, 1)
    # invert the embedding by linear search over the base field (oracle path)
    return lift.drop(val)


def v_closed(tower, x: int, y: int) -> int:
    """Closed form of the product plus 1, computed inside F_{q^n}."""
    t, q = tower, tower.q
    u = t.sub(t.frobenius_q(x, 1), x)
    v = t.sub(t.frobenius_q(y, 1), y)
    if v == 0:
        prod = t.pow(u, q * q - q)
    else:
        r = t.mul(u, t.inv(v))
        if t.in_subfield_q(r):
            prod = t.pow(v, q * q - q)
        else:
            num = t.sub(t.pow(u, q * q), t.mul(u, t.pow(v, q * q - 1)))
            den = t.sub(t.pow(u, q), t.mul(u, t.pow(v, q - 1)))
            prod = t.mul(num, t.inv(den))
    return t.add(prod, 1)


# ----------------------------------------------------------------------------
# vectorized counting
# ----------------------------------------------------------------------------

class _CurveRows:
    """The rows (x^q - x^{q^j}) v + (y^{q^j} - y^q) u over all y, for
    j in {2, 3}: W(1, x, .) for j = 2 and H(1, x, .) for j = 3.  `cols`
    gives the packed y of each column (packed order 0..Q-1 by default)."""

    def __init__(self, tower, cols=None):
        t = self.tower = tower
        ids = np.arange(t.order, dtype=np.int64)
        F1 = _batch.vec_frob_q(t, ids, 1)
        self.U = _batch.vec_sub(t, F1, ids)                    # u = x^q - x
        self.A = {j: _batch.vec_sub(t, F1, _batch.vec_frob_q(t, ids, j))
                  for j in (2, 3)}                             # x^q - x^{q^j}
        cols = ids if cols is None else cols
        self.U_cols = self.U[cols]
        self.C_cols = {j: _batch.vec_neg(t, a[cols])           # y^{q^j} - y^q
                       for j, a in self.A.items()}

    def row(self, x: int, j: int) -> np.ndarray:
        """The row of the packed value x."""
        t, a, u = self.tower, np.int64(int(self.A[j][x])), np.int64(int(self.U[x]))
        return _batch.vec_add(t, _batch.vec_mul(t, a, self.U_cols),
                              _batch.vec_mul(t, self.C_cols[j], u))


def _v_closed_row(tower, u0: int, U: np.ndarray) -> np.ndarray:
    """V(x, .) over all y (vector of v-values U), closed form."""
    t, q = tower, tower.q
    Q = t.order
    out = np.empty_like(U)
    v0 = U == 0
    out[v0] = t.pow(u0, q * q - q)
    nz = ~v0
    Unz = U[nz]
    r = _batch.vec_mul(t, np.int64(u0), _batch.vec_pow(t, Unz, Q - 2))
    in_fq = _batch.vec_frob_q(t, r, 1) == r
    res = np.empty_like(Unz)
    res[in_fq] = _batch.vec_pow(t, Unz[in_fq], q * q - q)
    gen = ~in_fq
    Ug = Unz[gen]
    num = _batch.vec_sub(t, np.full(Ug.shape, t.pow(u0, q * q), dtype=np.int64),
                         _batch.vec_mul(t, np.int64(u0), _batch.vec_pow(t, Ug, q * q - 1)))
    den = _batch.vec_sub(t, np.full(Ug.shape, t.pow(u0, q), dtype=np.int64),
                         _batch.vec_mul(t, np.int64(u0), _batch.vec_pow(t, Ug, q - 1)))
    res[gen] = _batch.vec_mul(t, num, _batch.vec_pow(t, den, Q - 2))
    out[nz] = res
    return _batch.vec_add(t, out, np.int64(1))


def count_V_cap_W(tower) -> int:
    """Number of F_{q^n}-rational affine points on both V and W.

    Every affine intersection point has both coordinates in F_{q^2}, so this
    is zero whenever n is odd and equals the closure count when n is even;
    see count_V_cap_W_closure for the field-independent value.
    """
    t = tower
    if t.order ** 2 > PAIR_BUDGET:
        raise CapExceeded("pair enumeration exceeds the budget")
    rows = _CurveRows(t)
    count = 0
    for x in range(t.order):
        wz = rows.row(x, 2) == 0
        if not wz.any():
            continue
        v_row = _v_closed_row(t, int(rows.U[x]), rows.U)
        count += int((wz & (v_row == 0)).sum())
    return count


def count_V_cap_W_closure(tower) -> int:
    """Affine points of V cap W over the algebraic closure, counted inside
    F_{q^2} x F_{q^2} where they all live.  The case analysis (x in F_q,
    y in F_q, or u = xi v) gives 2(q^3 - q^2) + q(q-1)(q^2-q) = q^2(q^2-1):
    the Artin-Schreier fiber of x^q - x = xi(y^q - y) has exactly q points."""
    t2 = make_tower(tower.p, tower.e, 2)
    els = list(t2.enumerate_field())
    gammas = quadratic_gammas(t2)
    count = 0
    for x in els:
        xq = t2.frobenius_q(x, 1)
        u = t2.sub(xq, x)
        a = t2.sub(xq, t2.frobenius_q(xq, 1))   # x^q - x^{q^2}, honest powers
        for y in els:
            yq = t2.frobenius_q(y, 1)
            v = t2.sub(yq, y)
            c = t2.sub(t2.frobenius_q(yq, 1), yq)
            if t2.add(t2.mul(a, v), t2.mul(c, u)) != 0:
                continue
            prod = 1
            for g in gammas:
                prod = t2.mul(prod, t2.sub(u, t2.mul(g, v)))
            if t2.add(prod, 1) == 0:
                count += 1
    return count


def points_at_infinity(tower) -> int:
    """Roots in F_{q^2} of the degree-q^3-q product prod(X^q - gamma); these
    are exactly the gamma themselves, q^2 - q of them."""
    t2 = make_tower(tower.p, tower.e, 2)
    gammas = quadratic_gammas(t2)
    count = 0
    for x in t2.enumerate_field():
        acc = 1
        xq = t2.frobenius_q(x, 1)
        for g in gammas:
            acc = t2.mul(acc, t2.sub(xq, g))
        if acc == 0:
            count += 1
    return count


@dataclass
class CurveCount:
    q: int
    n: int
    affine_V_cap_W: int            # F_{q^n}-rational intersection points
    affine_V_cap_W_closure: int    # true count over the closure (all quadratic)
    points_at_infinity_V: int
    H_minus_W_points: list
    h_minus_w_total: int
    mrd_consistent: bool

    def to_json(self):
        return {"q": self.q, "n": self.n,
                "affine_V_cap_W": self.affine_V_cap_W,
                "affine_V_cap_W_closure": self.affine_V_cap_W_closure,
                "points_at_infinity_V": self.points_at_infinity_V,
                "H_minus_W_points": self.H_minus_W_points,
                "h_minus_w_total": self.h_minus_w_total,
                "mrd_consistent": self.mrd_consistent}


def mrd_via_curve(tower, budget: int = PAIR_BUDGET):
    """MRD verdict for the {0,1,3} support: scan the affine plane for a point
    with H = 0 and W != 0 (the line at infinity lies on both curves).  The
    first such point, in canonical (x, y) order, yields a witness codeword
    through the Moore nullspace on A = (1, x, y)."""
    from .moore import _codeword_killing
    from .verify import Certificate, VERDICT_MRD, VERDICT_NOT_MRD, _ms
    t0 = time.perf_counter()
    t = tower
    if t.order ** 2 > budget:
        raise CapExceeded("pair enumeration exceeds the budget")
    code = SupportCode(t, (0, 1, 3), 1)
    perm = t.elements_array()          # canonical position -> packed value
    rows = _CurveRows(t, perm)
    scanned = 0
    hit = None
    for xpos in range(t.order):
        x = int(perm[xpos])
        bad = np.nonzero((rows.row(x, 3) == 0) & (rows.row(x, 2) != 0))[0]
        if bad.size:
            ypos = int(bad[0])
            scanned += ypos + 1
            hit = (x, int(perm[ypos]))
            break
        scanned += t.order
    if hit is None:
        return Certificate(code.descriptor(), VERDICT_MRD, "curve", None,
                           scanned, t.descriptor(), _ms(t0))
    x, y = hit
    f = _codeword_killing(t, (1, x, y), (0, 1, 3))
    kd = f.kernel_dim()
    if kd < 3:
        raise RuntimeError("curve witness failed q-circulant re-validation")
    witness = {"point": [t.coords(x), t.coords(y)],
               "codeword": f.to_json(), "kernel_dim": kd}
    return Certificate(code.descriptor(), VERDICT_NOT_MRD, "curve", witness,
                       scanned, t.descriptor(), _ms(t0))


def curve_report(tower) -> CurveCount:
    """The full report: intersection count, infinity count, and the points of
    H off W (sampled up to POINT_SAMPLE_LIMIT), cross-checked for consistency
    against the trinomial-criterion verdict."""
    from .verify import trinomial_criterion, VERDICT_MRD
    t = tower
    affine = count_V_cap_W(t)
    closure = count_V_cap_W_closure(t)
    inf = points_at_infinity(t)
    pts, total = _h_minus_w_points(t)
    verdict = trinomial_criterion(t).verdict
    consistent = (total == 0) == (verdict == VERDICT_MRD)
    return CurveCount(q=t.q, n=t.n, affine_V_cap_W=affine,
                      affine_V_cap_W_closure=closure,
                      points_at_infinity_V=inf,
                      H_minus_W_points=[[t.coords(x), t.coords(y)] for x, y in pts],
                      h_minus_w_total=total, mrd_consistent=consistent)


def _h_minus_w_points(tower):
    t = tower
    if t.order ** 2 > PAIR_BUDGET:
        raise CapExceeded("pair enumeration exceeds the budget")
    rows = _CurveRows(t)
    pts = []
    total = 0
    for x in range(t.order):
        ys = np.nonzero((rows.row(x, 3) == 0) & (rows.row(x, 2) != 0))[0]
        total += int(ys.size)
        for y in ys[:max(0, POINT_SAMPLE_LIMIT - len(pts))]:
            pts.append((x, int(y)))
    return pts, total

