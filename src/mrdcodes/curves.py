"""The plane curves attached to the {0,1,3} support.

With u = x^q - x and v = y^q - y, the three affine polynomials are

    H(1,x,y) = (x^q - x^{q^3}) v + (y^{q^3} - y^q) u        (support {0,1,3})
    W(1,x,y) = (x^q - x^{q^2}) v + (y^{q^2} - y^q) u        (support {0,1,2})
    V(x,y)   = prod_{gamma in F_{q^2} minus F_q} (u - gamma v) + 1

V is the quotient H/W off W; the support code with exponents {0,1,3} is MRD
exactly when H has no rational point off W.  For a fixed x both y -> H(1,x,y)
and y -> W(1,x,y) are F_q-linear: with a_j = x^q - x^{q^j} they are the
q-polynomials -a_j y + (a_j - u) y^q + u y^{q^j}, codewords of the supports
{0,1,3} and {0,1,2}.  So the line through x holds a point of H off W exactly
when rank [M_H; M_W] > rank M_H for their d x d matrices over F_p, and the
MRD engine and the point counts take both ranks from one elimination of
[M_H; M_W] per x instead of evaluating all q^{2n} pairs.  The maps see x
only through u and a_j, which x -> x + c leaves unchanged for c in F_q, so
every sweep over x ranks one x per coset x + F_q, its canonical minimum,
and a count over all x is q times the count over the minima.  In the same
way the points of W on the line through x are ker M_W(x): the
intersection count lists them kernel by kernel and evaluates V at each
through the closed form

    v = 0            ->  u^{q^2-q}
    u/v in F_q       ->  v^{q^2-q}
    otherwise        ->  (u^{q^2} - u v^{q^2-1}) / (u^q - u v^{q-1})

whose equality with the product is exercised by the test suite.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import _batch
from .fields import CapExceeded, make_tower, nullspace_modp, rref_modp, span_modp
from .codes import SupportCode

POINT_SAMPLE_LIMIT = 200
X_BLOCK = 1 << 10       # x values per block of line maps
POINT_BLOCK = 1 << 16   # points of W per evaluation of V


def quadratic_gammas(tower) -> list[int]:
    """F_{q^2} minus F_q inside a tower of even n, canonical order."""
    sub = set(tower.subfield_elements)
    return [g for g in tower.fixed_field(2 * tower.e) if g not in sub]


# ----------------------------------------------------------------------------
# vectorized counting
# ----------------------------------------------------------------------------

def _v_closed(tower, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V at the pairs of packed u = x^q - x, v = y^q - y (arrays of one
    shape), closed form.  Needs the Zech tables."""
    t, q, Q = tower, tower.q, tower.order
    out = np.empty_like(v)
    v0 = v == 0
    out[v0] = _batch.vec_pow(t, u[v0], q * q - q)
    nz = ~v0
    Un, Vn = u[nz], v[nz]
    r = _batch.vec_mul(t, Un, _batch.vec_pow(t, Vn, Q - 2))
    in_fq = _batch.vec_frob_q(t, r, 1) == r
    res = np.empty_like(Vn)
    res[in_fq] = _batch.vec_pow(t, Vn[in_fq], q * q - q)
    gen = ~in_fq
    Ug, Vg = Un[gen], Vn[gen]
    num = _batch.vec_sub(t, _batch.vec_pow(t, Ug, q * q),
                         _batch.vec_mul(t, Ug, _batch.vec_pow(t, Vg, q * q - 1)))
    den = _batch.vec_sub(t, _batch.vec_pow(t, Ug, q),
                         _batch.vec_mul(t, Ug, _batch.vec_pow(t, Vg, q - 1)))
    res[gen] = _batch.vec_mul(t, num, _batch.vec_pow(t, den, Q - 2))
    out[nz] = res
    return _batch.vec_add(t, out, np.int64(1))


def count_V_cap_W(tower) -> int:
    """Number of F_{q^n}-rational affine points on both V and W.

    An honest enumeration, line by line: the points of W on the line
    through x are the y in ker M_W(x), listed by span (the whole field for
    x in F_q, where M_W is zero), and V is evaluated at every one of them
    by the closed form.  W's kernel and u = x^q - x are the same for every x
    in a coset x + F_q, so only the coset minima are swept and their count
    is multiplied by q: q^{n-1} small kernels and about (q^2 + q) q^{n-1}
    evaluations of V, in blocks of at most POINT_BLOCK points.  V needs the
    Zech tables, so a field past TABLE_CAP raises CapExceeded.

    Every affine intersection point has both coordinates in F_{q^2}, so this
    is zero whenever n is odd and equals the closure count when n is even;
    see count_V_cap_W_closure for the field-independent value.
    """
    t = tower
    return t.q * sum(_v_cap_w_on_lines(t, idx, _line_maps(t, idx, 2))
                     for idx in _x_blocks(t))


def _v_cap_w_on_lines(tower, idx, mw) -> int:
    """Points of V cap W on the lines through the x of canonical indices
    idx, mw their maps M_W (batch-last): V at each y of ker M_W(x), by the
    closed form."""
    t, p, d = tower, tower.p, tower.degree
    if t.tables is None:
        raise CapExceeded(f"V needs Zech tables; the field of {t.order} "
                          "elements exceeds TABLE_CAP")
    packing = p ** np.arange(d, dtype=np.int64)
    delta = (t.frob_q_matrix(1) - np.eye(d, dtype=np.int64)).T % p   # z -> z^q - z on rows
    ranks, kernels = _batch.batch_kernels(mw, p)
    u = _batch.element_coord_columns(idx, p, d) @ delta % p @ packing
    dims = d - ranks
    count = 0
    for k in _batch.distinct(dims).tolist():
        sel = np.flatnonzero(dims == k)
        basis_v = kernels[sel, :k] @ delta % p            # v of the basis vectors
        step = max(1, POINT_BLOCK // sel.size)
        for start in range(0, p ** k, step):
            combos = _batch.element_coord_columns(
                np.arange(start, min(start + step, p ** k), dtype=np.int64), p, k)
            v = combos @ basis_v % p @ packing           # (len(sel), len(combos))
            uu = np.broadcast_to(u[sel][:, None], v.shape)
            count += int((_v_closed(t, uu, v) == 0).sum())
    return count


def count_V_cap_W_closure(tower) -> int:
    """Affine points of V cap W over the algebraic closure.  They all have
    coordinates in F_{q^2}, so this is count_V_cap_W over F_{q^2}.  The case
    analysis (x in F_q, y in F_q, or u = xi v) gives 2(q^3 - q^2) +
    q(q-1)(q^2-q) = q^2(q^2-1): the Artin-Schreier fiber of
    x^q - x = xi(y^q - y) has exactly q points."""
    return count_V_cap_W(make_tower(tower.p, tower.e, 2))


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


@functools.lru_cache(maxsize=64)
def _line_block(p, e, n, j):
    """The block matrix of the line maps for j: rows Lambda_j take the
    coordinates of x to those of the coefficients (x^{q^j} - x^q,
    x - x^{q^j}, x^q - x) of the support (0, 1, j), which are F_p-linear
    in x through the q-Frobenius matrices."""
    t = make_tower(p, e, n)
    fq, fj = t.frob_q_matrix(1).T, t.frob_q_matrix(j).T
    one = np.eye(t.degree, dtype=np.int64)
    rows = np.concatenate([fj - fq, one - fj, fq - one], axis=1) % p
    return _batch.SupportBlockMatrix(t, (0, 1, j), rows)


def _line_maps(tower, idx, j):
    """The d x d matrices over F_p of y -> (x^q - x^{q^j}) v +
    (y^{q^j} - y^q) u for the elements x of canonical indices idx: M_H for
    j = 3, M_W for j = 2, batch-last, shape (d, d, len(idx)).  The digits of
    idx are the coordinates of x, so the maps come from the digit tables of
    _line_block(j)."""
    t, d = tower, tower.degree
    return _line_block(t.p, t.e, t.n, j).index_maps(idx).reshape(d, d, -1)


def _x_blocks(tower):
    """Canonical indices of the minimum of each coset x + F_q, in increasing
    order, in blocks that start at 16 and double up to X_BLOCK, so an early
    point costs little.  The minimum is the member with zero digits at the
    pivot columns of F_q's reduced echelon F_p-basis (the rows behind
    `fq_basis_fp`), since adding the basis rows can clear those digits and
    any other member is larger at its first nonzero pivot digit.  The
    q^{n-1} minima are listed by spreading a counter over the free columns."""
    t, p, d = tower, tower.p, tower.degree
    pivots = rref_modp([t.coords(u) for u in t.fq_basis_fp], p)[1]
    free = np.array(sorted(set(range(d)) - set(pivots)), dtype=np.int64)
    total, weights = t.order // t.q, p ** (d - 1 - free)
    start, size = 0, 16
    while start < total:
        counter = np.arange(start, min(start + size, total), dtype=np.int64)
        yield _batch.element_coord_columns(counter, p, len(free)) @ weights
        start, size = start + size, min(2 * size, X_BLOCK)


def _line_ranks(tower):
    """(idx, M_W, rank M_H, rank [M_H; M_W]) over the coset minima of
    `_x_blocks`, by one elimination of [M_H; M_W] per block of x."""
    for idx in _x_blocks(tower):
        mh, mw = (_line_maps(tower, idx, j) for j in (3, 2))
        yield (idx, mw, *_batch.stacked_ranks(mh, mw, tower.p))


def _h_off_w(tower, xpos: int) -> np.ndarray:
    """Coordinate rows of the y with H(1,x,y) = 0 != W(1,x,y), x the element
    of canonical index xpos: ker M_H listed, ker M_W dropped."""
    p = tower.p
    mh, mw = (_line_maps(tower, np.array([xpos], dtype=np.int64), j)[:, :, 0]
              for j in (3, 2))
    ys = span_modp(nullspace_modp(mh, p), p)
    return ys[(ys @ mw.T % p).any(axis=1)]


def mrd_via_curve(tower):
    """MRD verdict for the {0,1,3} support: look for a point with H = 0 and
    W != 0 (the line at infinity lies on both curves), line by line.  The
    first x in canonical order with rank [M_H; M_W] > rank M_H, and the y of
    smallest canonical index in ker M_H minus ker M_W, give the first such
    point in canonical (x, y) order; `scanned` is its position plus one
    (q^{2n} for MRD).  The witness is the codeword y -> H(1,x,y) divided by
    u, Y^{q^3} + (t-1)Y^q - tY with t = a_3/u, which vanishes on 1, x and
    y: the codeword of verify._codeword_from_h_point for that t.

    M_H and M_W depend on x only through u = x^q - x and a_j = x^q - x^{q^j},
    which x -> x + c leaves unchanged for c in F_q, so one x per coset
    x + F_q is ranked: its canonical minimum.  The first bad x of the full
    sweep is the minimum of its coset, so the sweep over the q^n / q minima
    stops at the same x."""
    from .verify import Certificate, VERDICT_MRD, _codeword_from_h_point, _ms, _not_mrd
    t0 = time.perf_counter()
    t = tower
    code = SupportCode(t, (0, 1, 3), 1)
    for idx, _, rank_h, rank_hw in _line_ranks(t):
        bad = np.flatnonzero(rank_hw > rank_h)
        if bad.size:
            xpos = int(idx[bad[0]])
            break
    else:
        return Certificate(code.descriptor(), VERDICT_MRD, "curve", None,
                           t.order ** 2, t.descriptor(), _ms(t0))
    ys = _h_off_w(t, xpos)
    canon = ys @ t.p ** np.arange(t.degree - 1, -1, -1, dtype=np.int64)
    first = int(np.argmin(canon))
    x, y = t.element_at(xpos), t.element(ys[first].tolist())
    xq = t.frobenius_q(x, 1)
    a3 = t.sub(xq, t.frobenius_q(x, 3))
    f = _codeword_from_h_point(t, t.mul(a3, t.inv(t.sub(xq, x))))
    return _not_mrd(code, "curve", f, xpos * t.order + int(canon[first]) + 1, t0,
                    point=[t.coords(x), t.coords(y)])


def curve_report(tower) -> CurveCount:
    """The full report: intersection count, infinity count, and the points of
    H off W (sampled up to POINT_SAMPLE_LIMIT), cross-checked for consistency
    against the trinomial-criterion verdict."""
    from .verify import trinomial_criterion, VERDICT_MRD
    t = tower
    affine, pts, total = _line_sweep(t)
    closure = count_V_cap_W_closure(t)
    inf = points_at_infinity(t)
    verdict = trinomial_criterion(t).verdict
    consistent = (total == 0) == (verdict == VERDICT_MRD)
    return CurveCount(q=t.q, n=t.n, affine_V_cap_W=affine,
                      affine_V_cap_W_closure=closure,
                      points_at_infinity_V=inf,
                      H_minus_W_points=[[t.coords(x), t.coords(y)] for x, y in pts],
                      h_minus_w_total=total, mrd_consistent=consistent)


def _line_sweep(tower):
    """One sweep over the coset minima for the report, each block's M_W
    built once and serving both counts: the number of affine points of
    V cap W (as count_V_cap_W), the points with H = 0 != W in packed (x, y)
    order, the first POINT_SAMPLE_LIMIT of them, and their number.  Each x
    contributes |ker M_H| - |ker M_H cap ker M_W| points, the same for the q
    members of its coset x + F_q.  The sample expands each coset minimum
    with points to its members and lists ker M_H minus ker M_W once per
    coset."""
    t, p, d = tower, tower.p, tower.degree
    affine = total = 0
    minima = []
    for idx, mw, rank_h, rank_hw in _line_ranks(t):
        affine += t.q * _v_cap_w_on_lines(t, idx, mw)
        total += t.q * int((p ** (d - rank_h) - p ** (d - rank_hw)).sum())
        minima.append(idx[rank_hw > rank_h])
    minima = np.concatenate(minima)
    packing = p ** np.arange(d, dtype=np.int64)
    shifts = np.array([t.coords(c) for c in t.subfield_elements], dtype=np.int64)
    xs = (_batch.element_coord_columns(minima, p, d)[:, None] + shifts) % p @ packing
    ys, pts = {}, []
    for i in np.argsort(xs, axis=None):       # flat index: coset i // q
        if len(pts) >= POINT_SAMPLE_LIMIT:
            break
        c = i // t.q
        if c not in ys:
            ys[c] = np.sort(_h_off_w(t, int(minima[c])) @ packing)
        pts += [(int(xs.flat[i]), int(y)) for y in ys[c][:POINT_SAMPLE_LIMIT - len(pts)]]
    return affine, pts, total
