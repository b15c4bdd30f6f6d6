import json
import random

import numpy as np
import pytest

from mrdcodes import _batch, cli, curves, moore, verify
from mrdcodes.codes import SupportCode
from mrdcodes.fields import CapExceeded, make_tower
from mrdcodes.linpoly import LinPoly

rng = random.Random(0xCB2)

# the towers (p, e, n) on which mrd_via_curve is compared with the pair sweep
CURVE_TOWERS = [(2, 1, 5), (2, 1, 6), (2, 1, 7), (2, 1, 8), (3, 1, 5), (3, 1, 6),
                (3, 1, 7), (3, 1, 8), (2, 2, 5), (2, 2, 6), (2, 2, 7), (5, 1, 5),
                (5, 1, 6)]

# (p, e, n) -> |V cap W| over F_{q^n}, as the pair sweep counts it; the
# n = 2 towers are the closure counts
COUNT_TOWERS = {(2, 1, 6): 12, (2, 1, 7): 0, (2, 1, 8): 12, (3, 1, 4): 72,
                (3, 1, 6): 72, (3, 1, 7): 0, (2, 2, 4): 240, (2, 2, 6): 240,
                (5, 1, 4): 600, (5, 1, 5): 0, (2, 1, 2): 12, (3, 1, 2): 72,
                (2, 2, 2): 240, (5, 1, 2): 600}


# ----------------------------------------------------------------------------
# reference semantics: H, W and V pointwise, V as the product over gamma
# ----------------------------------------------------------------------------

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


class QuadraticLift:
    """Embedding of F_{q^n} into F_{q^{2n}}, where F_{q^2} also lives."""

    def __init__(self, tower):
        self.base = tower
        self.big = make_tower(tower.p, tower.e, 2 * tower.n)
        self.root = self._modulus_root()
        self.gammas = curves.quadratic_gammas(self.big)

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
    # invert the embedding by linear search over the base field
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
        if t.frobenius_q(r, 1) == r:
            prod = t.pow(v, q * q - q)
        else:
            num = t.sub(t.pow(u, q * q), t.mul(u, t.pow(v, q * q - 1)))
            den = t.sub(t.pow(u, q), t.mul(u, t.pow(v, q - 1)))
            prod = t.mul(num, t.inv(den))
    return t.add(prod, 1)


# ----------------------------------------------------------------------------
# reference engine: every pair (x, y), one Q-long row of H and of W per x
# ----------------------------------------------------------------------------

class CurveRows:
    """The rows (x^q - x^{q^j}) v + (y^{q^j} - y^q) u over all packed y, for
    j in {2, 3}: W(1, x, .) for j = 2 and H(1, x, .) for j = 3."""

    def __init__(self, tower):
        t = self.tower = tower
        ids = np.arange(t.order, dtype=np.int64)
        F1 = _batch.vec_frob_q(t, ids, 1)
        self.U = _batch.vec_sub(t, F1, ids)                    # u = x^q - x
        self.A = {j: _batch.vec_sub(t, F1, _batch.vec_frob_q(t, ids, j))
                  for j in (2, 3)}                             # x^q - x^{q^j}
        self.C = {j: _batch.vec_neg(t, a) for j, a in self.A.items()}  # y^{q^j} - y^q

    def row(self, x: int, j: int) -> np.ndarray:
        """The row of the packed value x."""
        t, a, u = self.tower, np.int64(int(self.A[j][x])), np.int64(int(self.U[x]))
        return _batch.vec_add(t, _batch.vec_mul(t, a, self.U),
                              _batch.vec_mul(t, self.C[j], u))


def pair_sweep(t):
    """Reference for mrd_via_curve: evaluate H and W on all q^{2n} points in
    canonical (x, y) order and stop at the first point with H = 0 != W."""
    code = SupportCode(t, (0, 1, 3), 1)
    Q = t.order
    perm = t.elements_array()          # canonical position -> packed value
    rows = CurveRows(t)
    for xpos in range(Q):
        x = int(perm[xpos])
        off_w = (rows.row(x, 3) == 0) & (rows.row(x, 2) != 0)
        bad = np.flatnonzero(off_w[perm])
        if bad.size:
            y = int(perm[bad[0]])
            f = moore._codeword_killing(t, (1, x, y), (0, 1, 3))
            witness = {"point": [t.coords(x), t.coords(y)],
                       "codeword": f.to_json(), "kernel_dim": f.kernel_dim()}
            return verify.Certificate(code.descriptor(), "NOT_MRD", "curve",
                                      witness, xpos * Q + int(bad[0]) + 1,
                                      t.descriptor(), 0.0)
    return verify.Certificate(code.descriptor(), "MRD", "curve", None, Q * Q,
                              t.descriptor(), 0.0)


def pair_points(t):
    """Reference for _line_sweep: the points with H = 0 != W in packed
    (x, y) order, the first POINT_SAMPLE_LIMIT of them, and their number."""
    rows = CurveRows(t)
    pts, total = [], 0
    for x in range(t.order):
        ys = np.flatnonzero((rows.row(x, 3) == 0) & (rows.row(x, 2) != 0))
        total += int(ys.size)
        pts += [(x, int(y)) for y in ys[:max(0, curves.POINT_SAMPLE_LIMIT - len(pts))]]
    return pts, total


def pair_count(t):
    """Reference for count_V_cap_W: W on all q^{2n} pairs, V by the closed
    form at the zeros of W."""
    rows = CurveRows(t)
    count = 0
    for x in range(t.order):
        v = rows.U[rows.row(x, 2) == 0]
        count += int((curves._v_closed(t, np.full_like(v, rows.U[x]), v) == 0).sum())
    return count


def _untimed(cert):
    out = cert.to_json()
    out.pop("elapsed_ms")
    return json.dumps(out, sort_keys=True)


def test_eval_identities():
    t = make_tower(2, 1, 7)
    for _ in range(25):
        x, y = rng.randrange(t.order), rng.randrange(t.order)
        assert eval_H(t, x, x) == 0
        assert eval_H(t, 0, y) == 0
    for x in t.subfield_elements:
        for _ in range(10):
            y = rng.randrange(t.order)
            assert eval_W(t, x, y) == 0


def test_product_form_matches_closed_form():
    t = make_tower(2, 1, 7)
    lift = QuadraticLift(t)
    assert len(lift.gammas) == t.q ** 2 - t.q
    for _ in range(40):
        x, y = rng.randrange(t.order), rng.randrange(t.order)
        assert v_product(lift, x, y) == v_closed(t, x, y)
    t3 = make_tower(3, 1, 5)
    lift3 = QuadraticLift(t3)
    for _ in range(25):
        x, y = rng.randrange(t3.order), rng.randrange(t3.order)
        assert v_product(lift3, x, y) == v_closed(t3, x, y)


def test_case_identities_on_w_points():
    # x in F_q: V = v^{q^2-q} + 1; u = xi*v: same simplification
    for (p, n) in ((2, 7), (3, 5)):
        t = make_tower(p, 1, n)
        q = t.q
        for x in t.subfield_elements:
            for _ in range(15):
                y = rng.randrange(t.order)
                v = t.sub(t.frobenius_q(y, 1), y)
                assert v_closed(t, x, y) == \
                    t.add(t.pow(v, q * q - q), 1)
        for xi in t.subfield_elements:
            if xi == 0:
                continue
            for _ in range(15):
                y = rng.randrange(t.order)
                v = t.sub(t.frobenius_q(y, 1), y)
                # lift u = xi*v back to some x with x^q - x = xi*v
                target = t.mul(xi, v)
                if t.rel_trace(target) != 0:
                    continue
                x = verify.artin_schreier_preimage(t, target)
                assert eval_W(t, x, y) == 0
                assert v_closed(t, x, y) == \
                    t.add(t.pow(v, q * q - q), 1)


def test_rational_intersection_counts():
    # quadratic coordinates: empty over odd n, the full closure count over even n
    assert curves.count_V_cap_W(make_tower(2, 1, 7)) == 0
    assert curves.count_V_cap_W(make_tower(2, 1, 8)) == 12
    assert curves.count_V_cap_W_closure(make_tower(2, 1, 7)) == 12
    assert curves.count_V_cap_W_closure(make_tower(3, 1, 7)) == 72


@pytest.mark.parametrize("p,e,n", sorted(COUNT_TOWERS))
def test_count_V_cap_W_matches_pair_count(p, e, n):
    t = make_tower(p, e, n)
    assert curves.count_V_cap_W(t) == pair_count(t) == COUNT_TOWERS[p, e, n]


def test_count_V_cap_W_in_small_point_blocks(monkeypatch):
    # a group of kernels split over many chunks, with a ragged last one
    monkeypatch.setattr(curves, "POINT_BLOCK", 5)
    for pen in ((2, 1, 6), (3, 1, 4), (2, 2, 4)):
        assert curves.count_V_cap_W(make_tower(*pen)) == COUNT_TOWERS[pen]


def test_count_V_cap_W_past_the_pair_sweep():
    # 7^10 > 2^28 pairs; the per-line kernels list 940,849 points of W
    assert curves.count_V_cap_W(make_tower(7, 1, 5)) == 0


def test_vectorised_v_matches_pointwise():
    # random pairs, then each case of the closed form: v = 0 (y in F_q),
    # u = 0 (x in F_q) and u/v = 1 (x = y)
    for pen in ((2, 1, 7), (3, 1, 5), (2, 2, 4), (5, 1, 4)):
        t = make_tower(*pen)
        rand = [rng.randrange(t.order) for _ in range(30)]
        sub = t.subfield_elements
        pairs = (list(zip(rand, reversed(rand))) + list(zip(rand, sub))
                 + list(zip(sub, rand)) + [(y, y) for y in rand[:10]])

        def diff(z):
            return t.sub(t.frobenius_q(z, 1), z)

        u = np.array([diff(x) for x, _ in pairs], dtype=np.int64)
        v = np.array([diff(y) for _, y in pairs], dtype=np.int64)
        want = [v_closed(t, x, y) for x, y in pairs]
        assert curves._v_closed(t, u, v).tolist() == want, pen


def test_count_V_cap_W_without_tables(no_tables, capsys):
    t = make_tower(2, 1, 7)
    assert t.tables is None
    with pytest.raises(CapExceeded):
        curves.count_V_cap_W(t)
    assert cli.main(["curve-count", "--q", "2", "--n", "7"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and "Zech tables" in err


def test_closure_count_formula():
    # the case analysis gives 2(q^3-q^2) + q(q-1)(q^2-q) = q^2(q^2-1)
    for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1)):    # q = 7: 2352
        t = make_tower(p, e, 4)
        assert curves.count_V_cap_W_closure(t) == t.q ** 2 * (t.q ** 2 - 1)


def test_points_at_infinity():
    assert curves.points_at_infinity(make_tower(2, 1, 7)) == 2
    assert curves.points_at_infinity(make_tower(3, 1, 7)) == 6


def test_infinity_multiplicity():
    # prod(X^q - gamma) equals (prod(X - gamma))^q coefficientwise
    for q_p in (2, 3):
        t2 = make_tower(q_p, 1, 2)
        q = t2.q
        gammas = [g for g in t2.enumerate_field() if t2.frobenius_q(g, 1) != g]

        def polymul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    out[i + j] = t2.add(out[i + j], t2.mul(ai, bj))
            return out

        lin = [1]
        for g in gammas:
            lin = polymul(lin, [t2.neg(g), 1])
        # raise to the q-th power: char-p freshman's dream on coefficients
        lin_q = [0] * ((len(lin) - 1) * q + 1)
        for i, c in enumerate(lin):
            lin_q[i * q] = t2.pow(c, q)
        direct = [1]
        for g in gammas:
            term = [t2.neg(g)] + [0] * (q - 1) + [1]   # X^q - gamma
            direct = polymul(direct, term)
        assert direct == lin_q


def test_mrd_via_curve_verdicts():
    assert curves.mrd_via_curve(make_tower(2, 1, 7)).verdict == "NOT_MRD"
    assert curves.mrd_via_curve(make_tower(2, 1, 8)).verdict == "NOT_MRD"
    cert = curves.mrd_via_curve(make_tower(2, 1, 7))
    assert verify.validate_certificate(cert)
    t = make_tower(2, 1, 7)
    x, y = (t.element_from_json(v) for v in cert.witness["point"])
    assert eval_H(t, x, y) == 0 and eval_W(t, x, y) != 0
    w = LinPoly.from_json(t, cert.witness["codeword"])
    assert w.kernel_dim() >= 3
    for root in (1, x, y):
        assert w.eval(root) == 0


@pytest.mark.parametrize("p,e,n", CURVE_TOWERS)
def test_mrd_via_curve_matches_pair_sweep(p, e, n):
    t = make_tower(p, e, n)
    assert _untimed(curves.mrd_via_curve(t)) == _untimed(pair_sweep(t))


@pytest.mark.parametrize("p,e,n", [(2, 1, 7), (2, 2, 5), (3, 2, 3), (2, 3, 3)])
def test_coset_sweep_lists_each_coset_minimum(p, e, n):
    t = make_tower(p, e, n)
    xs = np.concatenate(list(curves._x_blocks(t))).tolist()
    minima = {min(t.canonical_index(t.add(t.element_at(m), c))
                  for c in t.subfield_elements) for m in range(t.order)}
    assert xs == sorted(minima)


@pytest.mark.parametrize("p,e,n", [(2, 1, 7), (3, 1, 5), (2, 2, 5), (3, 2, 5)])
def test_line_ranks_constant_on_cosets(p, e, n):
    # M_H and M_W see x only through x^q - x and x^q - x^{q^j}
    t = make_tower(p, e, n)
    draw = random.Random(0xC05E7)
    for _ in range(6):
        x = t.element_at(draw.randrange(t.order))
        idx = np.array([t.canonical_index(t.add(x, c)) for c in t.subfield_elements])
        mh, mw = (curves._line_maps(t, idx, j).transpose(2, 0, 1) for j in (3, 2))
        ranks = [_batch.batch_rank(np.array(m), p)
                 for m in (mh, mw, np.concatenate([mh, mw], axis=1))]
        for r in ranks:
            assert (r == r[0]).all(), t.element_to_json(x)


def test_mrd_via_curve_past_the_pair_sweep():
    # q^{2n} = 2.8e8 pairs; the per-line kernels need 16,807 small ranks
    t = make_tower(7, 1, 5)
    cert = curves.mrd_via_curve(t)
    assert cert.verdict == verify.trinomial_criterion(t).verdict == "MRD"
    assert cert.scanned == t.order ** 2
    assert verify.validate_certificate(cert)


def test_mrd_via_curve_without_tables(request):
    towers = [(2, 1, 7), (3, 1, 5), (2, 2, 6)]
    want = [_untimed(curves.mrd_via_curve(make_tower(*pen))) for pen in towers]
    request.getfixturevalue("no_tables")
    for pen, w in zip(towers, want):
        t = make_tower(*pen)
        assert t.tables is None
        assert _untimed(curves.mrd_via_curve(t)) == w, pen


@pytest.mark.parametrize("p,e,n", [(2, 1, 7), (2, 1, 8), (3, 1, 6), (2, 2, 6), (3, 1, 5)])
def test_h_minus_w_points_match_pair_points(p, e, n):
    # the report's one sweep also gives the standalone V cap W count
    t = make_tower(p, e, n)
    affine, pts, total = curves._line_sweep(t)
    assert (pts, total) == pair_points(t)
    assert affine == curves.count_V_cap_W(t)


def test_curve_report_consistency():
    rep = curves.curve_report(make_tower(2, 1, 7))
    assert rep.mrd_consistent and rep.h_minus_w_total > 0
    assert rep.points_at_infinity_V == 2
    assert rep.affine_V_cap_W == 0 and rep.affine_V_cap_W_closure == 12
    data = rep.to_json()
    assert data["q"] == 2 and data["n"] == 7


def test_corrected_gap_inequality_also_holds():
    # with the exhaustively-verified closure count q^2(q^2-1) in place of the
    # smaller constant, the large-n inequality still holds on the whole range
    for q in range(2, 10):
        g = q * (q - 1) * (q ** 3 - 2 * q - 2) // 2 + 1
        for n in range(10, 21):
            lhs = q ** n + 1 - (q * q * (q * q - 1) + q * q - q)
            assert lhs > 0 and lhs * lhs > 4 * g * g * q ** n


def _line_maps_by_coordinates(t, idx, j):
    """The line maps built from coordinate rows: the coordinates of x,
    their images under the q-Frobenius matrices, and their product with the
    support block of (0, 1, j)."""
    p = t.p
    X = _batch.element_coord_columns(idx, p, t.degree)
    Xq = X @ t.frob_q_matrix(1).T
    Xj = X @ t.frob_q_matrix(j).T
    coeffs = np.concatenate([Xj - Xq, X - Xj, Xq - X], axis=1) % p
    return _batch.SupportBlockMatrix(t, (0, 1, j)).matrices(coeffs)


@pytest.mark.parametrize("p,e,n", [(3, 1, 7), (2, 2, 7), (3, 1, 8), (2, 1, 8)])
def test_line_maps_match_coordinate_rows(p, e, n):
    # the digit-table maps against the product, on the four towers of the
    # benchmark's curve engine, in blocks of 16, 4096 and a ragged 1027
    # ending at the last element
    t = make_tower(p, e, n)
    for j in (2, 3):
        for start, size in ((0, 16), (16, 4096), (t.order - 1027, 1027)):
            idx = np.arange(start, min(start + size, t.order), dtype=np.int64)
            got = curves._line_maps(t, idx, j)
            assert got.dtype == _batch.lazy_dtype(p, t.degree)
            assert got.shape == (t.degree, t.degree, idx.size)
            assert np.array_equal(got, _line_maps_by_coordinates(t, idx, j).transpose(1, 2, 0))
