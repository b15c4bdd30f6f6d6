import json
import random

import pytest

from mrdcodes import _linalg
from mrdcodes.fields import make_tower
from mrdcodes.linpoly import LinPoly, fq_independent

rng = random.Random(0x11B)


def rand_poly(t):
    return LinPoly(t, [rng.randrange(t.order) for _ in range(t.n)])


def test_eval_identity_and_trace():
    t = make_tower(2, 1, 7)
    X = LinPoly.identity(t)
    tr = LinPoly.trace(t)
    for _ in range(25):
        x = rng.randrange(t.order)
        assert X.eval(x) == x
        assert tr.eval(x) == t.rel_trace(x)


def test_subfield_kernel_polynomial():
    # X^{q^3} - X kills exactly the cubic subfield when 3 | n
    t = make_tower(2, 1, 9)
    f = LinPoly.from_support(t, [3, 0], [1, t.neg(1)])
    roots = f.roots()
    assert len(roots) == t.q ** 3
    assert all(t.frobenius_q(x, 3) == x for x in roots)


def test_compose():
    t = make_tower(2, 1, 7)
    Xq = LinPoly.monomial(t, 1, 1)
    assert Xq.compose(Xq) == LinPoly.monomial(t, 1, 2)
    f = rand_poly(t)
    assert f.compose(LinPoly.identity(t)) == f
    a, b = rng.randrange(1, t.order), rng.randrange(1, t.order)
    assert LinPoly.monomial(t, a, 0).compose(LinPoly.monomial(t, b, 0)) == \
        LinPoly.monomial(t, t.mul(a, b), 0)
    for _ in range(10):
        g, h = rand_poly(t), rand_poly(t)
        x = rng.randrange(t.order)
        assert f.compose(g).eval(x) == f.eval(g.eval(x))
        assert f.compose(g).compose(h) == f.compose(g.compose(h))
        assert (f + g).compose(h) == f.compose(h) + g.compose(h)
        assert h.compose(f + g) == h.compose(f) + h.compose(g)


def test_adjoint():
    t = make_tower(3, 1, 5)
    a = rng.randrange(1, t.order)
    assert LinPoly.monomial(t, a, 0).adjoint() == LinPoly.monomial(t, a, 0)
    for _ in range(10):
        f = rand_poly(t)
        assert f.adjoint().adjoint() == f
    f = rand_poly(t)
    fa = f.adjoint()
    for _ in range(50):
        x, y = rng.randrange(t.order), rng.randrange(t.order)
        assert t.rel_trace(t.mul(x, f.eval(y))) == \
            t.rel_trace(t.mul(fa.eval(x), y))


def test_dickson_entries():
    t = make_tower(2, 1, 7)
    assert LinPoly.zero(t).dickson() == [[0] * 7 for _ in range(7)]
    f = LinPoly.from_support(t, [0, 1, 3], [1, 1, 1])
    # the 0/1 circulant is the point-line incidence pattern of the order-2 plane
    assert f.dickson() == [
        [1, 1, 0, 1, 0, 0, 0],
        [0, 1, 1, 0, 1, 0, 0],
        [0, 0, 1, 1, 0, 1, 0],
        [0, 0, 0, 1, 1, 0, 1],
        [1, 0, 0, 0, 1, 1, 0],
        [0, 1, 0, 0, 0, 1, 1],
        [1, 0, 1, 0, 0, 0, 1]]


def test_dickson_twisted_entries_n8():
    # X + X^q + a X^{q^3} over F_{q^8} with a^2 + a + 1 = 0
    t = make_tower(2, 1, 8)
    a = next(x for x in t.enumerate_field()
             if x > 1 and t.add(t.add(t.mul(x, x), x), 1) == 0)
    f = LinPoly.from_support(t, [0, 1, 3], [1, 1, a])
    D = f.dickson()
    inv_a = t.inv(a)
    assert D[0][:4] == [1, 1, 0, a]
    assert D[1][1:5] == [1, 1, 0, inv_a]   # a^q = a^2 = 1/a on the cubic root
    assert D[7][0] == 1 and D[7][2] == inv_a


def test_rank_values():
    t = make_tower(2, 1, 7)
    assert LinPoly.identity(t).rank() == 7
    f = LinPoly.from_support(t, [0, 1, 3], [1, 1, 1])
    assert f.rank() == 4 and f.kernel_dim() == 3
    t38 = make_tower(3, 1, 8)
    f38 = LinPoly.from_support(t38, [0, 1, 3], [1, 1, 1])
    assert f38.rank() == 5


def test_roots_vs_rank_crosscheck():
    t = make_tower(2, 1, 7)
    assert LinPoly.identity(t).roots() == {0}
    for _ in range(200):
        f = rand_poly(t)
        assert len(f.roots()) == t.q ** f.kernel_dim()
    t33 = make_tower(3, 1, 3)
    for _ in range(60):
        f = rand_poly(t33)
        assert len(f.roots()) == t33.q ** f.kernel_dim()


def test_rank_of_adjoint_matches():
    t = make_tower(3, 1, 5)
    for _ in range(25):
        f = rand_poly(t)
        assert f.adjoint().rank() == f.rank()


def test_kernel_is_subspace():
    t = make_tower(2, 1, 7)
    for _ in range(10):
        f = rand_poly(t)
        ker = f.roots()
        lam = t.subfield_elements[-1]
        for x in list(ker)[:6]:
            for y in list(ker)[:6]:
                assert t.add(x, y) in ker
                assert t.mul(lam, x) in ker


@pytest.mark.parametrize("pen", [(2, 2, 3), (3, 2, 2), (2, 3, 2), (3, 1, 4)])
def test_fq_independent_is_greedy_on_q_coords(pen):
    # oracle: keep an element when it raises the F_q-rank of the
    # q-coordinate vectors kept so far, eliminated over F_{q^n}
    t = make_tower(*pen)
    assert fq_independent(t, []) == []
    for _ in range(10):
        xs = [rng.randrange(t.order) for _ in range(rng.randrange(1, t.n + 2))]
        lam = t.subfield_elements[rng.randrange(t.q)]
        xs.insert(rng.randrange(1, len(xs) + 1), t.mul(lam, xs[0]))
        kept, rows = [], []
        for i, x in enumerate(xs):
            v = list(t.q_coords(x))
            if _linalg.rank(t, rows + [v], t.n) > len(rows):
                rows.append(v)
                kept.append(i)
        assert fq_independent(t, [t.coords(x) for x in xs]) == kept


def test_json_roundtrip_and_sparse_form():
    t = make_tower(3, 1, 4)
    f = rand_poly(t)
    assert LinPoly.from_json(t, json.loads(json.dumps(f.to_json()))) == f
    g = LinPoly.from_json(t, {"terms": [
        {"i": 0, "c": t.coords(5)}, {"i": 2, "c": t.coords(7)}]})
    assert g == LinPoly.from_support(t, [0, 2], [5, 7])


def test_tower_mismatch():
    f = LinPoly.identity(make_tower(2, 1, 4))
    g = LinPoly.identity(make_tower(2, 1, 5))
    with pytest.raises(ValueError):
        f.compose(g)
