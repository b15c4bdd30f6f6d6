import itertools
import math
import random

import pytest

from mrdcodes import verify
from mrdcodes.codes import gabidulin, named_family
from mrdcodes.fields import make_tower
from mrdcodes.linpoly import LinPoly
from mrdcodes.moore import (fq_rank, independence_criterion, moore_det,
                            moore_matrix, moore_product_formula, mrd_by_moore)

rng = random.Random(0x300E)


def test_singletons_and_repeats():
    t = make_tower(2, 1, 4)
    g = t.generator
    assert moore_det(t, [g], [2], 1) == t.frobenius_q(g, 2)
    assert moore_det(t, [0], [0], 1) == 0
    assert moore_det(t, [g, g], [0, 1], 1) == 0
    with pytest.raises(ValueError):
        moore_det(t, [g], [0, 1], 1)


def test_dependence_iff_zero_exhaustive():
    # every subset A with k <= 3, every T of matching size, every valid s
    for (p, n) in ((2, 3), (2, 4)):
        t = make_tower(p, 1, n)
        elems = list(t.enumerate_field())
        svals = [s for s in range(1, n) if math.gcd(s, n) == 1]
        for k in (1, 2, 3):
            for A in itertools.combinations(elems, k):
                dep = fq_rank(t, A) < k
                for T in itertools.combinations(range(n), k):
                    for s in svals:
                        d = moore_det(t, A, T, s)
                        if dep:
                            assert d == 0
                        elif T == tuple(range(k)):
                            assert d != 0   # square Moore criterion


def test_product_formula_small_identity():
    t = make_tower(2, 1, 3)
    g = t.generator
    pf = moore_product_formula(t, [1, g])
    assert pf == t.mul(g, t.add(1, g))
    assert pf == moore_det(t, [1, g], [0, 1], 1)
    assert moore_product_formula(t, [g]) == g


def test_product_formula_matches_det_random():
    t = make_tower(3, 1, 4)
    for _ in range(300):
        k = rng.choice([1, 2, 3])
        A = [rng.randrange(t.order) for _ in range(k)]
        assert moore_product_formula(t, A) == moore_det(t, A, range(k), 1)


def test_independence_criterion():
    t = make_tower(3, 1, 3)
    assert independence_criterion(t, [0], 1) is False
    basis = list(t.q_basis)
    assert independence_criterion(t, basis, 1) is True
    dep = [1, t.generator, t.add(1, t.generator)]   # 1 + g - (1+g) = 0
    assert independence_criterion(t, dep, 1) is False
    for _ in range(100):
        k = rng.choice([1, 2, 3])
        A = [rng.randrange(t.order) for _ in range(k)]
        assert independence_criterion(t, A, 1) == (fq_rank(t, A) == k)


def test_moore_matrix_shape():
    t = make_tower(2, 1, 5)
    A = [1, t.generator, 7]
    M = moore_matrix(t, A, [0, 2, 3], 1)
    assert len(M) == 3 and len(M[0]) == 3
    assert M[1][0] == t.generator and M[1][1] == t.frobenius_q(t.generator, 2)


def test_mrd_by_moore_gabidulin():
    t = make_tower(2, 1, 5)
    cert = mrd_by_moore(gabidulin(t, 2, 1))
    assert cert.verdict == "MRD"
    assert mrd_by_moore(gabidulin(t, 1, 1)).verdict == "MRD"


def test_mrd_by_moore_refutes_and_witnesses():
    t = make_tower(2, 1, 7)
    cert = mrd_by_moore(named_family("C7", t))
    assert cert.verdict == "NOT_MRD"
    assert verify.validate_certificate(cert)
    assert cert.witness["T"] == [0, 1, 3]
    A = [t.element_from_json(a) for a in cert.witness["A"]]
    assert fq_rank(t, A) == 3
    assert moore_det(t, A, [0, 1, 3], 1) == 0
    w = LinPoly.from_json(t, cert.witness["codeword"])
    assert w.kernel_dim() >= 3
    assert all(w.eval(a) == 0 for a in A)


def test_mrd_by_moore_agrees_with_scan():
    for (p, n, T) in ((2, 4, (0, 1)), (2, 5, (0, 2)), (2, 6, (0, 2, 4)),
                      (2, 6, (0, 1, 3)), (3, 4, (0, 1))):
        t = make_tower(p, 1, n)
        from mrdcodes.codes import SupportCode
        code = SupportCode(t, T, 1)
        a = mrd_by_moore(code)
        b = verify.exhaustive_scan(code)
        assert a.verdict == b.verdict, (p, n, T)


def test_budget_unknown():
    t = make_tower(2, 1, 7)
    cert = mrd_by_moore(named_family("C7", t).delsarte_dual(), budget=3)
    assert cert.verdict == "UNKNOWN"


def test_budget_counts_dependent_sets():
    # PG(3,2) has 455 triples of points, 420 of them independent: a budget
    # of 420 lets every independent triple through but not the 35 lines
    t = make_tower(2, 1, 4)
    code = gabidulin(t, 3, 1)
    assert mrd_by_moore(code, budget=455).scanned == 420
    cert = mrd_by_moore(code, budget=420)
    assert cert.verdict == "UNKNOWN" and cert.scanned < 420
