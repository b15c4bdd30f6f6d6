import itertools
import random

import pytest

from mrdcodes.codes import (GeneralCode, SupportCode, code_from_json,
                            gabidulin, named_family)
from mrdcodes.fields import CapExceeded, make_tower
from mrdcodes.linpoly import LinPoly

rng = random.Random(0xC0DE5)


def test_gabidulin_supports():
    t = make_tower(2, 1, 7)
    g = gabidulin(t, 3, 1)
    assert g.T == (0, 1, 2) and g.q_support() == (0, 1, 2)
    t5 = make_tower(2, 1, 5)
    g2 = gabidulin(t5, 2, 2)
    assert g2.q_support() == (0, 2)
    full = gabidulin(t, 7, 1)
    assert full.k == 7
    with pytest.raises(ValueError):
        gabidulin(make_tower(2, 1, 6), 2, 2)   # gcd(2,6) != 1


def test_named_families():
    assert named_family("C7", make_tower(2, 1, 7)).q_support() == (0, 1, 3)
    assert named_family("C7'", make_tower(2, 1, 7)).q_support() == (0, 3, 5, 6)
    assert named_family("C8", make_tower(2, 1, 8)).q_support() == (0, 1, 3)
    assert named_family("C8'", make_tower(2, 1, 8)).q_support() == (0, 2, 3, 4, 5)
    t9 = make_tower(2, 1, 9)
    assert named_family("Ds", t9, s=4).q_support() == (0, 4, 7, 8)
    assert named_family("Ds", t9, s=1).q_support() == (0, 1, 2, 4)
    assert named_family("Cn", t9).q_support() == (0, 1, 3)
    with pytest.raises(ValueError):
        named_family("C7", make_tower(2, 1, 8))
    with pytest.raises(ValueError):
        named_family("Ds", t9, s=2)


def test_to_general_dimensions_and_membership():
    t = make_tower(2, 1, 7)
    c7 = named_family("C7", t)
    g = c7.to_general()
    assert g.dim == 21
    assert gabidulin(t, 1, 1).to_general().dim == 7
    assert g.contains(LinPoly.monomial(t, 1, 0))
    assert g.contains(LinPoly.zero(t))
    assert g.contains(LinPoly.from_support(t, [0, 1, 3], [9, 0, 88]))
    assert not g.contains(LinPoly.monomial(t, 1, 2))


def test_contains_is_fq_linear():
    t = make_tower(3, 1, 5)
    g = gabidulin(t, 2, 1).to_general()
    lam = t.subfield_elements[-1]
    for _ in range(20):
        f1 = LinPoly.from_support(t, [0, 1], [rng.randrange(t.order),
                                              rng.randrange(t.order)])
        f2 = LinPoly.from_support(t, [0, 1], [rng.randrange(t.order),
                                              rng.randrange(t.order)])
        assert g.contains(f1) and g.contains(f2)
        assert g.contains(f1 + f2.scale(lam))


def test_dual_of_full_space_and_dims():
    t = make_tower(2, 1, 4)
    full = SupportCode(t, range(4), 1).to_general()
    d = full.delsarte_dual()
    assert d.dim == 0
    assert d.contains(LinPoly.zero(t))
    assert not d.contains(LinPoly.identity(t))
    c = gabidulin(t, 2, 1).to_general()
    cd = c.delsarte_dual()
    assert c.dim + cd.dim == t.n * t.n
    assert cd.delsarte_dual().equals(c)


def test_dual_support_rule_and_orthogonality():
    t = make_tower(2, 1, 7)
    c7 = named_family("C7", t)
    d = c7.delsarte_dual()
    assert d.q_support() == (2, 4, 5, 6)
    # general path agrees with the support rule
    gd = c7.to_general().delsarte_dual()
    assert gd.equals(d.to_general())
    # trace form vanishes across the pair
    for f in c7.to_general().basis[:6]:
        for h in gd.basis[:6]:
            acc = 0
            for a, b in zip(f.coeffs, h.coeffs):
                acc = t.add(acc, t.mul(a, b))
            assert t.rel_trace(acc) == 0


def test_adjoint_rules():
    t = make_tower(2, 1, 7)
    c7 = named_family("C7", t)
    a = c7.adjoint_code()
    assert a.q_support() == (0, 4, 6)
    assert a.adjoint_code() == c7
    g = c7.to_general().adjoint_code()
    assert g.equals(a.to_general())
    assert g.adjoint_code().equals(c7.to_general())


def test_support_rules_random():
    for _ in range(12):
        n = rng.randrange(4, 10)
        q = rng.choice([2, 3])
        t = make_tower(q, 1, n)
        k = rng.randrange(1, n)
        T = sorted(rng.sample(range(n), k))
        svals = [s for s in range(1, n) if __import__("math").gcd(s, n) == 1]
        c = SupportCode(t, T, rng.choice(svals))
        U = set(c.q_support())
        assert c.delsarte_dual().q_support() == tuple(sorted(set(range(n)) - U))
        assert c.adjoint_code().q_support() == \
            tuple(sorted({(n - u) % n for u in U}))
        assert c.delsarte_dual().delsarte_dual().q_support() == tuple(sorted(U))


def test_idealisers_max_for_support_codes():
    rep = gabidulin(make_tower(2, 1, 5), 2, 1).idealiser("left")
    assert rep.is_max and rep.fq_dimension == 5 and rep.is_field
    rep2 = named_family("C7", make_tower(3, 1, 7)).idealiser("right")
    assert rep2.fq_dimension == 7 and rep2.is_field and rep2.is_max


def test_idealiser_of_full_ring():
    t = make_tower(2, 1, 4)
    rep = SupportCode(t, range(4), 1).idealiser("left")
    assert rep.fq_dimension == 16 and not rep.is_max and not rep.is_field


def test_idealiser_of_periodic_support():
    # a support that is a coset of a proper subgroup: idealisers are the
    # |D|*n-dimensional algebra of D-supported maps, never a field
    t = make_tower(3, 1, 6)
    c = SupportCode(t, (1, 3, 5), 1)
    assert c.stabilizer() == (0, 2, 4)
    for side in ("left", "right"):
        rep = c.idealiser(side)
        assert rep.fq_dimension == 3 * 6
        assert not rep.is_field and not rep.is_max
    aperiodic = SupportCode(t, (0, 1, 3), 1)
    assert aperiodic.stabilizer() == (0,)
    rep = aperiodic.idealiser("left")
    assert rep.fq_dimension == 6 and rep.is_field and rep.is_max


def test_idealiser_side_validation():
    with pytest.raises(ValueError):
        gabidulin(make_tower(2, 1, 4), 2, 1).idealiser("middle")


def test_min_distance_against_roots_oracle():
    # independent oracle: rank of every nonzero codeword from its root count
    t4 = make_tower(2, 1, 4)
    best = t4.n
    for a0 in range(t4.order):
        for a1 in range(t4.order):
            if a0 == a1 == 0:
                continue
            f = LinPoly.from_support(t4, [0, 1], [a0, a1])
            best = min(best, t4.n -
                       {1: 0, 2: 1, 4: 2, 8: 3, 16: 4}[len(f.roots())])
    assert best == 3
    assert gabidulin(t4, 2, 1).min_distance() == best


def test_min_distance():
    t4 = make_tower(2, 1, 4)
    assert gabidulin(t4, 2, 1).min_distance() == 3
    assert SupportCode(t4, [0], 1).min_distance() == 4   # units only
    assert gabidulin(t4, 2, 1).to_general().min_distance() == 3
    t7 = make_tower(2, 1, 7)
    assert named_family("C7", t7).min_distance() == 4    # refuted: below 5
    with pytest.raises(CapExceeded):
        named_family("C7", make_tower(3, 1, 7)).min_distance(budget=10)


def test_general_code_rejects_dependent_basis():
    t = make_tower(2, 1, 4)
    f = LinPoly.monomial(t, 1, 0)
    with pytest.raises(ValueError):
        GeneralCode(t, [f, f])


def test_code_json_roundtrip():
    t = make_tower(2, 1, 7)
    c = named_family("C7", t)
    c2 = code_from_json(t, c.descriptor())
    assert isinstance(c2, SupportCode) and c2.q_support() == c.q_support()
    g = c.to_general()
    g2 = code_from_json(t, g.descriptor())
    assert g2.equals(g)


# ---- brute-force oracles for general codes ------------------------------------

def fq_span(t, basis):
    """Every element of the F_q-span of `basis`, listed."""
    S = {LinPoly.zero(t)}
    for f in basis:
        S = {g + f.scale(lam) for g in S for lam in t.subfield_elements}
    return S


def all_maps(t):
    """All q^{n^2} F_q-linear maps of F_{q^n}, as polynomials."""
    return [LinPoly(t, c) for c in itertools.product(t.enumerate_field(), repeat=t.n)]


def random_poly(t):
    return LinPoly(t, [rng.randrange(t.order) for _ in range(t.n)])


def random_basis(t, dim):
    """An F_q-independent basis of `dim` random polynomials and its span."""
    basis, S = [], {LinPoly.zero(t)}
    while len(basis) < dim:
        f = random_poly(t)
        if f not in S:
            basis.append(f)
            S = fq_span(t, basis)
    return basis, S


def brute_idealiser(maps, basis, S, side):
    """I_L = {phi : phi o f in C for all f in C}, I_R = {phi : f o phi in C}."""
    if side == "left":
        return [phi for phi in maps if all(phi.compose(f) in S for f in basis)]
    return [phi for phi in maps if all(f.compose(phi) in S for f in basis)]


def check_idealisers(t, maps, basis, S):
    code = GeneralCode(t, basis)
    for side in ("left", "right"):
        ideal = brute_idealiser(maps, basis, S, side)
        rep = code.idealiser(side)
        assert t.q ** rep.fq_dimension == len(ideal), (side, basis)
        # a finite ring without zero divisors is a field; invertible = one root
        field = len(ideal) <= t.q ** t.n and \
            all(len(phi.roots()) == 1 for phi in ideal if not phi.is_zero())
        assert rep.is_field == field, (side, basis)
        assert rep.is_max == (field and rep.fq_dimension == t.n)


def dot(t, f, g):
    """sum_i f_i g_i in F_{q^n}."""
    acc = 0
    for a, b in zip(f.coeffs, g.coeffs):
        acc = t.add(acc, t.mul(a, b))
    return acc


ORACLE_TOWERS = [(2, 1, 3), (3, 1, 2), (2, 2, 2), (2, 3, 2), (5, 1, 2)]


@pytest.mark.parametrize("pen", ORACLE_TOWERS)
def test_general_code_against_brute_force(pen):
    t = make_tower(*pen)
    maps = all_maps(t)
    n2 = t.n * t.n
    dims = [0] + sorted(rng.sample(range(1, n2), 3))
    for dim in dims:
        basis, S = random_basis(t, dim)
        check_idealisers(t, maps, basis, S)
        # Delsarte dual: the Tr_{q^n/q}-orthogonal complement
        perp = {g for g in maps
                if all(t.rel_trace(dot(t, f, g)) == 0 for f in basis)}
        dual = GeneralCode(t, basis).delsarte_dual()
        assert dual.dim == n2 - dim
        assert fq_span(t, dual.basis) == perp


def test_idealiser_sides_are_not_swapped():
    # a code whose two idealisers differ pins which side is which
    t = make_tower(2, 1, 3)
    maps = all_maps(t)
    for _ in range(200):
        basis, S = random_basis(t, 5)
        left = len(brute_idealiser(maps, basis, S, "left"))
        right = len(brute_idealiser(maps, basis, S, "right"))
        if left != right:
            break
    else:
        pytest.fail("no random code with unequal idealisers")
    code = GeneralCode(t, basis)
    assert 2 ** code.idealiser("left").fq_dimension == left
    assert 2 ** code.idealiser("right").fq_dimension == right


def random_invertible(t):
    while True:
        f = random_poly(t)
        if f.rank() == t.n:
            return f


@pytest.mark.parametrize("pen,T", [((3, 1, 7), (0, 1, 3)), ((2, 2, 5), (0, 1, 3))])
def test_conjugated_support_code_keeps_idealisers(pen, T):
    # I_L(phi C psi) = phi I_L(C) phi^-1 and I_R(phi C psi) = psi^-1 I_R(C) psi
    t = make_tower(*pen)
    support = SupportCode(t, T, 1)
    phi, psi = random_invertible(t), random_invertible(t)
    conj = GeneralCode(t, [phi.compose(f).compose(psi)
                           for f in support.to_general().basis])
    assert not all(sum(1 for c in f.coeffs if c) == 1 for f in conj.basis)
    for side in ("left", "right"):
        assert conj.idealiser(side) == support.idealiser(side)
        assert conj.idealiser(side).is_max
