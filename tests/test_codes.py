import itertools
import random

import numpy as np
import pytest

from mrdcodes._batch import SupportBlockMatrix
from mrdcodes.codes import (GeneralCode, SupportCode, code_from_json,
                            gabidulin, named_family)
from mrdcodes.fields import CapExceeded, make_tower, rref_modp, solve_modp
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


def test_idealisers_past_the_old_cap():
    # q = 8, n = 8: 2^24 elements and no Zech tables, so field-ness must not
    # rest on listing the idealiser's elements
    t = make_tower(2, 3, 8)
    assert t.tables is None
    for side in ("left", "right"):
        rep = gabidulin(t, 2).idealiser(side)
        assert rep.fq_dimension == 8 and rep.is_field and rep.is_max


@pytest.mark.parametrize("n", range(1, 7))
def test_stabilizer_closed_form(n):
    # every support up to shift at q = 2: both idealisers are the monomials
    # with exponents in the stabiliser D, a field exactly when D is trivial
    t = make_tower(2, 1, n)
    seen = set()
    for k in range(1, n + 1):
        for T in itertools.combinations(range(n), k):
            shifts = {tuple(sorted((u + d) % n for u in T)) for d in range(n)}
            if shifts & seen:
                continue
            seen.add(T)
            code = SupportCode(t, T)
            D = code.stabilizer()
            for side in ("left", "right"):
                rep = code.idealiser(side)
                assert rep.fq_dimension == len(D) * n, (T, side)
                assert rep.is_field == (D == (0,)), (T, side)


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


@pytest.mark.parametrize("pen", [(2, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_general_min_distance_with_e_above_one(pen):
    # oracle: the F_p-rank of every nonzero codeword's map, over e
    t = make_tower(*pen)
    for dim in (1, 2, 3, 1, 2, 3):
        basis, S = random_basis(t, dim)
        best = min(len(rref_modp(f.map_matrix_fp(), t.p)[1]) // t.e
                   for f in S if not f.is_zero())
        assert GeneralCode(t, basis).min_distance() == best, basis


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
    """Both idealiser reports against brute force; returns them."""
    code = GeneralCode(t, basis)
    reps = []
    for side in ("left", "right"):
        ideal = brute_idealiser(maps, basis, S, side)
        rep = code.idealiser(side)
        assert t.q ** rep.fq_dimension == len(ideal), (side, basis)
        # a finite ring without zero divisors is a field; invertible = one root
        field = len(ideal) <= t.q ** t.n and \
            all(len(phi.roots()) == 1 for phi in ideal if not phi.is_zero())
        assert rep.is_field == field, (side, basis)
        assert rep.is_max == (field and rep.fq_dimension == t.n)
        reps.append(rep)
    return reps


def polynomial_algebra(t, psi):
    """The basis I, psi, psi^2, ... of F_q[psi], up to the first power in
    the span of those before it, and that span."""
    basis, S, f = [], {LinPoly.zero(t)}, LinPoly.identity(t)
    while f not in S:
        basis.append(f)
        S = fq_span(t, basis)
        f = f.compose(psi)
    return basis, S


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
    # F_q[psi] is its own left and right idealiser, of dimension at most n:
    # a field exactly when the minimal polynomial of psi is irreducible, so
    # the field test meets nilpotents and products of fields here
    verdicts = set()
    for _ in range(16):
        basis, S = polynomial_algebra(t, random_poly(t))
        for rep in check_idealisers(t, maps, basis, S):
            assert rep.fq_dimension == len(basis) <= t.n
            verdicts.add(rep.is_field)
    assert verdicts == {True, False}


def brute_is_field(t, S):
    """S, under composition, is a field whose unit is the identity map."""
    return (LinPoly.identity(t) in S
            and all(f.compose(g) in S for f in S for g in S)
            and all(len(f.roots()) == 1 for f in S if not f.is_zero()))


@pytest.mark.parametrize("pen", ORACLE_TOWERS)
def test_field_check_against_brute_force(pen):
    # spans that are not idealisers reach every exit of the field test:
    # lines through an idempotent lack the identity, the span of the
    # identity and a random map is not closed for 412 of the 510 maps
    # outside F_q at (2, 1, 3) (at n = 2 it is F_q[f]), and F_q[psi] is a
    # field, a product of fields or has nilpotents
    t = make_tower(*pen)
    maps, one = all_maps(t), LinPoly.identity(t)
    idempotents = [f for f in maps
                   if f.compose(f) == f and f not in (one, LinPoly.zero(t))]
    spans = [[f] for f in rng.sample(idempotents, 2)]
    if t.n > 2:
        spans += [[one, f] for f in rng.sample(maps, 40)]
    # F_q[g X] is F_{q^n}; F_q[X^q] is F_q[x]/(x^n - 1), never a field for n > 1
    psis = [LinPoly.monomial(t, t.generator, 0), LinPoly.monomial(t, 1, 1)]
    psis += [random_poly(t) for _ in range(8)]
    spans += [polynomial_algebra(t, psi)[0] for psi in psis]
    verdicts = set()
    for basis in spans:
        try:
            code = GeneralCode(t, basis)
        except ValueError:      # f is a multiple of the identity
            continue
        field = brute_is_field(t, fq_span(t, basis))
        assert code._is_field() == field, basis
        verdicts.add(field)
    assert verdicts == {True, False}


def test_field_check_rejects_a_matrix_algebra():
    # M_2(F_3), acting on F_{3^4} as on F_3^2 + F_3^2, holds the identity and
    # is closed but not commutative; on this basis the two rank conditions
    # alone would call it a field
    t = make_tower(3, 1, 4)
    L = SupportBlockMatrix(t, range(t.n)).L

    def poly(A):
        """The map with matrix diag(A, A) on the power basis."""
        x = solve_modp(L.T, np.kron(np.eye(2, dtype=np.int64), A).reshape(-1), t.p)
        return LinPoly(t, (t.element(x[4 * s:4 * s + 4].tolist()) for s in range(4)))
    basis = [poly(np.array(A)) for A in ([[1, 0], [0, 1]], [[2, 2], [2, 0]],
                                         [[2, 1], [2, 2]], [[0, 2], [2, 2]])]
    assert basis[0] == LinPoly.identity(t)
    assert not GeneralCode(t, basis)._is_field()


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
