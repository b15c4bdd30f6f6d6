import hashlib
import itertools
import json
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mrdcodes import _batch, _linalg, fields, verify
from mrdcodes.fields import (MR_EXACT_BELOW, CapExceeded, factorize, inverse_modp,
                             is_prime, make_tower, nullspace_modp, rref_modp,
                             solve_modp, tower_from_descriptor)
from mrdcodes.linpoly import LinPoly

rng = random.Random(0xF1E1D5)


def test_make_tower_parameters():
    t = make_tower(2, 1, 7)
    assert (t.p, t.e, t.n, t.q) == (2, 1, 7, 2)
    assert len(t.modulus) == 8 and t.modulus[-1] == 1
    t3 = make_tower(3, 1, 7)
    assert t3.order == 3 ** 7
    t4 = make_tower(2, 2, 8)
    assert t4.degree == 16 and t4.q == 4


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        make_tower(6, 1, 3)
    with pytest.raises(ValueError):
        make_tower(2, 0, 3)


def test_modulus_is_deterministic_and_irreducible():
    # rebuilt towers agree; the irreducibility conditions re-verify
    from mrdcodes.fields import FieldTower, _is_irreducible
    for (p, e, n) in ((2, 1, 7), (3, 1, 5), (2, 2, 4)):
        a = FieldTower(p, e, n)
        b = FieldTower(p, e, n)
        assert a.modulus == b.modulus
        assert _is_irreducible(a.modulus, p)


def test_field_axioms_random():
    t = make_tower(3, 1, 7)
    for _ in range(100):
        x = rng.randrange(1, t.order)
        assert t.mul(x, t.inv(x)) == 1
    for _ in range(50):
        a, b, c = (rng.randrange(t.order) for _ in range(3))
        assert t.mul(a, t.add(b, c)) == t.add(t.mul(a, b), t.mul(a, c))
        assert t.mul(t.mul(a, b), c) == t.mul(a, t.mul(b, c))
        assert t.add(a, t.neg(a)) == 0
    assert t.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        t.inv(0)


def test_lagrange_power():
    for (p, e, n) in ((2, 1, 7), (3, 1, 4), (2, 2, 3)):
        t = make_tower(p, e, n)
        assert t.pow(t.generator, t.order - 1) == 1


def test_frobenius_properties():
    t = make_tower(2, 2, 8)
    for _ in range(30):
        x = rng.randrange(t.order)
        y = rng.randrange(t.order)
        assert t.frobenius_q(x, 0) == x
        assert t.frobenius_q(t.frobenius_q(x, 1), t.n - 1) == x
        assert t.frobenius_q(x, t.n) == x
        assert t.frobenius_q(t.add(x, y), 1) == t.add(t.frobenius_q(x, 1),
                                                      t.frobenius_q(y, 1))
        assert t.frobenius_q(t.mul(x, y), 1) == t.mul(t.frobenius_q(x, 1),
                                                      t.frobenius_q(y, 1))
    for s in t.subfield_elements:
        assert t.frobenius_q(s, 1) == s


def test_relative_trace():
    t = make_tower(2, 1, 7)
    assert t.rel_trace(1) == 1      # 7 mod 2
    t3 = make_tower(3, 1, 7)
    assert t3.rel_trace(1) == 1     # 7 mod 3
    # trace lands in F_q, trace additive
    for tt in (t, t3, make_tower(2, 2, 4)):
        for _ in range(30):
            x = rng.randrange(tt.order)
            y = rng.randrange(tt.order)
            tr = tt.rel_trace(x)
            assert tt.frobenius_q(tr, 1) == tr
            assert tt.rel_trace(tt.add(x, y)) == tt.add(tr, tt.rel_trace(y))


def test_trace_zero_count_in_f8():
    # enumeration oracle: the trace polynomial x + x^2 + x^4 evaluated raw
    t = make_tower(2, 1, 3)
    zero_by_hand = 0
    for x in t.enumerate_field():
        val = t.add(t.add(x, t.mul(x, x)), t.mul(t.mul(x, x), t.mul(x, x)))
        assert val == t.rel_trace(x)
        if val == 0:
            zero_by_hand += 1
    assert zero_by_hand == 4


def test_trace_linear_and_surjective_small():
    for (p, e, n) in ((2, 1, 5), (3, 1, 3), (2, 2, 3)):
        t = make_tower(p, e, n)
        images = {t.rel_trace(x) for x in t.enumerate_field()}
        assert images == set(t.subfield_elements)
        lam = t.subfield_elements[-1]
        for _ in range(20):
            x, y = rng.randrange(t.order), rng.randrange(t.order)
            assert t.rel_trace(t.add(x, t.mul(lam, y))) == \
                t.add(t.rel_trace(x), t.mul(lam, t.rel_trace(y)))


def test_q_coords_roundtrip_and_linearity():
    for (p, e, n) in ((2, 1, 7), (3, 1, 5), (2, 2, 4)):
        t = make_tower(p, e, n)
        assert t.q_coords(0) == (0,) * t.n
        for i, b in enumerate(t.q_basis):
            v = t.q_coords(b)
            assert v[i] == 1 and all(v[j] == 0 for j in range(t.n) if j != i)
        for _ in range(100):
            x = rng.randrange(t.order)
            assert t.from_q_coords(t.q_coords(x)) == x
        lam = t.subfield_elements[-1]
        for _ in range(20):
            x, y = rng.randrange(t.order), rng.randrange(t.order)
            lhs = t.q_coords(t.add(x, t.mul(lam, y)))
            rhs = tuple(t.add(a, t.mul(lam, b))
                        for a, b in zip(t.q_coords(x), t.q_coords(y)))
            assert lhs == rhs


def test_enumeration():
    t = make_tower(2, 2, 3)
    elems = list(t.enumerate_field())
    assert len(elems) == len(set(elems)) == t.order
    coords = [tuple(t.coords(x)) for x in elems]
    assert coords == sorted(coords)          # lexicographic on coords
    sub = list(t.subfield_elements)
    assert len(sub) == t.q
    assert all(t.frobenius_q(x, 1) == x for x in sub)


def test_enumeration_cap():
    t = make_tower(2, 1, 25)
    with pytest.raises(CapExceeded):
        list(t.enumerate_field())


def test_descriptor_roundtrip():
    t = make_tower(3, 1, 7)
    desc = json.loads(json.dumps(t.descriptor()))
    assert tower_from_descriptor(desc) is t
    x = rng.randrange(t.order)
    assert t.element_from_json(t.element_to_json(x)) == x


def test_helpers():
    assert is_prime(2) and is_prime(97) and not is_prime(91)
    assert factorize(360) == {2: 3, 3: 2, 5: 1}


@st.composite
def small_towers(draw):
    """(p, e, n) with at most 2^16 elements, F_2 and large p included."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13, 181, 251)))
    d_max = max(d for d in range(1, 17) if p ** d <= 1 << 16)
    d = draw(st.integers(1, d_max))
    e = draw(st.sampled_from([e for e in range(1, d + 1) if d % e == 0]))
    return p, e, d // e


@settings(max_examples=40, deadline=None)
@given(small_towers(), st.lists(st.tuples(st.integers(0, 1 << 32),
                                          st.integers(0, 1 << 32)),
                                min_size=1, max_size=25))
@example((251, 1, 1), [(i, 37 * i + 5) for i in range(200)])
@example((181, 1, 2), [(i, 91 * i + 17) for i in range(200)])
def test_table_mul_matches_fallback(pen, raw):
    # an int16 digit matmul overflowed the table build at p=251 and p=181
    t = make_tower(*pen)
    assert t.tables is not None
    for a, b in raw:
        a, b = 1 + a % (t.order - 1), 1 + b % (t.order - 1)
        assert t.mul(a, b) == t._mul_fallback(a, b)


def _scalar_pow(t, a, k):
    """a^k by square-and-multiply over _mul_fallback, with no matrices."""
    r = 1
    while k:
        if k & 1:
            r = t._mul_fallback(r, a)
        a = t._mul_fallback(a, a)
        k >>= 1
    return r


@pytest.mark.parametrize("pen", [(2, 1, 1), (3, 1, 1), (2, 1, 7), (5, 1, 4), (2, 3, 4),
                                 (3, 1, 9), (4294967311, 1, 1)])
def test_pow_fallback_matches_scalar_square_and_multiply(pen):
    # at p = 4294967311 the products of residues take _matmul_modp's object path
    t = make_tower(*pen)
    Q = t.order
    r = random.Random(repr(pen))
    ks = [0, 1, 2, Q - 2, Q - 1] + [r.randrange(Q) for _ in range(20)]
    elems = {0, 1, t.generator, Q - 1} | {r.randrange(Q) for _ in range(3)}
    for a in elems:
        for k in ks:
            assert t._pow_fallback(a, k) == _scalar_pow(t, a, k), (a, k)


def _whole_matrix_tables(t):
    """The tables by the earlier build: a (Q-1) x d digit matrix of all the
    powers of the primitive element, filled by doubling, packed in int64.
    Its powers and multiplication matrices come from _mul_fallback alone,
    none of the table build's code."""
    Q, d, p = t.order, t.degree, t.p
    fac = factorize(Q - 1)
    h = next(h for h in map(t.element_at, range(1, Q))
             if all(_scalar_pow(t, h, (Q - 1) // ell) != 1 for ell in fac))
    digits = np.zeros((Q - 1, d), dtype=np.int64)
    digits[0, 0] = 1
    filled, hs = 1, h
    while filled < Q - 1:
        step = min(filled, Q - 1 - filled)
        # row i of mult_t holds the coordinates of hs * g^i, g^i packed as p^i
        mult_t = np.array([t.coords(t._mul_fallback(hs, p ** i)) for i in range(d)])
        digits[filled:filled + step] = digits[:step] @ mult_t % p
        hs = t._mul_fallback(hs, _scalar_pow(t, h, step))
        filled += step
    packed = digits @ np.array(t._pw, dtype=np.int64)
    log = np.full(Q, -1, dtype=np.int64)
    log[packed] = np.arange(Q - 1)
    return np.concatenate([packed, packed]), log


@pytest.mark.parametrize("pen", [(2, 1, 1), (3, 1, 1), (2, 1, 8), (3, 1, 9), (2, 1, 16),
                                 (2, 2, 7), (5, 1, 7), (2, 2, 8), (2, 1, 15), (7, 1, 5)])
def test_streamed_tables_match_whole_matrix_build(pen):
    # one block (Q - 1 <= 2^14), and 2, 4 and 5 blocks, the last one ragged;
    # p = 2 takes the packed path: 4 blocks at (2, 2, 8), 16,384 + 16,383
    # at (2, 1, 15)
    # exp is stored once: the oracle's first Q - 1 entries
    t = make_tower(*pen)
    exp, log = t._build_tables()
    want_exp, want_log = _whole_matrix_tables(t)
    assert exp.dtype == np.int32 and log.dtype == np.int32 and log[0] == -1
    assert exp.size == t.order - 1
    assert np.array_equal(exp, want_exp[:t.order - 1]) and np.array_equal(log, want_log)


@pytest.mark.parametrize("pen", [(2, 1, 1), (3, 1, 1), (2, 1, 8), (2, 2, 7), (5, 1, 7)])
def test_scalar_table_arithmetic_at_the_wrap(pen):
    # exp holds Q - 1 entries (one at (2, 1, 1)), so log sums at and past
    # Q - 1 and negated logs must wrap
    t = make_tower(*pen)
    exp, log = t.tables
    Qm1 = t.order - 1
    assert exp.size == Qm1
    for s in (Qm1 - 1, Qm1, 2 * Qm1 - 2):
        if s > 2 * (Qm1 - 1):
            continue   # at (2, 1, 1) every log is 0
        i = min(s, Qm1 - 1)
        a, b = int(exp[i]), int(exp[s - i])
        assert int(log[a]) + int(log[b]) == s
        assert t.mul(a, b) == t._mul_fallback(a, b), s
    h = int(exp[1 % Qm1])
    assert t.inv(1) == 1
    assert t.inv(h) == t._pow_fallback(h, Qm1 - 1) and t._mul_fallback(t.inv(h), h) == 1
    for i in {0, 1 % Qm1, Qm1 // 2, Qm1 - 1}:
        a = int(exp[i])
        assert t.pow(a, Qm1) == t._pow_fallback(a, Qm1) == 1
        assert t.pow(a, -1) == t._pow_fallback(a, Qm1 - 1)


def test_table_build_peak_is_tables_plus_a_block():
    # numpy reports its buffers to tracemalloc; the whole-matrix build, with
    # its (Q-1) x d digits and int64 tables and copies, peaked at 70 MB here
    t = make_tower(3, 1, 13)
    tracemalloc.start()
    try:
        exp, log = t._build_tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = t.degree * fields._ZECH_BLOCK * 8   # one block of int64 digits
    assert exp.nbytes + log.nbytes == 4 * (t.order - 1) + 4 * t.order
    assert peak <= exp.nbytes + log.nbytes + block


def test_packed_table_build_peak_is_tables_plus_a_block():
    # the p = 2 build, under the odd-p bound of the test above
    t = make_tower(2, 1, 20)
    tracemalloc.start()
    try:
        exp, log = t._build_tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = t.degree * fields._ZECH_BLOCK * 8
    assert exp.nbytes + log.nbytes == 4 * (t.order - 1) + 4 * t.order
    assert peak <= exp.nbytes + log.nbytes + block


# SHA-256 of exp.tobytes() and log.tobytes(), from the digit build that
# packed every block by Horner's rule, before the packed p = 2 path
TABLE_SHA256 = {
    (7, 1, 7): ("c703c96b9a14c8e6ecb04f5811e4d98f92a5c2d03e83d78214e898416b8ad6ad",
                "f2479272f9dcc8316ae3b26def09be6ec8b236636133e5ea0c4fa59e63ec5cc5"),
    (5, 1, 8): ("e0c81ce4b209a695b64776039f88e7dbdb2f2cfd295e7c18b316de71fb86d765",
                "07cd0dad998148c33eeba7405db828773b5e83630dbc3d04158205d657ae60a5"),
    (2, 2, 8): ("c0e6d016c0c06c56a19861a1738f90ce0bc6c5319771732e1cf63b196ee155e1",
                "ec4d6fafb45962487f486be90e9e279da3627e3a4205334567337c1cd506f2fc"),
    (3, 1, 9): ("e9832a0105a327896633a0fa0e44c3e8ec0790fcab276ab6ed7c5a31fb3151f5",
                "b2d685fc824257762ae92afb16b03f003c6a7f75ed326a967cb105724b993db0"),
}


@pytest.mark.parametrize("pen", sorted(TABLE_SHA256))
def test_tables_match_pinned_checksums(pen):
    exp, log = make_tower(*pen).tables
    assert exp.dtype == np.int32 and log.dtype == np.int32
    assert (hashlib.sha256(exp.tobytes()).hexdigest(),
            hashlib.sha256(log.tobytes()).hexdigest()) == TABLE_SHA256[pen]


@pytest.mark.parametrize("pen", [(5, 1, 7), (5, 1, 8)])
def test_log_products_past_int32(pen):
    # an int32 log times an exponent wraps past 2^31: vec_pow with k = Q-2
    # (as the curve engine inverts) at Q = 5^7, and at Q = 5^8 also the
    # q^(n-1)-power Frobenius and the roots of x^(q^(n-1)) - x
    t = make_tower(*pen)
    Q = t.order
    a = np.array([t.element_at(m) for m in rng.sample(range(1, Q), 200)], dtype=np.int64)
    assert _batch.vec_pow(t, a, Q - 2).tolist() == [t.inv(int(x)) for x in a]
    for i in (1, t.n - 1):
        assert (_batch.vec_frob_q(t, a, i).tolist()
                == [t.frobenius_q(int(x), i) for x in a])
        f = LinPoly.from_support(t, (0, i), (t.neg(1), 1))
        assert f.roots() == set(t.subfield_elements)   # F_(q^gcd(i, n))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((2, 3, 46349, 65537)), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from((0, 1, 7, 8, 9)), st.randoms(use_true_random=False))
def test_batch_rank_matches_elimination(p, r, c, B, rnd):
    # int32 products of two entries overflow once (p-1)^2 >= 2^31; at p = 2
    # batch sizes off a multiple of 8 leave a partly filled byte of bits
    mats = np.array([[[rnd.choice((0, 1, p - 1, rnd.randrange(p)))
                       for _ in range(c)] for _ in range(r)] for _ in range(B)],
                    dtype=np.int64).reshape(B, r, c)
    want = [_linalg.rank(make_tower(p, 1, 1), m.tolist(), c) for m in mats]
    assert _batch.batch_rank(mats.copy(), p).tolist() == want


def _generic_batch_rank(mats, p):
    """batch_rank through the mod-p eliminator whatever p is: _modp_eliminate
    on a batch-last copy, the reduced batch written back."""
    m = np.ascontiguousarray(mats.transpose(1, 2, 0), dtype=_batch.lazy_dtype(p, mats.shape[2]))
    ranks = _batch._modp_eliminate(m, p)
    mats[...] = m.transpose(2, 0, 1)
    return ranks


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 64), st.integers(0, 64), st.integers(1, 64),
       st.sampled_from((0, 1, 7, 9, 64, 65)), st.integers(0, 2 ** 32 - 1))
@example(64, 64, 64, 65, 1)
@example(5, 64, 64, 9, 2)
@example(64, 3, 7, 7, 3)
def test_gf2_elimination_matches_generic(r1, r2, c, B, seed):
    # top (r1 x c, r1 != c mostly) and the stacked [top; bottom] of
    # stacked_ranks (r1 + r2 rows, often more than c), c up to the largest
    # degree a p = 2 tower accepts; per matrix a random inner dimension and
    # density, so pivots fall late and rows run out
    gen = np.random.default_rng(seed)

    def draw(rows):
        width = max(rows, c)
        inner = gen.integers(0, min(rows, c) + 1, size=(B, 1, 1))
        density = gen.random((B, 1, 1))
        X = (gen.random((B, rows, width)) < density) & (np.arange(width) < inner)
        Y = gen.integers(0, 2, size=(B, width, c))
        return X.astype(np.int64) @ Y % 2

    top, bottom = draw(r1), draw(r2)
    for mats in (top, np.concatenate([top, bottom], axis=1)):
        fast, slow = mats.astype(np.int32), mats.astype(np.int32)
        assert _batch.batch_rank(fast, 2).tolist() == _generic_batch_rank(slow, 2).tolist()
        assert np.array_equal(fast, slow)
    top, bottom = top.transpose(1, 2, 0), bottom.transpose(1, 2, 0)   # batch-last
    got = _batch.stacked_ranks(top, bottom, 2), _batch.batch_kernels(top, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_batch, "eliminate", _batch._modp_eliminate)
        want = _batch.stacked_ranks(top, bottom, 2), _batch.batch_kernels(top, 2)
    for a, b in zip(got, want):
        for x, y in zip(a, b):
            assert x.dtype == y.dtype and np.array_equal(x, y)


def _draw_coords(gen, B, width, p):
    """B coordinate rows, each of its own density, so that ranks fall."""
    keep = gen.random((B, width)) < gen.random((B, 1))
    return np.where(keep, gen.integers(1, p, size=(B, width)), 0)


def _index_coords(sb, lead, idx):
    """The coordinate rows of index_maps(idx, lead): 1 at row lead (none if
    lead is None) and the base-p digits of idx, most significant first, on
    L's last rows."""
    p, m = sb.tower.p, sb.L.shape[0]
    D = m if lead is None else m - 1 - lead
    coords = np.zeros((idx.shape[0], m), dtype=np.int64)
    if lead is not None:
        coords[:, lead] = 1
    coords[:, m - D:] = _batch.element_coord_columns(idx, p, D)
    return coords


def _assert_ranks_match(sb, lead, digits):
    """rep_ranks(lead, idx) for the indices whose base-p digits are the rows
    of `digits` against batch_rank of matrices(), the product of the
    coordinate rows and L."""
    p = sb.tower.p
    idx = digits @ p ** np.arange(digits.shape[1] - 1, -1, -1, dtype=np.int64)
    want = _batch.batch_rank(sb.matrices(_index_coords(sb, lead, idx)), p)
    got = sb.rep_ranks(lead, idx)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    return got


def _index_leads(sb):
    """Lead rows whose indices fit int64: the first such, a middle one and
    the last row."""
    m, first = sb.L.shape[0], 0
    while sb.tower.p ** (m - 1 - first) >= 1 << 63:
        first += 1
    return sorted({first, (first + m - 1) // 2, m - 1})


@pytest.mark.parametrize("pen, T", [((2, 1, 9), (0, 1, 3, 4)), ((2, 1, 7), (0, 1, 3)),
                                    ((2, 2, 4), (0, 1, 3)), ((2, 3, 3), (0, 2)),
                                    ((3, 1, 7), (0, 1, 3)), ((3, 2, 3), (0, 1)),
                                    ((2, 1, 64), (0, 5, 17)), ((2, 4, 16), (0, 2))])
def test_support_block_ranks_match_batch_rank(pen, T):
    # rep_ranks builds the maps from the digits of their indices, without
    # the product, bit-packed at p = 2, where batch sizes off a multiple of
    # 8 leave a partly filled byte of bits.  Up to degree 16 also a general
    # code's block (rows @ L on the full support, as
    # GeneralCode.min_distance builds it) and blocks of the scan's canonical
    # representatives for every lead, taken by their raw tail indices
    t = make_tower(*pen)
    gen = np.random.default_rng(sum(pen) * 31 + len(T))
    blocks = [_batch.SupportBlockMatrix(t, T)]
    sizes = (0, 9, 130)
    if t.degree <= 16:
        rows = t.fq_span_rows(_draw_coords(gen, 3, t.n * t.degree, t.p))
        blocks.append(_batch.SupportBlockMatrix(t, range(t.n), rows))
        assert blocks[1].L.shape == (3 * t.e, t.degree ** 2)
        sizes = (0, 1, 7, 8, 9, 1027)
    else:
        # an index reaches only L's last 64 rows there: a block of four
        # codewords, the first one zero, so that ranks fall
        rows = _draw_coords(gen, 4, len(T) * t.degree, t.p)
        rows[0] = 0
        blocks.append(_batch.SupportBlockMatrix(t, T, rows))
    seen = set()
    for sb in blocks:
        for lead in _index_leads(sb):
            for B in sizes:
                digits = _draw_coords(gen, B, sb.L.shape[0] - 1 - lead, t.p)
                seen.update(_assert_ranks_match(sb, lead, digits).tolist())
    assert t.degree in seen and min(seen) < t.degree
    if t.degree <= 16:
        sweep = _batch.OrbitSweep(t, T)
        sb = blocks[0]
        for lead, total in enumerate(sweep.counts):
            tails, raw, _ = sweep.representatives(lead, 0, min(total, 1027))
            coords = _batch.projective_coords(t, lead, tails)
            want = _batch.batch_rank(sb.matrices(coords), t.p)
            got = sb.rep_ranks(lead * t.degree, raw)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()


@st.composite
def rank_blocks(draw):
    """(p, e, n), a support and a batch size; p in {2, 3}."""
    p = draw(st.sampled_from((2, 3)))
    d = draw(st.integers(1, 12 if p == 2 else 7))
    e = draw(st.sampled_from([e for e in range(1, d + 1) if d % e == 0]))
    n = d // e
    T = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return (p, e, n), sorted(T), draw(st.integers(0, 80))


@settings(max_examples=40, deadline=None)
@given(rank_blocks(), st.integers(0, 2 ** 32 - 1))
@example(((2, 1, 1), [0], 9), 0)
@example(((2, 6, 2), [0, 1], 65), 1)
def test_support_block_ranks_random(block, seed):
    pen, T, B = block
    t = make_tower(*pen)
    gen = np.random.default_rng(seed)
    sb = _batch.SupportBlockMatrix(t, T)
    for lead in _index_leads(sb):
        _assert_ranks_match(sb, lead, _draw_coords(gen, B, sb.L.shape[0] - 1 - lead, t.p))


def _assert_index_maps_match(sb, lead, idx):
    """index_maps(idx, lead) against matrices(), the product of the
    coordinate rows and L: equal maps, batch-last, in lazy_dtype(p, d)."""
    p, d = sb.tower.p, sb.d
    got = sb.index_maps(idx, lead)
    want = sb.matrices(_index_coords(sb, lead, idx))
    assert got.dtype == _batch.lazy_dtype(p, d) and got.shape == (d * d, idx.shape[0])
    assert np.array_equal(got.reshape(d, d, -1).transpose(2, 0, 1), want)


@pytest.mark.parametrize("pen, T", [((3, 1, 5), (0, 1, 3)), ((3, 2, 3), (0, 1, 2)),
                                    ((5, 1, 4), (0, 1, 3)), ((5, 2, 2), (0, 1)),
                                    ((7, 1, 3), (0, 1, 2)), ((7, 2, 2), (0, 1)),
                                    ((13, 1, 3), (0, 1)), ((13, 2, 2), (0, 1))])
def test_index_maps_match_matrices(pen, T):
    # every lead row of the support block and of a general block (rows @ L),
    # and no lead: indices 0, p^D - 1 (every digit p - 1) and random ones,
    # in batches of 1 and 1000.  k*d is not a multiple of the digits per
    # table at (3,1,5) (5 of 15 rows), (3,2,3) (18 rows), (5,*) (3 digits)
    # and (7,1,3) (2 digits of 9 rows), so L's first table is short there,
    # and most D leave the last table used partly filled
    t = make_tower(*pen)
    p = t.p
    gen = np.random.default_rng(sum(pen))
    rows = _draw_coords(gen, 5, len(T) * t.degree, p)
    for sb in (_batch.SupportBlockMatrix(t, T), _batch.SupportBlockMatrix(t, T, rows)):
        m = sb.L.shape[0]
        for lead in [None, *range(m)]:
            D = m if lead is None else m - 1 - lead
            if p ** D >= 1 << 63:
                continue
            idx = np.concatenate([[0, p ** D - 1],
                                  gen.integers(0, p ** D, size=998, dtype=np.int64)])
            for B in (1, 1000):
                _assert_index_maps_match(sb, lead, idx[:B])


def test_index_maps_one_digit_tables_at_the_scan_budget():
    # the largest p whose k = 2 scan fits the default budget at n = 2:
    # (Q^2 - 1) / (Q - 1) = p^2 + 1 <= 2^28.  Every table takes one digit and
    # has p rows, here in int32
    p = 16381
    assert is_prime(p) and not any(is_prime(q) for q in (16382, 16383))
    assert p ** 2 + 1 <= verify.DEFAULT_BUDGET < 16384 ** 2 + 1
    t = make_tower(p, 1, 2)
    sb = _batch.SupportBlockMatrix(t, (0, 1))
    assert [tb.shape for tb in sb.tables] == [(p, 4)] * 4
    assert sb.tables[0].dtype == np.int32
    gen = np.random.default_rng(p)
    idx = gen.integers(0, p ** 2, size=500, dtype=np.int64)
    idx[:3] = 0, p ** 2 - 1, p - 1
    for lead in (None, 0, 1, 2, 3):
        D = 4 if lead is None else 3 - lead
        _assert_index_maps_match(sb, lead, idx % p ** D)


def _int64_digits(p):
    """The most base-p digits of a nonnegative int64."""
    return next(D for D in range(1, 64) if p ** D >= 1 << 63)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_index_maps_accumulator_worst_case(p):
    # the most table rows summed before index_maps reduces: an index with
    # every base-p digit of an int64 in use, one table each b digits, and a
    # lead.  Rows are 0 but for one per block, set so that each gathered
    # entry and the lead are p - 1; at d = 1 the work dtype is int8 for these
    # p, and a wrapped sum would change the residue at odd p
    t = make_tower(p, 1, 1)
    b, D = _batch._block_digits(p), _int64_digits(p)
    idx = np.array([(1 << 63) - 1, (1 << 63) - 2, p ** (D - 1) - 1], dtype=np.int64)
    digits = [int(idx[0]) // p ** i % p for i in range(D)]    # weight p^i
    rows = np.zeros((D + 1, 1), dtype=np.int64)
    rows[0] = p - 1                                          # the lead row
    for start in range(0, D, b):
        i = next((i for i in range(start, min(start + b, D)) if digits[i]), None)
        if i is not None:
            rows[D - i] = (p - 1) * pow(digits[i], -1, p) % p
    sb = _batch.SupportBlockMatrix(t, (0,), rows)
    assert sb.tables[0].dtype == _batch.lazy_dtype(p, 1) == np.int8
    assert len(sb.tables) == -(-(D + 1) // b)
    assert (-(-D // b) + 1) * (p - 1) <= 127
    _assert_index_maps_match(sb, 0, idx)
    got = sb.index_maps(idx, 0)
    want = (p - 1) * (1 + sum(1 for s in range(0, D, b)
                              if any(digits[s:s + b]))) % p
    assert int(got[0, 0]) == want


def test_index_maps_sums_fit_their_dtype():
    # the bound index_maps relies on, over every prime p below 2^12 and
    # every degree d at which lazy_dtype changes: an int64 index spans at
    # most ceil(D / b) tables, and with the lead that many residues plus one
    # must fit lazy_dtype(p, d); so must the b residues a table sums before
    # its reduction
    for p in (q for q in range(2, 1 << 12) if is_prime(q)):
        b, D = _batch._block_digits(p), _int64_digits(p)
        assert p ** b <= _batch.TABLE_SPAN or b == 1
        for d in (1, 2, 3, 7, 8, 31, 32, 64, 130):
            top = np.iinfo(_batch.lazy_dtype(p, d)).max
            assert (-(-D // b) + 1) * (p - 1) <= top and b * (p - 1) <= top


@pytest.mark.parametrize("pen", [(2, 1, 1), (5, 1, 1), (2, 1, 7), (3, 1, 5), (2, 2, 3),
                                 (7, 1, 3), (2, 3, 8), (3, 2, 7), (4294967311, 1, 1)])
def test_mult_matrix_against_columns(pen):
    # Mult(a) = sum_j a_j Mult(g^j) from the cached companion-matrix powers
    # against the column-by-column construction, column j = coords(a * g^j),
    # by the tower's own mul (Zech tables where it has them; (2, 3, 8) has
    # none) and by schoolbook products
    t = make_tower(*pen)
    d, p, g = t.degree, t.p, t.generator
    P = t.mult_powers
    assert P.shape == (d, d, d) and not P.flags.writeable
    assert t.mult_powers is P
    for j in range(1, d):
        assert np.array_equal(P[j], P[j - 1] @ P[1] % p)
    for a in [0, 1, g] + [t.element_at(rng.randrange(t.order)) for _ in range(6)]:
        cols, y = [], a
        for _ in range(d):
            cols.append(t.coords(y))
            assert t.mul(y, g) == t._mul_fallback(y, g)
            y = t.mul(y, g)
        M = t.mult_matrix(a)
        assert M.dtype == np.int64 and M.tolist() == np.array(cols).T.tolist()


BEYOND_INT64 = 4294967311   # (p-1)^2 >= 2^63: products of residues need Python ints


def _batch_last_layouts(mats):
    """A batch-first batch (B, r, c) as batch-last (r, c, B) arrays in four
    layouts: C-ordered, a transposed view, Fortran-ordered, and a view of
    every other matrix of a batch twice as long."""
    last = mats.transpose(1, 2, 0)
    return [np.ascontiguousarray(last), last, np.asfortranarray(last),
            np.repeat(last, 2, axis=2)[:, :, ::2]]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 251, BEYOND_INT64)), st.integers(1, 6),
       st.integers(1, 6), st.randoms(use_true_random=False))
def test_batch_kernels_against_rref(p, r, c, rnd):
    # one batch: the zero matrix, a full-rank one (unit pivots on a diagonal,
    # random above, rows and columns shuffled), products X @ Y of every
    # inner dimension below min(r, c), and uniform draws; batch-last in
    # every layout of _batch_last_layouts, which batch_kernels leaves as is
    def draw(rows, cols):
        return np.array([rnd.randrange(p) for _ in range(rows * cols)],
                        dtype=object if p == BEYOND_INT64 else np.int64).reshape(rows, cols)

    full = np.triu(draw(r, c), 1) + np.eye(r, c, dtype=np.int64)
    full = full[rnd.sample(range(r), r)][:, rnd.sample(range(c), c)]
    mats = [np.zeros((r, c), dtype=np.int64), full]
    mats += [draw(r, k) @ draw(k, c) % p for k in range(1, min(r, c))]
    mats += [draw(r, c) for _ in range(3)]
    mats = np.array(mats)
    for layout in _batch_last_layouts(mats):
        before = layout.copy()
        ranks, kernels = _batch.batch_kernels(layout, p)
        assert np.array_equal(layout, before)
        assert kernels.shape == (len(mats), c, c)
        for m, rk, basis in zip(mats, ranks.tolist(), kernels):
            assert rk == len(rref_modp(m, p)[1])
            assert not basis[c - rk:].any()
            basis = basis[:c - rk]
            assert not (m @ basis.T % p).any()
            assert len(rref_modp(basis, p)[1]) == c - rk
            assert basis.tolist() == [v.tolist() for v in nullspace_modp(m, p)]
        assert ranks[1] == min(r, c) and ranks[0] == 0


def test_stacked_ranks_top_block():
    # the top rows' pivot count in one elimination of [top; bottom] is the
    # rank of top alone; low inner dimensions make both blocks deficient.
    # Each pair in every layout of _batch_last_layouts, against batch_rank
    # and rref_modp
    gen = np.random.default_rng(0x5AC)

    def draw(B, rows, cols, p):
        width = max(rows, cols)
        inner = gen.integers(0, min(rows, cols) + 1, size=(B, 1, 1))
        X = gen.integers(0, p, size=(B, rows, width))
        Y = gen.integers(0, p, size=(B, width, cols))
        X = np.where(np.arange(width) < inner, X, 0)
        if p == BEYOND_INT64:
            X, Y = X.astype(object), Y.astype(object)
        return X @ Y % p

    for p in (2, 3, 5, 7, BEYOND_INT64):
        for r1, r2, c in ((3, 3, 3), (4, 2, 5), (2, 5, 4), (6, 6, 6), (7, 7, 7)):
            B = 20 if p == BEYOND_INT64 else 200
            top, bottom = draw(B, r1, c, p), draw(B, r2, c, p)
            both = np.concatenate([top, bottom], axis=1)
            want_top = [len(rref_modp(m, p)[1]) for m in top]
            want_both = [len(rref_modp(m, p)[1]) for m in both]
            assert _batch.batch_rank(top.copy(), p).tolist() == want_top
            assert _batch.batch_rank(both, p).tolist() == want_both
            for t, b in zip(_batch_last_layouts(top), _batch_last_layouts(bottom)):
                rank_top, rank_both = _batch.stacked_ranks(t, b, p)
                assert rank_top.tolist() == want_top and rank_both.tolist() == want_both


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 251)), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 5), st.booleans(), st.randoms(use_true_random=False))
def test_modp_eliminator_against_definitions(p, r, c, inner, consistent, rnd):
    # A = X @ Y has rank at most `inner`, so small inner dimensions give
    # rank-deficient matrices; ranks come from the tower eliminator
    def draw(rows, cols):
        return np.array([rnd.randrange(p) for _ in range(rows * cols)],
                        dtype=np.int64).reshape(rows, cols)

    def rank(m):
        return _linalg.rank(make_tower(p, 1, 1), m.tolist(), m.shape[1])

    A = draw(r, inner) @ draw(inner, c) % p
    rk = rank(A)
    b = A @ draw(c, 1)[:, 0] % p if consistent else draw(r, 1)[:, 0]
    x = solve_modp(A, b, p)
    if x is None:
        assert rank(np.concatenate([A, b[:, None]], axis=1)) > rk
    else:
        assert ((A @ x - b) % p == 0).all()
    null = nullspace_modp(A, p)
    assert len(null) == c - rk
    for v in null:
        assert not (A @ v % p).any()
    if null:
        assert rank(np.array(null)) == len(null)
    B = draw(r, r)
    if not consistent:
        B[-1] = B[0] * rnd.randrange(p) % p   # singular unless r = 1
    if rank(B) == r:
        Binv = inverse_modp(B, p)
        assert (B @ Binv % p == np.eye(r, dtype=np.int64)).all()
        assert (Binv @ B % p == np.eye(r, dtype=np.int64)).all()
    else:
        with pytest.raises(ValueError):
            inverse_modp(B, p)


@pytest.mark.parametrize("pen", [(2, 1, 6), (2, 2, 3), (2, 3, 2), (3, 2, 2), (5, 1, 4)])
def test_fixed_field_matches_brute_force(pen):
    t = make_tower(*pen)
    for k in range(1, t.degree + 1):
        if t.degree % k:
            with pytest.raises(ValueError):
                t.fixed_field(k)
            continue
        want = tuple(x for x in t.enumerate_field() if t.frobenius_p(x, k) == x)
        assert len(want) == t.p ** k
        assert t.fixed_field(k) == want


def greedy_fq_basis(t):
    """Reference for fq_basis_fp: the first e nonzero subfield elements, in
    canonical order, that raise the F_p-rank."""
    bas, rows = [], []
    for x in t.subfield_elements:
        v = t.coords(x)
        if len(rref_modp(np.array(rows + [v]), t.p)[1]) > len(rows):
            rows.append(v)
            bas.append(x)
            if len(bas) == t.e:
                break
    return tuple(bas)


# every tower with e >= 2 and q^n <= 2^12
SMALL_EXTENSION_TOWERS = [(p, e, n) for p in range(2, 65) if is_prime(p)
                          for e in range(2, 13) for n in range(1, 7)
                          if p ** (e * n) <= 1 << 12]


def test_fq_basis_fp_matches_greedy_choice():
    assert len(SMALL_EXTENSION_TOWERS) > 50
    for pen in SMALL_EXTENSION_TOWERS:
        t = make_tower(*pen)
        assert t.fq_basis_fp == greedy_fq_basis(t), pen


def test_q_coords_without_listing_fq():
    # F_q has 4294967311 elements; listing it ran out of memory
    assert make_tower(4294967311, 1, 1).q_coords(5) == (5,)


def test_eliminator_exact_past_int64_products():
    # (p-1)^2 > 2^63: int64 products overflowed and inverse_modp returned a
    # wrong inverse for 19 of 20 random 3 x 3 matrices
    p = 4294967311
    assert make_tower(p, 1, 1).order == p
    rnd = random.Random(0xB16)
    for _ in range(20):
        A = [[rnd.randrange(p) for _ in range(3)] for _ in range(3)]
        B = [[int(v) for v in row] for row in inverse_modp(A, p)]
        assert [[sum(A[i][k] * B[k][j] for k in range(3)) % p for j in range(3)]
                for i in range(3)] == [[int(i == j) for j in range(3)] for i in range(3)]
        b = [rnd.randrange(p) for _ in range(3)]
        x = [int(v) for v in solve_modp(A, b, p)]
        assert [sum(A[i][k] * x[k] for k in range(3)) % p for i in range(3)] == b


def _assert_reduced_like_rref(mats, p):
    """batch_rank of mats (lists of residues, of one shape) matches
    rref_modp: the reduced batch holds rref's nonzero rows, unnormalized and
    each in its pivot row's place."""
    m = np.array(mats, dtype=object)
    ranks = _batch.batch_rank(m, p)
    for a, red, rk in zip(mats, m, ranks.tolist()):
        want, pivots = rref_modp(a, p)
        assert rk == len(pivots)
        normed = [[int(v) * pow(int(row[row != 0][0]), p - 2, p) % p for v in row]
                  for row in red if row.any()]
        assert sorted(normed) == sorted([int(v) for v in w] for w in want[:rk])
    return ranks


@pytest.mark.parametrize("p", [2147483647, 4294967291, 4294967311])
def test_batch_rank_past_the_inverse_table(p):
    # inverse_table(p) asked for 32 GiB at p = 4294967291; past 3.04e9 the
    # products need Python ints, as in rref_modp
    rnd = random.Random(p)
    mats = []
    for inner in (0, 1, 2, 3, 3):
        X = [[rnd.randrange(p) for _ in range(inner)] for _ in range(3)]
        Y = [[rnd.choice((1, p - 1, rnd.randrange(p))) for _ in range(3)]
             for _ in range(inner)]
        mats.append([[sum(X[i][k] * Y[k][j] for k in range(inner)) % p
                      for j in range(3)] for i in range(3)])
    _assert_reduced_like_rref(mats, p)
    ranks, kernels = _batch.batch_kernels(np.array(mats, dtype=object).transpose(1, 2, 0), p)
    for a, basis, rk in zip(mats, kernels, ranks.tolist()):
        assert [[int(v) for v in b] for b in basis[:3 - rk]] == \
            [[int(v) for v in b] for b in nullspace_modp(a, p)]


def test_batch_kernels_of_batches_not_c_contiguous():
    # a Fortran-ordered batch was reduced in a copy, and the kernels were
    # read off the unreduced batch: [[1,2,0],[2,1,1]] at p = 3 gave [2,1,0]
    mats = np.array([[[1, 2, 0], [2, 1, 1]], [[1, 1, 2], [0, 0, 0]],
                     [[0, 2, 1], [1, 0, 2]]])
    for batch, p in [(mats, 3), (mats, 5), (mats.transpose(0, 2, 1), 3),
                     (mats.transpose(0, 2, 1), 7)]:
        for layout in (*_batch_last_layouts(batch), batch.transpose(1, 2, 0)[::-1]):
            ranks, kernels = _batch.batch_kernels(layout, p)
            c = layout.shape[1]
            for b, (rk, basis) in enumerate(zip(ranks.tolist(), kernels)):
                m = layout[:, :, b]
                assert basis[:c - rk].tolist() == [v.tolist() for v in nullspace_modp(m, p)]
                assert not basis[c - rk:].any()


@pytest.mark.parametrize("pen", [(4294967291, 1, 2), (3037000507, 1, 2), (3, 1, 7),
                                 (7, 1, 3)])
def test_support_block_products_exact(pen):
    # L and the maps sum k*d products of two residues: past int64 they are
    # formed in Python ints.  At p = 4294967291 the int64 product returned
    # 4294967267 and 4294967268 for the map entries 1 and 2
    t = make_tower(*pen)
    p, d, n = t.p, t.degree, t.n
    rnd = random.Random(p + n)
    for T in ([0, 1], list(range(n))):
        L = np.stack([t.mult_powers.astype(object) @ t.frob_q_matrix(u).astype(object) % p
                      for u in T]).reshape(-1, d * d)
        coords = [[rnd.choice((0, 1, p - 1, p - 2, rnd.randrange(p))) for _ in range(len(T) * d)]
                  for _ in range(6)] + [[(p - 1, p - 2, p - 3)[i % 3] for i in range(len(T) * d)]]
        want = (np.array(coords, dtype=object) @ L % p).reshape(-1, d, d)
        rows = np.array(coords[:3], dtype=np.int64)
        sb = _batch.SupportBlockMatrix(t, T)
        general = _batch.SupportBlockMatrix(t, T, rows)
        assert sb.L.tolist() == L.tolist()
        assert general.L.tolist() == (rows.astype(object) @ L % p).tolist()
        assert sb.matrices(np.array(coords, dtype=np.int64)).tolist() == want.tolist()
        if p < 10:   # the benchmark towers keep their int64 products
            assert sb.L.dtype == np.int64 and general.L.dtype == np.int64


@pytest.mark.parametrize("p, c, dtype", [(3, 31, np.int8), (3, 32, np.int16),
                                         (5, 7, np.int8), (5, 8, np.int16),
                                         (181, 1, np.int16), (181, 2, np.int32),
                                         (32771, 1, np.int32), (32771, 2, np.int64),
                                         (2147483647, 2, np.int64),
                                         (2147483647, 3, object)])
def test_lazy_reduction_at_the_dtype_boundaries(p, c, dtype):
    # entries grow to (p-1) + c*(p-1)^2 between reductions; each pair of
    # cases sits on either side of one dtype's limit.  Entries 1 and p - 1
    # come often, so that the products reach (p-1)^2
    assert _batch.lazy_dtype(p, c) is dtype
    rnd = random.Random(p * 10 + c)
    tower = make_tower(p, 1, 1)
    for r in (1, 2, 3, 4):
        mats = [[[rnd.choice((0, 1, p - 1, p - 1, rnd.randrange(p))) for _ in range(c)]
                 for _ in range(r)] for _ in range(10)]
        ranks = _assert_reduced_like_rref(mats, p)
        assert ranks.tolist() == [_linalg.rank(tower, a, c) for a in mats]


def test_is_prime_miller_rabin():
    sieve = np.ones(10 ** 5, dtype=bool)
    sieve[:2] = False
    for f in range(2, 317):
        sieve[f * f::f] = False
    assert [m for m in range(10 ** 5) if is_prime(m)] == np.flatnonzero(sieve).tolist()
    # the largest prime below 2^64 (trial division ran past 120 s), its
    # composite neighbours, and strong pseudoprimes to the first 4 and 11 bases
    assert is_prime(2 ** 64 - 59) and is_prime(4294967311)
    assert not any(is_prime(m) for m in (2 ** 64 - 57, 2 ** 64 - 1, 3215031751,
                                         3825123056546413051, 4294967297))
    assert make_tower(2 ** 64 - 59, 1, 1).order == 2 ** 64 - 59
    with pytest.raises(ValueError):
        is_prime(MR_EXACT_BELOW)


def test_fq_basis_fp_pinned():
    # the first e nonzero subfield elements, in canonical order, that raise
    # the F_p-rank (a nullspace echelon basis would differ on these towers)
    pinned = {(2, 2, 7): (11930, 1), (2, 3, 5): (8608, 27228, 1),
              (3, 2, 5): (44013, 1), (2, 4, 3): (512, 64, 8, 1)}
    for pen, want in pinned.items():
        assert make_tower(*pen).fq_basis_fp == want


@pytest.mark.parametrize("p", [2, 3, 5, 7, 251, 65537])
def test_inverse_table_cached_and_read_only(p):
    inv = _batch.inverse_table(p)
    assert _batch.inverse_table(p) is inv
    assert not inv.flags.writeable
    with pytest.raises(ValueError):
        inv[1] = 0
    a = np.arange(1, p, dtype=np.int64)
    assert inv[0] == 0 and (a * inv[1:] % p == 1).all()


@pytest.mark.parametrize("pen", [(2, 1, 5), (3, 1, 4), (2, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_fq_span_rows_against_q_coords(pen):
    # rows are u_j * (each block) for u_j in fq_basis_fp; the F_p-rank over e
    # is the F_q-rank of the q-coordinate vectors, eliminated over F_{q^n}
    t = make_tower(*pen)
    for _ in range(10):
        m, b = rng.randrange(1, 5), rng.randrange(1, 3)
        xs = [[t.element_at(rng.randrange(t.order)) for _ in range(b)]
              for _ in range(m)]
        if rng.random() < 0.5:   # an F_q-combination of the first two
            lam = t.subfield_elements[rng.randrange(t.q)]
            xs.append([t.add(x, t.mul(lam, y)) for x, y in zip(xs[0], xs[-1])])
        rows = t.fq_span_rows([sum((t.coords(x) for x in v), []) for v in xs])
        assert rows.shape == (len(xs) * t.e, b * t.degree)
        for i, v in enumerate(xs):
            for j, u in enumerate(t.fq_basis_fp):
                assert rows[i * t.e + j].tolist() == \
                    sum((t.coords(t.mul(u, x)) for x in v), [])
        qrows = [sum((list(t.q_coords(x)) for x in v), []) for v in xs]
        fq_rank = _linalg.rank(t, qrows, b * t.n)
        assert len(rref_modp(rows, t.p)[1]) == t.e * fq_rank


def _trial_division_irreducible(m, p):
    """Monic m over F_p (constant term first) has no monic factor of degree
    1 to deg(m)/2, by long division."""
    def divides(g, f):
        r = list(f)
        for top in range(len(r) - 1, len(g) - 2, -1):
            c = r[top] % p
            if c:
                for j in range(len(g)):
                    r[top - len(g) + 1 + j] -= c * g[j]
        return not any(v % p for v in r[:len(g) - 1])

    d = len(m) - 1
    return not any(divides(low + (1,), m) for k in range(1, d // 2 + 1)
                   for low in itertools.product(range(p), repeat=k))


@pytest.mark.parametrize("p, d_max", [(2, 8), (3, 5), (5, 3), (7, 3)])
def test_berlekamp_irreducibility_against_trial_division(p, d_max):
    # rank(Q - I) = d - 1 and rank Q = d against the definition, on every
    # monic polynomial of degree 1 to d_max
    from mrdcodes.fields import _is_irreducible
    for d in range(1, d_max + 1):
        for low in itertools.product(range(p), repeat=d):
            m = low + (1,)
            assert _is_irreducible(m, p) == _trial_division_irreducible(m, p), m


@pytest.mark.parametrize("pen", [(2, 1, 7), (3, 1, 7), (2, 2, 4), (2, 1, 9),
                                 (5, 1, 5), (3, 2, 3)])
def test_modulus_is_lex_smallest_by_trial_division(pen):
    p, e, n = pen
    want = next(low + (1,) for low in itertools.product(range(p), repeat=e * n)
                if _trial_division_irreducible(low + (1,), p))
    assert make_tower(*pen).modulus == want


def test_modulus_search_is_flat_in_p():
    # at p = 1048573 a prefilter over every root 1..p-1 took seconds per
    # candidate; Euler's criterion is the oracle: X^2 + bX + c is
    # irreducible exactly when b^2 - 4c is a non-residue mod p
    p = 1048573
    t0 = time.perf_counter()
    m = fields._lex_smallest_irreducible(p, 2)
    assert time.perf_counter() - t0 < 0.1

    def irreducible(c, b):
        return pow((b * b - 4 * c) % p, (p - 1) // 2, p) == p - 1
    assert m == (1, 3, 1)
    assert irreducible(1, 3) and not any(irreducible(1, b) for b in range(3))


@pytest.mark.parametrize("tables", [True, False])
@pytest.mark.parametrize("pen", [(2, 1, 6), (2, 2, 3), (2, 3, 2), (3, 2, 2),
                                 (5, 1, 3), (7, 1, 2)])
def test_frob_p_matrix_against_scalar_frobenius(pen, tables, request):
    # column j of frob_p_matrix(i) is g^j raised to p^i, by frobenius_p and
    # by the scalar power (Zech tables, or square-and-multiply without them)
    if not tables:
        request.getfixturevalue("no_tables")
    t = make_tower(*pen)
    assert (t.tables is not None) == tables
    powers = [t.pow(t.generator, j) for j in range(t.degree)]
    for i in range(t.degree + 1):
        M = t.frob_p_matrix(i)
        assert M.dtype == np.int64 and M.shape == (t.degree, t.degree)
        for j, x in enumerate(powers):
            assert M[:, j].tolist() == t.coords(t.frobenius_p(x, i)) \
                == t.coords(t.pow(x, t.p ** i))
    assert np.array_equal(t.frob_p_matrix(1), t.frob_p_matrix(t.degree + 1))


@pytest.mark.parametrize("pen", [(2, 1, 7), (3, 1, 5), (2, 2, 4), (2, 3, 3), (5, 2, 2)])
def test_frobenius_without_tables_matches_tables(pen, monkeypatch):
    with_tables = fields.FieldTower(*pen)
    assert with_tables.tables is not None
    monkeypatch.setattr(fields, "TABLE_CAP", 0)
    bare = fields.FieldTower(*pen)
    gen = random.Random(sum(pen))
    for _ in range(40):
        x, i = gen.randrange(bare.order), gen.randrange(-1, bare.degree + 2)
        assert bare.frobenius_p(x, i) == with_tables.frobenius_p(x, i)
        assert bare.frobenius_q(x, i) == with_tables.frobenius_q(x, i)
    assert bare._tables is None


def test_frob_p_matrix_builds_no_tables():
    # 5^9 elements is below TABLE_CAP, so touching the tables would build them
    t = fields.FieldTower(5, 1, 9)
    assert t.order <= fields.TABLE_CAP
    t.frob_p_matrix(3)
    assert t._tables is None


def test_int8_elimination_at_its_limit():
    # lazy_dtype(3, 31) is int8: entries reach 2 + 31 * 4 = 126.  Square and
    # taller batches of all-2 matrices (rank 1), of 2 on and below the
    # diagonal (full rank), and random ones, against rref_modp
    p, c = 3, 31
    assert _batch.lazy_dtype(p, c) is np.int8 and _batch.lazy_dtype(p, c + 1) is np.int16
    assert _batch.lazy_dtype(5, 7) is np.int8
    gen = np.random.default_rng(31)
    for r in (31, 40):
        full = np.full((r, c), p - 1)
        lower = np.tril(full)
        rand = gen.integers(0, p, size=(6, r, c))
        sparse = rand * (gen.random((6, r, c)) < 0.2)
        mats = [full, lower, *rand, *sparse]
        ranks = _assert_reduced_like_rref([m.tolist() for m in mats], p)
        assert ranks[0] == 1 and ranks[1] == c


def test_stacked_ranks_of_batches_not_c_contiguous():
    # batch-last maps seen as (B, r, c) were not C-contiguous.  The stacked
    # batch kept their layout, batch_rank reduced a C-ordered copy, and the
    # top rank was read off the unreduced batch: on the curve engine's first
    # x block at q=2 n=8, rank M_H 8 against rank [M_H; M_W] 6.  The maps
    # now stay batch-last, in whatever layout they come
    gen = np.random.default_rng(5)
    for p in (2, 3, 7):
        low = gen.integers(0, p, size=(2, 12, 3, 50)) * (gen.random((2, 12, 3, 50)) < 0.5)
        both = np.einsum("xrib,xicb->xrcb", low, gen.integers(0, p, size=(2, 3, 6, 50))) % p
        top, bottom = (m.astype(np.int8).transpose(2, 0, 1) for m in (both[0][:6], both[1]))
        want_top = _batch.batch_rank(np.array(top), p)
        want_both = _batch.batch_rank(np.concatenate([top, bottom], axis=1), p)
        for t, b in zip(_batch_last_layouts(top), _batch_last_layouts(bottom)):
            got = _batch.stacked_ranks(t, b, p)
            assert got[0].tolist() == want_top.tolist()
            assert got[1].tolist() == want_both.tolist()
            assert (got[0] <= got[1]).all() and got[0].min() < 6
