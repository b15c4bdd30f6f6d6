import itertools
import json
import math
import random

import pytest

import numpy as np

from mrdcodes import _batch, curves, moore, verify
from mrdcodes.codes import SupportCode, gabidulin, named_family
from mrdcodes.fields import make_tower
from mrdcodes.linpoly import LinPoly

rng = random.Random(0x5CA1)

PE = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


def rank_sweep_criterion(tw):
    """Reference for trinomial_criterion: row-reduce, for every t in canonical
    order, the map Z -> Z^{q^2} + Z^q + tZ stacked on the relative trace; a
    rank below d - e is a 2-dimensional trace-zero kernel."""
    code = SupportCode(tw, (0, 1, 3), 1)
    d, e, p, Q = tw.degree, tw.e, tw.p, tw.order
    base = (tw.frob_q_matrix(2) + tw.frob_q_matrix(1)) % p
    L = np.stack([tw.mult_matrix(tw.pow(tw.generator, j)).reshape(-1)
                  for j in range(d)])
    trace_rows = verify._trace_rows(tw)
    for start in range(0, Q, verify.BATCH):
        count = min(verify.BATCH, Q - start)
        idx = np.arange(start, start + count, dtype=np.int64)
        coords = _batch.element_coord_columns(idx, p, d)
        mats = (base[None, :, :] + (coords @ L).reshape(count, d, d)) % p
        stacked = np.concatenate(
            [mats, np.broadcast_to(trace_rows, (count, e, d))], axis=1)
        bad = np.nonzero(_batch.batch_rank(stacked, p) < d - e)[0]
        if bad.size:
            bad_t = tw.element_at(start + int(bad[0]))
            z1, z2 = verify._trace_zero_kernel_pair(tw, bad_t)
            # the codeword vanishing on 1 and Artin-Schreier lifts of z1, z2
            x, y = (verify.artin_schreier_preimage(tw, z) for z in (z1, z2))
            f = moore._codeword_killing(tw, (1, x, y), (0, 1, 3))
            witness = {"t": tw.coords(bad_t),
                       "trace_zero_roots": [tw.coords(z1), tw.coords(z2)],
                       "codeword": f.to_json(), "kernel_dim": f.kernel_dim()}
            return verify.Certificate(code.descriptor(), "NOT_MRD", "trinomial",
                                      witness, start + int(bad[0]) + 1,
                                      tw.descriptor(), 0.0)
    return verify.Certificate(code.descriptor(), "MRD", "trinomial", None, Q,
                              tw.descriptor(), 0.0)


def raw_scan(code, budget=verify.DEFAULT_BUDGET):
    """Reference for exhaustive_scan: rank every projective representative
    in raw order (lead coefficient 1, earlier ones 0, the tail odometer-counted
    in canonical element order, last position fastest) and stop at the first
    kernel dimension >= k."""
    t, k, exps = code.tower, code.k, code.q_support()
    total = _batch.projective_index_total(t, k)
    if total > budget:
        return verify.Certificate(code.descriptor(), "UNKNOWN", "scan", None, 0,
                                  t.descriptor(), 0.0)
    Q = t.order
    sb = _batch.SupportBlockMatrix(t, exps)
    threshold = t.degree - t.e * (k - 1)
    offset = 0
    for lead in range(k):
        ntails = k - 1 - lead
        for start in range(0, Q ** ntails, verify.BATCH):
            idx = np.arange(start, min(start + verify.BATCH, Q ** ntails))
            tails = np.zeros((idx.size, ntails), dtype=np.int64)
            for w in range(ntails):
                tails[:, w] = idx // Q ** (ntails - 1 - w) % Q
            coords = _batch.projective_coords(t, lead, tails)
            ranks = _batch.batch_rank(sb.matrices(coords), t.p)
            bad = np.flatnonzero(ranks < threshold)
            if bad.size:
                raw = start + int(bad[0])
                f = LinPoly.from_support(
                    t, exps, _batch.rep_to_coefficients(t, k, lead, raw))
                witness = {"codeword": f.to_json(), "kernel_dim": f.kernel_dim()}
                return verify.Certificate(code.descriptor(), "NOT_MRD", "scan",
                                          witness, offset + raw + 1,
                                          t.descriptor(), 0.0)
        offset += Q ** ntails
    return verify.Certificate(code.descriptor(), "MRD", "scan", None, total,
                              t.descriptor(), 0.0)


def brute_orbits(t, exps):
    """{(lead, raw tail index): (smallest raw tail index in its orbit, orbit
    size)} by applying f -> b*f(a*x), b = a^{-q^u_lead}, for every a in
    F_{q^n}* to every projective representative."""
    Q, k = t.order, len(exps)
    units = [x for x in t.enumerate_field() if x]
    out = {}
    for lead in range(k):
        ntails = k - 1 - lead
        factors = [[t.mul(t.pow(a, t.q ** u), t.inv(t.pow(a, t.q ** exps[lead])))
                    for u in exps[lead + 1:]] for a in units]
        for raw in range(Q ** ntails):
            coeffs = _batch.rep_to_coefficients(t, k, lead, raw)[lead + 1:]
            orbit = set()
            for fa in factors:
                img = 0
                for c, f in zip(coeffs, fa):
                    img = img * Q + t.canonical_index(t.mul(c, f))
                orbit.add(img)
            out[(lead, raw)] = (min(orbit), len(orbit))
    return out


def _untimed(cert):
    out = cert.to_json()
    out.pop("elapsed_ms")
    return json.dumps(out, sort_keys=True)


def test_gcd_filter():
    assert verify.gcd_filter((0, 3), 6, 2) is False
    assert verify.gcd_filter((0, 1, 3), 7) is True
    assert verify.gcd_filter((0, 2, 4), 6, 3) is True
    assert verify.gcd_filter((0, 1, 3), 9, 3) is False   # gcd(3,9)=3


def test_gcd_filter_witness():
    t = make_tower(2, 1, 6)
    f, pair = verify.gcd_filter_witness(t, (0, 3))
    assert pair == (0, 3)
    assert f.kernel_dim() == 3
    assert SupportCode(t, (0, 3), 1).contains(f)
    with pytest.raises(ValueError):
        verify.gcd_filter_witness(t, (0, 1))


def test_scan_refutes_c7_q2():
    t = make_tower(2, 1, 7)
    cert = verify.exhaustive_scan(named_family("C7", t))
    assert cert.verdict == "NOT_MRD"
    assert verify.validate_certificate(cert)
    w = LinPoly.from_json(t, cert.witness["codeword"])
    assert w.kernel_dim() == 3
    # the printed codeword X + X^q + X^{q^3} is reachable: scan it explicitly
    f = LinPoly.from_support(t, [0, 1, 3], [1, 1, 1])
    assert f.kernel_dim() == 3


def test_scan_confirms_gabidulin():
    t = make_tower(2, 1, 6)
    cert = verify.exhaustive_scan(gabidulin(t, 3, 1))
    assert cert.verdict == "MRD"
    assert cert.scanned == (2 ** 18 - 1) // (2 ** 6 - 1)
    assert verify.validate_certificate(cert)


def test_scan_deterministic_and_parallel_agreement():
    t = make_tower(2, 1, 7)
    code = named_family("C7", t)
    a = verify.exhaustive_scan(code)
    b = verify.exhaustive_scan(code)
    assert a.witness == b.witness and a.scanned == b.scanned
    c = verify.exhaustive_scan(code, workers=2)
    assert c.witness == a.witness and c.scanned == a.scanned
    m = verify.exhaustive_scan(gabidulin(t, 2, 1), workers=2)
    assert m.verdict == "MRD" and m.scanned == (2 ** 14 - 1) // (2 ** 7 - 1)


@pytest.mark.parametrize("p,e,n,T,s", [
    (2, 1, 4, (0, 1, 3), 1), (2, 1, 4, (0, 1, 2, 3), 1), (2, 1, 4, (0, 1, 2), 3),
    (2, 1, 5, (0, 1, 3), 1), (3, 1, 3, (0, 1, 2), 1), (2, 2, 3, (0, 1, 2), 1),
    (2, 1, 6, (0, 3), 1), (2, 1, 6, (0, 2), 1), (5, 1, 2, (0, 1), 1),
    (3, 2, 2, (0, 1), 1)])
def test_canonical_representatives_are_orbit_minima(p, e, n, T, s):
    t = make_tower(p, e, n)
    exps = SupportCode(t, T, s).q_support()
    orbits = brute_orbits(t, exps)
    sweep = _batch.OrbitSweep(t, exps)
    got = {}
    for lead, count in enumerate(sweep.counts):
        _, raw, orbit = sweep.representatives(lead, 0, count)
        got.update({(lead, int(r)): int(o) for r, o in zip(raw, orbit)})
    want = {key: size for key, (least, size) in orbits.items() if least == key[1]}
    assert got == want
    # nontrivial orbits past the first lead, where k leaves a tail there
    assert len(exps) < 3 or any(lead > 0 and size > 1
                                for (lead, _), size in got.items())


@pytest.mark.parametrize("q,n,T", [
    (2, 3, (0, 1)), (2, 4, (0, 2)), (2, 6, (0, 2, 4)), (2, 6, (0, 1, 3, 4)),
    (2, 7, (0, 1, 3)), (2, 8, (0, 1, 2, 4)), (2, 9, (0, 1, 2, 3)),
    (2, 9, (0, 3, 6)), (3, 4, (0, 1, 2)), (3, 6, (0, 2, 4)), (3, 7, (0, 1, 3)),
    (4, 4, (0, 1, 3)), (4, 6, (0, 3)), (5, 4, (0, 1, 2)), (7, 3, (0, 1, 2)),
    (8, 4, (0, 2)), (9, 3, (0, 1)), (9, 4, (0, 1, 3))])
def test_orbit_sizes_sum_to_projective_total(q, n, T):
    t = make_tower(*PE[q], n)
    sweep = _batch.OrbitSweep(t, T)
    covered = 0
    for lead, start, count in sweep.chunks(1 << 10, 1 << 14):
        tails, raw, orbit = sweep.representatives(lead, start, count)
        assert np.all(np.diff(raw) > 0) and np.all(tails < t.order)
        covered += int(orbit.sum())
    assert covered == _batch.projective_index_total(t, len(T))
    assert sum(sweep.counts) < covered or t.order <= 4


SCAN_ORACLE_CASES = [
    (2, 1, 9, (0, 1, 3, 6), 1), (2, 1, 9, (0, 1, 3, 7), 1),
    (2, 1, 9, (0, 1, 3, 4), 1), (2, 1, 9, (0, 1, 4, 6), 1),
    (2, 1, 7, (0, 1, 3), 1), (2, 1, 7, (0, 1, 2), 1), (2, 1, 7, (0, 1, 2, 4), 3),
    (3, 1, 6, (0, 2, 4), 1), (3, 1, 5, (0, 1, 2), 1), (2, 2, 5, (0, 1), 2),
    (2, 2, 4, (0, 1, 3), 1), (2, 1, 6, (0, 1, 3), 5), (3, 1, 4, (0, 2), 1),
    (5, 1, 3, (0, 1), 1), (2, 1, 5, (0, 1, 3, 4), 1)]


@pytest.mark.parametrize("p,e,n,T,s", SCAN_ORACLE_CASES)
def test_scan_matches_raw_oracle(p, e, n, T, s):
    code = SupportCode(make_tower(p, e, n), T, s)
    assert _untimed(verify.exhaustive_scan(code)) == _untimed(raw_scan(code))


def test_scan_matches_raw_oracle_without_tables(no_tables):
    for p, n, T in ((2, 7, (0, 1, 3)), (2, 5, (0, 1, 2)), (3, 4, (0, 1))):
        code = SupportCode(make_tower(p, 1, n), T, 1)
        assert code.tower.tables is None
        cert = verify.exhaustive_scan(code)
        assert _untimed(cert) == _untimed(raw_scan(code))
        assert verify._orbit_sweep(p, 1, n, T).counts[0] == (p ** n) ** (len(T) - 1)


def test_scan_budget_boundary():
    code = gabidulin(make_tower(3, 1, 5), 3, 1)
    total = (243 ** 3 - 1) // 242
    assert verify.exhaustive_scan(code, budget=total - 1).verdict == "UNKNOWN"
    assert verify.exhaustive_scan(code, budget=total).scanned == total


def test_scan_pool_path(monkeypatch):
    # small blocks send most of the sweep through the pool
    monkeypatch.setattr(verify, "BATCH", 1 << 9)
    t = make_tower(2, 1, 9)
    for code in (gabidulin(make_tower(2, 1, 6), 4, 1), SupportCode(t, (0, 1, 3, 4))):
        assert _untimed(verify.exhaustive_scan(code, workers=2)) == \
            _untimed(verify.exhaustive_scan(code, workers=1))
    assert verify.exhaustive_scan(SupportCode(t, (0, 1, 3, 4)), workers=2).scanned \
        == 263686


def test_scan_budget_unknown():
    t = make_tower(2, 1, 7)
    cert = verify.exhaustive_scan(named_family("C7", t), budget=10)
    assert cert.verdict == "UNKNOWN" and cert.scanned == 0


def test_scan_gabidulin_sanity_across_q():
    # progressions with coprime twist come out MRD at every tested (q, n)
    for (p, e, n, k, s) in ((2, 1, 5, 2, 1), (3, 1, 5, 2, 1), (2, 2, 3, 2, 1),
                            (2, 1, 7, 3, 2), (3, 1, 4, 2, 3)):
        t = make_tower(p, e, n)
        cert = verify.exhaustive_scan(gabidulin(t, k, s))
        assert cert.verdict == "MRD", (p, e, n, k, s)
        assert cert.scanned == (t.order ** k - 1) // (t.order - 1)


def test_trinomial_matches_scan_small():
    for (p, n) in ((2, 7), (2, 8), (2, 9), (3, 6)):
        t = make_tower(p, 1, n)
        a = verify.trinomial_criterion(t)
        b = verify.exhaustive_scan(named_family("Cn", t))
        assert a.verdict == b.verdict, (p, n)
        if a.verdict == "NOT_MRD":
            assert verify.validate_certificate(a)
            w = LinPoly.from_json(t, a.witness["codeword"])
            assert w.kernel_dim() >= 3
            z1, z2 = (t.element_from_json(z)
                      for z in a.witness["trace_zero_roots"])
            te = t.element_from_json(a.witness["t"])
            poly = LinPoly.from_support(t, [2, 1, 0], [1, 1, te])
            for z in (z1, z2):
                assert t.rel_trace(z) == 0 and poly.eval(z) == 0


def test_trinomial_counts_all_t():
    t = make_tower(3, 1, 7)
    cert = verify.trinomial_criterion(t)
    assert cert.verdict == "MRD" and cert.scanned == 3 ** 7


def test_trinomial_needs_room():
    with pytest.raises(ValueError):
        verify.trinomial_criterion(make_tower(2, 1, 4))


@pytest.mark.parametrize("q,n", [(2, 5), (2, 6), (2, 7), (2, 8), (3, 5), (3, 6),
                                 (3, 7), (3, 8), (4, 5), (4, 6), (4, 7), (5, 5),
                                 (5, 6), (7, 5)])
def test_trinomial_matches_rank_sweep(q, n):
    t = make_tower(*PE[q], n)
    assert _untimed(verify.trinomial_criterion(t)) == \
        _untimed(rank_sweep_criterion(t))


@pytest.mark.parametrize("q,n", [(4, 7), (7, 5)])
def test_trinomial_in_small_blocks(monkeypatch, q, n):
    # a small BATCH splits the hyperplane into many high blocks (one per
    # combination of the high rows, down to an empty first block at BATCH = 1)
    t = make_tower(*PE[q], n)
    want = _untimed(rank_sweep_criterion(t))
    values, hits = verify._t_histogram(t)
    assert hits.sum() == (q ** (n - 1) - 1) // (q - 1)   # one Z per F_q-line
    for batch in (1, q, 50):
        monkeypatch.setattr(verify, "BATCH", batch)
        small_values, small_hits = verify._t_histogram(t)
        assert (np.array_equal(small_values, values)
                and np.array_equal(small_hits, hits)), batch
        assert _untimed(verify.trinomial_criterion(t)) == want, batch


def _full_hyperplane_histogram(tower, batch=1 << 16):
    """The earlier `_t_histogram`: t(Z) over every nonzero trace-zero Z, from
    an F_p-basis of the hyperplane by elimination, with the log difference
    reduced mod Q - 1 (the earlier exp held 2(Q-1) entries)."""
    from mrdcodes.fields import nullspace_modp, span_modp, subtract_p_once
    exp, log = tower.tables
    d, p, Q = tower.degree, tower.p, tower.order
    neg_base = -(tower.frob_q_matrix(2) + tower.frob_q_matrix(1)) % p
    hyper = np.array(nullspace_modp(verify._trace_rows(tower), p))
    rows = np.concatenate([hyper, hyper @ neg_base.T % p], axis=1)
    low = 0
    while low < len(rows) and p ** (low + 1) <= batch:
        low += 1
    split = len(rows) - low
    low_block = np.ascontiguousarray(span_modp(rows[split:], p).T)
    t_of_z = []
    for i, high in enumerate(span_modp(rows[:split], p)):
        block = low_block[:, 1:] if i == 0 else low_block   # combination 0 is Z = 0
        digits = subtract_p_once(block + high[:, None], p).reshape(2, d, -1)
        packed = digits[:, d - 1].astype(np.min_scalar_type(Q - 1))
        for j in range(d - 2, -1, -1):
            packed *= p
            packed += digits[:, j]
        z, w = packed
        idx = log[w].astype(np.int64) - log[z]
        tz = exp[idx % (Q - 1)]
        tz[w == 0] = 0
        t_of_z.append(tz)
    t = np.sort(np.concatenate(t_of_z))
    starts = np.flatnonzero(np.concatenate([[True], t[1:] != t[:-1]]))
    return t[starts], np.diff(np.append(starts, t.size))


@pytest.mark.parametrize("pen", [(2, 1, 5), (2, 1, 8), (3, 1, 7), (3, 1, 9), (2, 2, 7),
                                 (2, 3, 5), (3, 2, 5), (5, 1, 7), (7, 1, 7), (13, 1, 5)])
def test_line_histogram_matches_full_hyperplane(monkeypatch, pen):
    # t is constant on F_q-lines: the same values, each hit q - 1 times fewer.
    # BATCH = 1, q and 50 give leads whose tails are shorter than the low
    # block and leads whose tails are longer
    t = make_tower(*pen)
    q = t.q
    want_values, want_hits = _full_hyperplane_histogram(t)
    for batch in (verify.BATCH, 1, q, 50):
        monkeypatch.setattr(verify, "BATCH", batch)
        values, hits = verify._t_histogram(t)
        assert np.array_equal(values, want_values), batch
        assert np.array_equal(want_hits, (q - 1) * hits), batch


@pytest.mark.parametrize("q,n,verdict,scanned", [
    (4, 8, "MRD", 65536), (7, 7, "MRD", 823543), (5, 7, "MRD", 78125),
    (4, 7, "NOT_MRD", 648), (3, 9, "NOT_MRD", 1547), (5, 8, "NOT_MRD", 8841),
    (4, 9, "NOT_MRD", 2053), (8, 6, "NOT_MRD", 131073), (8, 5, "MRD", 32768),
    (9, 5, "MRD", 59049)])
def test_trinomial_pinned_verdicts(q, n, verdict, scanned):
    # values of the rank sweep, which takes seconds to minutes on these towers
    cert = verify.trinomial_criterion(make_tower(*PE[q], n))
    assert (cert.verdict, cert.scanned) == (verdict, scanned)


def test_forged_certificates_rejected():
    # C7 is NOT_MRD at q=2; MRD claims with the full counts must still fail
    t = make_tower(2, 1, 7)
    desc, tower = named_family("C7", t).descriptor(), t.descriptor()
    subspaces = 11_811  # [7 3]_2
    for method, scanned in (("trinomial", 2 ** 7), ("curve", 2 ** 14),
                            ("moore", subspaces), ("oracle", 0)):
        forged = verify.Certificate(desc, "MRD", method, None, scanned, tower, 0.0)
        assert not verify.validate_certificate(forged), method
    # right counts on an MRD code, but a method that cannot decide it
    t = make_tower(2, 1, 6)
    gab = gabidulin(t, 3, 1).descriptor()
    for method, scanned in (("trinomial", 2 ** 6), ("curve", 2 ** 12)):
        forged = verify.Certificate(gab, "MRD", method, None, scanned,
                                    t.descriptor(), 0.0)
        assert not verify.validate_certificate(forged), method
    short = verify.Certificate(gab, "MRD", "moore", None, 1, t.descriptor(), 0.0)
    assert not verify.validate_certificate(short)
    # an MRD scan with the full count, on a support the scan refutes
    t = make_tower(2, 1, 8)
    code = SupportCode(t, (0, 1, 2, 4), 1)
    assert verify.decide(code).verdict == "NOT_MRD"
    forged = verify.Certificate(code.descriptor(), "MRD", "scan", None,
                                _batch.projective_index_total(t, 4), t.descriptor(), 0.0)
    assert not verify.validate_certificate(forged)
    # and an MRD Moore sweep with the full count [8 4]_2 on the same support
    forged = verify.Certificate(code.descriptor(), "MRD", "moore", None, 200_787,
                                t.descriptor(), 0.0)
    assert not verify.validate_certificate(forged)


def test_certificates_on_another_tower_rejected():
    # the tower is rebuilt from its descriptor: a modulus that is missing or
    # not the deterministic one, or a descriptor that names no tower, fails
    # (a bad modulus used to pass unread, and p = 4 or n = 0 used to raise)
    t = make_tower(2, 1, 7)
    cert = verify.decide(named_family("C7", t))
    assert cert.method == "trinomial" and verify.validate_certificate(cert)
    other = [1, 1, 0, 0, 0, 0, 0, 1]           # another irreducible of degree 7
    assert other != list(t.modulus)
    bare = {"p": 2, "e": 1, "n": 7}
    for tower in ({**bare, "modulus": [5]}, {**bare, "modulus": other}, bare,
                  {"p": 4}, {"n": 0}, {**t.descriptor(), "p": 4},
                  {**t.descriptor(), "n": 0}, {**t.descriptor(), "e": "one"}):
        forged = verify.Certificate.from_json({**cert.to_json(), "tower": tower})
        assert not verify.validate_certificate(forged), tower


@pytest.mark.parametrize("q,n", [(2, 6), (2, 7), (3, 8), (4, 7), (5, 6)])
def test_trinomial_witness_is_a_composition(q, n):
    # X^{q^3} + (t-1)X^q - tX is (Z^{q^2} + Z^q + tZ) o (X^q - X); at the bad
    # t it vanishes on F_q and on Artin-Schreier lifts of both roots
    t = make_tower(*PE[q], n)
    cert = verify.trinomial_criterion(t)
    bad_t = t.element_from_json(cert.witness["t"])
    f = verify._codeword_from_h_point(t, bad_t)
    trinomial = LinPoly.from_support(t, (2, 1, 0), (1, 1, bad_t))
    assert f == trinomial.compose(LinPoly.from_support(t, (1, 0), (1, t.neg(1))))
    assert LinPoly.from_json(t, cert.witness["codeword"]) == f
    for z in cert.witness["trace_zero_roots"]:
        x = verify.artin_schreier_preimage(t, t.element_from_json(z))
        assert f.eval(x) == 0 and f.eval(1) == 0


def test_genuine_certificates_validate():
    t27, t25, t26 = make_tower(2, 1, 7), make_tower(2, 1, 5), make_tower(2, 1, 6)
    certs = [
        verify.exhaustive_scan(named_family("C7", t27)),
        verify.exhaustive_scan(gabidulin(t26, 3, 1)),
        verify.exhaustive_scan(named_family("C7", t27), budget=10),
        verify.trinomial_criterion(make_tower(3, 1, 7)),
        verify.trinomial_criterion(t27),
        verify.trinomial_criterion(make_tower(2, 2, 7)),
        verify.n9_witness(make_tower(2, 1, 9), 4),
        verify._gcd_certificate(t26, (0, 3)),
        curves.mrd_via_curve(t27),
        curves.mrd_via_curve(make_tower(3, 1, 5)),
        moore.mrd_by_moore(gabidulin(t25, 2, 1)),
        moore.mrd_by_moore(SupportCode(t25, (0, 1, 3), 1)),
        moore.mrd_by_moore(named_family("C7", t27)),
        moore.mrd_by_moore(SupportCode(make_tower(3, 1, 4), (0, 1), 1)),
    ]
    certs += [e.certificate for e in verify.classify(t27, 3).entries if e.certificate]
    assert {c.method for c in certs} == set(verify.METHODS)
    assert {c.verdict for c in certs} == {"MRD", "NOT_MRD", "UNKNOWN"}
    for cert in certs:
        assert verify.validate_certificate(cert), cert.to_json()


def test_decide_dispatch():
    t = make_tower(2, 1, 9)
    assert verify.decide(SupportCode(t, (0, 1, 3), 1)).method == "witness"  # gcd
    assert verify.decide(named_family("Ds", t, s=4)).witness.get("c")
    t7 = make_tower(3, 1, 7)
    # shifted and twisted {0,1,3} supports go to the criterion
    assert verify.decide(SupportCode(t7, (1, 2, 4), 1)).method == "trinomial"
    assert verify.decide(SupportCode(t7, (0, 1, 3), 2)).method == "trinomial"
    scan = verify.decide(SupportCode(t7, (0, 1, 2), 2), budget=10)
    assert scan.method == "scan" and scan.code_desc["s"] == 2


def test_decide_without_tables_scans_013(no_tables):
    # the trinomial criterion needs the Zech tables, so {0,1,3} goes to the scan
    code = SupportCode(make_tower(2, 1, 7), (0, 1, 3), 1)
    assert code.tower.tables is None
    cert = verify.decide(code)
    assert (cert.method, cert.verdict) == ("scan", "NOT_MRD")
    assert _untimed(cert) == _untimed(verify.exhaustive_scan(code))
    assert verify.validate_certificate(cert)


def test_n9_witness_all_cases():
    for q in (2, 3):
        t = make_tower(q, 1, 9)
        for s in (1, 4, 7):
            cert = verify.n9_witness(t, s)
            assert cert.verdict == "NOT_MRD"
            assert verify.validate_certificate(cert)
            w = LinPoly.from_json(t, cert.witness["codeword"])
            assert w.rank() == 5 and w.kernel_dim() == 4
            # the constant's inverse has trace -2 and norm -1 down to F_q
            c = t.element_from_json(cert.witness["c"])
            z = t.inv(c)
            zq, zqq = t.frobenius_q(z, 1), t.frobenius_q(z, 2)
            assert t.add(t.add(z, zq), zqq) == t.embed_fp(-2)
            assert t.mul(t.mul(z, zq), zqq) == t.embed_fp(-1)
            assert t.frobenius_q(c, 3) == c   # cubic subfield
            assert named_family("Ds", t, s=s).contains(w)


def test_n9_conjugation_pattern():
    # the s=4 and s=7 witnesses are the permutation-conjugates of the s=1 one
    perm = (0, 7, 5, 3, 1, 8, 6, 4, 2)
    for q in (2, 3):
        t = make_tower(q, 1, 9)
        certs = {s: verify.n9_witness(t, s) for s in (1, 4, 7)}
        polys = {s: LinPoly.from_json(t, certs[s].witness["codeword"])
                 for s in (1, 4, 7)}
        D1 = polys[1].dickson()
        D4 = polys[4].dickson()
        D7 = polys[7].dickson()
        for i in range(9):
            for j in range(9):
                assert D4[i][j] == D1[perm[i]][perm[j]]
        perm2 = tuple(perm[perm[i]] for i in range(9))
        for i in range(9):
            for j in range(9):
                assert D7[i][j] == D1[perm2[i]][perm2[j]]


def test_shift_ops():
    assert verify.shift_canonical((2, 4, 5, 6), 7) == (0, 1, 2, 5)
    assert verify.shift_canonical((2, 4, 5, 6), 7) == \
        verify.shift_canonical((0, 3, 5, 6), 7)
    assert verify.shift_equivalent((0, 1, 2), (0, 1, 3), 7) is None
    assert verify.shift_equivalent((0, 1, 3), (0, 1, 3), 7) == 0
    assert verify.shift_equivalent((2, 4, 5, 6), (0, 3, 5, 6), 7) == 1
    for _ in range(20):
        n = rng.randrange(3, 10)
        k = rng.randrange(1, n + 1)
        T = sorted(rng.sample(range(n), k))
        s = rng.randrange(n)
        shifted = sorted((t + s) % n for t in T)
        assert verify.shift_canonical(T, n) == verify.shift_canonical(shifted, n)
        assert verify.shift_equivalent(T, shifted, n) is not None


def test_gabidulin_support_detection():
    assert verify.is_gabidulin_support((0, 1, 2), 7)
    assert verify.is_gabidulin_support((0, 2, 4), 7)       # difference 2
    assert verify.is_gabidulin_support((0, 2, 5), 8)       # shift of {0,3,6}
    assert not verify.is_gabidulin_support((0, 1, 3), 7)
    assert not verify.is_gabidulin_support((0, 2, 4), 6)   # difference 2 | 6


def test_support_recognition_matches_shift_sweeps():
    # the n-shift sweeps that the k-candidate forms replace, as oracles,
    # over every nonempty subset of Z/n for n <= 9
    def canonical(T, n):
        T = sorted(t % n for t in T)
        return min(tuple(sorted((t + s) % n for t in T)) for s in range(n))

    def equivalent(T1, T2, n):
        return next((s for s in range(n)
                     if tuple(sorted((t + s) % n for t in T1)) == tuple(sorted(T2))), None)

    def gabidulin(T, n):
        progs = [sorted(i * step % n for i in range(len(T)))
                 for step in range(1, n) if math.gcd(step, n) == 1]
        return any(len(set(P)) == len(T) and canonical(P, n) == canonical(T, n)
                   for P in progs)

    def gcd_pair(T, n, k):
        return next(((T[i], T[j]) for i, j in itertools.combinations(range(len(T)), 2)
                     if math.gcd(T[j] - T[i], n) >= k), None)

    assert not verify.is_gabidulin_support((0,), 1)
    for n in range(1, 10):
        t = make_tower(2, 1, n)
        subsets = [T for k in range(1, n + 1) for T in itertools.combinations(range(n), k)]
        for T in subsets:
            shifted = [(u + 3) % n for u in reversed(T)]
            assert verify.shift_canonical(T, n) == canonical(T, n), (T, n)
            assert verify.shift_canonical(shifted, n) == canonical(T, n), (T, n)
            assert verify.is_gabidulin_support(T, n) == gabidulin(T, n), (T, n)
            assert verify.is_gabidulin_support(shifted, n) == gabidulin(T, n), (T, n)
            assert SupportCode(t, T, 1).stabilizer() == \
                tuple(s for s in range(n) if tuple(sorted((u + s) % n for u in T)) == T)
            for k in (2, len(T)):
                assert verify.gcd_filter(T, n, k) == (gcd_pair(T, n, k) is None)
            pair = gcd_pair(sorted(shifted), n, len(T))
            assert verify.gcd_filter(shifted, n) == (pair is None)
            if pair is None:
                with pytest.raises(ValueError):
                    verify.gcd_filter_witness(t, shifted)
            else:
                f, got = verify.gcd_filter_witness(t, shifted)
                assert got == pair
                assert f == LinPoly.from_support(t, [pair[1], pair[0]], [1, t.neg(1)])
            assert verify.shift_equivalent(T, T[:-1], n) is None
            assert verify.shift_equivalent(T[:-1], T, n) is None
        for T1 in subsets:
            for T2 in subsets:
                if len(T1) == len(T2):
                    assert verify.shift_equivalent(T1, T2, n) == equivalent(T1, T2, n)


def test_classify_small_q2():
    t = make_tower(2, 1, 7)
    cl = verify.classify(t, 3)
    assert [e.T for e in cl.entries] == \
        [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 4)]
    entry = cl.entry((0, 1, 3))
    assert entry.certificate.verdict == "NOT_MRD"
    assert cl.entry((0, 1, 5)).removed_by == "adjoint"
    gab = [e.T for e in cl.entries if e.gabidulin]
    assert gab == [(0, 1, 2), (0, 1, 4), (0, 2, 4)]
    # shift-dedup-completeness: every 3-subset lands on exactly one entry
    listed = {e.T for e in cl.entries}
    for T in itertools.combinations(range(7), 3):
        assert verify.shift_canonical(T, 7) in listed


def test_classify_n6_tr_refutation():
    t = make_tower(2, 1, 6)
    cl = verify.classify(t, 3)
    e = cl.entry((0, 2, 4))
    assert not e.gabidulin and e.certificate.verdict == "NOT_MRD"
    w = LinPoly.from_json(t, e.certificate.witness["codeword"])
    assert w.kernel_dim() >= 3


def test_classify_unknown_budget():
    t = make_tower(3, 1, 6)
    cl = verify.classify(t, 3, budget=5)
    verdicts = {e.T: e.certificate.verdict
                for e in cl.entries if e.certificate}
    assert "UNKNOWN" in verdicts.values()


def test_classify_n9_k4_replay():
    # every support class is refuted; the {0,s,2s,4s} classes go through the
    # witness construction, their adjoint partners are tagged redundant
    t = make_tower(2, 1, 9)
    cl = verify.classify(t, 4)
    d_classes = {verify.shift_canonical(sorted({0, s, 2 * s % 9, 4 * s % 9}), 9): s
                 for s in (1, 4, 7)}
    for e in cl.entries:
        if e.certificate:
            assert e.certificate.verdict == "NOT_MRD", e.T
            assert verify.validate_certificate(e.certificate)
            if e.T in d_classes:
                assert e.certificate.method == "witness"
        else:
            assert e.gabidulin or e.removed_by == "adjoint", e.T
    progressions = [e.T for e in cl.entries if e.gabidulin]
    assert len(progressions) == 3


def test_certificate_json_roundtrip():
    t = make_tower(2, 1, 7)
    cert = verify.exhaustive_scan(named_family("C7", t))
    back = verify.Certificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert back.verdict == cert.verdict and back.witness == cert.witness
    assert verify.validate_certificate(back)


def test_hasse_weil_gap():
    assert verify.hasse_weil_gap(2, 10)
    assert verify.hasse_weil_gap(9, 10)
    assert isinstance(verify.hasse_weil_gap(2, 7), bool)
    # tiny n fails the positivity guard for larger q
    assert not verify.hasse_weil_gap(9, 2)
