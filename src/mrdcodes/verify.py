"""MRD verification engines and the support-classification search.

A support code C_T is MRD exactly when every nonzero codeword has kernel
dimension at most k-1 over F_q.  The engines here decide that by:

  * exhaustive_scan  -- decide all (q^{kn}-1)/(q^n-1) projective codeword
    representatives by ranking one canonical representative per orbit of
    f -> b*f(a*x), which keeps rank (about (q^{kn}-1)/(q^n-1)^2 ranks);
    `scanned` and the budget still count the whole projective space, since
    each canonical representative carries its exact orbit size;
  * trinomial_criterion -- the support {0,1,3} reduces to: for every t in
    F_{q^n}, the kernel of Z^{q^2} + Z^q + tZ meets the trace-zero hyperplane
    in dimension at most 1.  Each nonzero Z is a root of the one trinomial
    with t(Z) = -(Z^{q^2} + Z^q)/Z, so a histogram of t(Z) over the nonzero
    trace-zero Z, taken through the Zech tables, decides every t at once: a
    bin with q^2 - 1 or more hits is a 2-dimensional kernel meet;
  * n9_witness -- for n = 9 and supports {0,s,2s,4s}, an explicit rank-5
    codeword built from a cubic-subfield constant with prescribed relative
    trace and norm;
  * gcd_filter -- supports with a pair of exponents whose difference shares
    a large gcd with n are refuted by a subfield-kernel codeword.

`decide` is the one dispatch between them.  Every NOT_MRD certificate
carries a witness codeword whose kernel dimension is re-validated through
the literal q-circulant elimination before the certificate is emitted, so
certificates are self-checking.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _batch
from .fields import CapExceeded, TABLE_CAP, _nullspace_modp, make_tower
from .linpoly import LinPoly
from .codes import SupportCode

DEFAULT_BUDGET = 1 << 28
BATCH = 1 << 16
FIRST_CHUNK = 1 << 10

VERDICT_MRD = "MRD"
VERDICT_NOT_MRD = "NOT_MRD"
VERDICT_UNKNOWN = "UNKNOWN"
METHODS = ("scan", "moore", "trinomial", "witness", "curve")


@dataclass
class Certificate:
    """Machine-checkable verdict record."""
    code_desc: dict
    verdict: str
    method: str          # one of METHODS
    witness: dict | None
    scanned: int
    tower: dict
    elapsed_ms: float

    def to_json(self) -> dict:
        return {"code": self.code_desc, "verdict": self.verdict,
                "method": self.method, "witness": self.witness,
                "scanned": self.scanned, "tower": self.tower,
                "elapsed_ms": self.elapsed_ms}

    @classmethod
    def from_json(cls, obj) -> "Certificate":
        return cls(code_desc=obj["code"], verdict=obj["verdict"],
                   method=obj["method"], witness=obj["witness"],
                   scanned=obj["scanned"], tower=obj["tower"],
                   elapsed_ms=obj["elapsed_ms"])


def validate_certificate(cert: Certificate) -> bool:
    """Re-check a certificate from scratch.

    A NOT_MRD witness codeword must lie in the code and have kernel dimension
    >= k by q-circulant elimination.  An MRD certificate must report the full
    count its method sweeps: the (Q^k-1)/(Q-1) representatives of a scan, the
    q^n values of t of the trinomial criterion, the q^{2n} points of the curve
    engine, the unordered F_q-independent k-sets of projective points of the
    Moore sweep.  The trinomial and curve methods decide {0,1,3} alone, and
    every MRD verdict on a {0,1,3} support (up to shift, n >= 5, Zech tables
    present) must agree with a fresh run of the trinomial criterion.  Unknown
    methods fail."""
    tw = make_tower(cert.tower["p"], cert.tower["e"], cert.tower["n"])
    desc = cert.code_desc
    if desc.get("kind") != "support" or cert.method not in METHODS:
        return False
    code = SupportCode(tw, desc["T"], desc.get("s", 1))
    if cert.verdict == VERDICT_NOT_MRD:
        if not cert.witness or "codeword" not in cert.witness:
            return False
        f = LinPoly.from_json(tw, cert.witness["codeword"])
        return (not f.is_zero()) and code.contains(f) and f.kernel_dim() >= code.k
    if cert.verdict != VERDICT_MRD:
        return cert.verdict == VERDICT_UNKNOWN
    q, n, k = tw.q, tw.n, code.k
    full = {"scan": _batch.projective_index_total(tw, k),
            "trinomial": tw.order,
            "curve": tw.order ** 2,
            "moore": math.prod((q ** n - q ** i) // (q - 1) for i in range(k))
            // math.factorial(k)}.get(cert.method)
    if cert.scanned != full:
        return False
    support013 = shift_equivalent(code.q_support(), (0, 1, 3), n) is not None
    if cert.method == "trinomial" and not support013:
        return False
    if cert.method == "curve" and code.q_support() != (0, 1, 3):
        return False
    if support013 and n >= 5 and tw.order <= TABLE_CAP:
        return trinomial_criterion(tw).verdict == VERDICT_MRD
    return cert.method not in ("trinomial", "curve")


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


# ----------------------------------------------------------------------------
# gcd pre-filter
# ----------------------------------------------------------------------------

def gcd_filter(T, n: int, k: int | None = None) -> bool:
    """True when all pairwise exponent differences d satisfy gcd(d, n) < k.
    False is a proof of NOT_MRD: (X^{q^d} - X)^{q^{t_j}} is a codeword with
    kernel the subfield F_{q^gcd}."""
    T = sorted(int(t) % n for t in T)
    if k is None:
        k = len(T)
    for i, j in itertools.combinations(range(len(T)), 2):
        if math.gcd(T[j] - T[i], n) >= k:
            return False
    return True


def gcd_filter_witness(tower, T) -> tuple[LinPoly, tuple]:
    """The refuting codeword for a support that fails the filter."""
    n = tower.n
    Ts = sorted(int(t) % n for t in T)
    k = len(Ts)
    for i, j in itertools.combinations(range(k), 2):
        lo, hi = Ts[i], Ts[j]
        if math.gcd(hi - lo, n) >= k:
            f = LinPoly.from_support(tower, [hi, lo], [1, tower.neg(1)])
            return f, (lo, hi)
    raise ValueError("support passes the gcd filter; no witness")


# ----------------------------------------------------------------------------
# exhaustive projective scan
# ----------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _support_block(p, e, n, exps):
    return _batch.SupportBlockMatrix(make_tower(p, e, n), exps)


@functools.lru_cache(maxsize=64)
def _orbit_sweep(p, e, n, exps):
    return _batch.OrbitSweep(make_tower(p, e, n), exps)


def _scan_chunk(args):
    """(first bad position in the block or -1, orbit sizes summed)."""
    p, e, n, exps, threshold, lead, start, count = args
    t = make_tower(p, e, n)
    tails, _, orbit = _orbit_sweep(p, e, n, exps).representatives(lead, start, count)
    coords = _batch.projective_coords(t, lead, tails)
    ranks = _batch.batch_rank(_support_block(p, e, n, exps).matrices(coords), t.p)
    bad = np.flatnonzero(ranks < threshold)
    return (-1 if bad.size == 0 else int(bad[0])), int(orbit.sum())


def _first_bad(chunks, results):
    """((chunk, position) of the first bad representative or None, orbit
    sizes summed over the blocks before it)."""
    covered = 0
    for ch, (bad, orbits) in zip(chunks, results):
        if bad >= 0:
            return (ch, bad), covered
        covered += orbits
    return None, covered


def exhaustive_scan(code: SupportCode, budget: int = DEFAULT_BUDGET,
                    workers: int = 1) -> Certificate:
    """Decide MRD over every projective codeword representative (first
    nonzero coefficient 1, the others in odometer order, last position
    fastest), ranking one canonical representative per orbit of
    f -> b*f(a*x) (see `_batch.OrbitSweep`).  Canonical representatives are
    ranked in raw order, so the first one with kernel dimension >= k is the
    raw sweep's first witness and `scanned` is its raw position plus one.
    For MRD, `scanned` is the sum of the orbit sizes, which must equal the
    (Q^k-1)/(Q-1) representatives; `budget` caps that raw count.  Blocks
    start at FIRST_CHUNK representatives and double up to BATCH; with
    `workers` > 1 a pool ranks the BATCH-sized blocks, the smaller ones
    before them run in-process."""
    t0 = time.perf_counter()
    t = code.tower
    k = code.k
    exps = code.q_support()
    total = _batch.projective_index_total(t, k)
    if total > budget:
        return Certificate(code.descriptor(), VERDICT_UNKNOWN, "scan", None, 0,
                           t.descriptor(), _ms(t0))
    threshold = t.degree - t.e * (k - 1)  # rank below this means kernel >= k
    sweep = _orbit_sweep(t.p, t.e, t.n, exps)
    _support_block(t.p, t.e, t.n, exps)  # build before any fork
    chunks = [(t.p, t.e, t.n, exps, threshold, lead, start, count)
              for lead, start, count in sweep.chunks(FIRST_CHUNK, BATCH)]
    # the pool starts only once the blocks reach BATCH: a short sweep, or
    # one with an early witness, never forks
    split = next((i for i, ch in enumerate(chunks) if ch[-1] == BATCH), len(chunks))
    if workers <= 1:
        split = len(chunks)
    hit, covered = _first_bad(chunks[:split], map(_scan_chunk, chunks[:split]))
    if hit is None and split < len(chunks):
        import multiprocessing as mp
        with mp.get_context("fork").Pool(workers) as pool:
            hit, rest = _first_bad(chunks[split:],
                                   pool.imap(_scan_chunk, chunks[split:]))
        covered += rest
    if hit is None:
        if covered != total:
            raise RuntimeError(f"orbit sizes sum to {covered}, not {total}")
        return Certificate(code.descriptor(), VERDICT_MRD, "scan", None, covered,
                           t.descriptor(), _ms(t0))
    ch, bad = hit
    lead = ch[5]
    _, raw, _ = sweep.representatives(lead, ch[6] + bad, 1)
    coeffs = _batch.rep_to_coefficients(t, k, lead, int(raw[0]))
    f = LinPoly.from_support(t, exps, coeffs)
    kd = f.kernel_dim()
    if kd < k:
        raise RuntimeError("scan witness failed Dickson re-validation")
    witness = {"codeword": f.to_json(), "kernel_dim": kd}
    return Certificate(code.descriptor(), VERDICT_NOT_MRD, "scan", witness,
                       sweep.lead_offset(lead) + int(raw[0]) + 1,
                       t.descriptor(), _ms(t0))


# ----------------------------------------------------------------------------
# the {0,1,3} trinomial criterion
# ----------------------------------------------------------------------------

def _solve_modp(A, b, p):
    """One solution of A x = b over F_p, or None."""
    A = np.asarray(A, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    rows, cols = A.shape
    aug = np.concatenate([A, b[:, None]], axis=1)
    piv = []
    r = 0
    for c in range(cols):
        sel = None
        for i in range(r, rows):
            if aug[i, c]:
                sel = i
                break
        if sel is None:
            continue
        aug[[r, sel]] = aug[[sel, r]]
        aug[r] = aug[r] * pow(int(aug[r, c]), p - 2, p) % p
        for i in range(rows):
            if i != r and aug[i, c]:
                aug[i] = (aug[i] - int(aug[i, c]) * aug[r]) % p
        piv.append(c)
        r += 1
    for i in range(r, rows):
        if aug[i, -1]:
            return None
    x = np.zeros(cols, dtype=np.int64)
    for i, c in enumerate(piv):
        x[c] = aug[i, -1]
    return x


def artin_schreier_preimage(tower, z: int) -> int:
    """Some x with x^q - x = z (exists iff the relative trace of z vanishes)."""
    d, p = tower.degree, tower.p
    A = (tower.frob_q_matrix(1) - np.eye(d, dtype=np.int64)) % p
    x = _solve_modp(A, np.array(tower.coords(z)), p)
    if x is None:
        raise ValueError("element has nonzero relative trace")
    return tower.element([int(v) for v in x])


def trinomial_criterion(tower, workers: int = 1) -> Certificate:
    """MRD verdict for the support {0,1,3}: for every t in F_{q^n} the kernel
    of Z^{q^2} + Z^q + tZ must meet the trace-zero hyperplane in F_q-dimension
    at most 1.

    Every nonzero Z is a root of exactly one of these trinomials, the one with
    t(Z) = -(Z^{q^2} + Z^q)/Z, so the bin of t in the histogram of t(Z) over
    the nonzero trace-zero Z holds q^m - 1 hits, m the dimension of that
    kernel meet.  The bad t are the bins with at least q^2 - 1 hits.
    `scanned` counts the values of t decided in canonical order: q^n for MRD,
    the first bad canonical index plus one otherwise.  Needs the Zech tables
    (CapExceeded without them).  `workers` has no effect."""
    t0 = time.perf_counter()
    tw = tower
    if tw.n < 5:
        raise ValueError("the {0,1,3} support needs n >= 5")
    if tw.tables is None:
        raise CapExceeded("the t(Z) histogram needs the Zech tables")
    exp, log = tw.tables
    code = SupportCode(tw, (0, 1, 3), 1)
    d, p, q, Q = tw.degree, tw.p, tw.q, tw.order
    base = (tw.frob_q_matrix(2) + tw.frob_q_matrix(1)) % p  # Z -> Z^{q^2} + Z^q
    hyper = np.array(_nullspace_modp(_trace_rows(tw), p))    # trace-zero F_p-basis
    packing = p ** np.arange(d, dtype=np.int64)
    log_minus_one = 0 if p == 2 else (Q - 1) // 2
    total = p ** len(hyper)
    t_of_z = []
    for start in range(1, total, BATCH):   # combination 0 is Z = 0
        idx = np.arange(start, min(start + BATCH, total), dtype=np.int64)
        zc = _batch.element_coord_columns(idx, p, len(hyper)) @ hyper % p
        z = zc @ packing
        w = (zc @ base.T % p) @ packing
        tz = exp[(log[w] - log[z] + log_minus_one) % (Q - 1)]
        tz[w == 0] = 0
        t_of_z.append(tz)
    counts = np.bincount(np.concatenate(t_of_z), minlength=Q)
    bad = np.flatnonzero(counts >= q * q - 1)
    if bad.size == 0:
        return Certificate(code.descriptor(), VERDICT_MRD, "trinomial", None,
                           Q, tw.descriptor(), _ms(t0))
    first = int(tw.canonical_index(bad).min())
    bad_t = tw.element_at(first)
    z1, z2 = _trace_zero_kernel_pair(tw, bad_t)
    f = _codeword_from_h_point(tw, z1, z2)
    kd = f.kernel_dim()
    if kd < 3:
        raise RuntimeError("trinomial witness failed Dickson re-validation")
    witness = {"t": tw.coords(bad_t),
               "trace_zero_roots": [tw.coords(z1), tw.coords(z2)],
               "codeword": f.to_json(), "kernel_dim": kd}
    return Certificate(code.descriptor(), VERDICT_NOT_MRD, "trinomial", witness,
                       first + 1, tw.descriptor(), _ms(t0))


def _trace_rows(tower) -> np.ndarray:
    """e x d matrix over F_p sending coords(x) to the subfield-basis
    coordinates of the relative trace of x."""
    d, e, p = tower.degree, tower.e, tower.p
    bas = tower.fq_basis_fp
    # column j = coordinates of Tr(g^j) against the F_p-basis of F_q
    B = np.zeros((d, e), dtype=np.int64)
    for j, u in enumerate(bas):
        B[:, j] = tower.coords(u)
    out = np.zeros((e, d), dtype=np.int64)
    for j in range(d):
        tr = tower.rel_trace(tower.pow(tower.generator, j))
        sol = _solve_modp(B, np.array(tower.coords(tr)), p)
        out[:, j] = sol
    return out


def _trace_zero_kernel_pair(tower, t_elem):
    """Two F_q-independent trace-zero kernel elements of Z^{q^2}+Z^q+tZ."""
    f = LinPoly.from_support(tower, [2, 1, 0], [1, 1, t_elem])
    cand = [z for z in f.kernel_fq_basis() if tower.rel_trace(z) == 0]
    # the basis may mix trace-zero and other elements; rebuild inside the
    # intersection via the stacked F_p kernel when needed
    if len(cand) < 2:
        d, e, p = tower.degree, tower.e, tower.p
        stacked = np.concatenate([f.map_matrix_fp(), _trace_rows(tower)], axis=0)
        elems = [tower.element([int(v) for v in vec])
                 for vec in _nullspace_modp(stacked, p)]
        cand = _fq_independent_subset(tower, elems)
    if len(cand) < 2:
        raise RuntimeError("expected a 2-dimensional trace-zero kernel")
    return cand[0], cand[1]


def _fq_independent_subset(tower, elems):
    out = []
    rows = []
    for x in elems:
        if x == 0:
            continue
        v = list(tower.q_coords(x))
        for r in rows:
            piv = next(i for i, a in enumerate(r) if a != 0)
            if v[piv] != 0:
                fct = tower.mul(v[piv], tower.inv(r[piv]))
                v = [tower.sub(a, tower.mul(fct, b)) for a, b in zip(v, r)]
        if any(a != 0 for a in v):
            rows.append(v)
            out.append(x)
    return out


def _codeword_from_h_point(tower, z1, z2) -> LinPoly:
    """Turn two independent trace-zero roots into a {0,1,3} codeword with a
    3-dimensional kernel: lift through x^q - x = z, then take the nullspace of
    the 3x3 Moore matrix on A = (1, x, y)."""
    from .moore import _codeword_killing
    x = artin_schreier_preimage(tower, z1)
    y = artin_schreier_preimage(tower, z2)
    return _codeword_killing(tower, (1, x, y), (0, 1, 3))


# ----------------------------------------------------------------------------
# the n = 9 witness construction
# ----------------------------------------------------------------------------

def cubic_subfield_elements(tower) -> list[int]:
    """Elements of F_{q^3} inside F_{q^9}, canonical order."""
    d, p = tower.degree, tower.p
    A = (tower.frob_q_matrix(3) - np.eye(d, dtype=np.int64)) % p
    basis = _nullspace_modp(A, p)
    elems = []
    for m in range(p ** len(basis)):
        acc = np.zeros(d, dtype=np.int64)
        mm = m
        for vec in basis:
            acc = (acc + (mm % p) * vec) % p
            mm //= p
        elems.append(tower.element([int(v) for v in acc]))
    elems.sort(key=tower.canonical_index)
    return elems


def n9_witness(tower, s: int, budget: int = DEFAULT_BUDGET) -> Certificate:
    """Refutation of the n = 9 support {0, s, 2s, 4s} (s in {1,4,7}): the
    codeword -X + (1+c^{-q})X^{q^s} + cX^{q^{2s}} - X^{q^{4s}} has q-circulant
    rank 5 (kernel dimension 4 = k) for any c in F_{q^3}* whose inverse has
    relative trace -2 and relative norm -1 down to F_q."""
    t0 = time.perf_counter()
    tw = tower
    if tw.n != 9:
        raise ValueError("n9_witness needs n = 9")
    if s not in (1, 4, 7):
        raise ValueError("s must be in {1, 4, 7}")
    exps = tuple(sorted({0, s % 9, 2 * s % 9, 4 * s % 9}))
    code = SupportCode(tw, exps, 1)
    want_tr = tw.embed_fp(-2)
    want_nm = tw.embed_fp(-1)
    found = None
    for c in cubic_subfield_elements(tw):
        if c == 0:
            continue
        z = tw.inv(c)
        zq = tw.frobenius_q(z, 1)
        zqq = tw.frobenius_q(z, 2)
        tr = tw.add(tw.add(z, zq), zqq)
        nm = tw.mul(tw.mul(z, zq), zqq)
        if tr == want_tr and nm == want_nm:
            found = c
            break
    if found is None:
        # no admissible constant: fall back to the sweep
        return exhaustive_scan(code, budget=budget)
    c = found
    alpha = tw.add(1, tw.inv(tw.frobenius_q(c, 1)))  # 1 + c^{-q}
    f = LinPoly.from_support(
        tw, [0, s % 9, 2 * s % 9, 4 * s % 9],
        [tw.neg(1), alpha, c, tw.neg(1)])
    r = f.rank()
    if r != 5:
        raise RuntimeError(f"n9 witness has rank {r}, expected 5")
    witness = {"c": tw.coords(c), "codeword": f.to_json(),
               "kernel_dim": tw.n - r}
    return Certificate(code.descriptor(), VERDICT_NOT_MRD, "witness", witness,
                       0, tw.descriptor(), _ms(t0))


# ----------------------------------------------------------------------------
# shift equivalence
# ----------------------------------------------------------------------------

def shift_canonical(T, n: int) -> tuple:
    """Lexicographically smallest among the n cyclic shifts (sorted tuples)."""
    T = sorted(int(t) % n for t in T)
    return min(tuple(sorted((t + s) % n for t in T)) for s in range(n))


def shift_equivalent(T1, T2, n: int):
    """The smallest s with T2 = T1 + s (mod n), or None."""
    T1 = sorted(int(t) % n for t in T1)
    T2s = tuple(sorted(int(t) % n for t in T2))
    for s in range(n):
        if tuple(sorted((t + s) % n for t in T1)) == T2s:
            return s
    return None


def is_gabidulin_support(T, n: int) -> bool:
    """True when T is a cyclic shift of an arithmetic progression whose
    common difference is coprime to n."""
    T = tuple(sorted(int(t) % n for t in T))
    k = len(T)
    canon = shift_canonical(T, n)
    for dstep in range(1, n):
        if math.gcd(dstep, n) != 1:
            continue
        prog = sorted(i * dstep % n for i in range(k))
        if len(set(prog)) == k and shift_canonical(prog, n) == canon:
            return True
    return False


# ----------------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------------

@dataclass
class CandidateEntry:
    T: tuple
    gabidulin: bool = False
    removed_by: str | None = None   # gcd | dual | adjoint
    partner: tuple | None = None
    certificate: Certificate | None = None

    def to_json(self):
        return {"T": list(self.T), "gabidulin": self.gabidulin,
                "removed_by": self.removed_by,
                "partner": list(self.partner) if self.partner else None,
                "certificate": self.certificate.to_json() if self.certificate else None}


@dataclass
class CandidateList:
    n: int
    k: int
    q: int
    entries: list = field(default_factory=list)

    def to_json(self):
        return {"n": self.n, "k": self.k, "q": self.q,
                "entries": [e.to_json() for e in self.entries]}

    def entry(self, T) -> CandidateEntry:
        canon = shift_canonical(T, self.n)
        for e in self.entries:
            if e.T == canon:
                return e
        raise KeyError(f"no canonical entry for {T}")


def _adjoint_support(T, n):
    return tuple(sorted({(n - t) % n for t in T}))


def _dual_support(T, n):
    return tuple(sorted(set(range(n)) - set(T)))


def _d_family_canonicals(n, k):
    if n != 9 or k != 4:
        return {}
    return {shift_canonical(sorted({0, s, 2 * s % 9, 4 * s % 9}), 9): s
            for s in (1, 4, 7)}


def classify(tower, k: int, budget: int = DEFAULT_BUDGET,
             workers: int = 1) -> CandidateList:
    """Enumerate all k-subsets up to shift, tag adjoint/dual redundancies,
    apply the gcd filter, mark Gabidulin-equivalent progressions, and verify
    the survivors ({0,1,3} through the trinomial criterion, n=9 {0,s,2s,4s}
    through the witness construction, everything else by exhaustive scan)."""
    n = tower.n
    if n > 9:
        raise ValueError("classification is desk-scale: n <= 9")
    if not 1 <= k <= n:
        raise ValueError("k out of range")
    orbits = sorted({shift_canonical((0,) + rest, n)
                     for rest in itertools.combinations(range(1, n), k - 1)}) \
        if k > 1 else [(0,)]
    special = set(_d_family_canonicals(n, k))
    if n >= 5 and k == 3:
        special.add(shift_canonical((0, 1, 3), n))

    def pref(T):
        return (0 if T in special else 1, T)

    out = CandidateList(n=n, k=k, q=tower.q)
    for T in orbits:
        entry = CandidateEntry(T=T, gabidulin=is_gabidulin_support(T, n))
        partners = [(_adjoint_support(T, n), "adjoint")]
        if 2 * k == n:
            partners.append((_dual_support(T, n), "dual"))
        best = None
        for P, op in partners:
            Pc = shift_canonical(P, n)
            if Pc != T and pref(Pc) < pref(T):
                if best is None or pref(Pc) < pref(best[0]):
                    best = (Pc, op)
        if best is not None:
            entry.removed_by, entry.partner = best[1], best[0]
            out.entries.append(entry)
            continue
        if not entry.gabidulin:
            if not gcd_filter(T, n, k):
                entry.removed_by = "gcd"
            entry.certificate = decide(SupportCode(tower, T, 1), budget, workers)
        out.entries.append(entry)
    return out


def _gcd_certificate(tower, T) -> Certificate:
    t0 = time.perf_counter()
    code = SupportCode(tower, T, 1)
    f, pair = gcd_filter_witness(tower, T)
    kd = f.kernel_dim()
    if kd < code.k:
        raise RuntimeError("gcd witness failed Dickson re-validation")
    witness = {"codeword": f.to_json(), "kernel_dim": kd,
               "pair": list(pair), "gcd": math.gcd(pair[1] - pair[0], tower.n)}
    return Certificate(code.descriptor(), VERDICT_NOT_MRD, "witness", witness,
                       0, tower.descriptor(), _ms(t0))


def decide(code: SupportCode, budget: int = DEFAULT_BUDGET,
           workers: int = 1) -> Certificate:
    """The one engine dispatch: the gcd filter first, then the n = 9 witness
    for {0,s,2s,4s}, the trinomial criterion for {0,1,3} (up to shift, when
    the Zech tables exist), and the exhaustive scan of `code` otherwise."""
    tower, T, k = code.tower, code.q_support(), code.k
    n = tower.n
    if not gcd_filter(T, n, k):
        return _gcd_certificate(tower, T)
    canon = shift_canonical(T, n)
    d_canon = _d_family_canonicals(n, k)
    if canon in d_canon:
        return n9_witness(tower, d_canon[canon], budget=budget)
    if k == 3 and n >= 5 and canon == shift_canonical((0, 1, 3), n) \
            and tower.order <= TABLE_CAP:
        return trinomial_criterion(tower)
    return exhaustive_scan(code, budget=budget, workers=workers)


# ----------------------------------------------------------------------------
# the large-n gap inequality
# ----------------------------------------------------------------------------

def hasse_weil_gap(q: int, n: int) -> bool:
    """Exact-integer check of q^n + 1 - 2g sqrt(q^n) > q(q-1)(q^2+2), with
    g = q(q-1)(q^3-2q-2)/2 + 1.  No floating point: the left side must be
    positive and its square must beat 4 g^2 q^n."""
    g = q * (q - 1) * (q ** 3 - 2 * q - 2) // 2 + 1
    lhs = q ** n + 1 - q * (q - 1) * (q ** 2 + 2)
    return lhs > 0 and lhs * lhs > 4 * g * g * q ** n
