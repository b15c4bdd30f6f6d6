"""Moore matrices, their determinants, and the subspace-sweep MRD engine.

M_{T,A,sigma} has entry (i, j) = alpha_i^(sigma^(t_j)) for elements
A = (alpha_0..alpha_{k-1}) and exponents T = (t_0..t_{k-1}), sigma = q^s.
With consecutive exponents it is the sigma-analogue of a Vandermonde matrix:
its determinant vanishes exactly when A is F_q-linearly dependent, and for
s = 1 it factors as the product of one linear combination per projective
direction of F_q^k.
"""

from __future__ import annotations

import itertools
import math
import time

from . import _linalg
from .fields import FieldTower
from .linpoly import LinPoly, fq_independent


def moore_matrix(tower: FieldTower, A, T, s: int = 1):
    A = list(A)
    T = list(T)
    if len(A) != len(T):
        raise ValueError("need as many elements as exponents")
    if len(A) > tower.n:
        raise ValueError("k cannot exceed n")
    if math.gcd(s, tower.n) != 1:
        raise ValueError("twist must be coprime to n")
    return [[tower.frobenius_q(a, (s * t) % tower.n) for t in T] for a in A]


def moore_det(tower: FieldTower, A, T, s: int = 1) -> int:
    return _linalg.det(tower, moore_matrix(tower, A, T, s))


def moore_product_formula(tower: FieldTower, A) -> int:
    """det of the square Moore matrix with s = 1 and T = {0..k-1} as the
    product of (c . A) over one representative c per direction of F_q^k.

    Representatives have their highest-index nonzero coordinate normalized
    to 1 (the classical factorization det = prod_j prod_c (a_j + sum_{i<j}
    c_i a_i)); any other normalization only matches det up to a scalar from
    F_q* when q is odd.  Factor order is lexicographic and deterministic.
    """
    A = list(A)
    k = len(A)
    sub = tower.subfield_elements
    out = 1
    for top in range(k):
        for head in itertools.product(sub, repeat=top):
            acc = A[top]
            for ci, ai in zip(head, A):
                if ci:
                    acc = tower.add(acc, tower.mul(ci, ai))
            out = tower.mul(out, acc)
            if out == 0:
                return 0
    return out


def fq_rank(tower: FieldTower, elems) -> int:
    """Rank over F_q of a set of field elements: the number of them that
    `fq_independent` keeps."""
    return len(fq_independent(tower, [tower.coords(a) for a in elems]))


def mrd_by_moore(code, budget: int = 1 << 24):
    """Verdict for a support code by sweeping the k-dimensional F_q-subspaces
    U of F_{q^n}: the code is MRD iff det M_{T,A} != 0 for a basis A of every
    U.  A change of basis of U multiplies that determinant by a unit of F_q,
    so one basis per U decides it: the rows of U's reduced-echelon k x n
    matrix over F_q in the q-basis (1, g, ..., g^{n-1}).  Pivot sets come in
    `itertools.combinations` order, then the free entries row by row, left
    to right, each over `subfield_elements`, the last fastest.  `budget`
    caps the subspaces examined (UNKNOWN past it) and `scanned` counts them,
    the Gaussian binomial [n k]_q for MRD; on failure the witness holds A
    and the codeword vanishing on U.

    Returns a Certificate (see mrdcodes.verify).
    """
    from .verify import Certificate, _ms, _not_mrd  # local import to avoid a cycle

    t = code.tower
    k, n = code.k, t.n
    T = code.q_support()
    qb = t.q_basis
    sub = t.subfield_elements
    started = time.perf_counter()
    scanned = 0
    for pivots in itertools.combinations(range(n), k):
        free = [[j for j in range(p + 1, n) if j not in pivots] for p in pivots]
        for entries in itertools.product(sub, repeat=sum(map(len, free))):
            if scanned == budget:
                return Certificate(code.descriptor(), "UNKNOWN", "moore", None,
                                   scanned, t.descriptor(), _ms(started))
            scanned += 1
            it = iter(entries)
            A = []
            for p, cols in zip(pivots, free):
                a = qb[p]
                for j in cols:
                    c = next(it)
                    if c:
                        a = t.add(a, t.mul(c, qb[j]))
                A.append(a)
            if moore_det(t, A, T, 1) == 0:
                return _not_mrd(code, "moore", _codeword_killing(t, A, T), scanned,
                                started, A=[t.coords(a) for a in A], T=list(T), s=1,
                                det=t.coords(0))
    return Certificate(code.descriptor(), "MRD", "moore", None, scanned,
                       t.descriptor(), _ms(started))


def _codeword_killing(tower, A, T) -> LinPoly:
    """A nonzero codeword with support T vanishing on the F_q-span of A
    (a nullspace vector of the singular Moore matrix)."""
    M = moore_matrix(tower, A, T, 1)
    null = _linalg.nullspace(tower, M, len(T))
    if not null:
        raise RuntimeError("Moore matrix unexpectedly nonsingular")
    return LinPoly.from_support(tower, T, null[0])
