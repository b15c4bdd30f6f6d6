"""Moore matrices, their determinants, and the independence / MRD criteria.

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


def independence_criterion(tower: FieldTower, A, s: int = 1) -> bool:
    """True iff the elements of A are F_q-independent, decided through the
    square Moore determinant with T = {0..k-1}."""
    A = list(A)
    return moore_det(tower, A, range(len(A)), s) != 0


def mrd_by_moore(code, budget: int = 1 << 24):
    """Verdict for a support code by sweeping F_q-independent k-subsets A:
    the code is MRD iff no such A makes det M_{T,A} vanish.  A is enumerated
    up to F_q-scaling of each element (projective representatives) and up to
    ordering; on failure the violating A and the codeword vanishing on its
    span are reported.  `budget` caps the k-subsets examined, dependent ones
    included (UNKNOWN past it); `scanned` counts the independent ones.

    Returns a Certificate (see mrdcodes.verify).
    """
    from .verify import Certificate, _ms  # local import to avoid a cycle

    t = code.tower
    k = code.k
    T = code.q_support()
    started = time.perf_counter()

    # one projective representative per F_q-direction, canonical order
    reps = []
    seen = set()
    for m in range(1, t.order):
        x = t.element_at(m)
        if x in seen:
            continue
        reps.append(x)
        for lam in t.subfield_elements:
            if lam:
                seen.add(t.mul(lam, x))

    checked = 0
    for examined, A in enumerate(itertools.combinations(reps, k)):
        if examined == budget:
            return Certificate(code_desc=code.descriptor(), verdict="UNKNOWN",
                               method="moore", witness=None, scanned=checked,
                               tower=t.descriptor(),
                               elapsed_ms=_ms(started))
        if fq_rank(t, A) != k:
            continue
        checked += 1
        d = moore_det(t, A, T, 1)
        if d == 0:
            f = _codeword_killing(t, A, T)
            witness = {
                "A": [t.coords(a) for a in A],
                "T": list(T), "s": 1, "det": t.coords(0),
                "codeword": f.to_json(),
            }
            return Certificate(code_desc=code.descriptor(), verdict="NOT_MRD",
                               method="moore", witness=witness, scanned=checked,
                               tower=t.descriptor(), elapsed_ms=_ms(started))
    return Certificate(code_desc=code.descriptor(), verdict="MRD", method="moore",
                       witness=None, scanned=checked, tower=t.descriptor(),
                       elapsed_ms=_ms(started))


def _codeword_killing(tower, A, T) -> LinPoly:
    """A nonzero codeword with support T vanishing on the F_q-span of A
    (a nullspace vector of the singular Moore matrix)."""
    M = moore_matrix(tower, A, T, 1)
    null = _linalg.nullspace(tower, M, len(T))
    if not null:
        raise RuntimeError("Moore matrix unexpectedly nonsingular")
    return LinPoly.from_support(tower, T, null[0])
