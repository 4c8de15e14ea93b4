"""Dense exact linear algebra over a field.

Matrices are lists of rows of field elements.  For prime fields the
kernels are vectorized with numpy.  A row operation computes a - b*c for
residues a, b, c and reduces mod p at once, so int64 is exact while
p*p < 2**63 (p <= INT64_MAX_P); above that the same elimination runs on
Python ints (numpy dtype object).  The rational path is a plain fraction
Gaussian elimination.

This module is deliberately self-contained: it knows nothing about
polynomials, Groebner bases, or complexes.  Both the main pipeline's
graded-slice computations and the independent oracle sit on top of it.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField

#: the largest modulus whose residue products fit in int64
INT64_MAX_P = 3037000499


def _dtype(p):
    return np.int64 if p <= INT64_MAX_P else object


def _to_np(rows, p):
    if len(rows) == 0:
        return np.zeros((0, 0), dtype=np.int64)
    a = np.array(rows, dtype=_dtype(p))
    if a.ndim == 1:
        a = a.reshape(len(rows), -1)
    return a % p


def fp_rref(a: np.ndarray, p: int):
    """Reduced row echelon form mod p. Returns (rref_matrix, pivot_columns).

    For p above INT64_MAX_P the elimination runs on Python ints, and the
    result has dtype object.
    """
    a = a.astype(_dtype(p), copy=False) % p
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            a[rows] = (a[rows] - np.outer(col[rows], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _generic_rref(rows, field):
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        k = next((i for i in range(r, m) if not field.is_zero(a[i][c])), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        for i in range(m):
            if i != r and not field.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def rref(rows, field):
    """RREF over an arbitrary field object; returns (rows, pivot_columns)."""
    if isinstance(field, PrimeField):
        a, piv = fp_rref(_to_np(rows, field.p), field.p)
        return a.tolist(), piv
    return _generic_rref(rows, field)


def rank(rows, field) -> int:
    if not rows or not rows[0]:
        return 0
    return len(rref(rows, field)[1])
