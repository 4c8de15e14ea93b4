"""Dense exact linear algebra mod p, vectorized with numpy.

A row operation computes a - b*c for residues a, b, c and reduces mod p
at once, so int64 is exact while p*p < 2**63 (p <= INT64_MAX_P); above
that the same elimination runs on Python ints (numpy dtype object).

This module is deliberately self-contained: it knows nothing about
polynomials, Groebner bases, or complexes.  The independent oracle sits
on top of it.
"""

from __future__ import annotations

import numpy as np

#: the largest modulus whose residue products fit in int64
INT64_MAX_P = 3037000499


def _dtype(p):
    return np.int64 if p <= INT64_MAX_P else object


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
