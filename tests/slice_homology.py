"""Graded-slice homology: an independent route to homology dimensions
over an artinian ring, by dense linear algebra on each internal-degree
piece.  The engine reads homology from Groebner presentations; the tests
cross-check it here.  Also the field-generic row reduction it rests on.
"""

import numpy as np

from homcalc.field import PrimeField
from homcalc.oracle import fp_rref


# -- row reduction over any field -------------------------------------------


def generic_rref(rows, field):
    """RREF by plain Gaussian elimination with the field's own operations."""
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
    """RREF over an arbitrary field object; returns (rows, pivot_columns).
    Prime fields go through oracle.fp_rref."""
    if isinstance(field, PrimeField):
        a = np.zeros((0, 0), dtype=np.int64)
        if rows:
            a = np.array(rows).reshape(len(rows), -1)
        a, piv = fp_rref(a, field.p)
        return a.tolist(), piv
    return generic_rref(rows, field)


def rank(rows, field) -> int:
    if not rows or not rows[0]:
        return 0
    return len(rref(rows, field)[1])


# -- graded pieces ------------------------------------------------------------


def monomials_of_degree(ring, d: int):
    """All exponent tuples of weighted degree exactly d in the PolyRing
    ring, sorted by mono_key descending."""
    out = []

    def rec(i, rem, acc):
        if i == ring.n - 1:
            w = ring.weights[i]
            if rem % w == 0:
                out.append(tuple(acc + [rem // w]))
            return
        w = ring.weights[i]
        for e in range(rem // w + 1):
            rec(i + 1, rem - e * w, acc + [e])

    if d >= 0:
        rec(0, d, []) if ring.n else (out.append(()) if d == 0 else None)
    return sorted(out, key=ring.mono_key, reverse=True)


def std_monomials_of_degree(qr, d: int):
    """Standard monomials of weighted degree d."""
    gens = qr.lead_ideal_min_gens()
    return [e for e in monomials_of_degree(qr.ambient, d)
            if not any(qr.ambient.mono_divides(g, e) for g in gens)]


def top_degree(qr):
    """Largest degree of a nonzero graded piece (artinian only)."""
    return max(qr.ambient.wdeg(e) for e in qr.std_monomials())


# -- slice homology ------------------------------------------------------------


def slice_basis(qr, free, v: int):
    """Basis of the degree-v piece of the free module: (index, exponent)."""
    out = []
    for j, tw in enumerate(free.twists):
        d = v - tw
        if d < 0:
            continue
        for e in std_monomials_of_degree(qr, d):
            out.append((j, e))
    return out


def slice_matrix(m, v: int):
    """Matrix of the degree-v slice of m in std-monomial bases.

    Returns (rows, src_basis, tgt_basis) with rows a list of lists of
    field elements (rows indexed by target basis).
    """
    qr = m.ring
    Fld = qr.field
    src = slice_basis(qr, m.source, v)
    tgt = slice_basis(qr, m.target, v)
    tpos = {key: r for r, key in enumerate(tgt)}
    rows = [[Fld.zero] * len(src) for _ in tgt]
    cols_by_j = {}
    for (i, j), p in m.entries.items():
        cols_by_j.setdefault(j, []).append((i, p))
    for cidx, (j, e) in enumerate(src):
        for i, p in cols_by_j.get(j, ()):
            prod = qr.reduce(p * qr.ambient.monomial(e))
            for me, c in prod.terms.items():
                r = tpos.get((i, me))
                if r is None:
                    continue
                rows[r][cidx] = Fld.add(rows[r][cidx], c)
    return rows, src, tgt


def homology_slice_dim(X, t: int, v: int) -> int:
    """dim_k of the internal-degree-v piece of H_t(X) (of the representative)."""
    Fld = X.ring.field
    d_in, src_in, _ = slice_matrix(X.diff(t + 1), v)
    d_out, src_out, _ = slice_matrix(X.diff(t), v)
    n = len(src_out)
    rk_out = rank(d_out, Fld) if d_out and n else 0
    rk_in = rank(d_in, Fld) if d_in and src_in else 0
    return (n - rk_out) - rk_in


def artinian_homology_dims(X, t: int) -> int:
    """Total homology dimension at t over an artinian ring, all slices."""
    qr = X.ring
    if not qr.is_artinian():
        raise ValueError("artinian slice scan needs an artinian ring")
    f_lo, f_mid, f_hi = X.term(t + 1), X.term(t), X.term(t - 1)
    tws = [tw for f in (f_lo, f_mid, f_hi) for tw in f.twists]
    if not tws:
        return 0
    top = top_degree(qr)
    return sum(homology_slice_dim(X, t, v)
               for v in range(min(tws), max(tws) + top + 1))
