"""Independent brute-force verification path for artinian rings.

The ring is realized once as a finite-dimensional algebra through normal
forms; from that point on resolutions, Ext, Tor, Bass and Betti data are
computed purely by dense exact linear algebra over F_p, with none of the
Groebner or complex machinery in the loop.  Agreement between this path
and the main pipeline is the repository's master cross-validation.

The arithmetic runs in int64, so realize refuses p >= 2^20 (ORACLE_MAX_P)
with a FieldError: below it a sum of n products (p - 1)^2 stays under
2^63 for every inner dimension n < 2^23, which covers any matrix the
oracle can hold.  Larger primes would overflow matrix products silently.
"""

from __future__ import annotations

import numpy as np

from .field import FieldError
from .groebner import NotArtinianError, QuotientRing
from .modules import ModulePresentation

ORACLE_MAX_P = 2 ** 20

#: the largest modulus whose residue products fit in int64
INT64_MAX_P = 3037000499


# ---------------------------------------------------------------------------
# exact linear algebra mod p, vectorized with numpy


def fp_rref(a: np.ndarray, p: int):
    """Reduced row echelon form mod p. Returns (rref_matrix, pivot_columns).

    A row operation computes a - b*c for residues a, b, c and reduces mod p
    at once, so int64 is exact while p <= INT64_MAX_P; above that the
    elimination runs on Python ints, and the result has dtype object.
    """
    a = np.asarray(a).astype(np.int64 if p <= INT64_MAX_P else object) % p
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


def _rank(a, p) -> int:
    if a.size == 0:
        return 0
    return len(fp_rref(a, p)[1])


def _nullspace(a, p):
    """Columns spanning ker(a) for a matrix acting on column vectors."""
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0 or not a.any():
        return np.eye(cols, dtype=np.int64)
    red, piv = fp_rref(a, p)
    free = [c for c in range(cols) if c not in piv]
    out = np.zeros((cols, len(free)), dtype=np.int64)
    for j, fc in enumerate(free):
        out[fc, j] = 1
        for r, pc in enumerate(piv):
            out[pc, j] = (-red[r, fc]) % p
    return out


class _Span:
    """Incrementally built subspace with membership reduction."""

    def __init__(self, dim, p):
        self.dim = dim
        self.p = p
        self.rows = np.zeros((0, dim), dtype=np.int64)
        self.pivots = []

    def reduce(self, v):
        v = np.array(v, dtype=np.int64) % self.p
        for r, c in enumerate(self.pivots):
            if v[c]:
                v = (v - v[c] * self.rows[r]) % self.p
        return v

    def add(self, v) -> bool:
        """Insert if independent; returns True when the span grew."""
        v = self.reduce(v)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        v = (v * pow(int(v[c]), self.p - 2, self.p)) % self.p
        for r in range(self.rows.shape[0]):
            if self.rows[r, c]:
                self.rows[r] = (self.rows[r] - self.rows[r, c] * v) % self.p
        self.rows = np.vstack([self.rows, v])
        self.pivots.append(c)
        return True

    @property
    def rank(self):
        return self.rows.shape[0]


# ---------------------------------------------------------------------------
# realization


class FiniteAlgebra:
    """Artinian quotient realized by multiplication tables on its
    standard-monomial basis."""

    __slots__ = ("ring", "p", "basis", "index", "dim", "degrees", "var_mats")

    def __init__(self, ring, p, basis, degrees, var_mats):
        self.ring = ring
        self.p = p
        self.basis = basis
        self.index = {e: i for i, e in enumerate(basis)}
        self.dim = len(basis)
        self.degrees = degrees
        self.var_mats = var_mats

    def vector_of(self, poly):
        """Coefficient vector of a normal-form polynomial."""
        out = np.zeros(self.dim, dtype=np.int64)
        q = self.ring.reduce(poly)
        for e, c in q.terms.items():
            out[self.index[e]] = c % self.p
        return out


def realize(qr: QuotientRing) -> FiniteAlgebra:
    if qr.krull_dim() != 0:
        raise NotArtinianError("ring has positive dimension")
    field = qr.ambient.field
    if not hasattr(field, "p"):
        raise NotArtinianError("oracle requires a prime field")
    p = field.p
    if p >= ORACLE_MAX_P:
        raise FieldError(f"oracle requires p < 2^20 for exact int64 "
                         f"arithmetic; got p = {p}")
    basis = qr.std_monomials()
    degrees = [qr.ambient.wdeg(e) for e in basis]
    index = {e: i for i, e in enumerate(basis)}
    dim = len(basis)
    nvars = qr.ambient.n
    var_mats = []
    for v in range(nvars):
        m = np.zeros((dim, dim), dtype=np.int64)
        xv = qr.ambient.variable(v)
        for j, e in enumerate(basis):
            prod = qr.reduce(xv * qr.ambient.monomial(e))
            for ee, c in prod.terms.items():
                m[index[ee], j] = c % p
        var_mats.append(m)
    return FiniteAlgebra(qr, p, basis, degrees, var_mats)


class FiniteModule:
    """Finite module given by its k-basis and commuting variable actions."""

    __slots__ = ("alg", "dim", "degrees", "actions", "_elt")

    def __init__(self, alg, dim, degrees, actions):
        self.alg = alg
        self.dim = dim
        self.degrees = degrees
        self.actions = actions
        self._elt = None

    def element_action(self, i):
        """Matrix of the i-th algebra basis monomial acting on the module."""
        if self._elt is None:
            self._elt = [None] * self.alg.dim
        if self._elt[i] is None:
            p = self.alg.p
            m = np.eye(self.dim, dtype=np.int64)
            for v, k in enumerate(self.alg.basis[i]):
                for _ in range(k):
                    m = (self.actions[v] @ m) % p
            self._elt[i] = m
        return self._elt[i]

    def coeff_action(self, vec):
        """Action of the algebra element with coefficient vector vec."""
        p = self.alg.p
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        for i in np.nonzero(vec)[0]:
            out = (out + int(vec[i]) * self.element_action(int(i))) % p
        return out

    def socle_dimension(self) -> int:
        stacked = np.vstack(self.actions) if self.actions else \
            np.zeros((0, self.dim), dtype=np.int64)
        return _nullspace(stacked, self.alg.p).shape[1]

    def slice_dimension(self, d) -> int:
        return sum(1 for t in self.degrees if t == d)


def free_module(alg: FiniteAlgebra, twists) -> FiniteModule:
    g = len(twists)
    n = g * alg.dim
    degrees = [alg.degrees[i] + tw for tw in twists for i in range(alg.dim)]
    actions = []
    for v in range(len(alg.var_mats)):
        m = np.zeros((n, n), dtype=np.int64)
        for a in range(g):
            s = a * alg.dim
            m[s:s + alg.dim, s:s + alg.dim] = alg.var_mats[v]
        actions.append(m)
    return FiniteModule(alg, n, degrees, actions)


def residue_module(alg: FiniteAlgebra) -> FiniteModule:
    z = [np.zeros((1, 1), dtype=np.int64) for _ in alg.var_mats]
    return FiniteModule(alg, 1, [0], z)


def from_presentation(alg: FiniteAlgebra, m: ModulePresentation) -> FiniteModule:
    """Quotient of a free module by the action-closure of the relation
    columns, built entirely inside the flat coordinate space."""
    p = alg.p
    twists = list(m.gens.twists)
    F = free_module(alg, twists)
    span = _Span(F.dim, p)
    queue = []
    for col in m.relations.columns():
        v = np.zeros(F.dim, dtype=np.int64)
        for a, poly in col.items():
            v[a * alg.dim:(a + 1) * alg.dim] = alg.vector_of(poly)
        if span.add(v):
            queue.append(span.rows[-1].copy())
    while queue:
        w = queue.pop()
        for act in F.actions:
            u = (act @ w) % p
            if span.add(u):
                queue.append(span.rows[-1].copy())
    free_pos = [c for c in range(F.dim) if c not in span.pivots]
    n = len(free_pos)

    def project(v):
        red = span.reduce(v)
        return red[free_pos]

    actions = []
    for act in F.actions:
        mm = np.zeros((n, n), dtype=np.int64)
        for j, c in enumerate(free_pos):
            mm[:, j] = project(act[:, c])
        actions.append(mm)
    degrees = [F.degrees[c] for c in free_pos]
    return FiniteModule(alg, n, degrees, actions)


# ---------------------------------------------------------------------------
# resolutions and derived dimensions, all by nullspaces


class OracleResolution:
    """ranks[i] and algebra-valued differentials diff[i]: F_i -> F_{i-1}
    stored as g_{i-1} x g_i arrays of coefficient vectors."""

    __slots__ = ("alg", "ranks", "diffs")

    def __init__(self, alg, ranks, diffs):
        self.alg = alg
        self.ranks = ranks
        self.diffs = diffs


def _minimal_generators(vectors_dim, vec_rows, actions, p):
    """Choose rows of vec_rows spanning the cokernel of the radical:
    complement of m*K inside K, for K spanned by vec_rows."""
    radical = _Span(vectors_dim, p)
    for w in vec_rows:
        for act in actions:
            radical.add((act @ w) % p)
    gens = []
    full = _Span(vectors_dim, p)
    for row in radical.rows:
        full.add(row)
    for w in vec_rows:
        if full.add(w):
            gens.append(w)
    return gens


def oracle_minimal_resolution(M: FiniteModule, length: int) -> OracleResolution:
    alg = M.alg
    p = alg.p
    # minimal generators of M itself
    gens = _minimal_generators(M.dim, list(np.eye(M.dim, dtype=np.int64)),
                               M.actions, p)
    ranks = [len(gens)]
    diffs = []
    # flat matrix of F_0 -> M: column (a, i) = b_i . gen_a
    cur_target = M
    cur_cols = gens
    for step in range(length):
        g = len(cur_cols)
        if g == 0:
            ranks.append(0)
            diffs.append(np.zeros((0, 0), dtype=object))
            cur_cols = []
            continue
        flat = np.zeros((cur_target.dim, g * alg.dim), dtype=np.int64)
        for a, w in enumerate(cur_cols):
            for i in range(alg.dim):
                flat[:, a * alg.dim + i] = (cur_target.element_action(i) @ w) % p
        ker = _nullspace(flat, p)
        F = free_module(alg, [0] * g)
        kvecs = [ker[:, j] for j in range(ker.shape[1])]
        new_gens = _minimal_generators(F.dim, kvecs, F.actions, p)
        ranks.append(len(new_gens))
        d = np.zeros((g, len(new_gens)), dtype=object)
        for b, w in enumerate(new_gens):
            for a in range(g):
                d[a, b] = np.array(w[a * alg.dim:(a + 1) * alg.dim],
                                   dtype=np.int64)
        diffs.append(d)
        cur_target = F
        cur_cols = new_gens
    return OracleResolution(alg, ranks, diffs)


def _hom_differential(res: OracleResolution, N: FiniteModule, i: int):
    """Matrix of Hom(F_i, N) -> Hom(F_{i+1}, N), block (b, a) the action
    of the differential entry d_{i+1}[a, b] on N."""
    p = res.alg.p
    d = res.diffs[i]
    g_prev, g_next = d.shape
    out = np.zeros((g_next * N.dim, g_prev * N.dim), dtype=np.int64)
    for a in range(g_prev):
        for b in range(g_next):
            blk = N.coeff_action(d[a, b])
            out[b * N.dim:(b + 1) * N.dim, a * N.dim:(a + 1) * N.dim] = blk
    return out % p


def _tensor_differential(res: OracleResolution, N: FiniteModule, i: int):
    """Matrix of F_i (x) N -> F_{i-1} (x) N, block (a, b) as above."""
    p = res.alg.p
    d = res.diffs[i - 1]
    g_prev, g_next = d.shape
    out = np.zeros((g_prev * N.dim, g_next * N.dim), dtype=np.int64)
    for a in range(g_prev):
        for b in range(g_next):
            blk = N.coeff_action(d[a, b])
            out[a * N.dim:(a + 1) * N.dim, b * N.dim:(b + 1) * N.dim] = blk
    return out % p


def oracle_ext_dim(M: FiniteModule, N: FiniteModule, i: int,
                   res: OracleResolution = None) -> int:
    """dim_k Ext^i(M, N)."""
    if res is None or len(res.ranks) <= i + 1:
        res = oracle_minimal_resolution(M, i + 1)
    p = M.alg.p
    dim_ci = res.ranks[i] * N.dim
    r_out = _rank(_hom_differential(res, N, i), p)
    r_in = _rank(_hom_differential(res, N, i - 1), p) if i >= 1 else 0
    return dim_ci - r_out - r_in


def oracle_tor_dim(M: FiniteModule, N: FiniteModule, i: int,
                   res: OracleResolution = None) -> int:
    """dim_k Tor_i(M, N)."""
    if res is None or len(res.ranks) <= i + 1:
        res = oracle_minimal_resolution(M, i + 1)
    p = M.alg.p
    dim_ti = res.ranks[i] * N.dim
    r_in = _rank(_tensor_differential(res, N, i + 1), p)
    r_out = _rank(_tensor_differential(res, N, i), p) if i >= 1 else 0
    return dim_ti - r_in - r_out


def oracle_betti(M: FiniteModule, length: int) -> list:
    return oracle_minimal_resolution(M, length).ranks[:length + 1]


def oracle_bass(M: FiniteModule, length: int) -> list:
    """mu^i = dim Ext^i(k, M) for i = 0..length."""
    k = residue_module(M.alg)
    res = oracle_minimal_resolution(k, length + 1)
    return [oracle_ext_dim(k, M, i, res) for i in range(length + 1)]


def oracle_invariants(M: FiniteModule, length: int, other=None) -> dict:
    """Betti and Bass tables, plus Ext/Tor dimension rows against a
    second module when given."""
    out = {"betti": oracle_betti(M, length), "bass": oracle_bass(M, length)}
    if other is not None:
        res = oracle_minimal_resolution(M, length + 1)
        out["ext"] = [oracle_ext_dim(M, other, i, res)
                      for i in range(length + 1)]
        out["tor"] = [oracle_tor_dim(M, other, i, res)
                      for i in range(length + 1)]
    return out
