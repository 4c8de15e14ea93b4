"""Numerical invariants of modules and complexes: Betti and Bass tables,
depth, Krull dimension, type, Cohen-Macaulayness, grade, and finiteness
detectors for projective and injective dimension.

Tables never report outside their certified range.  Modules get the
cheap exact routes.  Their Betti numbers take one of two: the residue
field k over a complete intersection or a Golod ring reads them off the
closed form of its Poincare series (poincare_certificate), and every
other module off its minimal resolution.  Their Bass numbers take one of
three, tried in turn by _mu (a cut by a regular linear form, Rees's
lemma, Bruns & Herzog Lemma 3.1.16; the Betti numbers of the graded
Matlis dual for finite length, ibid. Sec. 3.6; the Hilbert series of Ext
against k otherwise).  Genuine complexes go through resolution
representatives and windowed Hom/tensor complexes, with trust tracked
degree by degree; their depth and type come from Koszul homology.  Their
Bass numbers take one of two routes: Foxby's formula from the ranks of a
complete complex and mu(R), or else the homology of Hom(resolution of k,
X).  Every Ext or homology dimension count (ext_dims, tor_dims, that
walk) sums its Hilbert series, read with no kernel and no presentation.
"""

from __future__ import annotations

from math import comb

from .ring import PolyRing, Polynomial, GradedFree, GradedMatrix
from .groebner import QuotientRing
from .complexes import (FreeComplex, hom_complex, hom_frame, tensor_complex,
                        cone, minimize_complex, multiplication_map,
                        module_as_complex, UncertifiedDegreeError, NEG_INF)
from .modules import (ModulePresentation, minimal_presentation, resolution,
                      ext_module, ext_series, first_ext,
                      homology_presentation, homology_series,
                      trusted_homology, first_homology, extreme_homology,
                      ring_memo, is_module, resolved,
                      matlis_dual, over_ambient)


class ZeroModuleError(ValueError):
    """Raised when an invariant of the zero object is requested."""


class WindowInsufficientError(RuntimeError):
    """No certified answer within the explored range."""


@ring_memo
def residue_field(qr: QuotientRing) -> ModulePresentation:
    """The residue field k = R/m, minimally presented.  It is kept in the
    ring's memo, so every caller gets the same object."""
    return minimal_presentation(ModulePresentation.residue_field(qr))


@ring_memo
def koszul_complex(qr: QuotientRing) -> FreeComplex:
    """The Koszul complex K on the variables of R: R tensored in turn with
    the cone of each x_i : R(-w_i) -> R, so K_i has rank C(n, i) and twists
    the sums of i weights.  It is kept in the ring's memo."""
    K = module_as_complex(qr, GradedFree.of([0]))
    for i in range(qr.ambient.n):
        K = tensor_complex(K, cone(multiplication_map(qr, qr.variable(i))))
    return K


def _mu(m: ModulePresentation, i: int) -> int:
    """mu^i(m, M) = dim_k Ext^i(k, M), by the first of three routes that
    applies.

    - Cut: when a homogeneous x in m is regular on both R and M, Rees's
      lemma (Bruns & Herzog, Cohen-Macaulay Rings, Lemma 3.1.16) gives
      Ext^{i+1}_R(k, M) = Ext^i_{R/xR}(k, M/xM) and Hom_R(k, M) = 0, so
      mu^0 = 0 and mu^i is mu^{i-1} of M/xM over R/xR, a ring with one
      variable fewer (see _module_cut).
    - Matlis dual: for M of finite length, graded Matlis duality (ibid.,
      Sec. 3.6) gives Ext^i_R(k, M) = Tor_i^R(k, M^v)^v, so mu^i(M) =
      beta_i(M^v), read off the minimal resolution of matlis_dual(M).
    - Ext: otherwise, as the k-dimension of the Hilbert series of
      Ext^i(k, M) (_ext_mu).
    """
    cut = _module_cut(m)
    if cut is not None:
        return 0 if i == 0 else _mu(cut, i - 1)
    if m.hilbert_series().dimension() <= 0:
        return resolution(matlis_dual(m), i + 1).term(i).rank
    return _ext_mu(m, i)


def _ext_mu(m: ModulePresentation, i: int) -> int:
    """mu^i(m, M) = dim_k Ext^i(k, M), summed off its Hilbert series
    (modules.ext_series), with no presentation of Ext built.  _mu takes
    this route only for a module of positive dimension that no regular
    linear form cuts, such as R over k[x, y]/(x^2, xy).  Ext^i(k, M) is
    killed by m, so it has finite length: a series with a pole at t = 1
    is an internal fault, never a Bass number."""
    hs = ext_series(residue_field(m.ring), m, i)
    if hs.dimension() > 0:
        raise RuntimeError(f"Ext^{i}(k, M) has a pole at t = 1: {hs!r}")
    return hs.k_dimension()


# ---------------------------------------------------------------------------
# ring cuts: R/xR for a linear form x, presented without one variable


def _substitute(p: Polynomial, ring: PolyRing, j: int, l) -> Polynomial:
    """p with x_j -> 0 (l None) or x_j -> -x_l, over ring, the ambient
    ring without x_j."""
    F = ring.field
    out = {}
    for e, c in p.terms.items():
        a = e[j]
        if a and l is None:
            continue
        e2 = list(e[:j] + e[j + 1:])
        if a:
            e2[l - (l > j)] += a
            if a % 2:
                c = F.neg(c)
        e2 = tuple(e2)
        s = F.add(out.get(e2, F.zero), c)
        if F.is_zero(s):
            out.pop(e2, None)
        else:
            out[e2] = s
    return Polynomial(ring, out)


def _candidates(qr: QuotientRing):
    """Linear forms tried as cuts, as (j, l): x_j alone (l None), then
    x_j + x_l for each pair of variables of equal weight."""
    n, w = qr.ambient.n, qr.weights
    yield from ((j, None) for j in range(n))
    yield from ((j, l) for j in range(n) for l in range(j + 1, n)
                if w[j] == w[l])


@ring_memo
def _ring_cut(qr: QuotientRing, j: int, l) -> QuotientRing | None:
    """R/xR for x = x_j (l None) or x_j + x_l, presented over the ambient
    ring without x_j, when x is R-regular; else None.

    x has degree d = w_j, and HS(R/xR) = (1 - t^d) HS(R) + t^d HS(0 :_R x);
    the cut ring's denominator lacks exactly the factor (1 - t^d), so x
    is R-regular iff both Hilbert numerators are equal.
    """
    P = qr.ambient
    keep = [v for v in range(P.n) if v != j]
    P2 = PolyRing(P.field, [P.names[v] for v in keep],
                  [P.weights[v] for v in keep])
    cut = QuotientRing(P2, [_substitute(g, P2, j, l) for g in qr.ideal_basis])
    if cut.hilbert_series().numer != qr.hilbert_series().numer:
        return None
    return cut


@ring_memo
def _module_cut(m: ModulePresentation) -> ModulePresentation | None:
    """M/xM over R/xR for the first candidate x regular on both R and M,
    or None.  x is M-regular iff the Hilbert numerators of M/xM (over the
    cut ring) and of M are equal, as for the ring in _ring_cut.  Artinian
    rings and modules of dimension 0 (depth 0) have no such x."""
    qr = m.ring
    if qr.is_artinian() or m.hilbert_series().dimension() <= 0:
        return None
    rels = m.relations
    for j, l in _candidates(qr):
        cut = _ring_cut(qr, j, l)
        if cut is None:
            continue
        P2 = cut.ambient
        mbar = ModulePresentation(cut, cut.reduce_matrix(GradedMatrix(
            cut, rels.source, rels.target,
            {k: _substitute(p, P2, j, l) for k, p in rels.entries.items()})),
            minimal=m.minimal)
        if mbar.hilbert_series().numer == m.hilbert_series().numer:
            return mbar
    return None


# ---------------------------------------------------------------------------
# tables and verdicts


class Result:
    """A table or verdict that a report carries.

    KIND names it in the report, and its JSON form is that kind plus the
    attributes named in FIELDS.  The constructor takes the slots in
    order.
    """

    __slots__ = ()
    KIND = None
    FIELDS = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            setattr(self, name, value)


class InvariantTable(Result):
    """Map index -> value, valid only inside the certified range.

    table names the invariant ("betti" or "bass").  certified is (lo,
    hi); lo may be None when every index below hi is certified (the value
    there is zero unless stored).  Zero values inside the range are
    omitted from the map, never guessed outside it.
    """

    __slots__ = FIELDS = ("table", "values", "certified")
    KIND = "table"

    def __init__(self, table, values, certified):
        super().__init__(table, {i: v for i, v in values.items() if v},
                         certified)

    def value(self, i: int) -> int:
        lo, hi = self.certified
        if (lo is not None and i < lo) or i > hi:
            raise UncertifiedDegreeError(
                f"{self.table} number {i} outside certified range {self.certified}")
        return self.values.get(i, 0)

    def nonzero_indices(self):
        return sorted(self.values)

    def __repr__(self):
        return (f"InvariantTable({self.table}, {self.values}, "
                f"certified={self.certified})")


FINITE_CERTIFIED = "finite-certified"
FINITE_LIKELY = "finite-likely"
UNKNOWN = "unknown"


class FinitenessVerdict(Result):
    __slots__ = FIELDS = ("status", "n", "bound", "witness")
    KIND = "finiteness"

    @staticmethod
    def finite_certified(n, witness):
        return FinitenessVerdict(FINITE_CERTIFIED, n, None, witness)

    @staticmethod
    def finite_likely(n, witness):
        return FinitenessVerdict(FINITE_LIKELY, n, None, witness)

    @staticmethod
    def unknown_at_least(bound, witness):
        return FinitenessVerdict(UNKNOWN, None, bound, witness)

    def is_finite_certified(self):
        return self.status == FINITE_CERTIFIED

    def __repr__(self):
        if self.status == UNKNOWN:
            return f"FinitenessVerdict(unknown >= {self.bound}: {self.witness})"
        return f"FinitenessVerdict({self.status}, {self.n}: {self.witness})"


# ---------------------------------------------------------------------------
# Betti and Bass tables


CI, GOLOD = "complete intersection", "Golod"


@ring_memo
def poincare_certificate(qr: QuotientRing):
    """(CI, n, c) or (GOLOD, n, (beta^S_1(R), ..., beta^S_p(R))) when R =
    S/I, S the polynomial ring on n variables, is a complete intersection
    of codimension c or a Golod ring with I in m^2; else None.  Either
    kind fixes the Poincare series P^R_k (see betti_table).

    The minimal resolution of R over S is complete (Hilbert's syzygy
    theorem); its ranks are mu(I) = beta^S_1, p = pd_S R and each
    beta^S_i.  I = 0 (R regular, its resolution of k ends) and an I not
    inside m^2 (some element of its reduced basis has a lone variable as
    a term, and n is not the embedding dimension) get None.  R is a
    complete intersection iff mu(I) = n - dim R: homogeneous elements of
    S, a Cohen-Macaulay ring, form a regular sequence iff the ideal they
    generate has height their number (Bruns & Herzog, Thm 2.1.2(c), at
    S's homogeneous maximal ideal).  Otherwise R is Golod if p <= 2: p =
    n - depth R (Auslander-Buchsbaum), and a ring of codepth at most 2 is
    a complete intersection or Golod (Scheja, Math. Ann. 155, 1964;
    Avramov, Infinite free resolutions, 1998, Ch. 5).
    """
    n = qr.ambient.n
    if not qr.ideal_basis or any(sum(e) == 1 for g in qr.ideal_basis
                                 for e in g.terms):
        return None
    res = resolution(over_ambient(qr), n + 1)
    betas = tuple(res.term(i).rank for i in range(1, res.term_range()[1] + 1))
    if betas[0] == n - qr.krull_dim():
        return CI, n, betas[0]
    return (GOLOD, n, betas) if len(betas) <= 2 else None


def _residue_field_ranks(m: ModulePresentation, bound: int):
    """beta_0, ..., beta_{bound-1} of m from the closed form of P^R_k when
    m = k(-a) (one minimal generator, length one) and the ring carries a
    poincare_certificate; else None."""
    if minimal_presentation(m).gens.rank != 1:
        return None
    hs = m.hilbert_series()
    if hs.dimension() != 0 or hs.k_dimension() != 1:
        return None
    cert = poincare_certificate(m.ring)
    if cert is None:
        return None
    kind, n, c = cert
    den = ({2 * j: (-1) ** j * comb(c, j) for j in range(1, c + 1)}
           if kind == CI else {i + 1: -b for i, b in enumerate(c, 1)})
    ranks = []
    for i in range(bound):
        ranks.append(comb(n, i) - sum(a * ranks[i - d] for d, a in den.items()
                                      if d <= i))
    return ranks


def betti_table(x, bound: int) -> InvariantTable:
    """beta_i = rank of the i-th term of the minimized resolution
    representative, beta_0 .. beta_{bound-1} unless the resolution ends.

    For the residue field k (up to a shift) over a ring with a
    poincare_certificate, the ranks are the coefficients of the Poincare
    series, with no resolution built; the range certified is the
    resolution route's, as k's resolution over a ring that is not
    regular never ends.  Total ranks do not depend on the weights.
    - A complete intersection of codimension c in n variables has
      P^R_k = (1+t)^n / (1-t^2)^c (Tate, Illinois J. Math. 1, 1957, Thm 6;
      Avramov, Infinite free resolutions, 1998, Ch. 7).
    - A Golod ring meets Serre's bound, P^R_k = (1+t)^n / (1 - sum_{i>=1}
      beta^S_i(R) t^{i+1}) (Golod, Dokl. Akad. Nauk SSSR 144, 1962;
      Avramov, ibid., Ch. 5).
    Projective dimension (pd_verdict) still reads the resolution."""
    if is_module(x):
        ranks = _residue_field_ranks(x, bound) if bound >= 1 else None
        if ranks is not None:
            return InvariantTable("betti", dict(enumerate(ranks)),
                                  (None, bound - 1))
        res = resolution(x, bound)
        hi = bound if res.complete else bound - 1
        vals = {i: res.term(i).rank for i in range(0, hi + 1)}
        return InvariantTable("betti", vals, (None, hi))
    P = minimize_complex(resolved(x, bound))
    if P.is_zero_complex():
        return InvariantTable("betti", {}, (None, bound - 1))
    pb, _ = P.term_range()
    lo = None if (P.complete or x.true_lo != NEG_INF) else pb
    run = P.window.run(pb, bound + 1, 1)
    vals = {i: P.term(i).rank for i in run}
    return InvariantTable("betti", vals, (lo, run.stop - 1))


def bass_table(x, bound: int) -> InvariantTable:
    """mu^i = dim_k Ext^i(k, x).  For modules each mu^i comes from _mu:
    it cuts by a regular linear form while one exists (Rees's lemma,
    Bruns & Herzog, Lemma 3.1.16, tested by Hilbert series), then reads
    beta_i of the graded Matlis dual if the module has finite length
    (ibid., Sec. 3.6), and the Hilbert series of Ext^i(k, M) otherwise.

    A complex x is certified where H = Hom(K, x), K the resolution of k
    to the bound, is trusted down from its ceiling; if x is not complete,
    H's homology is summed there.  A complete x is a bounded complex of
    finite free modules: with P = minimize_complex(x) and mu(R) from _mu,
    mu^n(x) = sum_j rank P_j mu^{n+j}(R) (Foxby, Math. Scand. 40, 1977;
    Avramov & Foxby, JPAA 71, 1991), since x = RHom(x*, R) for x* =
    Hom(x, R), so RHom(k, x) = RHom(k (x) x*, R), and k (x) P* has zero
    differential and rank P_{-i} in degree i."""
    if is_module(x):
        vals = {i: _mu(x, i) for i in range(0, bound + 1)}
        return InvariantTable("bass", vals, (None, bound))
    K = resolution(residue_field(x.ring), bound)
    H = hom_frame(K, x)[0] if x.complete else hom_complex(K, x)
    if H.is_zero_complex():
        return InvariantTable("bass", {}, (None, bound - 1))
    # the resolution of k starts at 0, so H's ceiling is x's; walk down
    # from it, reading t_star even below the bottom term
    t_star = H.ceiling()
    down = H.window.run(t_star, min(t_star, H.term_range()[0]) - 1, -1)
    if not down:
        raise WindowInsufficientError("top of the true Hom range untrusted")
    if x.complete:
        P, R = minimize_complex(x), ModulePresentation.free(x.ring, [0])
        vals = {-t: sum(f.rank * _mu(R, j - t) for j, f in P.terms.items()
                        if j >= t) for t in reversed(down)}
    else:
        vals = {-t: homology_series(H, t).k_dimension() for t in reversed(down)}
    return InvariantTable("bass", vals, (None, -down[-1]))


# ---------------------------------------------------------------------------
# homology extremes


def _extreme(x, step: int, name: str) -> int:
    """inf (step 1) or sup (step -1), walked from the trusted band edge."""
    if is_module(x):
        if x.is_zero_module():
            raise ZeroModuleError(f"{name} of the zero module")
        return 0
    t, certified = extreme_homology(x, step)
    if not certified:
        raise WindowInsufficientError(
            f"untrusted degree reached before the {name} of the homology")
    if t is None:
        raise ZeroModuleError("no nonzero homology in window")
    return t


def inf_of(x) -> int:
    return _extreme(x, 1, "inf")


def sup_of(x) -> int:
    return _extreme(x, -1, "sup")


def amplitude(x) -> int:
    return sup_of(x) - inf_of(x)


# ---------------------------------------------------------------------------
# depth, dimension, type


@ring_memo
def _depth_type(x):
    """(d, mu^d(X)) for d = depth X, the least d with mu^d(X) != 0.

    A module scans mu^0, ..., mu^{dim R} by _mu.  A complex reads KX =
    K (x) X, K = koszul_complex(R) on n variables, down from KX's ceiling
    (a truncation's top above it is garbage): depth X = n - sup H(KX)
    (Foxby & Iyengar, Contemp. Math. 331, 2003, Thm 2.1), and
    H_{n-d}(KX) = Ext^d(k, X), as KX = Sigma^n Hom(K, X) and in
    Ext^p(H_q K, X) => H^{p+q} Hom(K, X) only Ext^d(H_0 K, X) has total
    degree d (Bruns & Herzog, Thms 1.6.16-17, for modules).
    """
    if is_module(x):
        if x.is_zero_module():
            raise ZeroModuleError("depth of the zero module")
        for i in range(0, x.ring.krull_dim() + 1):
            if mu := _mu(x, i):
                return i, mu
        raise WindowInsufficientError(
            "no nonzero Bass number up to dim R for a nonzero module")
    KX = tensor_complex(koszul_complex(x.ring), x)
    t, certified = first_homology(KX, KX.ceiling(), KX.term_range()[0] - 1, -1)
    if t is None:
        raise (ZeroModuleError("no nonzero homology in window") if certified
               else WindowInsufficientError(
                   "untrusted degree reached before the top Koszul homology"))
    return x.ring.ambient.n - t, homology_series(KX, t).k_dimension()


def depth(x) -> int:
    """Smallest i with mu^i != 0."""
    return _depth_type(x)[0]


def kdim_complex(x) -> int:
    """Krull dimension: sup_i (dim H_i - i) over trusted homology."""
    if is_module(x):
        d = x.hilbert_series().dimension()
        if d < 0:
            raise ZeroModuleError("dimension of the zero module")
        return d
    dims = [homology_series(x, i).dimension() - i
            for i in trusted_homology(x)]
    if not dims:
        raise ZeroModuleError("dimension of a homologically trivial complex")
    return max(dims)


def nu(m: ModulePresentation) -> int:
    """Minimal number of generators."""
    r = minimal_presentation(m).gens.rank
    if r == 0:
        raise ZeroModuleError("generator count of the zero module")
    return r


def type_of(x) -> int:
    """r(X) = mu^{depth X}."""
    return _depth_type(x)[1]


def is_cohen_macaulay(x) -> bool:
    return depth(x) == kdim_complex(x)


# ---------------------------------------------------------------------------
# finiteness detectors


def pd_verdict(x, bound: int) -> FinitenessVerdict:
    """Finite projective dimension is certified by a zero Betti number
    past sup: a minimal resolution that hits zero stays zero."""
    module = is_module(x)
    P = resolution(x, bound) if module else minimize_complex(resolved(x, bound))
    if P.complete:
        if P.is_zero_complex():
            return FinitenessVerdict.finite_certified(
                None, "zero module" if module else "exact complex (zero object)")
        _, top = P.term_range()
        return FinitenessVerdict.finite_certified(
            top, f"minimal resolution ends at degree {top}")
    if module:
        return FinitenessVerdict.unknown_at_least(
            bound, f"no zero Betti number through degree {bound - 1}")
    s = sup_of(x)
    last = None
    for i in P.window.run(P.term_range()[0], bound + 1, 1):
        if P.term(i).rank:
            last = i
        elif i > s:
            return FinitenessVerdict.finite_certified(
                last, f"minimal resolution truncates at degree {i}")
    return FinitenessVerdict.unknown_at_least(
        bound, f"no zero Betti number past sup {s} through {bound}")


def id_verdict(x, bound: int) -> FinitenessVerdict:
    """Finite injective dimension.  For modules the vanishing of one Bass
    number past the depth is a certificate (Bass numbers have no gaps
    between depth and id); they come from _mu's three routes: Rees's
    lemma (Bruns & Herzog, Lemma 3.1.16) over R/xR while some x is
    regular on R and M, which equal Hilbert numerators test, then the
    Betti numbers of the graded Matlis dual for finite length (ibid., Sec.
    3.6), else the Hilbert series of Ext.  For genuine complexes only a
    zero run of width dim R + amp X + 2 is reported, as FiniteLikely."""
    if is_module(x):
        d = depth(x)
        last = None
        for i in range(d, bound + 1):
            if _mu(x, i):
                last = i
            else:
                return FinitenessVerdict.finite_certified(
                    last, f"Bass number vanishes at {i}; no gaps occur "
                          f"between depth and injective dimension")
        return FinitenessVerdict.unknown_at_least(
            bound, f"Bass numbers nonzero through degree {bound}")
    t = bass_table(x, bound)
    run_width = x.ring.krull_dim() + amplitude(x) + 2
    idxs = t.nonzero_indices()
    if not idxs:
        return FinitenessVerdict.unknown_at_least(
            bound, "no nonzero Bass number seen")
    last = idxs[0]
    _, hi = t.certified
    for i in range(idxs[0], hi + 1):
        if t.value(i):
            last = i
        elif i - last >= run_width:
            return FinitenessVerdict.finite_likely(
                last, f"zero run of width {run_width} after degree {last}")
    return FinitenessVerdict.unknown_at_least(
        bound, f"no zero run of width {run_width} within certified range")


# ---------------------------------------------------------------------------
# Ext / Tor dimension tables and grade


def _homology_at(X: FreeComplex, t: int, name: str, read):
    """read(X, t), homology_presentation or homology_series, named `name`
    in the refusal unless X trusts degree t."""
    if not X.window.contains(t):
        raise WindowInsufficientError(f"{name} outside trusted window")
    return read(X, t)


def ext_dims(m: ModulePresentation, n: ModulePresentation, lo: int,
             hi: int) -> dict:
    """dim_k Ext^i(M, N) for lo <= i <= hi, summed off the Hilbert
    series; an Ext of positive dimension raises NotArtinianError."""
    if lo < 0:
        raise ValueError("module Ext vanishes in negative degrees")
    return {i: ext_series(m, n, i).k_dimension() for i in range(lo, hi + 1)}


def ext_presentation(x, c, e: int, bound: int) -> ModulePresentation:
    """Ext^e(x, c) as a presentation: by ext_module when both are
    modules, else as the homology of Hom(resolution of x, c) at -e."""
    if is_module(x) and is_module(c):
        return ext_module(x, c, e)
    H = hom_complex(resolved(x, bound), resolved(c, bound))
    return _homology_at(H, -e, f"Ext^{e}", homology_presentation)


def tor_dims(x, y, lo: int, hi: int) -> dict:
    """dim_k Tor_i(x, y) for lo <= i <= hi, summed off the Hilbert series
    of the homology; exact within windows, and a Tor of positive
    dimension raises NotArtinianError."""
    b = max(hi + 4, 4)
    T = tensor_complex(resolved(x, b), resolved(y, b))
    return {i: _homology_at(T, i, f"Tor_{i}", homology_series).k_dimension()
            for i in range(lo, hi + 1)}


def grade_wrt(x, c, bound: int) -> int:
    """gr_C(X) = inf { i : Ext^i(X, C) != 0 } = -sup RHom(X, C)."""
    if is_module(x) and is_module(c):
        i = first_ext(x, c, 0, bound)
        if i is not None:
            return i
        raise WindowInsufficientError(
            f"no nonzero Ext against C through degree {bound}")
    P = resolved(x, bound)
    C = resolved(c, bound)
    H = hom_complex(P, C)
    # true Hom homology vanishes above sup C - inf X
    t, certified = first_homology(H, H.ceiling(), H.term_range()[0] - 1, -1)
    if t is not None:
        return -t
    raise WindowInsufficientError(
        "RHom(X, C) has no homology in window" if certified
        else "untrusted degree reached before any nonzero homology")
