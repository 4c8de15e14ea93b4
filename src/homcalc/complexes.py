"""Bounded complexes of graded free modules over a quotient ring, with
certified trust windows.

A complex object here is always a concrete bounded complex of free
modules standing in for a derived-category object.  Because resolutions
are computed only up to a finite homological bound, a representative can
have "garbage" homology near its truncation edge.  Every FreeComplex
therefore carries:

* window: the set of homological degrees where the homology of the
  representative provably equals the homology of the intended object;
* true_lo, true_hi: certified bounds outside which the intended object
  has no homology (the representative may still have terms there).

The window is the one trust record: a complex is complete (the intended
object on the nose) exactly when its window holds every degree.

The window calculus below is conservative.  Hom and tensor windows come
from the hypercohomology spectral sequences: an untrusted band appears
wherever a garbage homology degree of one factor can pair with a cell of
the other, and wherever cells missing from a truncated resolution can
pair with true homology.  Degrees never silently leave the window;
consumers must check membership before reading homology, which the
readers in modules do for them (trusted_homology, first_homology); every
walk goes through TrustWindow.run, which stops at an untrusted degree.

Floor proviso.  The resolution-shaped factor of a Hom or tensor must be
trusted at its bottom cell; the window part containing that cell sets
the trusted-cell ceiling.  When that part has a finite floor (which
happens for re-resolved intermediates such as a resolution of a Hom
complex), window claims are made relative to the assumption that the
true object has no homology below the floor.  All verdicts built on
these windows are therefore stamped with the resolution bound; raising
the bound re-justifies them on a larger range, never changes a trusted
reading (the stability contract).

Block layout.  Hom(P, Y)_t and (F (x) Y)_t are sums of blocks, one per
term of the first factor, ordered by hom_layout and tensor_layout and,
inside a block, by ring.kron, the one place the position formula lives:
every differential here is Kronecker products placed by block_matrix, and
the canonical chain maps (biduality_rep, homothety_rep) place single
entries by the layout.

Sign conventions: d lowers homological degree; (shift X)_v = X_{v-1}
with differential -d; cone(f)_j = X_{j-1} (+) Y_j with d(a, b) =
(-da, db + fa); Hom(X, Y)_t = prod Hom(X_i, Y_{i+t}) with (df)_i =
d_Y f_i - (-1)^t f_{i-1} d_X; d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy.
"""

from __future__ import annotations

from .ring import GradedFree, GradedMatrix, ZERO_FREE, ONE_FREE, block_matrix
from .groebner import QuotientRing, kernel_matrix, lift_matrix, clean_columns

INF = float("inf")
NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# trust windows: unions of integer intervals with infinite ends


class TrustWindow:
    """Disjoint, sorted union of closed intervals of homological degrees."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        cleaned = sorted((lo, hi) for lo, hi in parts if lo <= hi)
        merged = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        self.parts = tuple(merged)

    @staticmethod
    def all():
        return TrustWindow([(NEG_INF, INF)])

    @staticmethod
    def interval(lo, hi):
        return TrustWindow([(lo, hi)])

    def contains(self, d) -> bool:
        return any(lo <= d <= hi for lo, hi in self.parts)

    def first(self, start, stop, step):
        """The first degree of range(start, stop, step) in the window,
        or None."""
        return next((d for d in range(start, stop, step)
                     if self.contains(d)), None)

    def run(self, start, stop, step):
        """The degrees of range(start, stop, step) before the first one
        outside the window, as a range (empty when start is outside)."""
        end = self.complement().first(start, stop, step)
        return range(start, stop if end is None else end, step)

    def shift(self, n) -> "TrustWindow":
        return TrustWindow([(lo + n, hi + n) for lo, hi in self.parts])

    def intersect(self, other: "TrustWindow") -> "TrustWindow":
        out = []
        for alo, ahi in self.parts:
            for blo, bhi in other.parts:
                lo, hi = max(alo, blo), min(ahi, bhi)
                if lo <= hi:
                    out.append((lo, hi))
        return TrustWindow(out)

    def union(self, other: "TrustWindow") -> "TrustWindow":
        return TrustWindow(list(self.parts) + list(other.parts))

    def complement(self) -> "TrustWindow":
        out = []
        cur = NEG_INF
        for lo, hi in self.parts:
            if lo != NEG_INF:
                out.append((cur, lo - 1))
            cur = hi + 1
        if cur != INF:
            out.append((cur, INF))
        return TrustWindow(out)

    def minus_band(self, lo, hi) -> "TrustWindow":
        """Remove the closed band [lo, hi]."""
        if lo > hi:
            return self
        out = []
        for plo, phi in self.parts:
            if phi < lo or hi < plo:
                out.append((plo, phi))
                continue
            if plo < lo:
                out.append((plo, lo - 1))
            if hi < phi:
                out.append((hi + 1, phi))
        return TrustWindow(out)

    def __eq__(self, other):
        return isinstance(other, TrustWindow) and other.parts == self.parts

    __hash__ = None

    def __repr__(self):
        if not self.parts:
            return "TrustWindow(empty)"
        bits = ", ".join(f"[{lo}, {hi}]" for lo, hi in self.parts)
        return f"TrustWindow({bits})"


#: every degree trusted, the window of a complete complex
_WHOLE = TrustWindow.all()


class UncertifiedDegreeError(ValueError):
    """Raised when homology is requested outside a complex's trust window."""


# ---------------------------------------------------------------------------
# the complex object


class FreeComplex:
    """Bounded complex of graded free modules over a QuotientRing.

    terms: dict i -> GradedFree (only nonzero ranks stored)
    diffs: dict i -> GradedMatrix, the map terms[i] -> terms[i-1], with
    entries in normal form (every construction here keeps them so, and
    hom_complex/tensor_complex rely on it)
    window, true_lo, true_hi: see module docstring; `complete` is read off
    the window.
    """

    __slots__ = ("ring", "terms", "diffs", "window", "true_lo", "true_hi")

    def __init__(self, ring, terms, diffs, window=None, true_lo=None, true_hi=None):
        self.ring = ring
        self.terms = {i: f for i, f in terms.items() if f.rank > 0}
        self.diffs = {}
        for i, m in diffs.items():
            if i in self.terms and (i - 1) in self.terms and not m.is_zero():
                self.diffs[i] = m
        self.window = window if window is not None else TrustWindow.all()
        if true_lo is None or true_hi is None:
            lo, hi = self.term_range()
            true_lo = lo if true_lo is None else true_lo
            true_hi = hi if true_hi is None else true_hi
        self.true_lo = true_lo
        self.true_hi = true_hi

    @property
    def complete(self) -> bool:
        """The representative is the intended object on the nose: trusted
        in every degree, so all its homology is the true homology."""
        return self.window == _WHOLE

    # -- structure ---------------------------------------------------------

    def term(self, i) -> GradedFree:
        return self.terms.get(i, ZERO_FREE)

    def diff(self, i) -> GradedMatrix:
        m = self.diffs.get(i)
        if m is None:
            return GradedMatrix.zero(self.ring, self.term(i), self.term(i - 1))
        return m

    def term_range(self):
        """(bottom, top) homological degrees with nonzero terms; (0, -1) if empty."""
        if not self.terms:
            return (0, -1)
        return (min(self.terms), max(self.terms))

    def is_zero_complex(self) -> bool:
        return not self.terms

    def ceiling(self) -> int:
        """min(top term, true_hi): a walk down from it misses no homology."""
        return int(min(self.term_range()[1], self.true_hi))

    def possible_range(self):
        """Hull of degrees where rep or true homology could be nonzero."""
        b, t = self.term_range()
        if b > t:
            return (self.true_lo, self.true_hi)
        return (min(b, self.true_lo), max(t, self.true_hi))

    def __repr__(self):
        b, t = self.term_range()
        if b > t:
            return "FreeComplex(0)"
        ranks = " ".join(str(self.term(i).rank) for i in range(t, b - 1, -1))
        return f"FreeComplex(degrees {t}..{b}, ranks {ranks}, {self.window!r})"


def zero_complex(ring) -> FreeComplex:
    return FreeComplex(ring, {}, {}, TrustWindow.all(), 0, -1)


def module_as_complex(ring, free: GradedFree) -> FreeComplex:
    """A single free module placed in homological degree 0."""
    return FreeComplex(ring, {0: free}, {}, TrustWindow.all(), 0, 0)


def multiplication_map(qr, p, twists=(0,)) -> ChainMap:
    """Multiplication by a form p of degree d, from the sum of the R(-t-d)
    to the sum of the R(-t) over the twists t, as one-term complexes."""
    d = p.degree() if not p.is_zero() else 0
    src, tgt = GradedFree.of([t + d for t in twists]), GradedFree.of(twists)
    diag = {(i, i): p for i in range(len(twists)) if not p.is_zero()}
    return ChainMap(module_as_complex(qr, src), module_as_complex(qr, tgt),
                    {0: GradedMatrix(qr, src, tgt, diag)})


def from_resolution(ring, matrices, complete) -> FreeComplex:
    """Complex from resolution data d_1, d_2, ..., d_B (d_i: F_i -> F_{i-1}).

    If complete, the resolution terminated (the last kernel was zero) and
    the representative is the module itself up to quasi-isomorphism; else
    homology at the top term degree B is garbage.
    """
    if not matrices:
        raise ValueError("need at least d_1 (possibly a zero matrix)")
    terms = {0: matrices[0].target}
    diffs = {}
    for i, m in enumerate(matrices, start=1):
        terms[i] = m.source
        diffs[i] = m
    B = len(matrices)
    if complete:
        window = TrustWindow.all()
    else:
        window = TrustWindow.all().minus_band(B, B)
    return FreeComplex(ring, terms, diffs, window, 0, 0)


# ---------------------------------------------------------------------------
# elementary constructions


def shift_complex(X: FreeComplex, n: int) -> FreeComplex:
    """Suspension by n: (shift X)_v = X_{v-n}, differential scaled by (-1)^n."""
    if n == 0:
        return X
    sign = X.ring.field.normalize(-1 if n % 2 else 1)
    terms = {i + n: f for i, f in X.terms.items()}
    diffs = {i + n: (m if n % 2 == 0 else m.map_entries(lambda p: p.scale(sign)))
             for i, m in X.diffs.items()}
    return FreeComplex(X.ring, terms, diffs, X.window.shift(n),
                       X.true_lo + n, X.true_hi + n)


def direct_sum(X: FreeComplex, Y: FreeComplex) -> FreeComplex:
    if X.ring != Y.ring:
        raise ValueError("direct sum over different rings")
    terms = {i: GradedFree.of(X.term(i).twists + Y.term(i).twists)
             for i in set(X.terms) | set(Y.terms)}
    diffs = {i: block_matrix(X.ring, f, terms.get(i - 1, ZERO_FREE), [
        (0, 0, ONE_FREE, X.diff(i)),
        (X.term(i - 1).rank, X.term(i).rank, ONE_FREE, Y.diff(i))])
        for i, f in terms.items()}
    return FreeComplex(X.ring, terms, diffs, X.window.intersect(Y.window),
                       min(X.true_lo, Y.true_lo), max(X.true_hi, Y.true_hi))


class ChainMap:
    """Degree-zero chain map f: X -> Y: components[i]: X_i -> Y_i."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: FreeComplex, target: FreeComplex, components: dict):
        self.source = source
        self.target = target
        self.components = {i: m for i, m in components.items() if not m.is_zero()}

    def component(self, i) -> GradedMatrix:
        m = self.components.get(i)
        if m is None:
            return GradedMatrix.zero(self.source.ring, self.source.term(i),
                                     self.target.term(i))
        return m


def _cone_diff(f: ChainMap, j: int) -> GradedMatrix:
    """d_j of cone(f) for f: X -> Y, from X_{j-1} (+) Y_j to
    X_{j-2} (+) Y_{j-1}: the block matrix [[-d_X, 0], [f, d_Y]], so
    d(a, b) = (-da, db + fa) and d^2 = 0 because f commutes with d."""
    X, Y = f.source, f.target
    neg = X.ring.field.normalize(-1)
    rx, cx = X.term(j - 2).rank, X.term(j - 1).rank
    return block_matrix(
        X.ring, GradedFree.of(X.term(j - 1).twists + Y.term(j).twists),
        GradedFree.of(X.term(j - 2).twists + Y.term(j - 1).twists),
        [(0, 0, ONE_FREE, X.diff(j - 1).map_entries(lambda p: p.scale(neg))),
         (rx, 0, ONE_FREE, f.component(j - 1)),
         (rx, cx, ONE_FREE, Y.diff(j))])


def cone(f: ChainMap) -> FreeComplex:
    """Mapping cone: C_j = X_{j-1} (+) Y_j with differential _cone_diff."""
    X, Y = f.source, f.target
    diffs = {j: _cone_diff(f, j) for j in set(i + 1 for i in X.terms) | set(Y.terms)}
    # five-lemma comparison along the long exact sequence of the cone:
    # H_j(C) is trusted when H_j and H_{j-1} are trusted in both factors
    win = (X.window.intersect(X.window.shift(1))
           .intersect(Y.window.intersect(Y.window.shift(1))))
    return FreeComplex(X.ring, {j: m.source for j, m in diffs.items()}, diffs, win,
                       min(Y.true_lo, X.true_lo + 1),
                       max(Y.true_hi, X.true_hi + 1))


# ---------------------------------------------------------------------------
# Hom and tensor


def _resolution_shape(P: FreeComplex):
    """(bottom_term, top_term, trusted_cells_top, floor) for a hom or
    tensor factor.

    P's window must contain its bottom cell; the window part holding that
    cell gives the ceiling below which cells of P agree with an honest
    resolution, and its floor is where that claim stops.  When the floor
    is finite and P.true_lo does not reach it, the cells themselves may
    shift as the resolution bound grows (deeper homology adds covers at
    every degree), and the callers must discard the affected band.
    """
    pb, pt = P.term_range()
    for lo, hi in P.window.parts:
        if lo <= pb <= hi:
            return pb, pt, hi, lo
    raise UncertifiedDegreeError(
        "resolution factor is not trusted at its bottom cell")


def _hsupp(Y: FreeComplex) -> TrustWindow:
    """Degrees where homology of the representative or of the true object
    may be nonzero: true support inside the window, anything in the hull
    outside it."""
    plo, phi = Y.possible_range()
    poss = TrustWindow.interval(plo, phi)
    truth = TrustWindow.interval(Y.true_lo, Y.true_hi)
    return Y.window.intersect(truth).union(Y.window.complement().intersect(poss))


def hom_frame(P: FreeComplex, Y: FreeComplex):
    """Hom(P, Y) with no differential, and its layout: (H, offsets), H
    holding hom_complex(P, Y)'s terms, window and truth bounds, and
    offsets[t] the block offsets of H_t (hom_layout)."""
    qr = P.ring
    if qr != Y.ring:
        raise ValueError("hom over different rings")
    pb, pt, pwhi, pfloor = _resolution_shape(P)
    yb, yt = Y.term_range()
    if P.is_zero_complex() or Y.is_zero_complex():
        return zero_complex(qr), {}

    terms, offsets = {}, {}
    for t in range(yb - pt, yt - pb + 1):
        offs, twists = hom_layout(P, Y, t)
        if twists:
            terms[t], offsets[t] = GradedFree.of(twists), offs

    # untrusted bands from the hypercohomology pairing (module docstring):
    # garbage homology of Y against cells of P, garbage cells of P against
    # any homology of Y, missing high cells against true homology of Y
    plo, phi = Y.possible_range()
    win = TrustWindow.all()
    garbage_y = Y.window.complement().intersect(TrustWindow.interval(plo, phi))
    for glo, ghi in garbage_y.parts:
        win = win.minus_band(glo - pt, ghi - pb)
    if pwhi < pt:
        for hlo, hhi in _hsupp(Y).parts:
            win = win.minus_band(hlo - pt, hhi - (pwhi + 1))
    if not P.complete:
        win = win.minus_band(NEG_INF, Y.true_hi - pt - 1)
    if pfloor != NEG_INF and P.true_lo < pfloor:
        # unproven floor: every cell of P is suspect, as is anything a
        # deeper (higher-bound) resolution could reach
        for hlo, hhi in _hsupp(Y).union(garbage_y).parts:
            win = win.minus_band(hlo - pt, INF)
    true_hi = Y.true_hi - P.true_lo
    true_lo = (Y.true_lo - pt) if P.complete else NEG_INF
    return FreeComplex(qr, terms, {}, win, true_lo, true_hi), offsets


def hom_complex(P: FreeComplex, Y: FreeComplex) -> FreeComplex:
    """Hom(P, Y) as a complex; P plays the projective-resolution role.

    Term t is the direct sum over i of Hom(P_i, Y_{i+t}), laid out by
    hom_layout: hom_frame plus the differential, whose block from i is
    kron(d_Y, P_i^*) and kron(Y_{i+t}, -(-1)^t d_P^T).
    """
    H, offsets = hom_frame(P, Y)
    neg = P.ring.field.normalize(-1)
    signed = {}    # (t % 2, j): -(-1)^t d_{P,j}^T, made when first used
    for t, src_off in offsets.items():
        tgt_off, blocks = offsets.get(t - 1), []
        if tgt_off is None:
            continue
        for i, base in src_off.items():
            if i in tgt_off and i + t in Y.diffs:
                blocks.append((tgt_off[i], base, Y.diffs[i + t],
                               P.terms[i].dual()))
            if i + 1 in tgt_off and i + 1 in P.diffs:
                if (t % 2, i + 1) not in signed:
                    dT = P.diffs[i + 1].transpose()
                    signed[t % 2, i + 1] = dT if t % 2 else dT.map_entries(
                        lambda p: p.scale(neg))
                blocks.append((tgt_off[i + 1], base, Y.term(i + t),
                               signed[t % 2, i + 1]))
        m = block_matrix(P.ring, H.terms[t], H.terms[t - 1], blocks)
        if not m.is_zero():
            H.diffs[t] = m
    return H


def tensor_complex(F: FreeComplex, Y: FreeComplex) -> FreeComplex:
    """F (x) Y as a complex; F plays the flat-resolution role.

    Term t is the sum over i+j=t of F_i (x) Y_j, laid out by
    tensor_layout; the differential's block from i is kron(d_F, Y_{t-i})
    and kron(F_i, (-1)^i d_Y).
    """
    qr = F.ring
    if qr != Y.ring:
        raise ValueError("tensor over different rings")
    fb, ft, fwhi, ffloor = _resolution_shape(F)
    yb, yt = Y.term_range()
    if F.is_zero_complex() or Y.is_zero_complex():
        return zero_complex(qr)

    terms, offsets, diffs = {}, {}, {}
    for t in range(fb + yb, ft + yt + 1):
        offs, twists = tensor_layout(F, Y, t)
        if twists:
            terms[t], offsets[t] = GradedFree.of(twists), offs
    neg = qr.field.normalize(-1)
    signed = (Y.diffs, {j: m.map_entries(lambda p: p.scale(neg))
                        for j, m in Y.diffs.items()})   # (-1)^i d_Y
    for t, src_off in offsets.items():
        tgt_off, blocks = offsets.get(t - 1), []
        if tgt_off is None:
            continue
        for i, base in src_off.items():
            if i - 1 in tgt_off and i in F.diffs:
                blocks.append((tgt_off[i - 1], base, F.diffs[i], Y.term(t - i)))
            if i in tgt_off and t - i in Y.diffs:
                blocks.append((tgt_off[i], base, F.term(i),
                               signed[i % 2][t - i]))
        diffs[t] = block_matrix(qr, terms[t], terms[t - 1], blocks)

    plo, phi = Y.possible_range()
    win = TrustWindow.all()
    garbage_y = Y.window.complement().intersect(TrustWindow.interval(plo, phi))
    for glo, ghi in garbage_y.parts:
        win = win.minus_band(glo + fb, ghi + ft)
    if fwhi < ft:
        for hlo, hhi in _hsupp(Y).parts:
            win = win.minus_band(hlo + fwhi + 1, hhi + ft)
    if not F.complete:
        win = win.minus_band(Y.true_lo + ft + 1, INF)
    if ffloor != NEG_INF and F.true_lo < ffloor:
        for hlo, hhi in _hsupp(Y).union(garbage_y).parts:
            win = win.minus_band(NEG_INF, hhi + ft)
    true_lo = F.true_lo + Y.true_lo
    true_hi = (ft + Y.true_hi) if F.complete else INF
    return FreeComplex(qr, terms, diffs, win, true_lo, true_hi)


def hom_layout(P: FreeComplex, Y: FreeComplex, t: int):
    """Generator order of Hom(P, Y)_t: ({i: block offset}, twists).

    Block i is Hom(P_i, Y_{i+t}), for i ascending over the nonzero
    blocks.  The generator sending basis element a of P_i to basis element
    b of Y_{i+t} sits at off + b * rank P_i + a, with internal degree
    twist(Y_{i+t})_b - twist(P_i)_a: the order of kron(Y_{i+t}, P_i^*).
    """
    offs, twists = {}, []
    for i, f in sorted(P.terms.items()):
        if (g := Y.term(i + t)).rank:
            offs[i] = len(twists)
            twists += [tb - ta for tb in g.twists for ta in f.twists]
    return offs, twists


def tensor_layout(F: FreeComplex, Y: FreeComplex, t: int):
    """Generator order of (F (x) Y)_t: ({i: block offset}, twists).

    Block i is F_i (x) Y_{t-i}, for i ascending over the nonzero blocks.
    The generator e_a (x) e_b, a a basis element of F_i and b one of
    Y_{t-i}, sits at off + a * rank Y_{t-i} + b, with internal degree
    twist(F_i)_a + twist(Y_{t-i})_b: the order of kron(F_i, Y_{t-i}).
    """
    offs, twists = {}, []
    for i, f in sorted(F.terms.items()):
        if (g := Y.term(t - i)).rank:
            offs[i] = len(twists)
            twists += [ta + tb for ta in f.twists for tb in g.twists]
    return offs, twists


# ---------------------------------------------------------------------------
# exact minimization (Gaussian contraction of unit entries)


def minimize_complex(X: FreeComplex) -> FreeComplex:
    """Homotopy-equivalent complex with all differential entries in the
    maximal ideal.  Contracts one unit entry u of d_k at a time,

        d_k = [[u, B], [C, D]]  ~~>  D - C u^{-1} B,

    which deletes row j of d_{k+1} and column i of d_{k-1} besides.  The
    order is: degrees k ascending, and in each the smallest (row, column)
    unit of the current d_k until none is left.  A contraction in degree k
    changes d_k and otherwise only deletes entries, so no unit appears in a
    lower degree: this one pass contracts the units that a rescan of every
    degree after each contraction would, in the same order.  Indices stay
    the input's until the survivors are renumbered at the end; a complex
    with no unit entry comes back as is.

    >>> from homcalc.field import PrimeField
    >>> from homcalc.ring import PolyRing
    >>> R = QuotientRing(PolyRing(PrimeField(7), ["x"]), ["x^2"])
    >>> X = module_as_complex(R, GradedFree.of([0]))
    >>> C = cone(ChainMap(X, X, {0: GradedMatrix.identity(R, X.term(0))}))
    >>> C, minimize_complex(C)
    (FreeComplex(degrees 1..0, ranks 1 1, TrustWindow([-inf, inf])), FreeComplex(0))
    >>> minimize_complex(X) is X
    True
    """
    qr = X.ring
    gone = {i: set() for i in X.terms}   # contracted basis elements of X_i
    mats = {}
    for k in sorted(X.diffs):
        d = {ij: p for ij, p in X.diffs[k].entries.items()
             if ij[0] not in gone[k - 1]}
        while units := [ij for ij, p in d.items() if p.is_constant()]:
            i, j = min(units)
            c = qr.field.neg(qr.field.inv(d[(i, j)].constant_value()))
            row = [(jj, p) for (ii, jj), p in d.items() if ii == i and jj != j]
            col = [(ii, p) for (ii, jj), p in d.items() if jj == j and ii != i]
            d = {ij: p for ij, p in d.items() if ij[0] != i and ij[1] != j}
            for ii, a in col:
                for jj, b in row:
                    val = (a * b).scale(c)
                    if (ii, jj) in d:
                        val = d[(ii, jj)] + val
                    val = qr.reduce(val)
                    if val.is_zero():
                        d.pop((ii, jj), None)
                    else:
                        d[(ii, jj)] = val
            gone[k - 1].add(i)
            gone[k].add(j)
        mats[k] = d
    if not any(gone.values()):
        return X
    pos = {i: {a: n for n, a in enumerate(sorted(set(range(f.rank)) - gone[i]))}
           for i, f in X.terms.items()}
    frees = {i: GradedFree.of([X.terms[i].twists[a] for a in p])
             for i, p in pos.items()}
    diffs = {k: GradedMatrix(qr, frees[k], frees[k - 1],
                             {(pos[k - 1][a], pos[k][b]): p for (a, b), p in d.items()
                              if a in pos[k - 1] and b in pos[k]})
             for k, d in mats.items()}
    return FreeComplex(qr, frees, diffs, X.window, X.true_lo, X.true_hi)


# ---------------------------------------------------------------------------
# free resolutions of complexes: a semi-free complex resolves itself


def resolve_complex_with_map(X: FreeComplex, bound: int):
    """Free complex P plus a quasi-isomorphism P -> X, up to homological
    degree `bound`, from the first trusted degree at or above X's truth
    floor.  When that is X's bottom term, X (bounded below, of finitely
    generated free modules, so semi-free) is its own free resolution
    (Avramov & Foxby, JPAA 71, 1991; Christensen, LNM 1747, App. A): P is
    X cut at min(top, bound), with the identity.  Otherwise the cone loop
    of _cone_resolution rebuilds P.

    Window rule: P is trusted where X is, and only in degrees <= bound - 1
    unless top + 1 <= bound (then P is X, complete when X is).  The
    identity keeps trusted degrees of X above an untrusted one, which the
    loop's window drops; readers never take terms across that gap
    (TrustWindow.run).
    """
    qr = X.ring
    xb, xt = X.term_range()
    if X.is_zero_complex():
        Z = zero_complex(qr)
        return Z, ChainMap(Z, X, {})
    # start at the first trusted degree at or above the certified truth
    # floor: anything below is zero (no cells), representative garbage,
    # or excluded by the caller's floor certificate
    smin = xb if X.true_lo == NEG_INF else max(xb, int(X.true_lo))
    start = X.window.first(smin, bound + 1, 1)
    if start is None:
        raise UncertifiedDegreeError("no trusted degree at or above the bottom cell")
    if start != xb:
        return _cone_resolution(X, start, bound)
    whole = xt + 1 <= bound
    win = X.window if whole else X.window.intersect(
        TrustWindow.interval(NEG_INF, bound - 1))
    P = FreeComplex(qr, {i: f for i, f in X.terms.items() if i <= bound},
                    X.diffs, win, X.true_lo, X.true_hi)
    return P, ChainMap(P, X, {i: GradedMatrix.identity(qr, f)
                              for i, f in P.terms.items()})


def _cone_resolution(X: FreeComplex, start: int, bound: int):
    """The general case of resolve_complex_with_map: P and P -> X built
    upward from degree `start` to `bound` by killing cone homology degree
    by degree.  P is trusted in degrees <= bound - 1 (intersected with X's
    own window) and complete when the construction closes off early."""
    qr = X.ring
    xt = X.term_range()[1]
    neg = qr.field.normalize(-1)
    # the partial map P -> X, grown in place; its cone's d_j is the kernel
    # problem, and d_{j+1} (P_j still zero) maps X_{j+1} onto boundaries
    q = ChainMap(FreeComplex(qr, {}, {}), X, {})
    P = q.source
    closed = False
    for j in range(start, bound + 1):
        pprev = P.term(j - 1)
        dC, bnd = _cone_diff(q, j), _cone_diff(q, j + 1)
        src = dC.source
        # discard kernel generators that are already boundaries via X_{j+1}
        keep = []
        for col in kernel_matrix(dC).columns():
            cm = GradedMatrix.from_columns(qr, src, [col])
            if not bnd.is_zero() and lift_matrix(bnd, cm) is not None:
                continue
            keep.append(col)
        cols = clean_columns(qr, src, keep)
        if not cols.source.rank:
            if j >= xt:
                closed = True
                break
            continue
        # split each generator (p, x): d_P = -p_part, phi = x_part
        dP_entries, phi_entries = {}, {}
        for (a, b), p in cols.entries.items():
            if a < pprev.rank:
                dP_entries[(a, b)] = p.scale(neg)
            else:
                phi_entries[(a - pprev.rank, b)] = p
        P.terms[j] = cols.source
        if dP_entries:
            P.diffs[j] = GradedMatrix(qr, cols.source, pprev, dP_entries)
        if phi_entries:
            q.components[j] = GradedMatrix(qr, cols.source, X.term(j), phi_entries)
    win = X.window if closed else X.window.intersect(
        TrustWindow.interval(NEG_INF, bound - 1))
    P = FreeComplex(qr, P.terms, P.diffs, win, X.true_lo, X.true_hi)
    # phi commutes with the differentials: a kernel column (p, x) of the
    # cone satisfies dP(p) = 0-part and dX(x) = -phi(p) by construction
    return P, ChainMap(P, X, q.components)


# ---------------------------------------------------------------------------
# canonical chain maps: biduality and tensor-evaluation


def biduality_rep(P: FreeComplex, C: FreeComplex, bound: int,
                  floor=None) -> ChainMap:
    """Chain map P -> Hom(Q, C) representing x |-> (f |-> f(x)), where
    Q -> Hom(P, C) is a free resolution computed up to `bound`.

    With the sign (-1)^{|x||f|} the evaluation commutes with both Hom
    differentials; composing with Hom(q, C) keeps it a chain map because
    q has degree zero.  Quasi-isomorphism of the result (tested on the
    cone) is the reflexivity criterion used downstream.

    `floor` is a lower bound for the true homology of the inner Hom.
    Passing a certified value makes the resulting windows unconditional;
    leaving it None adopts the inner window floor, which stamps every
    downstream claim with the current bound (see the module docstring).
    """
    qr = P.ring
    D = hom_complex(P, C)
    if floor is None:
        db = D.term_range()[0]
        for lo, hi in D.window.parts:
            if hi >= db:
                floor = lo if lo != NEG_INF else None
                break
    if floor is not None:
        # record the floor as a certified truth bound of D
        D = FreeComplex(qr, dict(D.terms), dict(D.diffs), D.window,
                        max(D.true_lo, floor), D.true_hi)
    Q, q = resolve_complex_with_map(D, bound)
    H = hom_complex(Q, C)
    # q_j's entry (r, c), r = off + b * rank P_v + a in block v of D_j
    # (hom_layout), is delta_v's entry at (the generator c -> b of block j
    # of H_v, a), signed (-1)^{vj}
    hoffs = {v: hom_layout(Q, C, v)[0] for v in P.terms}
    entries = {v: {} for v in P.terms}
    neg = qr.field.normalize(-1)
    for j, qj in q.components.items():
        doffs = hom_layout(P, C, j)[0]
        for (r, c), val in qj.entries.items():
            v = max(i for i, off in doffs.items() if off <= r)
            b, a = divmod(r - doffs[v], P.terms[v].rank)
            entries[v][(hoffs[v][j] + b * Q.term(j).rank + c, a)] = \
                val.scale(neg) if (v * j) % 2 else val
    return ChainMap(P, H, {v: GradedMatrix(qr, f, H.term(v), entries[v])
                           for v, f in P.terms.items()})


def homothety_rep(q: ChainMap) -> ChainMap:
    """The homothety R -> Hom(P, C), 1 |-> q, of a chain map q: P -> C:
    block i of its column in Hom(P, C)_0 holds q_i's entry (b, a) at
    position b * rank P_i + a (hom_layout)."""
    P, C = q.source, q.target
    qr = P.ring
    H = hom_complex(P, C)
    offs = hom_layout(P, C, 0)[0]
    col = {(offs[i] + b * P.term(i).rank + a, 0): p
           for i, m in q.components.items() for (b, a), p in m.entries.items()}
    R = module_as_complex(qr, GradedFree.of([0]))
    return ChainMap(R, H, {0: GradedMatrix(qr, R.term(0), H.term(0), col)})
