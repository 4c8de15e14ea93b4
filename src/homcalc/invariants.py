"""Numerical invariants of modules and complexes: Betti and Bass tables,
depth, Krull dimension, type, Cohen-Macaulayness, grade, and finiteness
detectors for projective and injective dimension.

Tables never report outside their certified range.  Modules get the
cheap exact routes (minimal resolutions for Betti, Ext against k for
Bass); genuine complexes go through resolution representatives and
windowed Hom/tensor complexes, with trust tracked degree by degree.
"""

from __future__ import annotations

from .groebner import QuotientRing
from .complexes import (FreeComplex, hom_complex, tensor_complex,
                        resolve_complex, minimize_complex,
                        UncertifiedDegreeError, NEG_INF, INF)
from .modules import (ModulePresentation, minimal_presentation, resolution,
                      from_module, ext_module, homology_presentation,
                      trusted_homology, ring_memo, is_module, as_complex,
                      resolved)


class ZeroModuleError(ValueError):
    """Raised when an invariant of the zero object is requested."""


class WindowInsufficientError(RuntimeError):
    """No certified answer within the explored range."""


_HARD_CAP = 64

@ring_memo
def residue_field(qr: QuotientRing) -> ModulePresentation:
    """The residue field k = R/m, minimally presented.  It is kept in the
    ring's memo, so every caller gets the same object."""
    return minimal_presentation(ModulePresentation.residue_field(qr))


def _mu(qr: QuotientRing, m: ModulePresentation, i: int) -> int:
    # Ext^i(k, M) is a k-vector space, so generator count = dimension
    return minimal_presentation(ext_module(residue_field(qr), m, i)).gens.rank


def _hdim(x: FreeComplex, i: int) -> int:
    return minimal_presentation(homology_presentation(x, i)).k_dimension()


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


def betti_table(x, bound: int) -> InvariantTable:
    """beta_i = rank of the i-th term of the minimized resolution
    representative."""
    if is_module(x):
        res = resolution(x, bound)
        hi = bound if res.complete else bound - 1
        vals = {}
        for i in range(0, hi + 1):
            r = res.complex.term(i).rank
            if r:
                vals[i] = r
        return InvariantTable("betti", vals, (None, hi))
    P = minimize_complex(resolve_complex(x, bound))
    if P.is_zero_complex():
        return InvariantTable("betti", {}, (None, bound - 1))
    pb, pt = P.term_range()
    lo = None if (P.complete or x.true_lo != NEG_INF) else pb
    hi = pb - 1
    while hi + 1 <= bound and P.window.contains(hi + 1):
        hi += 1
    vals = {i: P.term(i).rank for i in range(pb, min(pt, hi) + 1)
            if P.term(i).rank}
    return InvariantTable("betti", vals, (lo, hi))


def bass_table(x, bound: int) -> InvariantTable:
    """mu^i = dim_k Ext^i(k, x), read from the module route for modules
    and from Hom(resolution of k, x) for complexes."""
    if is_module(x):
        qr = x.ring
        vals = {i: _mu(qr, x, i) for i in range(0, bound + 1)}
        return InvariantTable("bass", vals, (None, bound))
    qr = x.ring
    K = from_module(residue_field(qr), bound)
    H = hom_complex(K, x)
    if H.is_zero_complex():
        return InvariantTable("bass", {}, (None, bound - 1))
    tlo, thi = H.term_range()
    # the resolution of k starts at 0, so true Hom homology stops at the
    # certified ceiling of x; degrees above it are zero without a window
    t_star = thi
    if x.true_hi != NEG_INF and x.true_hi != INF:
        t_star = min(thi, int(x.true_hi))
    if not H.window.contains(t_star):
        raise WindowInsufficientError("top of the true Hom range untrusted")
    t_bot = t_star
    while t_bot - 1 >= tlo and H.window.contains(t_bot - 1):
        t_bot -= 1
    vals = {}
    for t in range(t_bot, t_star + 1):
        d = _hdim(H, t)
        if d:
            vals[-t] = d
    return InvariantTable("bass", vals, (None, -t_bot))


# ---------------------------------------------------------------------------
# homology extremes


def inf_of(x) -> int:
    if is_module(x):
        if x.is_zero_module():
            raise ZeroModuleError("inf of the zero module")
        return 0
    for t, _ in trusted_homology(x):
        return t
    raise ZeroModuleError("no nonzero homology in window")


def sup_of(x) -> int:
    if is_module(x):
        if x.is_zero_module():
            raise ZeroModuleError("sup of the zero module")
        return 0
    for t, _ in trusted_homology(x, reverse=True):
        return t
    raise ZeroModuleError("no nonzero homology in window")


def amplitude(x) -> int:
    return sup_of(x) - inf_of(x)


# ---------------------------------------------------------------------------
# depth, dimension, type


def _module_depth(m: ModulePresentation) -> int:
    if m.is_zero_module():
        raise ZeroModuleError("depth of the zero module")
    qr = m.ring
    for i in range(0, qr.krull_dim() + 1):
        if _mu(qr, m, i):
            return i
    raise WindowInsufficientError(
        "no nonzero Bass number up to dim R for a nonzero module")


def _complex_bass_scan(x: FreeComplex):
    """First nonzero Bass index of a complex with its value, auto-raising
    the bound until found.  The table is certified for every index below
    its ceiling, so its smallest stored index is the depth."""
    qr = x.ring
    b = max(4, qr.krull_dim() + abs(inf_of(x)) + 2)
    while b <= _HARD_CAP:
        t = bass_table(x, b)
        nz = t.nonzero_indices()
        if nz:
            return nz[0], t.values[nz[0]]
        b *= 2
    raise WindowInsufficientError(
        f"no nonzero Bass number found below hard cap {_HARD_CAP}")


def depth(x) -> int:
    """Smallest i with mu^i != 0."""
    if is_module(x):
        return _module_depth(x)
    return _complex_bass_scan(x)[0]


def kdim_complex(x) -> int:
    """Krull dimension: sup_i (dim H_i - i) over trusted homology."""
    if is_module(x):
        d = x.hilbert_series().dimension()
        if d < 0:
            raise ZeroModuleError("dimension of the zero module")
        return d
    dims = [minimal_presentation(h).hilbert_series().dimension() - i
            for i, h in trusted_homology(x)]
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
    if is_module(x):
        qr = x.ring
        return _mu(qr, x, _module_depth(x))
    return _complex_bass_scan(x)[1]


def is_cohen_macaulay(x) -> bool:
    return depth(x) == kdim_complex(x)


# ---------------------------------------------------------------------------
# finiteness detectors


def pd_verdict(x, bound: int) -> FinitenessVerdict:
    """Finite projective dimension is certified by a zero Betti number
    past sup: a minimal resolution that hits zero stays zero."""
    if is_module(x):
        res = resolution(x, bound)
        if res.complete:
            _, top = res.complex.term_range()
            if res.complex.is_zero_complex():
                return FinitenessVerdict.finite_certified(
                    None, "zero module")
            return FinitenessVerdict.finite_certified(
                top, f"minimal resolution ends at degree {top}")
        return FinitenessVerdict.unknown_at_least(
            bound, f"no zero Betti number through degree {bound - 1}")
    P = minimize_complex(resolve_complex(x, bound))
    if P.complete:
        _, top = P.term_range()
        return FinitenessVerdict.finite_certified(
            top, f"minimal resolution ends at degree {top}")
    s = sup_of(x)
    pb, _ = P.term_range()
    last = None
    for i in range(pb, bound + 1):
        if not P.window.contains(i):
            break
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
    between depth and id).  For genuine complexes only a zero run of width
    dim R + amp X + 2 is reported, as FiniteLikely."""
    if is_module(x):
        qr = x.ring
        d = _module_depth(x)
        last = None
        for i in range(d, bound + 1):
            v = _mu(qr, x, i)
            if v:
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


def ext_dims(x, y, lo: int, hi: int) -> dict:
    """dim_k Ext^i(x, y) for lo <= i <= hi; exact within windows."""
    if is_module(x) and is_module(y):
        if lo < 0:
            raise ValueError("module Ext vanishes in negative degrees")
        return {i: minimal_presentation(ext_module(x, y, i)).k_dimension()
                for i in range(lo, hi + 1)}
    b = hi + 4
    H = hom_complex(resolved(x, b), resolved(y, b))
    out = {}
    for i in range(lo, hi + 1):
        if not H.window.contains(-i):
            raise WindowInsufficientError(f"Ext^{i} outside trusted window")
        out[i] = _hdim(H, -i)
    return out


def ext_presentation(x, c, e: int, bound: int) -> ModulePresentation:
    """Ext^e(x, c) as a presentation: by ext_module when both are
    modules, else as the homology of Hom(resolution of x, c) at -e."""
    if is_module(x) and is_module(c):
        return ext_module(x, c, e)
    H = hom_complex(resolved(x, bound), as_complex(c, bound))
    if not H.window.contains(-e):
        raise WindowInsufficientError(f"Ext^{e} outside window")
    return homology_presentation(H, -e)


def tor_dims(x, y, lo: int, hi: int) -> dict:
    """dim_k Tor_i(x, y) for lo <= i <= hi; exact within windows."""
    b = max(hi + 4, 4)
    T = tensor_complex(resolved(x, b), resolved(y, b))
    out = {}
    for i in range(lo, hi + 1):
        if not T.window.contains(i):
            raise WindowInsufficientError(f"Tor_{i} outside trusted window")
        out[i] = _hdim(T, i)
    return out


def grade_wrt(x, c, bound: int) -> int:
    """gr_C(X) = inf { i : Ext^i(X, C) != 0 } = -sup RHom(X, C)."""
    if is_module(x) and is_module(c):
        for i in range(0, bound + 1):
            if not ext_module(x, c, i).is_zero_module():
                return i
        raise WindowInsufficientError(
            f"no nonzero Ext against C through degree {bound}")
    P = resolved(x, bound)
    C = as_complex(c, bound)
    H = hom_complex(P, C)
    tlo, thi = H.term_range()
    t_start = thi
    finite = lambda v: v != NEG_INF and v != INF
    if finite(C.true_hi) and finite(P.true_lo):
        # true Hom homology vanishes above sup C - inf X
        t_start = min(thi, int(C.true_hi) - int(P.true_lo))
    for t in range(t_start, tlo - 1, -1):
        if not H.window.contains(t):
            raise WindowInsufficientError(
                "untrusted degree reached before any nonzero homology")
        if not homology_presentation(H, t).is_zero_module():
            return -t
    raise WindowInsufficientError("RHom(X, C) has no homology in window")
