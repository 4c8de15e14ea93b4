"""minimize_complex, _cone_resolution, cone and the canonical chain maps
against their previous forms.

minimize_complex now contracts the units of one degree after another on
the input's own indices and renumbers once at the end, and cone and
_cone_resolution take their differentials from complexes._cone_diff.
biduality_rep and the homothety R -> Hom(P, C) of the complex
semidualizing certificate (now complexes.homothety_rep) place their
entries by the position formula of hom_layout, where they used inverted
hom_index lists.  None of these steps changes what is computed, so the
code before them, copied verbatim below (only the function names are
prefixed with old_, the homothety is wrapped in a function, the
complete= arguments FreeComplex no longer takes are dropped,
interreduce_columns, which now takes packed vectors, is called with its
columns through clean_columns, and GradedMatrix.entry, now a test
helper, is called as entry(m, i, j)), is the reference: old and new
agree term for term, entry for entry, in window and truth bounds, and in
every chain-map component.  The inputs are the benchmark's ring
templates in random coordinates (their X, Y, Z, C, the truncated
resolutions K_b of k and Hom(K_b, C), at b = 1-4), the resolutions that
_cone_resolution builds from them, the cones of the identity on all of
these, every minimization that the resolution and minimal presentation
of each corpus module make, and the canonical maps over the templates
and over a Hom pinned to a floor, where the resolution map q is not the
identity.
"""

import sys
from contextlib import suppress
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homcalc import complexes, modules
from homcalc.cli import build_problem
from homcalc.complexes import (
    NEG_INF, ChainMap, FreeComplex, TrustWindow, UncertifiedDegreeError,
    _cone_resolution, biduality_rep, cone, hom_complex,
    from_resolution, homothety_rep, minimize_complex, module_as_complex,
    resolve_complex_with_map,
)
from homcalc.corpus import corpus_problems
from homcalc.field import PrimeField
from homcalc.groebner import (QuotientRing, clean_columns, kernel_matrix,
                              lift_matrix)
from homcalc.invariants import residue_field
from homcalc.modules import minimal_presentation, resolution
from homcalc.ring import ZERO_FREE, GradedFree, GradedMatrix, PolyRing

from chain_checks import entry

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


# -- the previous code, verbatim --------------------------------------------


def old_minimize_complex(X: FreeComplex) -> FreeComplex:
    """Homotopy-equivalent complex with all differential entries in the
    maximal ideal.  Contracts one unit entry at a time:

        d_k = [[u, B], [C, D]]  ~~>  D - C u^{-1} B,

    dropping row j of d_{k+1} and column i of d_{k-1}.
    """
    qr = X.ring
    Fld = qr.field
    terms = {i: list(f.twists) for i, f in X.terms.items()}
    mats = {i: dict(m.entries) for i, m in X.diffs.items()}

    def find_unit():
        for k in sorted(mats):
            for (i, j), p in sorted(mats[k].items()):
                if p.is_constant() and not p.is_zero():
                    return k, i, j, p.constant_value()
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        k, i, j, u = hit
        uinv = Fld.inv(u)
        d = mats[k]
        rowi = {jj: p for (ii, jj), p in d.items() if ii == i and jj != j}
        colj = {ii: p for (ii, jj), p in d.items() if jj == j and ii != i}
        # D - C u^{-1} B on the remaining block
        for ii, c in colj.items():
            for jj, b in rowi.items():
                cur = d.get((ii, jj))
                corr = (c * b).scale(Fld.neg(uinv))
                val = corr if cur is None else cur + corr
                val = qr.reduce(val)
                if val.is_zero():
                    d.pop((ii, jj), None)
                else:
                    d[(ii, jj)] = val
        # drop row i / column j of d_k, reindex
        def drop(mat, row=None, col=None):
            out = {}
            for (a, b), p in mat.items():
                if row is not None and a == row:
                    continue
                if col is not None and b == col:
                    continue
                aa = a - 1 if row is not None and a > row else a
                bb = b - 1 if col is not None and b > col else b
                out[(aa, bb)] = p
            return out

        mats[k] = drop(d, row=i, col=j)
        if (k + 1) in mats:
            mats[k + 1] = drop(mats[k + 1], row=j)
        if (k - 1) in mats:
            mats[k - 1] = drop(mats[k - 1], col=i)
        del terms[k][j]
        del terms[k - 1][i]
        if not terms[k]:
            del terms[k]
            mats.pop(k, None)
            mats.pop(k + 1, None)
        if (k - 1) in terms and not terms[k - 1]:
            del terms[k - 1]
            mats.pop(k - 1, None)
            if k in mats and k not in terms:
                mats.pop(k, None)

    frees = {i: GradedFree.of(tw) for i, tw in terms.items() if tw}
    diffs = {}
    for i, m in mats.items():
        if i in frees and (i - 1) in frees and m:
            diffs[i] = GradedMatrix(qr, frees[i], frees[i - 1], m)
    return FreeComplex(qr, frees, diffs, X.window, X.true_lo, X.true_hi)


def old_cone_resolution(X: FreeComplex, start: int, bound: int):
    """The general case of resolve_complex_with_map: P and P -> X built
    upward from degree `start` to `bound` by killing cone homology degree
    by degree.  P is trusted in degrees <= bound - 1 (intersected with X's
    own window) and complete when the construction closes off early."""
    qr = X.ring
    xt = X.term_range()[1]
    P_terms = {}
    P_diffs = {}
    phi = {}
    closed = False
    for j in range(start, bound + 1):
        # cone degree j: C_j = P_{j-1} (+) X_j -> C_{j-1} = P_{j-2} (+) X_{j-1}
        pprev = P_terms.get(j - 1, ZERO_FREE)
        xj = X.term(j)
        src = GradedFree.of(pprev.twists + xj.twists)
        entries = {}
        rp = P_terms.get(j - 2, ZERO_FREE).rank
        if (j - 1) in P_diffs:
            for (a, b), p in P_diffs[j - 1].entries.items():
                entries[(a, b)] = p.scale(qr.field.normalize(-1))
        if (j - 1) in phi:
            for (a, b), p in phi[j - 1].entries.items():
                entries[(rp + a, b)] = p
        for (a, b), p in X.diff(j).entries.items():
            entries[(rp + a, pprev.rank + b)] = p
        tgt = GradedFree.of(P_terms.get(j - 2, ZERO_FREE).twists + X.term(j - 1).twists)
        dC = GradedMatrix(qr, src, tgt, entries)
        ker = kernel_matrix(dC)
        # discard kernel generators that are already boundaries via X_{j+1}
        bnd_entries = {}
        for (a, b), p in X.diff(j + 1).entries.items():
            bnd_entries[(pprev.rank + a, b)] = p
        bnd = GradedMatrix(qr, X.term(j + 1), src, bnd_entries)
        keep = []
        for col in ker.columns():
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
                dP_entries[(a, b)] = p.scale(qr.field.normalize(-1))
            else:
                phi_entries[(a - pprev.rank, b)] = p
        P_terms[j] = cols.source
        if dP_entries:
            P_diffs[j] = GradedMatrix(qr, cols.source, pprev, dP_entries)
        if phi_entries:
            phi[j] = GradedMatrix(qr, cols.source, xj, phi_entries)
    win = X.window if closed else X.window.intersect(
        TrustWindow.interval(NEG_INF, bound - 1))
    P = FreeComplex(qr, P_terms, P_diffs, win, X.true_lo, X.true_hi)
    # phi commutes with the differentials: a kernel column (p, x) of the
    # cone satisfies dP(p) = 0-part and dX(x) = -phi(p) by construction
    return P, ChainMap(P, X, phi)


def old_cone(f: ChainMap) -> FreeComplex:
    """Mapping cone: C_j = X_{j-1} (+) Y_j, d(a, b) = (-da, db + fa)."""
    X, Y = f.source, f.target
    qr = X.ring
    Fld = qr.field
    neg = Fld.normalize(-1)
    terms, diffs = {}, {}
    degs = set(i + 1 for i in X.terms) | set(Y.terms)
    for j in degs:
        terms[j] = GradedFree.of(X.term(j - 1).twists + Y.term(j).twists)
    for j in sorted(degs):
        xpart = X.term(j - 1)
        entries = {}
        # block (-dX): X_{j-1} -> X_{j-2}
        for (a, b), p in X.diff(j - 1).entries.items():
            entries[(a, b)] = p.scale(neg)
        # block f: X_{j-1} -> Y_{j-1}
        rx = X.term(j - 2).rank
        for (a, b), p in f.component(j - 1).entries.items():
            entries[(rx + a, b)] = p
        # block dY: Y_j -> Y_{j-1}
        for (a, b), p in Y.diff(j).entries.items():
            entries[(rx + a, xpart.rank + b)] = p
        tgt = terms.get(j - 1, GradedFree.of(X.term(j - 2).twists + Y.term(j - 1).twists))
        m = GradedMatrix(qr, terms[j], tgt, entries)
        if not m.is_zero():
            diffs[j] = m
    # five-lemma comparison along the long exact sequence of the cone:
    # H_j(C) is trusted when H_j and H_{j-1} are trusted in both factors
    win = (X.window.intersect(X.window.shift(1))
           .intersect(Y.window.intersect(Y.window.shift(1))))
    return FreeComplex(qr, terms, diffs, win,
                       min(Y.true_lo, X.true_lo + 1),
                       max(Y.true_hi, X.true_hi + 1))


def old_hom_index(P: FreeComplex, Y: FreeComplex, t: int):
    """Flat index layout of Hom(P, Y)_t: list of (i, a, b) triples."""
    pb, pt = P.term_range()
    out = []
    for i in range(pb, pt + 1):
        rp, ry = P.term(i).rank, Y.term(i + t).rank
        if rp and ry:
            for b in range(ry):
                for a in range(rp):
                    out.append((i, a, b))
    return out


def old_biduality_rep(P: FreeComplex, C: FreeComplex, bound: int,
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
    Fld = qr.field
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
    dflat = {}

    def d_layout(j):
        if j not in dflat:
            dflat[j] = {trip: pos for pos, trip in enumerate(old_hom_index(P, C, j))}
        return dflat[j]

    comps = {}
    lo, hi = P.term_range()
    for v in range(lo, hi + 1):
        rp = P.term(v).rank
        hv = H.term(v)
        if rp == 0 or hv.rank == 0:
            continue
        entries = {}
        for pos, (j, c, b) in enumerate(old_hom_index(Q, C, v)):
            qj = q.component(j)
            lay = d_layout(j)
            sgn = -1 if (v * j) % 2 else 1
            for a in range(rp):
                key = lay.get((v, a, b))
                if key is None:
                    continue
                val = entry(qj, key, c)
                if val.is_zero():
                    continue
                if sgn < 0:
                    val = val.scale(Fld.normalize(-1))
                entries[(pos, a)] = val
        m = GradedMatrix(qr, P.term(v), hv, entries)
        if not m.is_zero():
            comps[v] = m
    return ChainMap(P, H, comps)


def old_homothety_chi(c, bound):
    qr = c.ring
    P, q = resolve_complex_with_map(c, bound)
    H = hom_complex(P, c)
    col = {}
    for pos, (i, a, b) in enumerate(old_hom_index(P, c, 0)):
        comp = q.component(i)
        p = entry(comp, b, a)
        if not p.is_zero():
            col[(pos, 0)] = p
    R1 = module_as_complex(qr, GradedFree.of([0]))
    chi = ChainMap(R1, H, {0: GradedMatrix(
        qr, GradedFree.of([0]), H.term(0), col)})
    return chi


# -- comparisons ------------------------------------------------------------


def assert_same_complex(new, old):
    assert new.terms == old.terms
    assert new.diffs == old.diffs
    assert new.window == old.window
    assert (new.true_lo, new.true_hi, new.complete) == \
        (old.true_lo, old.true_hi, old.complete)


def check_minimize(X):
    new = minimize_complex(X)
    assert_same_complex(new, old_minimize_complex(X))
    return new


def check_cone(f):
    new = cone(f)
    assert_same_complex(new, old_cone(f))
    check_minimize(new)
    return new


def check_cone_resolution(X, start, bound):
    P, q = _cone_resolution(X, start, bound)
    oP, oq = old_cone_resolution(X, start, bound)
    assert_same_complex(P, oP)
    assert q.source is P and q.target is X and oq.target is X
    assert q.components == oq.components
    check_minimize(P)
    check_cone(q)
    # P is not minimal, so the cone of its identity has rows of several
    # units, and contracting one leaves units in rows already contracted
    check_cone(identity(P))
    return P, q


def identity(X):
    return ChainMap(X, X, {i: GradedMatrix.identity(X.ring, f)
                           for i, f in X.terms.items()})


def starts(X, bound):
    """Start degrees of _cone_resolution: X's bottom term when trusted, and
    the first trusted degree at or above its truth floor (the start
    resolve_complex_with_map passes)."""
    xb = X.term_range()[0]
    smin = xb if X.true_lo == NEG_INF else max(xb, int(X.true_lo))
    return {s for s in (X.window.first(xb, xb + 1, 1),
                        X.window.first(smin, bound + 1, 1)) if s is not None}


# -- the benchmark's templates ----------------------------------------------


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(workloads.TEMPLATES), st.integers(-3, 3),
       st.integers(-3, 3), st.sampled_from(["X", "Y", "Z", "C", "K", "H"]),
       st.integers(1, 4))
def test_templates_match_the_old_code(template, a, c, name, b):
    assume(a * c != 1)
    u, v = {(1, 0): 1, (0, 1): a}, {(1, 0): c, (0, 1): 1}
    p = build_problem(workloads.template_doc(template, u, v))
    with mock.patch.object(modules, "minimize_complex", check_minimize):
        K = resolution(residue_field(p.qr), b)
    X = dict(p.complexes, K=K, H=hom_complex(K, p.complexes["C"]))[name]
    check_minimize(X)
    check_cone(p.maps["f"])
    check_cone(identity(X))
    if X.is_zero_complex():
        return
    for s in starts(X, b):
        check_cone_resolution(X, s, b)
    # the route biduality_rep takes to Hom(K_b, C), with its window floor;
    # the Hom after it may refuse, but the resolution is compared by then
    if name == "H":
        with mock.patch.object(complexes, "_cone_resolution",
                               check_cone_resolution), \
                suppress(UncertifiedDegreeError):
            check_cone(biduality_rep(K, p.complexes["C"], b))


# -- the corpus -------------------------------------------------------------


@pytest.mark.parametrize("doc", corpus_problems(), ids=lambda d: d["name"])
def test_corpus_modules_match_the_old_code(doc):
    p = build_problem(doc)
    bound = max(t["bound"] for t in doc["tasks"])
    with mock.patch.object(modules, "minimize_complex", check_minimize):
        for m in p.modules.values():
            minimal_presentation(m)
            resolution(m, bound)


# -- the canonical chain maps -----------------------------------------------


def assert_same_map(new, old):
    assert_same_complex(new.source, old.source)
    assert_same_complex(new.target, old.target)
    assert new.components == old.components


def check_same_map(new_fn, old_fn, *args, **kwargs):
    """new_fn and old_fn build the same chain map, or both refuse."""
    try:
        old = old_fn(*args, **kwargs)
    except UncertifiedDegreeError:
        with pytest.raises(UncertifiedDegreeError):
            new_fn(*args, **kwargs)
        return None
    new = new_fn(*args, **kwargs)
    assert_same_map(new, old)
    return new


def new_homothety_chi(c, bound):
    return homothety_rep(resolve_complex_with_map(c, bound)[1])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(workloads.TEMPLATES), st.integers(-3, 3),
       st.integers(-3, 3), st.sampled_from(["X", "Y", "Z", "C", "K"]),
       st.integers(1, 4))
def test_canonical_maps_match_the_old_code(template, a, c, name, b):
    assume(a * c != 1)
    u, v = {(1, 0): 1, (0, 1): a}, {(1, 0): c, (0, 1): 1}
    p = build_problem(workloads.template_doc(template, u, v))
    C = p.complexes["C"]
    X = dict(p.complexes, K=resolution(residue_field(p.qr), b))[name]
    check_same_map(biduality_rep, old_biduality_rep, X, C, b)
    check_same_map(new_homothety_chi, old_homothety_chi, X, b)


def _truncated_k(B):
    """d_1, ..., d_B of the resolution of k over F_7[x,y]/(x^2, xy, y^2),
    which does not end: the complex is cut at B."""
    S = QuotientRing(PolyRing(PrimeField(7), ["x", "y"]), ["x^2", "x*y", "y^2"])
    mats = [GradedMatrix(S, GradedFree.of([1, 1]), GradedFree.of([0]),
                         {(0, 0): S.variable(0), (0, 1): S.variable(1)})]
    for _ in range(B - 1):
        mats.append(kernel_matrix(mats[-1]))
    return from_resolution(S, mats, False)


@pytest.mark.parametrize("B", [2, 3, 4])
def test_canonical_maps_match_the_old_code_off_the_identity(B):
    # floor -1 makes Hom(P, R) start its resolution above its bottom term
    # at -B, so q comes from the cone loop and is not the identity
    P = _truncated_k(B)
    R = module_as_complex(P.ring, GradedFree.of([0]))
    cone_route = mock.patch.object(complexes, "_cone_resolution",
                                   wraps=complexes._cone_resolution)
    with cone_route as loop:
        check_same_map(biduality_rep, old_biduality_rep, P, R, B + 1,
                       floor=-1)
    assert loop.call_count == 2
    D = hom_complex(P, R)
    D = FreeComplex(D.ring, D.terms, D.diffs, D.window, -1, D.true_hi)
    with cone_route as loop:
        new = check_same_map(new_homothety_chi, old_homothety_chi, D, B + 1)
    assert loop.call_count == 2 and new.components
