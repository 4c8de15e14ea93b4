"""minimize_complex, _cone_resolution and cone against their previous
forms.

minimize_complex now contracts the units of one degree after another on
the input's own indices and renumbers once at the end, and cone and
_cone_resolution take their differentials from complexes._cone_diff.
Neither step changes what is computed, so the code before them, copied
verbatim below (only the function names are prefixed with old_), is the
reference: old and new agree term for term, entry for entry, in window,
truth bounds and completeness, and in every chain-map component.  The
inputs are the benchmark's ring templates in random coordinates (their
X, Y, Z, C, the truncated resolutions K_b of k and Hom(K_b, C), at
b = 1-4), the resolutions that _cone_resolution builds from them, the
cones of the identity on all of these, and every minimization that the
resolution and minimal presentation of each corpus module make.
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
    _cone_resolution, biduality_rep, cone, hom_complex, minimize_complex,
)
from homcalc.corpus import corpus_problems
from homcalc.groebner import interreduce_columns, kernel_matrix, lift_matrix
from homcalc.invariants import residue_field
from homcalc.modules import minimal_presentation, resolution
from homcalc.ring import ZERO_FREE, GradedFree, GradedMatrix

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
    return FreeComplex(qr, frees, diffs, X.window, X.true_lo, X.true_hi,
                       complete=X.complete)


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
        keep = interreduce_columns(qr, src, keep)
        if not keep:
            if j >= xt:
                closed = True
                break
            continue
        cols = GradedMatrix.from_columns(qr, src, keep)
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
    P = FreeComplex(qr, P_terms, P_diffs, win, X.true_lo, X.true_hi,
                    complete=X.complete and closed)
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
                       max(Y.true_hi, X.true_hi + 1),
                       complete=X.complete and Y.complete)


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
