"""Trust windows, complex constructions, slice homology, minimization."""

import pytest

from homcalc.field import PrimeField
from homcalc.ring import PolyRing, GradedFree, GradedMatrix
from homcalc.groebner import QuotientRing
from homcalc.complexes import (
    TrustWindow, FreeComplex, ChainMap, UncertifiedDegreeError,
    INF, NEG_INF, zero_complex, module_as_complex, from_resolution,
    shift_complex, direct_sum, cone,
    hom_complex, tensor_complex, hom_layout, tensor_layout,
    minimize_complex, resolve_complex_with_map, _cone_resolution,
    biduality_rep,
)
from homcalc.modules import ModulePresentation, resolution

from chain_checks import entry, validate_chain_map, validate_complex
from slice_homology import (slice_basis, slice_matrix, homology_slice_dim,
                            artinian_homology_dims)

F = PrimeField(32003)
R1 = PolyRing(F, ["x"])
DN = QuotientRing(R1, ["x^2"])  # dual numbers k[x]/(x^2)
X1 = R1.variable(0)


def kres(qr, B, complete=False):
    """Truncated minimal resolution of k over k[x]/(x^n): all maps are x."""
    x = qr.ambient.variable(0)
    mats = [GradedMatrix(qr, GradedFree.of([i]), GradedFree.of([i - 1]), {(0, 0): x})
            for i in range(1, B + 1)]
    return from_resolution(qr, mats, complete)


# -- trust windows ----------------------------------------------------------


def _covers(w, lo, hi):
    """Whether every degree in [lo, hi] is trusted."""
    return all(w.contains(d) for d in range(lo, hi + 1))


def test_window_merge_and_contains():
    w = TrustWindow([(0, 2), (3, 5), (9, 9)])
    assert w.parts == ((0, 5), (9, 9))
    assert w.contains(4) and w.contains(9) and not w.contains(7)
    assert _covers(w, 1, 5) and not _covers(w, 4, 9)


def test_window_complement_roundtrip():
    w = TrustWindow([(NEG_INF, 2), (5, 7)])
    c = w.complement()
    assert c.parts == ((3, 4), (8, INF))
    assert c.complement() == w
    assert TrustWindow([]).complement() == TrustWindow.all()


def test_window_set_algebra():
    a = TrustWindow([(0, 10)])
    b = TrustWindow([(5, 20)])
    assert a.intersect(b).parts == ((5, 10),)
    assert a.union(b).parts == ((0, 20),)
    assert a.minus_band(3, 7).parts == ((0, 2), (8, 10))
    assert a.minus_band(-5, 50).parts == ()
    assert a.shift(2).parts == ((2, 12),)


def test_window_first_and_run():
    w = TrustWindow([(NEG_INF, 0), (3, 5), (8, INF)])
    # up and down from inside the window, stopping at a gap or the stop
    assert w.run(3, 10, 1) == range(3, 6)
    assert w.run(5, -5, -1) == range(5, 2, -1)
    assert w.run(9, 12, 1) == range(9, 12)
    assert w.run(-3, -10, -1) == range(-3, -10, -1)    # infinite end
    # a start outside the window runs nowhere
    assert list(w.run(1, 10, 1)) == [] and list(w.run(7, 0, -1)) == []
    assert w.first(1, 10, 1) == 3 and w.first(7, 0, -1) == 5
    assert w.first(1, 3, 1) is None and w.first(7, 5, -1) is None
    assert w.first(-100, 0, 1) == -100 and w.first(100, 0, -1) == 100
    # the empty window and empty ranges
    empty = TrustWindow([])
    assert list(empty.run(0, 5, 1)) == [] and empty.first(0, 5, 1) is None
    assert list(w.run(3, 3, 1)) == [] and w.first(3, 3, 1) is None
    assert TrustWindow.all().run(-2, 3, 1) == range(-2, 3)


# -- construction and validation --------------------------------------------

def test_resolution_complex_validates():
    cx = kres(DN, 4)
    validate_complex(cx)
    assert cx.term_range() == (0, 4)
    assert cx.window == TrustWindow.all().minus_band(4, 4)
    assert (cx.true_lo, cx.true_hi) == (0, 0)
    assert not cx.complete


def test_validate_rejects_nonsquare_zero():
    x = R1.variable(0)
    one = R1.one()
    f1 = GradedFree.of([0])
    bad = FreeComplex(DN, {0: f1, 1: GradedFree.of([1]), 2: GradedFree.of([1])},
                      {1: GradedMatrix(DN, GradedFree.of([1]), f1, {(0, 0): x}),
                       2: GradedMatrix(DN, GradedFree.of([1]), GradedFree.of([1]),
                                       {(0, 0): one})})
    with pytest.raises(ValueError):
        validate_complex(bad)


def test_shift_signs_and_window():
    cx = kres(DN, 3)
    s = shift_complex(cx, 2)
    assert s.term_range() == (2, 5)
    assert s.window == cx.window.shift(2)
    assert (s.true_lo, s.true_hi) == (2, 2)
    validate_complex(s)
    # odd shift negates the differential
    s1 = shift_complex(cx, 1)
    assert entry(s1.diff(2), 0, 0) == X1.scale(F.normalize(-1))
    validate_complex(s1)
    assert entry(shift_complex(s1, -1).diff(1), 0, 0) == X1


def test_direct_sum_homology_adds():
    a = kres(DN, 3)
    b = shift_complex(kres(DN, 3), 1)
    s = direct_sum(a, b)
    validate_complex(s)
    for t in (0, 1, 2):
        if s.window.contains(t):
            assert artinian_homology_dims(s, t) == (
                artinian_homology_dims(a, t) + artinian_homology_dims(b, t))


def identity_chain_map(X: FreeComplex) -> ChainMap:
    return ChainMap(X, X, {i: GradedMatrix.identity(X.ring, f)
                           for i, f in X.terms.items()})


def scalar_chain_map(X: FreeComplex, c) -> ChainMap:
    """Multiplication by the ring constant c as a chain self-map."""
    u = X.ring.one().scale(X.ring.field.normalize(c))
    return ChainMap(X, X, {i: GradedMatrix(X.ring, f, f, {(a, a): u for a in range(f.rank)})
                           for i, f in X.terms.items()})


def test_cone_of_identity_is_contractible():
    cx = kres(DN, 3)
    c = cone(identity_chain_map(cx))
    validate_complex(c)
    m = minimize_complex(c)
    assert m.is_zero_complex()


def test_cone_of_unit_scalar_is_contractible():
    cx = kres(DN, 4)
    c = cone(scalar_chain_map(cx, 7))
    assert minimize_complex(c).is_zero_complex()


def test_chain_map_validation_catches_non_commuting():
    cx = kres(DN, 2)
    bad = ChainMap(cx, shift_complex(cx, 1), {0: GradedMatrix(
        DN, cx.term(0), shift_complex(cx, 1).term(0), {})})
    comp = {1: GradedMatrix(DN, cx.term(1), shift_complex(cx, 1).term(1),
                            {(0, 0): R1.one()})}
    bad2 = ChainMap(cx, shift_complex(cx, 1), comp)
    with pytest.raises(ValueError):
        validate_chain_map(bad2)


# -- hom and tensor ---------------------------------------------------------

def test_hom_window_truncation_bands():
    # resolutions of k over the dual numbers, truncated at 3 and 5:
    # trusted hom degrees are exactly [1-3, 5-3-1] plus everything above
    # the top garbage band
    Pk, M = kres(DN, 3), kres(DN, 5)
    H = hom_complex(Pk, M)
    assert H.window == TrustWindow([(-2, 1), (6, INF)])
    validate_complex(H)


def test_hom_homology_ext_of_residue_field():
    # Ext^i(k, k) over k[x]/(x^2) is 1-dimensional for every i >= 0
    Pk, M = kres(DN, 3), kres(DN, 5)
    H = hom_complex(Pk, M)
    assert [artinian_homology_dims(H, t) for t in (-2, -1, 0, 1)] == [1, 1, 1, 0]


def test_tensor_homology_tor_of_residue_field():
    Pk, M = kres(DN, 3), kres(DN, 5)
    T = tensor_complex(Pk, M)
    assert T.window == TrustWindow([(NEG_INF, 2)])
    assert [artinian_homology_dims(T, t) for t in (0, 1, 2)] == [1, 1, 1]
    validate_complex(T)


def test_hom_complete_resolution_full_window():
    # over k[x]/(x^2) the module R itself has the length-zero resolution;
    # Hom(R-res, R-res) is fully trusted
    free = module_as_complex(DN, GradedFree.of([0]))
    H = hom_complex(free, free)
    assert H.window == TrustWindow.all()
    assert artinian_homology_dims(H, 0) == 2  # dim_k R = 2


def test_hom_first_factor_must_be_bottom_trusted():
    Pk = kres(DN, 3)
    bad = FreeComplex(DN, dict(Pk.terms), dict(Pk.diffs),
                      TrustWindow([(1, 2)]), 0, 0)
    with pytest.raises(UncertifiedDegreeError):
        hom_complex(bad, Pk)


def test_hom_unproven_floor_collapses_window():
    # a factor trusted only on a finite interval, with no certificate that
    # the true object vanishes below it, cannot certify any degree its
    # cells (or deeper cells at a higher bound) could reach
    Pk = kres(DN, 3)
    meek = FreeComplex(DN, dict(Pk.terms), dict(Pk.diffs),
                       TrustWindow([(0, 2)]), NEG_INF, 0)
    H = hom_complex(meek, module_as_complex(DN, GradedFree.of([0])))
    assert not any(H.window.contains(t) for t in range(-3, 4))
    # certifying the floor restores the usual truncation window
    ok = FreeComplex(DN, dict(Pk.terms), dict(Pk.diffs),
                     TrustWindow([(0, 2)]), 0, 0)
    H2 = hom_complex(ok, module_as_complex(DN, GradedFree.of([0])))
    assert _covers(H2.window, -2, 0)


def test_index_layouts_match_ranks():
    # block i of degree t pairs Pk_i with M_{i+t} (Hom) or M_{t-i} (tensor)
    Pk, M = kres(DN, 2), kres(DN, 3)
    for X, layout, sign in ((hom_complex(Pk, M), hom_layout, 1),
                            (tensor_complex(Pk, M), tensor_layout, -1)):
        for t, f in X.terms.items():
            offs, twists = layout(Pk, M, t)
            sizes = [Pk.term(i).rank * M.term(t + sign * i).rank
                     for i in sorted(offs)]
            assert list(offs.values()) == [sum(sizes[:n])
                                           for n in range(len(sizes))]
            assert sum(sizes) == len(twists) == f.rank


def test_hom_twists():
    # Hom(R(-1)[at 1], R) sits in degree -1 with twist +1
    P = shift_complex(module_as_complex(DN, GradedFree.of([1])), 1)
    Y = module_as_complex(DN, GradedFree.of([0]))
    H = hom_complex(P, Y)
    assert sorted(H.terms) == [-1]
    assert H.term(-1).twists == (-1,)


def _normal(X):
    """Whether every differential entry of X is a normal form."""
    return all(X.ring.reduce_matrix(m) == m for m in X.diffs.values())


def test_hom_and_tensor_of_normal_forms_are_normal_forms():
    """hom_complex and tensor_complex only copy, negate and add entries of
    their factors, so factors in normal form give differentials in normal
    form; every producer below hands over normal forms."""
    R2 = PolyRing(F, ["x", "y"])
    for qr in (QuotientRing(R2, ["x^2", "x*y", "y^2"]),
               QuotientRing(R2, ["x*y", "x^3 + y^3"])):
        k = resolution(ModulePresentation.residue_field(qr), 3)
        m = resolution(ModulePresentation.cyclic(qr, ["x + y"]), 3)
        src, tgt = GradedFree.of([1]), GradedFree.of([0])
        f = ChainMap(module_as_complex(qr, src), module_as_complex(qr, tgt),
                     {0: GradedMatrix(qr, src, tgt,
                                      {(0, 0): qr.from_string("x - y")})})
        factors = [k, m, shift_complex(m, 1), direct_sum(k, m), cone(f),
                   _cone_resolution(cone(f), 0, 3)[0],
                   minimize_complex(cone(f))]
        assert all(_normal(X) for X in factors)
        for P in (k, m, factors[5]):
            for Y in factors:
                assert _normal(hom_complex(P, Y))
                assert _normal(tensor_complex(P, Y))


# -- slices -----------------------------------------------------------------

def test_slice_basis_counts_match_hilbert():
    R = PolyRing(F, ["x", "y"])
    Q = QuotientRing(R, ["x*y"])
    hs = Q.hilbert_series()
    for v in range(5):
        assert len(slice_basis(Q, GradedFree.of([0]), v)) == hs.coeffs(v, v)[0]
    # twisted generator shifts the slice
    assert len(slice_basis(Q, GradedFree.of([2]), 3)) == hs.coeffs(1, 1)[0]


def test_slice_matrix_of_multiplication():
    # multiplication by x on k[x]/(x^3): degree 0 -> kernel 0, degree 2 -> x^2 |-> 0
    Q3 = QuotientRing(R1, ["x^3"])
    m = GradedMatrix(Q3, GradedFree.of([1]), GradedFree.of([0]), {(0, 0): X1})
    rows, src, tgt = slice_matrix(m, 1)
    assert len(src) == 1 and len(tgt) == 1 and rows[0][0] == F.one
    rows, src, tgt = slice_matrix(m, 3)
    assert len(src) == 1 and len(tgt) == 0  # x^2*x = 0 lands nowhere


def test_homology_slice_zero_for_exact_piece():
    cx = kres(DN, 4)
    assert homology_slice_dim(cx, 1, 1) == 0  # middle of the resolution
    assert homology_slice_dim(cx, 0, 0) == 1  # H_0 = k in degree 0


# -- minimization -----------------------------------------------------------

def test_minimize_contracts_unit():
    # R <-1- R plus a minimal tail; the unit part cancels
    one = R1.one()
    f0, f1 = GradedFree.of([0, 0]), GradedFree.of([0, 1])
    d1 = GradedMatrix(DN, f1, f0, {(0, 0): one, (1, 1): X1})
    cx = FreeComplex(DN, {0: f0, 1: f1}, {1: d1})
    m = minimize_complex(cx)
    assert m.term(0).rank == 1 and m.term(1).rank == 1
    assert repr(entry(m.diff(1), 0, 0)) == "x"


def test_minimize_preserves_homology_and_is_stable():
    Pk, M = kres(DN, 3), kres(DN, 4)
    H = hom_complex(Pk, M)
    Hm = minimize_complex(H)
    for t in range(-3, 4):
        if H.window.contains(t):
            assert artinian_homology_dims(H, t) == artinian_homology_dims(Hm, t)
    again = minimize_complex(Hm)
    assert {i: f.rank for i, f in again.terms.items()} == \
           {i: f.rank for i, f in Hm.terms.items()}
    # minimal: no unit entries anywhere
    for i, d in Hm.diffs.items():
        for _, p in d.entries.items():
            assert not p.is_constant() or p.is_zero()


# -- resolving --------------------------------------------------------------

def _loop(X, bound):
    """The cone loop from X's bottom term, which resolve_complex_with_map
    skips on such input."""
    return _cone_resolution(X, X.term_range()[0], bound)


ROUTES = [resolve_complex_with_map, _loop]


def test_resolve_complex_matches_homology():
    X = kres(DN, 4)
    for resolve in ROUTES:
        P = resolve(X, 6)[0]
        validate_complex(P)
        for t in (0, 1, 2, 3):
            if P.window.contains(t) and X.window.contains(t):
                assert artinian_homology_dims(P, t) == \
                    artinian_homology_dims(X, t)


def test_resolve_complex_closes_on_free_input():
    X = module_as_complex(DN, GradedFree.of([0, 2]))
    for resolve in ROUTES:
        P = resolve(X, 5)[0]
        assert P.complete
        assert artinian_homology_dims(P, 0) == artinian_homology_dims(X, 0)


def test_resolve_map_is_quasi_iso_in_window():
    # cone on x: R(-1) -> R has H_0 = k and H_1 = ann(x); resolving
    # recovers both and the comparison map's cone is acyclic where trusted
    f = ChainMap(module_as_complex(DN, GradedFree.of([1])),
                 module_as_complex(DN, GradedFree.of([0])),
                 {0: GradedMatrix(DN, GradedFree.of([1]), GradedFree.of([0]),
                                  {(0, 0): X1})})
    X = cone(f)
    for resolve in ROUTES:
        P, q = resolve(X, 4)
        validate_chain_map(q)
        cq = cone(q)
        for t in range(-1, 4):
            if cq.window.contains(t):
                assert artinian_homology_dims(cq, t) == 0


# -- canonical chain maps ---------------------------------------------------

def test_biduality_quasi_iso_over_gorenstein_artinian():
    P = kres(DN, 5)
    Rc = module_as_complex(DN, GradedFree.of([0]))
    d = biduality_rep(P, Rc, 6)
    validate_chain_map(d)
    cd = cone(d)
    degs = [t for t in range(-4, 5) if cd.window.contains(t)]
    assert degs, "cone window should not be empty"
    assert all(artinian_homology_dims(cd, t) == 0 for t in degs)


def test_biduality_detects_non_reflexive():
    # k over F_p[x,y]/(x^2,xy,y^2) is not reflexive with respect to R
    P2 = PolyRing(F, ["x", "y"])
    S = QuotientRing(P2, ["x^2", "x*y", "y^2"])
    x, y = S.variable(0), S.variable(1)
    row = GradedMatrix(S, GradedFree.of([1, 1]), GradedFree.of([0]),
                       {(0, 0): x, (0, 1): y})
    mats = [row]
    from homcalc.groebner import kernel_matrix
    for _ in range(2):
        mats.append(kernel_matrix(mats[-1]))
    Pk = from_resolution(S, mats, complete=False)
    d = biduality_rep(Pk, module_as_complex(S, GradedFree.of([0])), 4)
    validate_chain_map(d)
    cd = cone(d)
    vals = [artinian_homology_dims(cd, t)
            for t in range(-2, 3) if cd.window.contains(t)]
    assert any(v != 0 for v in vals)


def test_biduality_pinned_floor_is_stable():
    P2 = PolyRing(F, ["x", "y"])
    S = QuotientRing(P2, ["x^2", "x*y", "y^2"])
    x, y = S.variable(0), S.variable(1)
    from homcalc.groebner import kernel_matrix

    def sres(B):
        row = GradedMatrix(S, GradedFree.of([1, 1]), GradedFree.of([0]),
                           {(0, 0): x, (0, 1): y})
        mats = [row]
        for _ in range(B - 1):
            mats.append(kernel_matrix(mats[-1]))
        return from_resolution(S, mats, complete=False)

    outs = {}
    for B in (3, 4):
        cd = cone(biduality_rep(sres(B), module_as_complex(S, GradedFree.of([0])),
                                B + 1, floor=-1))
        outs[B] = (cd.window, {t: artinian_homology_dims(cd, t)
                               for t in range(-1, 3) if cd.window.contains(t)})
    shared = [t for t in outs[3][1] if t in outs[4][1]]
    assert shared
    assert all(outs[3][1][t] == outs[4][1][t] for t in shared)


# -- raising the bound -------------------------------------------------------

def test_windows_grow_with_the_bound():
    w3 = kres(DN, 3).window
    w5 = kres(DN, 5).window
    assert _covers(w3, -10, 2) and _covers(w5, -10, 4)


def test_hom_window_stability():
    lowb = hom_complex(kres(DN, 3), kres(DN, 5))
    highb = hom_complex(kres(DN, 5), kres(DN, 7))
    # on the shared trusted range the homology must agree
    for t in (-2, -1, 0, 1):
        if lowb.window.contains(t) and highb.window.contains(t):
            assert artinian_homology_dims(lowb, t) == artinian_homology_dims(highb, t)
