"""Betti/Bass tables, depth, dimension, type, finiteness verdicts, grade."""

import itertools

import pytest

from homcalc.field import PrimeField
from homcalc.ring import PolyRing, GradedFree, GradedMatrix
from homcalc.groebner import QuotientRing
from homcalc.complexes import (shift_complex, direct_sum, module_as_complex,
                               cone, ChainMap, FreeComplex, TrustWindow, NEG_INF, INF,
                               UncertifiedDegreeError)
from homcalc.modules import (ModulePresentation, canonical_module, resolution,
                             homology_series)
from homcalc.invariants import (
    koszul_complex, InvariantTable, FinitenessVerdict, ZeroModuleError,
    WindowInsufficientError, residue_field,
    betti_table, bass_table, depth, kdim_complex, nu, type_of,
    is_cohen_macaulay, pd_verdict, id_verdict, ext_dims, tor_dims,
    grade_wrt, inf_of, sup_of, amplitude, ext_presentation,
)

F = PrimeField(7)
P1 = PolyRing(F, ["x"])
P2 = PolyRing(F, ["x", "y"])
P3 = PolyRing(F, ["a", "b", "c"], weights=[3, 4, 5])

DN = QuotientRing(P1, ["x^2"])
NG = QuotientRing(P2, ["x^2", "x*y", "y^2"])
CI = QuotientRing(P2, ["x^2", "y^2"])
HY = QuotientRing(P2, ["x*y"])
SG = QuotientRing(P3, ["b^2 - a*c", "b*c - a^3", "c^2 - a^2*b"])


def free_rep(qr):
    return module_as_complex(qr, GradedFree.of([0]))


# -- tables -----------------------------------------------------------------

def test_betti_table_of_ring_is_trivial():
    t = betti_table(ModulePresentation.free(DN, [0]), 4)
    assert t.values == {0: 1}
    assert t.value(3) == 0


def test_betti_table_k_dual_numbers():
    t = betti_table(residue_field(DN), 6)
    assert t.values == {i: 1 for i in range(6)}
    assert t.certified == (None, 5)
    with pytest.raises(UncertifiedDegreeError):
        t.value(6)


def test_betti_table_of_shifted_ring():
    t = betti_table(shift_complex(free_rep(DN), 1), 4)
    assert t.values == {1: 1}
    assert t.value(0) == 0 and t.value(2) == 0


def test_bass_table_gorenstein_artinian():
    # Ext^0(k, R) = k and nothing above: the socle is simple
    t = bass_table(ModulePresentation.free(DN, [0]), 5)
    assert t.values == {0: 1}


def test_bass_table_non_gorenstein():
    t = bass_table(ModulePresentation.free(NG, [0]), 3)
    assert t.value(0) == 2
    assert t.value(1) > 0


def test_bass_table_canonical_module():
    t = bass_table(canonical_module(SG), 3)
    assert t.values == {1: 1}


def test_bass_table_routes_agree():
    # module route (Ext against k) vs complex route (windowed Hom)
    k = residue_field(NG)
    a = bass_table(k, 3)
    b = bass_table(resolution(k, 6), 3)
    _, hi = b.certified
    assert hi >= 2
    assert all(a.value(i) == b.value(i) for i in range(0, hi + 1))


# -- depth, dimension, type -------------------------------------------------

def test_depth_of_hypersurface_ring():
    assert depth(ModulePresentation.free(HY, [0])) == 1


def test_depth_of_residue_field():
    assert depth(residue_field(NG)) == 0


def test_depth_shift_identity():
    X = free_rep(CI)
    assert depth(X) == 0
    assert depth(shift_complex(X, 2)) == -2


@pytest.mark.parametrize("qr", [CI, HY, SG, QuotientRing(P3, [])],
                         ids=["ci", "hypersurface", "semigroup-345", "poly3"])
def test_koszul_complex_ranks_and_twists(qr):
    # K_i has one generator per i-subset of the variables, twisted by the
    # sum of their weights
    K = koszul_complex(qr)
    w = qr.weights
    n = len(w)
    assert K.term_range() == (0, n)
    for i in range(n + 1):
        subsets = itertools.combinations(range(n), i)
        assert sorted(K.term(i).twists) == sorted(sum(w[j] for j in s)
                                                  for s in subsets)
    assert koszul_complex(qr) is K


@pytest.mark.parametrize("qr", [QuotientRing(P2, []), QuotientRing(P3, [])],
                         ids=["poly2", "poly3-weighted"])
def test_koszul_complex_resolves_k_over_a_polynomial_ring(qr):
    K = koszul_complex(qr)
    assert homology_series(K, 0).k_dimension() == 1
    assert homology_series(K, 0).dimension() == 0
    assert all(not homology_series(K, i).numer
               for i in range(1, len(qr.weights) + 1))


def test_kdim_matches_hilbert_series():
    assert kdim_complex(ModulePresentation.free(HY, [0])) == 1
    assert kdim_complex(ModulePresentation.free(SG, [0])) == 1
    assert kdim_complex(residue_field(NG)) == 0


def test_kdim_of_shift():
    m = ModulePresentation.free(HY, [0])
    assert kdim_complex(shift_complex(free_rep(HY), 2)) == kdim_complex(m) - 2


def test_kdim_direct_sum_takes_sup():
    X = free_rep(HY)
    assert kdim_complex(direct_sum(X, shift_complex(X, 1))) == 1


def test_cohen_macaulay_verdicts():
    assert is_cohen_macaulay(ModulePresentation.free(HY, [0]))
    assert is_cohen_macaulay(residue_field(NG))   # artinian: 0 = 0
    X = free_rep(HY)
    assert not is_cohen_macaulay(direct_sum(X, shift_complex(X, 1)))


def test_depth_bounded_by_dimension():
    for m in (ModulePresentation.free(HY, [0]),
              ModulePresentation.free(SG, [0]),
              residue_field(CI),
              canonical_module(SG)):
        assert depth(m) <= kdim_complex(m)


def test_type_gorenstein_vs_not():
    assert type_of(ModulePresentation.free(CI, [0])) == 1
    assert type_of(ModulePresentation.free(NG, [0])) == 2
    assert type_of(ModulePresentation.free(SG, [0])) == 2


def test_type_and_nu_swap_for_canonical_module():
    w = canonical_module(SG)
    assert type_of(w) == 1
    assert nu(w) == 2


def test_nu_koszul():
    S = QuotientRing(P2, [])
    from homcalc.modules import syzygy
    assert nu(syzygy(residue_field(S), 1)) == 2


def test_zero_module_rejected():
    z = ModulePresentation.free(DN, [])
    with pytest.raises(ZeroModuleError):
        nu(z)
    with pytest.raises(ZeroModuleError):
        kdim_complex(z)


# -- finiteness verdicts ----------------------------------------------------

def test_pd_nonzerodivisor_quotient():
    m = ModulePresentation.cyclic(HY, ["x + y"])
    v = pd_verdict(m, 6)
    assert v.is_finite_certified() and v.n == 1
    # Auslander-Buchsbaum: n = depth R - depth M
    assert v.n == depth(ModulePresentation.free(HY, [0])) - depth(m)


@pytest.mark.parametrize("gens", [["x + y", "y^2"], ["x + y", "x^2", "y^2"]])
@pytest.mark.parametrize("b", range(2, 7))
def test_pd_certified_past_redundant_relations(gens, b):
    # y^2 = y(x + y) and x^2 = x(x + y) in R = k[x,y]/(xy), so M = R/(x + y)
    # has pd 1; its relations are minimal entrywise but not as a generating
    # set, and the resolution must still end at degree 1
    m = ModulePresentation.cyclic(HY, gens)
    v = pd_verdict(m, b)
    assert v.is_finite_certified() and v.n == 1
    t = betti_table(m, b)
    assert t.values == {0: 1, 1: 1} and t.certified == (None, b)
    assert resolution(m, b).complete


def test_pd_free_module():
    v = pd_verdict(ModulePresentation.free(DN, [0]), 4)
    assert v.is_finite_certified() and v.n == 0


def test_pd_residue_field_infinite_resolution():
    v = pd_verdict(residue_field(DN), 6)
    assert v.status == "unknown" and v.bound == 6


def test_pd_of_exact_complex_is_the_zero_object():
    # the cone of the identity on R minimizes to the zero complex; its pd
    # is that of the zero object, with no degree
    R = QuotientRing(P2, ["x^2", "x*y"])
    X = module_as_complex(R, GradedFree.of([0]))
    v = pd_verdict(cone(ChainMap(X, X, {0: GradedMatrix.identity(R, X.term(0))})), 3)
    assert v.is_finite_certified() and v.n is None
    assert v.witness == "exact complex (zero object)"


def test_pd_not_certified_at_length_zero():
    # a length-0 truncation is refused, so it never reads pd 0
    with pytest.raises(ValueError, match="at least 1"):
        pd_verdict(residue_field(DN), 0)
    # the cached resolution of a pd-1 module is complete, yet a shorter
    # truncation of it must not certify
    m = ModulePresentation.cyclic(QuotientRing(P1, []), ["x"])
    assert pd_verdict(m, 4).n == 1
    assert not pd_verdict(m, 1).is_finite_certified()
    with pytest.raises(ValueError, match="at least 1"):
        pd_verdict(m, 0)


def test_id_gorenstein_ring():
    v = id_verdict(ModulePresentation.free(CI, [0]), 6)
    assert v.is_finite_certified() and v.n == 0
    # Bass formula: n = depth R
    assert v.n == depth(ModulePresentation.free(CI, [0]))


def test_id_non_gorenstein_unknown():
    v = id_verdict(ModulePresentation.free(NG, [0]), 6)
    assert v.status == "unknown"


def test_id_canonical_module():
    v = id_verdict(canonical_module(SG), 6)
    assert v.is_finite_certified() and v.n == 1
    assert v.n == depth(ModulePresentation.free(SG, [0]))


def test_id_complex_route_is_only_likely():
    v = id_verdict(free_rep(CI), 8)
    assert v.status == "finite-likely" and v.n == 0


# -- Ext / Tor tables -------------------------------------------------------

def test_ext_dims_k_k_dual_numbers():
    d = ext_dims(residue_field(DN), residue_field(DN), 0, 5)
    assert d == {i: 1 for i in range(6)}


def test_tor_dims_recover_betti():
    k = residue_field(NG)
    m = canonical_module(NG)
    bt = betti_table(m, 4)
    td = tor_dims(k, m, 0, 2)
    assert all(td[i] == bt.value(i) for i in range(3))


def test_ext_dims_shift_second_slot():
    # Ext^{i-1}(k, R[1]) = Ext^i(k, R) on the complex route, which agrees
    # with the module route's table
    k = residue_field(DN)

    def dims(c, lo, hi):
        return {i: ext_presentation(k, c, i, 5).hilbert_series().k_dimension()
                for i in range(lo, hi + 1)}

    base = dims(free_rep(DN), 0, 2)
    assert base == ext_dims(k, ModulePresentation.free(DN, [0]), 0, 2)
    shifted = dims(shift_complex(free_rep(DN), 1), -1, 1)
    assert shifted == {i - 1: base[i] for i in range(0, 3)}


# -- shift identities on tables ---------------------------------------------

def test_betti_shift_identity():
    X = resolution(residue_field(NG), 5)
    base = betti_table(X, 5)
    for n in (1, 3):
        sh = betti_table(shift_complex(X, n), 5)
        _, hi = sh.certified
        for i in range(n, hi + 1):
            assert sh.value(i) == base.value(i - n)


def test_bass_shift_identity():
    X = resolution(residue_field(CI), 6)
    base = bass_table(X, 5)
    _, bhi = base.certified
    for n in (1, 2):
        sh = bass_table(shift_complex(X, n), 5)
        _, hi = sh.certified
        for i in range(-n, min(hi, bhi - n) + 1):
            assert sh.value(i) == base.value(i + n)


# -- grade ------------------------------------------------------------------

def test_grade_of_ring_is_zero():
    w = canonical_module(SG)
    assert grade_wrt(ModulePresentation.free(SG, [0]), w, 5) == 0


def test_grade_nonzerodivisor():
    m = ModulePresentation.cyclic(HY, ["x + y"])
    assert grade_wrt(m, ModulePresentation.free(HY, [0]), 5) == 1


def test_grade_artinian_against_dual():
    assert grade_wrt(residue_field(NG), canonical_module(NG), 5) == 0


def test_grade_complex_route():
    X = resolution(ModulePresentation.cyclic(HY, ["x + y"]), 6)
    assert grade_wrt(X, free_rep(HY), 6) == 1


# -- sup / inf / amplitude --------------------------------------------------

def test_homology_extremes():
    X = free_rep(HY)
    S = direct_sum(X, shift_complex(X, 2))
    assert inf_of(S) == 0 and sup_of(S) == 2 and amplitude(S) == 2
    assert amplitude(residue_field(DN)) == 0


def test_homology_extremes_refuse_across_an_untrusted_degree():
    # R -1-> R in degrees 1 -> 0 and 6 -> 5 (exact), R alone in degree 3;
    # the window trusts neither degree 1 nor degree 5, so neither walk
    # from the band edge reaches the homology at 3
    R = GradedFree.of([0])
    one = GradedMatrix.identity(DN, R)
    X = FreeComplex(DN, {0: R, 1: R, 3: R, 5: R, 6: R}, {1: one, 6: one},
                    TrustWindow([(NEG_INF, 0), (2, 4), (6, INF)]))
    with pytest.raises(WindowInsufficientError, match="inf"):
        inf_of(X)
    with pytest.raises(WindowInsufficientError, match="sup"):
        sup_of(X)
    # the same complex trusted throughout reads the homology at 3
    Y = FreeComplex(DN, X.terms, X.diffs)
    assert inf_of(Y) == sup_of(Y) == 3


# -- dimension via prime enumeration (monomial fixtures) --------------------

def monomial_primes(ideal_monomial_vars, n):
    """Variable subsets covering every monomial generator: the monomial
    primes containing the ideal."""
    out = []
    for mask in range(1 << n):
        s = {v for v in range(n) if mask >> v & 1}
        if all(s.intersection(g) for g in ideal_monomial_vars):
            out.append(s)
    return out


def test_kdim_agrees_with_prime_enumeration():
    # X over R = k[x,y]/(xy): R(-1) --x--> R has H_0 = R/(x) and
    # H_1 = (y) which is R/(x) again (ann both = (x))
    x = HY.from_string("x")
    X = type(free_rep(HY))(
        HY,
        {0: GradedFree.of([0]), 1: GradedFree.of([1])},
        {1: GradedMatrix(HY, GradedFree.of([1]), GradedFree.of([0]),
                         {(0, 0): x})})
    homology_anns = {0: [{0}], 1: [{0}]}   # ann H_i = (x), var index 0
    n = 2
    best = None
    for p in monomial_primes([{0, 1}], n):   # ideal (xy)
        dim_rp = n - len(p)
        inf_p = None
        for i, gens in homology_anns.items():
            # (H_i)_p != 0 iff p contains ann H_i
            if all(g.intersection(p) for g in gens):
                inf_p = i if inf_p is None else min(inf_p, i)
        if inf_p is not None:
            c = dim_rp - inf_p
            best = c if best is None else max(best, c)
    assert best == kdim_complex(X) == 1
