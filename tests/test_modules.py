"""Presentations, resolutions, Hom/tensor/Ext, canonical modules and maps."""

import contextlib
import gc
import weakref
from unittest import mock

import pytest

from homcalc.field import PrimeField
from homcalc.ring import PolyRing, GradedFree, GradedMatrix, hstack
from homcalc import groebner, modules
from homcalc import semidualizing as sd
from homcalc.groebner import (NotArtinianError, QuotientRing, kernel_matrix,
                              lift_matrix)
from homcalc.complexes import (FreeComplex, UncertifiedDegreeError,
                               direct_sum, shift_complex)
from homcalc.modules import (
    ModulePresentation, ModuleMap, NotCohenMacaulayError,
    minimal_presentation, resolution, syzygy,
    hom_modules, tensor_modules, ext_module,
    evaluation_map, homothety_map, canonical_module,
    homology_presentation, trusted_homology, first_homology,
    extreme_homology,
)

from chain_checks import entry
from slice_homology import monomials_of_degree

F = PrimeField(7)
P1 = PolyRing(F, ["x"])
P2 = PolyRing(F, ["x", "y"])
P3 = PolyRing(F, ["a", "b", "c"], weights=[3, 4, 5])

DN = QuotientRing(P1, ["x^2"])                       # dual numbers
NG = QuotientRing(P2, ["x^2", "x*y", "y^2"])         # non-Gorenstein artinian
CI = QuotientRing(P2, ["x^2", "y^2"])                # complete intersection
HY = QuotientRing(P2, ["x*y"])                       # Gorenstein hypersurface
S2 = QuotientRing(P2, [])                            # polynomial ring
SG = QuotientRing(P3, ["b^2 - a*c", "b*c - a^3", "c^2 - a^2*b"])  # k[t^3,t^4,t^5]


def kdim(m):
    return m.hilbert_series().k_dimension()


def graded_piece_dim(m, d):
    """dim_k of the degree-d piece of m, by counting standard monomials."""
    P = m.ring.ambient
    count = 0
    gb = modules._module_gb(m)
    for a, leads in enumerate(modules._component_leads(m, gb)):
        dd = d - m.gens.twists[a]
        if dd >= 0:
            count += sum(1 for e in monomials_of_degree(P, dd)
                         if not any(P.mono_divides(g, e) for g in leads))
    return count


def element_is_zero(m, column):
    """Whether a column in m's generator free lies in its relations."""
    return lift_matrix(m.relations, column) is not None


def betti(res, i):
    """beta_i read off a resolution; the top degree of an unfinished
    resolution is a construction artifact and raises."""
    if not (res.complete or i < res.term_range()[1]):
        raise UncertifiedDegreeError(f"Betti number {i} not certified")
    return res.term(i).rank


def compose(f, g):
    """The module map f after g, its matrix in normal form."""
    return ModuleMap(g.source, f.target,
                     f.source.ring.reduce_matrix(f.matrix.compose(g.matrix)))


# -- presentations and minimality -------------------------------------------

def test_minimal_presentation_contracts_units():
    # coker of the column (x, 1): the unit row folds away, leaving R
    rel = GradedMatrix(S2, GradedFree.of([1]), GradedFree.of([0, 1]),
                       {(0, 0): S2.from_string("x"), (1, 0): S2.one()})
    m = minimal_presentation(ModulePresentation(S2, rel))
    assert m.gens.rank == 1
    assert m.relations.source.rank == 0
    assert m.minimal


def test_residue_field_presentation():
    k = minimal_presentation(ModulePresentation.residue_field(NG))
    assert k.gens.rank == 1
    assert k.relations.source.rank == 2
    assert k.hilbert_series().k_dimension() == 1


def test_free_module_hilbert_data():
    r = ModulePresentation.free(NG, [0])
    assert r.hilbert_series().k_dimension() == 3
    assert [graded_piece_dim(r, d) for d in (0, 1, 2)] == [1, 2, 0]


def test_kdim_rejects_positive_dimension():
    r = ModulePresentation.free(S2, [0])
    with pytest.raises(NotArtinianError):
        r.hilbert_series().k_dimension()


def test_element_membership():
    m = ModulePresentation.cyclic(DN, ["x"])
    x_col = GradedMatrix(DN, GradedFree.of([1]), m.gens,
                         {(0, 0): DN.from_string("x")})
    one_col = GradedMatrix(DN, GradedFree.of([0]), m.gens,
                           {(0, 0): DN.one()})
    assert element_is_zero(m, x_col)
    assert not element_is_zero(m, one_col)


# -- resolutions and Betti numbers ------------------------------------------

def test_betti_dual_numbers():
    k = ModulePresentation.residue_field(DN)
    res = resolution(k, 5)
    assert [betti(res, i) for i in range(5)] == [1, 1, 1, 1, 1]
    assert not res.complete


def test_betti_doubling_non_gorenstein():
    k = ModulePresentation.residue_field(NG)
    res = resolution(k, 6)
    assert [betti(res, i) for i in range(6)] == [1, 2, 4, 8, 16, 32]


def test_betti_hypersurface_stabilizes():
    k = ModulePresentation.residue_field(HY)
    res = resolution(k, 6)
    assert [betti(res, i) for i in range(6)] == [1, 2, 2, 2, 2, 2]


def test_graded_betti_koszul():
    k = ModulePresentation.residue_field(S2)
    res = resolution(k, 5)
    assert res.complete
    graded = {}
    lo, hi = res.term_range()
    for i in range(lo, hi + 1):
        for tw in res.term(i).twists:
            graded[(i, tw)] = graded.get((i, tw), 0) + 1
    assert graded == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert betti(res, 7) == 0


def test_uncertified_top_rank_raises():
    k = ModulePresentation.residue_field(DN)
    res = resolution(k, 3)
    with pytest.raises(UncertifiedDegreeError):
        betti(res, 3)


def test_resolution_cache_extends():
    k = ModulePresentation.residue_field(NG)
    a = resolution(k, 2)
    b = resolution(k, 4)
    assert [betti(a, i) for i in range(2)] == [betti(b, i) for i in range(2)]


def test_free_module_resolution_is_complete_at_every_length():
    r = ModulePresentation.free(NG, [0, 1])
    for length in (1, 2, 3):
        res = resolution(r, length)
        assert res.complete and betti(res, 0) == 2 and betti(res, 1) == 0
    with pytest.raises(ValueError, match="at least 1"):
        resolution(r, 0)


def test_resolution_window():
    k = ModulePresentation.residue_field(DN)
    X = resolution(k, 4)
    assert all(X.window.contains(d) for d in range(-5, 4))
    assert not X.window.contains(4)
    assert X.term(2).twists == (2,)


def test_betti_twist_insensitive():
    k = ModulePresentation.residue_field(NG)
    a = resolution(k, 4)
    b = resolution(k.shifted(3), 4)
    assert [betti(a, i) for i in range(4)] == [betti(b, i) for i in range(4)]


# -- syzygies ---------------------------------------------------------------

def test_syzygy_zero_is_the_module():
    m = ModulePresentation.cyclic(CI, ["x"])
    s = syzygy(m, 0)
    assert s.gens.rank == 1 and kdim(s) == kdim(m)


def test_syzygy_koszul():
    k = ModulePresentation.residue_field(S2)
    assert syzygy(k, 1).gens.rank == 2       # the maximal ideal
    assert syzygy(k, 2).gens.rank == 1       # top Koszul term, free
    assert syzygy(k, 2).relations.source.rank == 0
    assert syzygy(k, 3).gens.rank == 0       # resolution has ended


def test_syzygy_periodic_dual_numbers():
    k = ModulePresentation.residue_field(DN)
    for i in (1, 2, 3):
        s = syzygy(k, i)
        assert s.gens.rank == 1 and kdim(s) == 1


# -- Hom --------------------------------------------------------------------

def test_hom_k_into_ring_is_socle():
    # over k[x]/(x^2) the only maps k -> R land in the socle (x)
    k = ModulePresentation.residue_field(DN)
    h = hom_modules(k, ModulePresentation.free(DN, [0]))
    assert minimal_presentation(h).gens.rank == 1
    assert kdim(h) == 1


def test_hom_cyclic_into_free_complete_intersection():
    # Hom(R/(x), R) = (0 : x) = (x) which is again R/(x) over k[x,y]/(x^2,y^2)
    m = ModulePresentation.cyclic(CI, ["x"])
    h = hom_modules(m, ModulePresentation.free(CI, [0]))
    assert minimal_presentation(h).gens.rank == 1
    assert kdim(h) == kdim(m) == 2


def test_hom_from_ring_identity_witness():
    w = canonical_module(NG)
    d = hom_modules(ModulePresentation.free(NG, [0]), w)
    wit = ModuleMap(w, d, d.express(GradedMatrix.identity(NG, w.gens)))
    wit.validate()
    assert wit.is_isomorphism()
    assert_criteria_agree(wit)


def generator_as_map(h, j):
    """Generator j of the Hom presentation h, unflattened from its
    pairing column to the matrix of a module map M -> N."""
    g0 = h.target_module.gens.rank
    entries = {}
    for a in range(h.source_module.gens.rank):
        for b in range(g0):
            p = entry(h.pairing, a * g0 + b, j)
            if not p.is_zero():
                entries[(b, a)] = p
    tw = h.gens.twists[j]
    mat = GradedMatrix(h.ring, h.source_module.gens.shifted(tw),
                       h.target_module.gens, entries)
    return ModuleMap(h.source_module.shifted(tw), h.target_module, mat)


def test_hom_generators_are_maps():
    k = ModulePresentation.residue_field(NG)
    h = hom_modules(k, ModulePresentation.free(NG, [0]))
    assert h.gens.rank == 2
    for j in range(h.gens.rank):
        generator_as_map(h, j).validate()


# -- tensor -----------------------------------------------------------------

def test_tensor_from_ring_identity_witness():
    w = canonical_module(NG)
    t = tensor_modules(ModulePresentation.free(NG, [0]), w)
    wit = ModuleMap(w, t, GradedMatrix.identity(NG, w.gens))
    wit.validate()
    assert wit.is_isomorphism()
    assert_criteria_agree(wit)


def test_tensor_residue_fields():
    k = ModulePresentation.residue_field(DN)
    assert kdim(tensor_modules(k, k)) == 1


def test_tensor_canonical_with_k_counts_generators():
    w = canonical_module(SG)
    k = ModulePresentation.residue_field(SG)
    assert kdim(tensor_modules(w, k)) == 2


# -- Ext --------------------------------------------------------------------

def test_ext_zero_matches_hom():
    k = ModulePresentation.residue_field(NG)
    w = canonical_module(NG)
    e0 = ext_module(k, w, 0)
    h0 = hom_modules(k, w)
    assert e0.hilbert_series().numer == h0.hilbert_series().numer


def test_ext_k_k_dual_numbers():
    k = ModulePresentation.residue_field(DN)
    for i in range(5):
        assert kdim(ext_module(k, k, i)) == 1


def test_ext_totally_reflexive_vanishing():
    # R/(x) over k[x,y]/(x^2,y^2) has a periodic complete resolution, so
    # all positive Ext against R vanish
    m = ModulePresentation.cyclic(CI, ["x"])
    r = ModulePresentation.free(CI, [0])
    for i in (1, 2, 3, 4):
        assert ext_module(m, r, i).is_zero_module()


def test_ext_beyond_finite_resolution_is_zero():
    k = ModulePresentation.residue_field(S2)
    assert ext_module(k, k, 3).is_zero_module()


def test_ext_socle_dimension_reads_type():
    # dim Hom(k, R) = socle dimension: 1 for the Gorenstein fixture,
    # 2 for the non-Gorenstein one
    kd = ModulePresentation.residue_field(DN)
    assert kdim(ext_module(kd, ModulePresentation.free(DN, [0]), 0)) == 1
    kn = ModulePresentation.residue_field(NG)
    assert kdim(ext_module(kn, ModulePresentation.free(NG, [0]), 0)) == 2


# -- module maps ------------------------------------------------------------
# ModuleMap.is_isomorphism reads injectivity of a surjection off equal
# Hilbert series.  The route it replaced is kept here as the reference:
# generators of the kernel on the source generators, then a lift of them
# against the source relations.


def kernel_generators(f: ModuleMap) -> GradedMatrix:
    """Generators of the v in f's source generator free with f(v) in the
    target's relations."""
    return kernel_matrix(f.matrix, [f.target.relations])


def is_injective(f: ModuleMap) -> bool:
    kappa = kernel_generators(f)
    if kappa.source.rank == 0:
        return True
    return lift_matrix(f.source.relations, kappa) is not None


def assert_criteria_agree(f: ModuleMap):
    assert f.is_isomorphism() == (f.is_surjective() and is_injective(f))


def kernel_presentation(f: ModuleMap) -> ModulePresentation:
    """ker f as a presentation: its generators modulo the source's relations."""
    rels = kernel_matrix(kernel_generators(f), [f.source.relations])
    return ModulePresentation(f.source.ring, rels)


def test_map_kernel_cokernel():
    r = ModulePresentation.free(DN, [0])
    x = ModuleMap(r.shifted(1), r,
                  GradedMatrix(DN, GradedFree.of([1]), GradedFree.of([0]),
                               {(0, 0): DN.from_string("x")}))
    x.validate()
    assert not is_injective(x) and not x.is_surjective()
    assert kdim(kernel_presentation(x)) == 1
    coker = ModulePresentation(DN, hstack(DN, [x.matrix, r.relations]))
    assert kdim(coker) == 1


def test_kernel_of_map_into_zero_module_is_identity(monkeypatch):
    r = ModulePresentation.free(DN, [0, 1])
    zero = ModulePresentation.free(DN, [])
    f = ModuleMap(r, zero, GradedMatrix.zero(DN, r.gens, zero.gens))
    calls = []
    monkeypatch.setattr(groebner, "syzygy_generators", calls.append)
    kappa = kernel_generators(f)
    assert calls == []    # answered by the early exit, with no syzygies
    assert kappa.source == kappa.target == r.gens
    assert kappa.entries == GradedMatrix.identity(DN, r.gens).entries
    assert not is_injective(f)


def test_map_must_respect_relations():
    k = ModulePresentation.residue_field(DN)
    r = ModulePresentation.free(DN, [0])
    bad = ModuleMap(k, r, GradedMatrix.identity(DN, k.gens))
    with pytest.raises(ValueError):
        bad.validate()


def test_map_composition():
    r = ModulePresentation.free(DN, [0])
    x = ModuleMap(r.shifted(1), r,
                  GradedMatrix(DN, GradedFree.of([1]), GradedFree.of([0]),
                               {(0, 0): DN.from_string("x")}))
    sq = compose(x, ModuleMap(r.shifted(2), r.shifted(1),
                             GradedMatrix(DN, GradedFree.of([2]),
                                          GradedFree.of([1]),
                                          {(0, 0): DN.from_string("x")})))
    # x^2 = 0 in the dual numbers, so the composite is the zero map
    assert sq.matrix.is_zero()
    assert kdim(kernel_presentation(sq)) == 2


# -- evaluation and homothety -----------------------------------------------

def test_evaluation_iso_over_gorenstein_artinian():
    k = ModulePresentation.residue_field(DN)
    ev = evaluation_map(k, ModulePresentation.free(DN, [0]))
    assert ev.is_isomorphism()
    assert_criteria_agree(ev)


def test_evaluation_fails_over_non_gorenstein():
    k = ModulePresentation.residue_field(NG)
    ev = evaluation_map(k, ModulePresentation.free(NG, [0]))
    assert not ev.is_isomorphism()
    assert_criteria_agree(ev)


def test_evaluation_iso_for_free_modules():
    fr = ModulePresentation.free(NG, [0, 2])
    ev = evaluation_map(fr, ModulePresentation.free(NG, [0]))
    assert ev.is_isomorphism()
    assert_criteria_agree(ev)


def test_homothety_iso_for_ring():
    h = homothety_map(ModulePresentation.free(DN, [0]))
    assert h.is_isomorphism()
    assert_criteria_agree(h)


def test_homothety_iso_for_canonical_module():
    h = homothety_map(canonical_module(SG))
    assert h.is_isomorphism()
    assert_criteria_agree(h)


def test_homothety_fails_for_residue_field():
    # R -> Hom(k, k) = k is onto with kernel m: only injectivity fails
    h = homothety_map(ModulePresentation.residue_field(DN))
    assert h.is_surjective() and not h.is_isomorphism()
    assert_criteria_agree(h)


def test_isomorphism_criteria_agree_on_golden_case_maps():
    # every homothety and evaluation map the verifier golden cases build,
    # each built afresh: the case rings get empty memos for the run
    import test_verifier_reports as golden
    built = []

    def recording(make):
        def wrapped(*args):
            built.append(make(*args))
            return built[-1]
        return wrapped

    with contextlib.ExitStack() as stack:
        for q in vars(golden).values():
            if isinstance(q, QuotientRing):
                stack.enter_context(mock.patch.object(q, "memo", {}))
        for name in ("homothety_map", "evaluation_map"):
            stack.enter_context(mock.patch.object(
                sd, name, recording(getattr(sd, name))))
        for name in golden.CASES:
            golden.outcome(name)
    for f in built:
        assert_criteria_agree(f)
    isos = [f.is_isomorphism() for f in built]
    assert any(isos) and not all(isos)


# -- canonical modules ------------------------------------------------------

def test_canonical_of_regular_ring_is_free():
    w = canonical_module(S2)
    assert w.gens.rank == 1 and w.relations.source.rank == 0


def test_canonical_of_hypersurface_is_free():
    w = canonical_module(HY)
    assert w.gens.rank == 1 and w.relations.source.rank == 0
    assert w.gens.twists == (0,)


def test_canonical_of_artinian_is_graded_dual():
    # omega = graded dual of R: total dimension 3, generated by the dual
    # socle basis (2 elements), with 1-dimensional socle
    w = canonical_module(NG)
    assert w.gens.rank == 2
    assert w.hilbert_series().k_dimension() == 3
    assert [graded_piece_dim(w, d) for d in (0, 1)] == [2, 1]
    k = ModulePresentation.residue_field(NG)
    assert kdim(hom_modules(k, w)) == 1


def test_canonical_of_semigroup_ring():
    w = canonical_module(SG)
    assert w.gens.rank == 2
    assert min(w.gens.twists) == 0


def test_canonical_rejects_non_cm():
    bad = QuotientRing(P2, ["x^2", "x*y"])  # depth 0, dimension 1
    with pytest.raises(NotCohenMacaulayError):
        canonical_module(bad)


# -- homology of complexes as presentations ---------------------------------

def test_homology_presentation_of_resolution():
    k = ModulePresentation.residue_field(DN)
    X = resolution(k, 4)
    assert kdim(homology_presentation(X, 0)) == 1
    for i in (1, 2):
        assert homology_presentation(X, i).is_zero_module()


def test_trusted_homology_matches_brute_loop():
    k = ModulePresentation.residue_field(DN)
    Kc = resolution(k, 3)
    X = direct_sum(Kc, shift_complex(Kc, 2))
    assert len(X.window.parts) > 1    # the window has a gap
    lo, hi = X.term_range()
    brute = [(t, kdim(homology_presentation(X, t)))
             for t in range(lo, hi + 1) if X.window.contains(t)
             and not homology_presentation(X, t).is_zero_module()]
    assert brute == [(0, 1), (2, 1)]
    assert [(t, kdim(homology_presentation(X, t)))
            for t in trusted_homology(X)] == brute
    # the walks read the same homology but stop at the untrusted degree 3
    assert extreme_homology(X, 1) == (0, True)
    assert extreme_homology(X, -1) == (None, False)
    assert first_homology(X, 2, hi + 1, 1) == (2, True)
    assert first_homology(X, 1, -1, -1) == (0, True)


# -- the ring memo ----------------------------------------------------------
# Each test builds its own ring, so no entry is left over from another test.


def test_memo_shares_equal_presentations(monkeypatch):
    ring = QuotientRing(P2, ["x^2", "x*y", "y^2"])
    first = ext_module(ModulePresentation.cyclic(ring, ["x"]),
                       ModulePresentation.free(ring, [0]), 1)
    calls = []
    real = modules.kernel_matrix

    def counting(m, mod=()):
        calls.append(m)
        return real(m, mod)

    monkeypatch.setattr(modules, "kernel_matrix", counting)
    again = ext_module(ModulePresentation.cyclic(ring, ["x"]),
                       ModulePresentation.free(ring, [0]), 1)
    assert again is first
    assert calls == []
    ext_module(ModulePresentation.cyclic(ring, ["x"]),
               ModulePresentation.free(ring, [0]), 2)
    assert calls    # a new index does reach kernel_matrix


def test_memo_shares_resolutions(monkeypatch):
    ring = QuotientRing(P2, ["x^2", "x*y", "y^2"])
    first = resolution(ModulePresentation.cyclic(ring, ["x"]), 3)
    calls = []
    real = modules.kernel_matrix

    def counting(m, mod=()):
        calls.append(m)
        return real(m, mod)

    monkeypatch.setattr(modules, "kernel_matrix", counting)
    again = resolution(ModulePresentation.cyclic(ring, ["x"]), 3)
    assert calls == []
    assert [betti(again, i) for i in range(3)] == \
        [betti(first, i) for i in range(3)]
    resolution(ModulePresentation.cyclic(ring, ["x"]), 4)
    assert len(calls) == 1  # one more length, one more kernel


def test_memo_shares_homology():
    ring = QuotientRing(P1, ["x^2"])

    def multiplication_by_x():
        x = GradedMatrix(ring, GradedFree.of([1]), GradedFree.of([0]),
                         {(0, 0): ring.from_string("x")})
        return FreeComplex(ring, {1: x.source, 0: x.target}, {1: x})

    first, again = multiplication_by_x(), multiplication_by_x()
    for t in (0, 1):
        assert homology_presentation(again, t) is \
            homology_presentation(first, t)
    # the key is the stretch X_1 -> X_0 -> X_-1, not the whole complex
    longer = FreeComplex(ring, {**first.terms, 5: GradedFree.of([0])},
                         first.diffs)
    assert homology_presentation(longer, 0) is \
        homology_presentation(first, 0)


def test_memo_keyword_and_positional_calls_agree():
    ring = QuotientRing(P1, ["x^2"])
    k = ModulePresentation.residue_field(ring)
    assert ext_module(k, n=k, i=2) is ext_module(k, k, 2)


def test_memo_stores_no_failed_call():
    ring = QuotientRing(P1, ["x^2"])
    k = ModulePresentation.residue_field(ring)
    for _ in range(2):
        with pytest.raises(ValueError):
            ext_module(k, k, -1)
    assert ring.memo == {}
    # k over k[x]/(x^3) keys like k here, yet must not hit this entry
    ext_module(k, k, 1)
    other = ModulePresentation.residue_field(QuotientRing(P1, ["x^3"]))
    for _ in range(2):
        with pytest.raises(ValueError, match="different rings"):
            ext_module(k, other, 1)


def test_memo_is_per_ring():
    r1, r2 = QuotientRing(P1, ["x^2"]), QuotientRing(P1, ["x^2"])
    e1 = ext_module(ModulePresentation.residue_field(r1),
                    ModulePresentation.free(r1, [0]), 0)
    e2 = ext_module(ModulePresentation.residue_field(r2),
                    ModulePresentation.free(r2, [0]), 0)
    assert e1 is not e2
    assert e1.ring is r1 and e2.ring is r2
    for memo in (r1.memo, r2.memo):
        assert [key[0] for key in memo].count("ext_module") == 1


def test_memo_dies_with_its_problem():
    from homcalc.cli import build_problem, run_tasks
    doc = {"field": {"prime": 7},
           "ring": {"variables": ["x"], "relations": ["x^2"]},
           "tasks": [{"op": "ext", "args": ["k", "k"], "bound": 2},
                     {"op": "semidualizing", "args": ["R"], "bound": 2}]}
    problem = build_problem(doc)
    run_tasks(problem)
    ref = weakref.ref(problem.qr)
    del problem
    gc.collect()
    assert ref() is None
