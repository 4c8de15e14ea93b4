"""Sizes and vanishing of Ext and homology read off Hilbert series.

modules.middle_series reads HS(H) of the homology at B of A -> B -> C as
HS(coker(A -> B)) + HS(coker(B -> C)) - HS(C), with no kernel; ext_series
and homology_series apply it along a resolution and along a free complex.
Here both are compared with the series of the presentations that
ext_module and homology_presentation build, and first_ext with a scan
that builds each Ext (ext_reference.presentation_first_ext): on every
module pair of the corpus, and on the benchmark's ring templates in
random coordinates, with their module-as-complex, shifted-sum and cone
complexes.  The seeded Groebner basis of each cokernel (_coker_gb) is
compared with the unseeded one, and each cokernel is built once along a
scan or walk.  The invariants the series readers rely on are checked too:
a finite-length Ext^i(k, M) is summed, a pole at t = 1 there is an
internal fault, and a positive-dimensional Ext or Tor is refused.  The
numerator of an artinian monomial ideal is checked against a count of
its standard monomials.
"""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homcalc import invariants, modules
from homcalc.cli import build_problem, main, run_tasks
from homcalc.corpus import corpus_problems
from homcalc.field import PrimeField
from homcalc.groebner import (HilbertSeries, NotArtinianError,
                              hilbert_numerator, minimalize_monomials,
                              standard_monomials)
from homcalc.invariants import _ext_mu, ext_dims, residue_field, tor_dims
from homcalc.modules import (ModulePresentation, _coker_gb, _ext_resolution,
                             _hom_coker, ext_module, ext_series, first_ext,
                             homology_presentation, homology_series,
                             trusted_homology)
from homcalc.ring import PolyRing

from ext_reference import presentation_first_ext, presentation_mu

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

CORPUS = {doc["name"]: doc for doc in corpus_problems()}
TOP = 3      # Ext indices 0..TOP on the corpus pairs


def _problem(template, a, c):
    assume(a * c != 1)
    u, v = {(1, 0): 1, (0, 1): a}, {(1, 0): c, (0, 1): 1}
    return build_problem(workloads.template_doc(template, u, v))


def _modules(p):
    return dict(p.modules, k=residue_field(p.qr))


# -- Ext ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_ext_series_matches_presentations_on_corpus(name):
    mods = _modules(build_problem(CORPUS[name]))
    for a, m in mods.items():
        for b, n in mods.items():
            for i in range(TOP + 1):
                assert ext_series(m, n, i) == \
                    ext_module(m, n, i).hilbert_series(), (a, b, i)
            assert first_ext(m, n, 0, TOP) == \
                presentation_first_ext(m, n, 0, TOP), (a, b)
            assert first_ext(m, n, 1, TOP) == \
                presentation_first_ext(m, n, 1, TOP), (a, b)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from(workloads.TEMPLATES), st.integers(-3, 3),
       st.integers(-3, 3))
def test_ext_series_matches_presentations_on_templates(template, a, c):
    p = _problem(template, a, c)
    mods = _modules(p)
    for m in mods.values():
        for n in mods.values():
            for i in range(3):
                assert ext_series(m, n, i) == \
                    ext_module(m, n, i).hilbert_series()
            assert first_ext(m, n, 1, 2) == presentation_first_ext(m, n, 1, 2)


# -- the cokernels the series readers build ---------------------------------


def _same_basis(c, n):
    seeded = _coker_gb(c, n)
    plain = _coker_gb(c, ModulePresentation.free(c.ring, [0]))
    return (seeded.leads == plain.leads
            and seeded.elements == plain.elements)


def _hom_cokers(m, n, top):
    """C_i and C_{i+1} for each i in 0..top, along the resolution that
    ext_series reads Ext^i on."""
    for i in range(top + 1):
        res = _ext_resolution(m, n, i)
        if res.term(i).rank:
            yield i, _hom_coker(res.diff(i), n)
            yield i + 1, _hom_coker(res.diff(i + 1), n)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_seeded_hom_coker_basis_equals_unseeded_on_corpus(name):
    mods = _modules(build_problem(CORPUS[name]))
    for a, m in mods.items():
        for b, n in mods.items():
            for j, c in _hom_cokers(m, n, TOP):
                assert _same_basis(c, n), (a, b, j)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from(workloads.TEMPLATES), st.integers(-3, 3),
       st.integers(-3, 3))
def test_seeded_coker_basis_equals_unseeded_on_templates(template, a, c):
    p = _problem(template, a, c)
    mods = _modules(p)
    for m in mods.values():
        for n in mods.values():
            for j, cok in _hom_cokers(m, n, 2):
                assert _same_basis(cok, n), j
    R = ModulePresentation.free(p.qr, [0])
    for name in ("X", "Z", "C"):
        X = p.complexes[name]
        for t, d in X.diffs.items():
            assert _same_basis(ModulePresentation(p.qr, d), R), (name, t)


def _counted_gb_inputs(monkeypatch):
    """The order twists and inputs of every reduced_gb call the module
    layer makes."""
    seen = []

    def counted(inputs, ring, order, **kwargs):
        seen.append((order.twists,
                     repr(sorted(map(sorted, map(dict.items, inputs))))))
        return reduced_gb(inputs, ring, order, **kwargs)
    reduced_gb = modules.reduced_gb
    monkeypatch.setattr(modules, "reduced_gb", counted)
    return seen


def test_ext_scan_builds_each_hom_coker_once(monkeypatch):
    # over F_7[x, y], Ext^i(k, R) is zero below depth R = 2: the scan reads
    # Ext^0..Ext^2 from C_0..C_3, sharing C_1 and C_2
    mods = _modules(build_problem(CORPUS["regular-plane"]))
    k, R = mods["k"], mods["R"]
    R.hilbert_series()      # N's own basis, read once per ring
    seen = _counted_gb_inputs(monkeypatch)
    assert first_ext(k, R, 0, 3) == 2
    assert len(seen) == len(set(seen)) == 4


@pytest.mark.parametrize("template", workloads.TEMPLATES,
                         ids=[t[0] for t in workloads.TEMPLATES])
def test_homology_walk_builds_each_coker_once(monkeypatch, template):
    # Z = X + X[1]: the walk over its trusted degrees t reads coker d_t and
    # coker d_{t+1}, and adjacent degrees share one
    p = build_problem(workloads.template_doc(template))
    Z = p.complexes["Z"]
    seen = _counted_gb_inputs(monkeypatch)
    list(trusted_homology(Z))
    lo, hi = Z.term_range()
    walked = [t for t in range(lo, hi + 1) if Z.window.contains(t)]
    assert len(walked) >= 3
    assert len(seen) == len(set(seen)) == len(walked) + 1


# -- homology of free complexes ---------------------------------------------


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from(workloads.TEMPLATES), st.integers(-3, 3),
       st.integers(-3, 3))
def test_homology_series_matches_presentations_on_templates(template, a, c):
    # X is the module as its resolution, Z = X + X[1], C the cone of f
    p = _problem(template, a, c)
    for name in ("X", "Z", "C"):
        X = p.complexes[name]
        lo, hi = X.term_range()
        for t in range(lo - 1, hi + 2):
            assert homology_series(X, t) == \
                homology_presentation(X, t).hilbert_series(), (name, t)


# -- the invariants the series readers keep ----------------------------------


def _pole(m, n, i):
    """A series with a pole at t = 1, which no Ext^i(k, M) has."""
    return HilbertSeries(m.ring.weights, {0: 1})


def test_ext_mu_sums_the_series():
    # R over F_7[x, y]/(x^2, xy): dimension 1, depth 0 and no cut, so _mu
    # reads its Bass numbers here
    R = build_problem(CORPUS["non-cm-line"]).modules["R"]
    mus = [_ext_mu(R, i) for i in range(6)]
    assert mus == [presentation_mu(R, i) for i in range(6)]
    assert mus == [1, 2, 2, 4, 6, 10]


def test_ext_mu_pole_is_an_internal_fault(monkeypatch, tmp_path, capsys):
    p = build_problem(CORPUS["non-cm-line"])
    monkeypatch.setattr(invariants, "ext_series", _pole)
    with pytest.raises(RuntimeError, match=r"has a pole at t = 1"):
        _ext_mu(p.modules["R"], 0)
    doc = {"field": {"prime": 7},
           "ring": {"variables": ["x", "y"], "weights": [1, 1],
                    "relations": ["x^2", "x*y"]},
           "tasks": [{"op": "bass", "args": ["R"], "bound": 2}]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path), "--format", "json"]) == 3
    (entry,) = json.loads(capsys.readouterr().out)["entries"]
    assert entry["internal"] is True
    assert entry["error"].startswith("RuntimeError: Ext^0(k, M) has a pole")


@pytest.mark.parametrize("op", ["ext", "tor"])
def test_positive_dimension_keeps_its_refusal_text(op):
    # over F_7[x], Ext^0(R, R) = Tor_0(R, R) = R has dimension 1
    doc = {"field": {"prime": 7},
           "ring": {"variables": ["x"], "relations": []},
           "tasks": [{"op": op, "args": ["R", "R"], "bound": 2}]}
    p = build_problem(doc)
    R = ModulePresentation.free(p.qr, [0])
    read = ext_dims if op == "ext" else tor_dims
    with pytest.raises(NotArtinianError) as err:
        read(R, R, 0, 1)
    assert str(err.value) == "module has positive dimension"
    (entry,) = run_tasks(p)["entries"]
    assert entry["error"] == "NotArtinianError: module has positive dimension"


# -- the numerator against a second route ------------------------------------


@st.composite
def artinian_monomial_ideals(draw):
    """A weighted polynomial ring in 1-3 variables of weights 1-3, and
    generators of an artinian monomial ideal: a pure power of every
    variable, plus up to four further monomials."""
    n = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    ring = PolyRing(PrimeField(7), ["x", "y", "z"][:n], weights)
    pure = [tuple(draw(st.integers(1, 4)) if u == v else 0 for u in range(n))
            for v in range(n)]
    more = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=4))
    return ring, pure + more


@settings(max_examples=60, deadline=None, derandomize=True)
@given(artinian_monomial_ideals())
def test_numerator_counts_the_standard_monomials(case):
    """HS(P/I) from hilbert_numerator, expanded by HilbertSeries.coeffs,
    equals the count of standard_monomials in each degree, found by
    enumerating the box the pure powers bound; k_dimension is their
    number (ROADMAP item 5's second route for the numerator)."""
    ring, gens = case
    hs = HilbertSeries(ring.weights, hilbert_numerator(gens, ring))
    std = standard_monomials(minimalize_monomials(gens, ring), ring)
    top = max(map(ring.wdeg, std), default=0)
    counts = [0] * (top + 3)
    for e in std:
        counts[ring.wdeg(e)] += 1
    assert hs.coeffs(0, top + 2) == counts
    assert hs.k_dimension() == len(std)
