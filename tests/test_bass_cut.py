"""Bass numbers by a ring cut (Rees's lemma) against the Ext route.

invariants._mu reads mu^i(m, M) over R/xR, one variable fewer, while a
linear form x is regular on R and M, and where the cuts end in a module
of finite length, as Betti numbers of its Matlis dual (see
test_matlis.py).  The reference reads it from a presentation of
Ext^i(k, M) over R itself (ext_reference.presentation_mu), a route
independent of _mu's, which for the modules no cut or dual reaches sums
the Hilbert series of Ext^i(k, M).  The routes must agree on every
module of the corpus over F_7 and over Q, on the finite-length modules
the cuts end in, and on the benchmark's ring templates in random
coordinates.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homcalc.cli import build_problem
from homcalc.corpus import corpus_problems
from homcalc.field import PrimeField
from homcalc.groebner import QuotientRing
from homcalc.invariants import _mu, _module_cut, _ring_cut, bass_table
from homcalc.modules import ModulePresentation, canonical_module
from homcalc.ring import PolyRing

from ext_reference import presentation_mu

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

F = PrimeField(7)
P2 = PolyRing(F, ["x", "y"])

CORPUS = {doc["name"]: doc for doc in corpus_problems()}

# (ring, module) pairs of the corpus that a cut applies to; no other
# module of the corpus (k, finite-length modules, anything over an
# artinian ring or over non-cm-line) is cut
CUT = {("regular-line", "R"), ("regular-plane", "R"), ("regular-plane", "M"),
       ("regular-plane", "S"), ("hypersurface-xy", "R"),
       ("hypersurface-xy", "M"), ("hypersurface-xy", "F2"),
       ("semigroup-345", "R"), ("semigroup-345", "omega"),
       ("det-curve", "R"), ("rational-node", "R"), ("rational-node", "M")}

# the corpus modules whose Bass numbers come from the series of Ext: R over
# k[x, y]/(x^2, xy) has dimension 1 and no regular linear form, and the
# maximal ideal S of k[x, y] cuts once, to m/xm over k[y], which has
# dimension 1 and depth 0; every other module has finite length, or its
# cuts end in one
EXT_ONLY = {("non-cm-line", "R"), ("regular-plane", "S")}


def _routes(m, top):
    return [_mu(m, i) for i in range(top + 1)], \
        [presentation_mu(m, i) for i in range(top + 1)]


@pytest.mark.parametrize("field", [{"prime": 7}, "rational"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cut_and_ext_routes_agree_on_corpus(name, field):
    doc = CORPUS[name]
    p = build_problem(doc, field_override=field)
    bound = next(t["bound"] for t in doc["tasks"] if t["op"] == "bass")
    # twice the corpus bound over F_7; the Ext route over Q costs
    # several times more, so Q stays at the corpus bound
    top = 2 * bound if field != "rational" else bound
    cut, ext_only = set(), set()
    for mod, m in p.modules.items():
        via_mu, via_ext = _routes(m, top)
        assert via_mu == via_ext, (mod, via_mu, via_ext)
        end, cuts = m, 0
        while (c := _module_cut(end)) is not None:
            end, cuts = c, cuts + 1
        if cuts:
            cut.add((name, mod))
        if end.hilbert_series().dimension() > 0:
            ext_only.add((name, mod))
        elif cuts:
            # the finite-length module M/xM the cuts end in, both routes
            via_dual, via_ext = _routes(end, top - cuts)
            assert via_dual == via_ext, (mod, cuts, via_dual, via_ext)
    assert cut == {c for c in CUT if c[0] == name}
    assert ext_only == {e for e in EXT_ONLY if e[0] == name}


def test_hypersurface_xy_cuts_by_x_plus_y_only():
    HY = QuotientRing(P2, ["x*y"])
    assert _ring_cut(HY, 0, None) is None       # x is a zero divisor
    assert _ring_cut(HY, 1, None) is None       # so is y
    cut = _ring_cut(HY, 0, 1)                   # x + y is regular
    assert cut.ambient.names == ("y",)
    assert cut.hilbert_series().numer == {0: 1, 2: -1}


def test_non_cm_line_has_no_cut():
    NC = QuotientRing(P2, ["x^2", "x*y"])
    assert all(_ring_cut(NC, j, l) is None
               for j, l in ((0, None), (1, None), (0, 1)))
    assert _module_cut(ModulePresentation.free(NC, [0])) is None


def test_cut_relations_are_normal_forms():
    # over k[x,y,z]/(xy - z^2), whose lead is xy, the relation y^2 + z^2 is
    # a normal form; x cuts R to k[y,z]/(z^2), where it is not, and the cut
    # presents M/xM by y^2, as ModulePresentation's normal-form rule asks
    P3 = PolyRing(F, ["x", "y", "z"])
    m = ModulePresentation.cyclic(QuotientRing(P3, ["x*y - z^2"]),
                                  ["y^2 + z^2"])
    cut = _module_cut(m)
    assert cut.ring.ambient.names == ("y", "z")
    assert cut.relations == cut.ring.reduce_matrix(cut.relations)
    assert [repr(p) for p in cut.relations.entries.values()] == ["y^2"]


@pytest.mark.parametrize("rels", [["x^2", "y^2"], ["x^2", "x*y", "y^2"],
                                  ["x^3", "y^2"]])
def test_artinian_rings_are_never_cut(rels):
    A = QuotientRing(P2, rels)
    assert _module_cut(ModulePresentation.free(A, [0])) is None
    assert _module_cut(canonical_module(A)) is None


def test_det_curve_bass_at_bound_eight():
    p = build_problem(CORPUS["det-curve"])
    t = bass_table(p.modules["R"], 8)
    assert t.values == {1: 2, 2: 3, 3: 6, 4: 12, 5: 24, 6: 48, 7: 96,
                        8: 192}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(workloads.TEMPLATES), st.integers(-3, 3),
       st.integers(-3, 3))
def test_cut_and_ext_routes_agree_on_templates(template, a, c):
    # u = x + a*y, v = c*x + y; a or c = 0 keeps a variable a factor of
    # some relations, where only x + y may cut
    assume(a * c != 1)
    u, v = {(1, 0): 1, (0, 1): a}, {(1, 0): c, (0, 1): 1}
    p = build_problem(workloads.template_doc(template, u, v))
    R = p.modules["R"]
    # of x, y and x + y at most two lie on the zero-divisor lines of
    # these curves, so a ring of positive depth is always cut
    positive_depth = p.qr.krull_dim() > 0 and presentation_mu(R, 0) == 0
    assert (_module_cut(R) is not None) == positive_depth
    if positive_depth:
        for m in (R, canonical_module(p.qr)):
            via_cut, via_ext = _routes(m, 2 * template[5])
            assert via_cut == via_ext, (m, via_cut, via_ext)
