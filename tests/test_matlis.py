"""Bass numbers of finite-length modules by graded Matlis duality.

For M of finite length, Ext^i_R(k, M) = Tor_i^R(k, M^v)^v (Bruns &
Herzog, Cohen-Macaulay Rings, Sec. 3.6), so invariants._mu reads mu^i(M)
as the Betti number beta_i of modules.matlis_dual(M).  Here that route is
compared with the dense oracle on its artinian rings and with a
presentation of Ext^i(k, M) (ext_reference.presentation_mu) on a
weighted ring, and the dual itself is checked on its Hilbert series.
test_bass_cut.py compares it with that reference on every finite-length
module the corpus reaches, directly or after Rees cuts.
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
from homcalc.invariants import _module_cut, residue_field
from homcalc.modules import (ModulePresentation, canonical_module,
                             matlis_dual, resolution, syzygy)
from homcalc.oracle import from_presentation, oracle_bass, realize
from homcalc.ring import PolyRing

from ext_reference import presentation_mu

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

F = PrimeField(7)
P1 = PolyRing(F, ["x"])
P2 = PolyRing(F, ["x", "y"])
PW = PolyRing(F, ["a", "b"], weights=[2, 3])

CORPUS = {doc["name"]: doc for doc in corpus_problems()}


def _matlis_mu(m, top):
    """mu^0..mu^top of a finite-length module as Betti numbers of M^v."""
    return [resolution(matlis_dual(m), i + 1).term(i).rank
            for i in range(top + 1)]


def _finite_length(m):
    return m.hilbert_series().dimension() <= 0


# -- against the oracle ------------------------------------------------------

ORACLE_RINGS = {
    "dual-numbers": QuotientRing(P1, ["x^2"]),
    "cusp-point": QuotientRing(P1, ["x^3"]),
    "ci-point": QuotientRing(P2, ["x^2", "y^2"]),
    "fat-point": QuotientRing(P2, ["x^2", "x*y", "y^2"]),
    "weighted-ci": QuotientRing(PW, ["a^2", "b^2"]),
}


def _oracle_modules(qr):
    x = qr.variable(0)
    return {"k": residue_field(qr),
            "R": ModulePresentation.free(qr, [0]),
            "R(-1)+R(2)": ModulePresentation.free(qr, [1, -2]),
            "R/(x)": ModulePresentation.cyclic(qr, [x]),
            "omega": canonical_module(qr),
            "m": syzygy(residue_field(qr), 1),
            "zero": ModulePresentation.cyclic(qr, [qr.one()])}


@pytest.mark.parametrize("ring", sorted(ORACLE_RINGS))
def test_matlis_route_matches_oracle(ring):
    qr = ORACLE_RINGS[ring]
    alg = realize(qr)
    for name, m in _oracle_modules(qr).items():
        assert _matlis_mu(m, 5) == oracle_bass(from_presentation(alg, m), 5), \
            name


# -- the dual on its Hilbert series -----------------------------------------


def _dims(m):
    """{d: dim_k M_d} of a finite-length module.  Its Hilbert numerator is
    the Laurent polynomial times prod(1 - t^w), so the numerator's span
    holds the support."""
    hs = m.hilbert_series()
    if not hs.numer:
        return {}
    lo, hi = min(hs.numer), max(hs.numer)
    return {d: c for d, c in zip(range(lo, hi + 1), hs.coeffs(lo, hi)) if c}


def _check_dual(m):
    dual = matlis_dual(m)
    assert _dims(dual) == {-d: c for d, c in _dims(m).items()}
    assert matlis_dual(dual).hilbert_series().numer == \
        m.hilbert_series().numer
    assert dual.minimal


def _truncation(qr, gens):
    """R/(gens, m^3) over k[x, y]/I: finite length whatever gens are."""
    cubes = [qr.ambient.monomial((i, 3 - i)) for i in range(4)]
    return ModulePresentation.cyclic(qr, gens + cubes)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(workloads.TEMPLATES), st.integers(-3, 3),
       st.integers(-3, 3))
def test_dual_hilbert_series_on_templates(template, a, c):
    assume(a * c != 1)
    u, v = {(1, 0): 1, (0, 1): a}, {(1, 0): c, (0, 1): 1}
    p = build_problem(workloads.template_doc(template, u, v))
    qr = p.qr
    M = p.modules["M"]
    mods = [residue_field(qr), _truncation(qr, []),
            _truncation(qr, [M.relations.entries[(0, 0)]]), M.shifted(2)]
    for m in mods:
        if _finite_length(m):
            _check_dual(m)
    zero = matlis_dual(ModulePresentation.cyclic(qr, [qr.one()]))
    assert zero.gens.rank == 0 and not zero.hilbert_series().numer


def test_dual_weighted():
    # k[t^3, t^4, t^5] with weights 3, 4, 5: finite-length quotients by a
    # nonzerodivisor and by part of the maximal ideal, and the cut module.
    # On R/(b^2) the dual with the signs of its relations flipped has
    # another Hilbert series and other Betti numbers
    p = build_problem(CORPUS["semigroup-345"])
    qr = p.qr
    a, b = qr.variable(0), qr.variable(1)
    for m in (residue_field(qr), ModulePresentation.cyclic(qr, [a]),
              ModulePresentation.cyclic(qr, [b]).shifted(-1),
              ModulePresentation.cyclic(qr, [b * b]),
              _module_cut(p.modules["omega"])):
        assert _finite_length(m)
        _check_dual(m)
        assert _matlis_mu(m, 3) == [presentation_mu(m, i) for i in range(4)]


def test_dual_of_residue_field_and_of_the_dual_numbers():
    DN = ORACLE_RINGS["dual-numbers"]
    k = matlis_dual(residue_field(DN))
    assert (k.gens.twists, _dims(k)) == ((0,), {0: 1})
    # R = k[x]/(x^2) is self-dual up to the shift by its socle degree
    dual = matlis_dual(ModulePresentation.free(DN, [0]))
    assert dual.gens.twists == (-1,)
    assert _dims(dual) == {-1: 1, 0: 1}
