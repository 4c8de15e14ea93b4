"""Betti numbers of k from the closed form of its Poincare series.

Over R = S/I, S the polynomial ring on n variables and I inside m^2,
coefficientwise

    (1+t)^n / (1-t^2)^mu(I)  <=  P^R_k(t)  <=  (1+t)^n / (1 - sum_i beta^S_i(R) t^{i+1}),

with equality on the left exactly for complete intersections (Tate) and
on the right exactly for Golod rings (Golod; the right side is Serre's
bound).  invariants.betti_table reads beta_i(k) off the side that
invariants.poincare_certificate names.  Here that route is compared with
the minimal resolution of k on every corpus ring with relations and on
the benchmark's ring templates, with the dense oracle on the artinian
ones, and both bounds are recomputed from a resolution of R over S of
their own.  Rings with no certificate (regular rings, an ideal outside
m^2, a codepth-3 Gorenstein ring) and modules other than k must take the
resolution route.
"""

import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcalc.cli import build_problem
from homcalc.corpus import corpus_problems
from homcalc.field import PrimeField
from homcalc.groebner import QuotientRing
from homcalc.invariants import (CI, GOLOD, _residue_field_ranks, betti_table,
                                poincare_certificate, residue_field)
from homcalc.modules import ModulePresentation, canonical_module, resolution
from homcalc.oracle import oracle_betti, realize, residue_module
from homcalc.ring import GradedFree, PolyRing, kron

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

F = PrimeField(7)
B = 8

DOCS = {doc["name"]: doc for doc in corpus_problems()
        if doc["ring"]["relations"]}
for _seed in (workloads.DEV_SEED, workloads.HELD_OUT_SEED):
    DOCS.update((f"{doc['name']}#{_seed}", doc)
                for doc in workloads.random_complexes(None, _seed))
ARTINIAN_FP = sorted(name for name, doc in DOCS.items()
                     if doc["field"] != "rational"
                     and build_problem(doc).qr.is_artinian())

# k[x,y,z]/(x^2 - y^2, y^2 - z^2, xy, xz, yz): artinian Gorenstein of
# codepth 3, not a complete intersection, hence not Golod
P3 = PolyRing(F, ["x", "y", "z"])
GOR3 = ["x^2 - y^2", "y^2 - z^2", "x*y", "x*z", "y*z"]


def _k(name):
    return build_problem(DOCS[name]).modules["k"]


def _ranks(m, b):
    """beta_0, ..., beta_{b-1} of m off its minimal resolution."""
    res = resolution(m, b)
    return [res.term(i).rank for i in range(b)]


def _table(t, b):
    return [t.value(i) for i in range(b)]


def _over_s(qr):
    """The Betti numbers beta^S_i(R), i >= 1, of R over its ambient ring,
    from a resolution over a ring of this test's own."""
    n = qr.ambient.n
    rs = ModulePresentation.cyclic(QuotientRing(qr.ambient, []),
                                   list(qr.ideal_basis))
    res = resolution(rs, n + 1)
    assert res.complete
    return res, [res.term(i).rank for i in range(1, res.term_range()[1] + 1)]


def _quotient(n, den, b):
    """The first b coefficients of (1+t)^n / den, den a list with den[0]
    = 1."""
    out = []
    for i in range(b):
        out.append(comb(n, i) - sum(den[d] * out[i - d]
                                    for d in range(1, min(i, len(den) - 1) + 1)))
    return out


def _bounds(qr, b):
    """(lower, upper) of the sandwich, to b terms."""
    n = qr.ambient.n
    _, betas = _over_s(qr)
    ci = [1]
    for _ in range(betas[0]):
        ci = [a - (ci[d - 2] if d >= 2 else 0)
              for d, a in enumerate(ci + [0, 0])]
    serre = [1, 0] + [-x for x in betas]
    return _quotient(n, ci, b), _quotient(n, serre, b)


@pytest.mark.parametrize("name", sorted(DOCS))
def test_closed_form_equals_resolution(name):
    k = _k(name)
    assert poincare_certificate(k.ring) is not None
    t = betti_table(k, B)
    assert t.certified == (None, B - 1)
    assert _table(t, B) == _ranks(k, B)


@pytest.mark.parametrize("name", sorted(DOCS))
def test_betti_numbers_lie_between_the_bounds(name):
    k = _k(name)
    qr = k.ring
    got = _table(betti_table(k, B), B)
    lower, upper = _bounds(qr, B)
    assert all(lo <= g <= up for lo, g, up in zip(lower, got, upper))
    kind = poincare_certificate(qr)[0]
    assert got == (lower if kind == CI else upper)
    # the other complete-intersection test: HS(R) prod (1 - t^{w_v}) is
    # prod (1 - t^{d_i}) over the degrees of I's minimal generators
    res, _ = _over_s(qr)
    numer = {0: 1}
    for d in res.term(1).twists:
        prod = dict(numer)
        for e, c in numer.items():
            prod[e + d] = prod.get(e + d, 0) - c
        numer = {e: c for e, c in prod.items() if c}
    assert (kind == CI) == (qr.hilbert_series().numer == numer)


@pytest.mark.parametrize("name", ARTINIAN_FP)
def test_closed_form_matches_oracle(name):
    k = _k(name)
    got = _table(betti_table(k, B), B)
    assert got == oracle_betti(residue_module(realize(k.ring)), B - 1)


def test_artinian_fp_rings_are_covered():
    assert {"dual-numbers", "cusp-point", "ci-point", "fat-point"} \
        <= set(ARTINIAN_FP)
    assert len(ARTINIAN_FP) == 10


def test_shifted_and_redundant_residue_fields_take_the_closed_form():
    qr = build_problem(DOCS["ci-point"]).qr
    want = [1, 2, 3, 4, 5, 6]
    for m in (residue_field(qr).shifted(3),
              ModulePresentation.cyclic(qr, ["x", "y", "x + y"])):
        assert _residue_field_ranks(m, 6) == want
        assert _table(betti_table(m, 6), 6) == want


def _binomial_ideals():
    """Generators of 2-variable monomial and binomial ideals inside m^2,
    homogeneous for the drawn weights."""
    def gen(w, a, b, s, c):
        # x^a y^b, or x^a y^b + c x^{a + w2 s} y^{b - w1 s}, same degree
        a2, b2 = a + w[1] * s, b - w[0] * s
        if s == 0 or a2 < 0 or b2 < 0 or a2 + b2 < 2:
            return f"x^{a}*y^{b}"
        return f"x^{a}*y^{b} + {c}*x^{a2}*y^{b2}"

    def ideal(w):
        mono = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
            lambda e: sum(e) >= 2)
        g = st.builds(lambda e, s, c: gen(w, *e, s, c), mono,
                      st.integers(-2, 2), st.integers(1, 6))
        return st.tuples(st.just(w), st.lists(g, min_size=1, max_size=3))
    return st.sampled_from([(1, 1), (1, 2), (2, 3)]).flatmap(ideal)


@settings(max_examples=30, deadline=None)
@given(_binomial_ideals())
def test_two_variable_ideals_in_m_squared_are_certified(drawn):
    w, rels = drawn
    P = PolyRing(F, ["x", "y"], weights=list(w))
    qr = QuotientRing(P, rels)
    k = residue_field(qr)
    # codepth n - depth R <= 2: a complete intersection or Golod
    cert = poincare_certificate(qr)
    assert cert is not None
    kind, n, _ = cert
    assert n == 2
    _, betas = _over_s(qr)
    assert (kind == CI) == (betas[0] == 2 - qr.krull_dim())
    assert kind in (CI, GOLOD)
    assert _table(betti_table(k, 5), 5) == _ranks(k, 5)


# ---------------------------------------------------------------------------
# where the closed form declines


@pytest.mark.parametrize("name", ["regular-line", "regular-plane"])
def test_regular_rings_take_the_resolution(name):
    p = build_problem(next(d for d in corpus_problems() if d["name"] == name))
    k = p.modules["k"]
    assert poincare_certificate(p.qr) is None
    t = betti_table(k, 6)
    assert t.certified == (None, 6)
    assert _table(t, 7) == _ranks(k, 7) == [comb(p.qr.ambient.n, i)
                                            for i in range(7)]


def test_ideal_outside_m_squared_declines():
    # x - y^2 has the lone variable x as a term: R = F_7[y], regular, and
    # n = 2 is not its embedding dimension
    P = PolyRing(F, ["x", "y"], weights=[2, 1])
    qr = QuotientRing(P, ["x - y^2"])
    t = betti_table(residue_field(qr), 5)
    assert t.certified == (None, 5)
    assert t.values == {0: 1, 1: 1}
    assert poincare_certificate(qr) is None


def test_codepth_three_gorenstein_ring_declines():
    qr = QuotientRing(P3, GOR3)
    assert poincare_certificate(qr) is None
    _, betas = _over_s(qr)
    assert betas == [5, 5, 1]
    k = residue_field(qr)
    got = _table(betti_table(k, 6), 6)
    assert got == _ranks(k, 6) == [1, 3, 8, 21, 55, 144]
    assert got == oracle_betti(residue_module(realize(qr)), 5)
    lower, upper = _bounds(qr, 6)
    assert all(lo <= g <= up for lo, g, up in zip(lower, got, upper))
    assert lower[3] < got[3] and got[4] < upper[4]


@pytest.mark.parametrize("which", ["k+k", "R/(x)", "omega"])
@pytest.mark.parametrize("name", ["ci-point", "fat-point", "det-curve"])
def test_modules_other_than_k_take_the_resolution(name, which):
    qr = build_problem(DOCS[name]).qr
    k = residue_field(qr)
    m = {"k+k": lambda: ModulePresentation(
             qr, kron(GradedFree.of([0, 0]), k.relations)),
         "R/(x)": lambda: ModulePresentation.cyclic(qr, ["x"]),
         "omega": lambda: canonical_module(qr)}[which]()
    assert _residue_field_ranks(m, 5) is None
    assert _table(betti_table(m, 5), 5) == _ranks(m, 5)


def test_module_test_comes_before_the_certificate():
    # a module that is not k builds no resolution of R over S
    qr = build_problem(DOCS["ci-point"]).qr
    betti_table(ModulePresentation.cyclic(qr, ["x"]), 4)
    betti_table(ModulePresentation.free(qr, [0]), 4)
    assert ("poincare_certificate", "ring") not in qr.memo
    betti_table(residue_field(qr), 4)
    assert qr.memo[("poincare_certificate", "ring")] == (CI, 2, 2)
