"""Bass numbers of a complete complex by Foxby's formula against the walk
down Hom(K_b, X) that it replaces.

For a complete X (a bounded complex of finite free modules, trusted in
every degree) invariants.bass_table now reads

    mu^n(X) = sum_j rank P_j mu^{n+j}(R),    P = minimize_complex(X),

and takes its certified range from the window of H = Hom(K_b, X) alone,
with no homology of H read.  Before, every complex summed the Hilbert
series of H's homology down from H's ceiling.  That branch, copied
verbatim below (only its name is prefixed with old_ and it takes the
complex branch only), is the reference: on every input both give the same
values and the same certified range, or the same refusal.

The inputs are every corpus complex; the complexes X, Y = X[1],
Z = X (+) Y and the cone C of the benchmark's ring templates in random
coordinates, over F_p and Q; and Hypothesis-drawn complexes built from
cones of random homogeneous matrices by shifts and direct sums, which
include non-minimal ones (unit entries, X (+) cone(id)), exact complete
ones and the zero complex.  Over the artinian F_p templates, mu(R) is
also taken from the oracle instead of _mu.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homcalc.cli import build_problem
from homcalc.complexes import (ChainMap, cone, direct_sum, module_as_complex,
                               shift_complex, zero_complex, hom_complex,
                               minimize_complex)
from homcalc.corpus import corpus_problems
from homcalc.field import PrimeField, RationalField
from homcalc.groebner import QuotientRing
from homcalc.invariants import (InvariantTable, WindowInsufficientError,
                                bass_table, residue_field)
from homcalc.modules import ModulePresentation, homology_series, resolution
from homcalc.oracle import from_presentation, oracle_bass, realize
from homcalc.ring import GradedFree, GradedMatrix, PolyRing

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


# -- the previous code, verbatim --------------------------------------------


def old_complex_bass_walk(x, bound: int) -> InvariantTable:
    K = resolution(residue_field(x.ring), bound)
    H = hom_complex(K, x)
    if H.is_zero_complex():
        return InvariantTable("bass", {}, (None, bound - 1))
    # the resolution of k starts at 0, so H's ceiling is x's; walk down
    # from it, reading t_star even below the bottom term
    t_star = H.ceiling()
    down = H.window.run(t_star, min(t_star, H.term_range()[0]) - 1, -1)
    if not down:
        raise WindowInsufficientError("top of the true Hom range untrusted")
    vals = {-t: homology_series(H, t).k_dimension() for t in reversed(down)}
    return InvariantTable("bass", vals, (None, -down[-1]))


# -- comparison -------------------------------------------------------------


def outcome(route, x, b):
    """(values, certified) of route(x, b), or the class of its refusal."""
    try:
        t = route(x, b)
    except WindowInsufficientError as e:
        return type(e)
    return t.values, t.certified


def compare(x, b):
    """bass_table equals the old walk on x at bound b; returns whether x
    took the formula (it is complete)."""
    assert outcome(bass_table, x, b) == outcome(old_complex_bass_walk, x, b)
    return x.complete


# -- the corpus -------------------------------------------------------------


@pytest.mark.parametrize("doc", [d for d in corpus_problems()
                                 if d.get("complexes")], ids=lambda d: d["name"])
def test_corpus_complexes_match_the_old_walk(doc):
    p = build_problem(doc)
    for x in p.complexes.values():
        for b in range(1, 6):
            compare(x, b)


# -- the benchmark's templates ----------------------------------------------


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(workloads.TEMPLATES), st.integers(-3, 3),
       st.integers(-3, 3), st.sampled_from(["X", "Y", "Z", "C"]),
       st.integers(1, 4))
def test_templates_match_the_old_walk(template, a, c, name, b):
    assume(a * c != 1)
    u, v = {(1, 0): 1, (0, 1): a}, {(1, 0): c, (0, 1): 1}
    p = build_problem(workloads.template_doc(template, u, v))
    compare(p.complexes[name], b)


def test_templates_take_both_routes():
    """The finite-pd templates' X is complete and takes the formula; the
    artinian ones' X is a truncated resolution and keeps the walk."""
    routes = {}
    for t in workloads.TEMPLATES:
        p = build_problem(workloads.template_doc(t))
        routes[t[0]] = compare(p.complexes["X"], t[5])
    assert routes == {t[0]: t[6] for t in workloads.TEMPLATES}


# -- complexes drawn from random homogeneous matrices -----------------------


RINGS = [
    QuotientRing(PolyRing(PrimeField(7), ["x", "y"]), ["x^2", "y^2"]),
    QuotientRing(PolyRing(PrimeField(7), ["x", "y"]), ["x*y"]),
    QuotientRing(PolyRing(RationalField(), ["x", "y"]), ["x^2", "x*y"]),
    QuotientRing(PolyRing(RationalField(), ["x", "y"]), ["x^2*y + y^3"]),
    QuotientRing(PolyRing(PrimeField(7), ["x", "y"]), []),
]


def monomials(n, d):
    """Exponent vectors of degree d in n variables of weight one."""
    if n == 1:
        return [(d,)]
    return [(i,) + e for i in range(d + 1) for e in monomials(n - 1, d - i)]


@st.composite
def random_matrix_cone(draw, qr):
    """The cone of a random homogeneous matrix F -> G between free modules
    placed in degree 0; an entry of degree 0 is a unit."""
    P = qr.ambient
    src = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2))
    tgt = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2))
    entries = {}
    for i, ti in enumerate(tgt):
        for j, sj in enumerate(src):
            if sj >= ti:
                f = P.zero()
                for e in monomials(P.n, sj - ti):
                    f = f + P.monomial(e).scale(draw(st.integers(-2, 2)))
                entries[(i, j)] = qr.reduce(f)
    F, G = GradedFree.of(src), GradedFree.of(tgt)
    return cone(ChainMap(module_as_complex(qr, F), module_as_complex(qr, G),
                         {0: GradedMatrix(qr, F, G, entries)}))


def identity_cone(X):
    """cone(id_X): exact, complete when X is, with unit entries."""
    return cone(ChainMap(X, X, {i: GradedMatrix.identity(X.ring, f)
                                for i, f in X.terms.items()}))


@st.composite
def bounded_complex(draw, qr, depth=2):
    """A cone of a random matrix, or a shift or a direct sum of smaller
    draws, or cone(id) of one."""
    kind = draw(st.sampled_from(["cone", "shift", "sum", "exact"])
                if depth else st.just("cone"))
    if kind == "cone":
        return draw(random_matrix_cone(qr))
    X = draw(bounded_complex(qr, depth - 1))
    if kind == "shift":
        return shift_complex(X, draw(st.integers(-2, 2)))
    if kind == "exact":
        return identity_cone(X)
    return direct_sum(X, draw(bounded_complex(qr, depth - 1)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from(RINGS), st.integers(1, 4))
def test_random_complexes_match_the_old_walk(data, qr, b):
    X = data.draw(bounded_complex(qr))
    assert X.complete
    compare(X, b)
    compare(direct_sum(X, identity_cone(X)), b)


def test_edge_complexes_match_the_old_walk():
    """The zero complex, an exact complete complex, and a resolution plus
    an exact summand with unit entries, which minimization removes."""
    for qr in RINGS:
        R = module_as_complex(qr, GradedFree.of([0]))
        E = identity_cone(R)
        assert minimize_complex(E).is_zero_complex()
        for b in range(1, 5):
            compare(zero_complex(qr), b)
            compare(E, b)
            compare(direct_sum(shift_complex(R, 1), E), b)
    p = build_problem(workloads.template_doc(workloads.TEMPLATES[3]))
    X = p.complexes["X"]
    for b in range(1, 5):
        assert compare(direct_sum(X, identity_cone(X)), b)


# -- an independent mu(R) ---------------------------------------------------


ARTINIAN_FP = [t for t in workloads.TEMPLATES if t[0] in ("ci22", "ci23", "golod")]


@pytest.mark.parametrize("template", ARTINIAN_FP, ids=lambda t: t[0])
@pytest.mark.parametrize("b", [2, 4])
def test_cone_bass_numbers_from_oracle_bass_of_ring(template, b):
    """mu^n(C) = sum_j rank C_j mu^{n+j}(R) at every certified n, with
    mu(R) from oracle.oracle_bass, not _mu."""
    p = build_problem(workloads.template_doc(template))
    C = p.complexes["C"]
    assert C.complete and minimize_complex(C) is C
    t = bass_table(C, b)
    bottom, top = C.term_range()
    hi = t.certified[1]
    mu_r = oracle_bass(from_presentation(realize(p.qr),
                                         ModulePresentation.free(p.qr, [0])),
                       hi + top)
    for n in range(-top, hi + 1):
        assert t.value(n) == sum(C.term(j).rank * mu_r[n + j]
                                 for j in range(bottom, top + 1)
                                 if n + j >= 0), n
