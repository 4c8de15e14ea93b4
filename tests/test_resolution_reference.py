"""resolution against its previous form.

_resolution_steps now contracts the unit entries of each new kernel as it
is taken and drops the zero columns left, so every map below the top is
minimal as the resolution grows; resolution only wraps its matrices.
Before, it took a raw chain of kernels and resolution minimized the whole
chain on every call.  The code before, copied verbatim below (only the
function names are prefixed with old_), is the reference: in every degree
both trust, the ranks are equal; complete may change only from False to
True; the new complex is exact in degrees 1 through the top (the top
itself only when complete), read by homology_series; every map has its
entries in the maximal ideal and no zero column; and every syzygy has the
old code's Hilbert series.  The inputs are the corpus modules and the
Matlis duals of those of finite length, the modules of the benchmark's
ring templates in random coordinates, and random cyclic modules with
redundant relations.
"""

import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homcalc import modules
from homcalc.cli import build_problem
from homcalc.complexes import (FreeComplex, from_resolution, minimize_complex,
                               module_as_complex, zero_complex)
from homcalc.corpus import corpus_problems
from homcalc.field import PrimeField
from homcalc.groebner import QuotientRing, kernel_matrix
from homcalc.modules import (ModulePresentation, homology_series, matlis_dual,
                             minimal_presentation, resolution, ring_memo,
                             syzygy)
from homcalc.ring import PolyRing

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


# -- the previous code, verbatim --------------------------------------------


@ring_memo
def old__resolution_steps(mm: ModulePresentation, length: int):
    """(d_1, ..., d_n) with n <= length of the resolution of the minimal
    presentation mm, and whether it ended: a kernel came out zero, or mm
    has no relations.  Each length extends the entry for length - 1 by at
    most one kernel."""
    if length <= 0:
        return (), length == 0 and mm.relations.source.rank == 0
    mats, ended = old__resolution_steps(mm, length - 1)
    if ended:
        return mats, True
    if not mats:
        return (mm.relations,), False
    K = kernel_matrix(mats[-1])
    if K.source.rank == 0:
        return mats, True
    return mats + (K,), False


def old_resolution(m: ModulePresentation, length: int) -> FreeComplex:
    """The module as a derived-category representative: its minimal free
    resolution out to homological degree `length` >= 1, minimized, with
    the matching trust window.  Its ranks in trusted degrees are the Betti
    numbers; unless the complex is complete (the resolution ended), the
    top term is a construction artifact."""
    if length < 1:
        raise ValueError("resolution bound must be at least 1")
    mm = minimal_presentation(m)
    qr = mm.ring
    if mm.gens.rank == 0:
        return zero_complex(qr)
    mats, complete = old__resolution_steps(mm, length)
    if not mats:
        return module_as_complex(qr, mm.gens)
    return minimize_complex(from_resolution(qr, list(mats), complete))


# -- comparison -------------------------------------------------------------


def check(m, b):
    new, old = resolution(m, b), old_resolution(m, b)
    assert new.complete or not old.complete
    for i in range(b + 1):
        if new.window.contains(i) and old.window.contains(i):
            assert new.term(i).rank == old.term(i).rank, i
    top = new.term_range()[1]
    for t in range(1, top + 1 if new.complete else top):
        assert not homology_series(new, t).numer, t
    for i in range(1, top + 1):
        d = new.diff(i)
        assert not any(p.is_constant() for p in d.entries.values()), i
        assert all(d.columns()), i
    for g in range(1, b):
        with mock.patch.object(modules, "resolution", old_resolution):
            want = syzygy(m, g).hilbert_series()
        assert syzygy(m, g).hilbert_series() == want, g


# -- the corpus -------------------------------------------------------------


@pytest.mark.parametrize("doc", corpus_problems(), ids=lambda d: d["name"])
def test_corpus_modules_match_the_old_code(doc):
    p = build_problem(doc)
    bound = max(t["bound"] for t in doc["tasks"])
    for m in p.modules.values():
        check(m, bound)
        if m.hilbert_series().dimension() <= 0:
            check(matlis_dual(m), bound)


# -- the benchmark's templates ----------------------------------------------


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(workloads.TEMPLATES), st.integers(-3, 3),
       st.integers(-3, 3), st.sampled_from(["k", "R", "M"]),
       st.integers(1, 4))
def test_templates_match_the_old_code(template, a, c, name, b):
    assume(a * c != 1)
    u, v = {(1, 0): 1, (0, 1): a}, {(1, 0): c, (0, 1): 1}
    p = build_problem(workloads.template_doc(template, u, v))
    check(p.modules[name], b)


# -- random cyclic modules with redundant relations -------------------------

F = PrimeField(7)
P2 = PolyRing(F, ["x", "y"])
RINGS = [QuotientRing(P2, rels) for rels in
         ([], ["x*y"], ["x^2", "y^2"], ["x^2", "x*y", "y^3"], ["x^2*y + y^3"])]


def forms(degree):
    """Homogeneous forms of the given degree in x, y, by coefficients."""
    return st.lists(st.integers(0, 6), min_size=degree + 1,
                    max_size=degree + 1).map(
        lambda cs: sum((P2.monomial((degree - i, i)).scale(c)
                        for i, c in enumerate(cs)), P2.zero()))


@st.composite
def redundant_cyclic(draw):
    """R/J with J given by one or two forms and then one or two of their
    combinations, which generate nothing new."""
    qr = draw(st.sampled_from(RINGS))
    degs = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    gens = [draw(forms(d)) for d in degs]
    for _ in range(draw(st.integers(1, 2))):
        top = max(degs) + draw(st.integers(0, 1))
        gens.append(sum((draw(forms(top - d)) * f for d, f in zip(degs, gens)),
                        P2.zero()))
    return ModulePresentation.cyclic(qr, gens)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(redundant_cyclic(), st.integers(1, 4))
def test_redundant_cyclic_modules_match_the_old_code(m, b):
    check(m, b)
