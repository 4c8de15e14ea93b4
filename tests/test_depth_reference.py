"""Depth and type of a complex from Koszul homology against the Bass scan
they replace.

invariants._depth_type reads depth X = n - sup H(K (x) X) and type X =
dim_k H_{n - depth}(K (x) X), with K the Koszul complex on the n
variables.  Before, a complex's depth and type were the first nonzero
entry of bass_table, built at a bound that doubled up to 64 until one
showed.  That scan, copied verbatim below (only its name is prefixed with
old_), is the reference:

- wherever it answers, the Koszul route gives the same answer;
- it cannot answer on many truncated resolutions X of a module M (those
  over the artinian templates, and the dual numbers' K (+) K[2]), since
  each doubling widens the untrusted band of Hom(K_b, X).  There the
  Koszul route must equal the module route carried through shift and
  sum: depth M - s and type M for X[s], and for a direct sum the smaller
  depth with the types summed at it.  Over artinian rings over F_p the
  module route is also checked against the oracle: depth M = 0 and
  type M = mu^0(M).

The inputs are every corpus complex, and the complexes X, Y = X[1],
Z = X (+) Y and the cone C of the benchmark's ring templates in random
coordinates.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homcalc.cli import build_problem
from homcalc.complexes import FreeComplex
from homcalc.corpus import corpus_problems
from homcalc.invariants import (WindowInsufficientError, ZeroModuleError,
                                _depth_type, bass_table, inf_of)
from homcalc.oracle import from_presentation, oracle_bass, realize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


# -- the previous code, verbatim --------------------------------------------


_HARD_CAP = 64


def old_complex_bass_scan(x: FreeComplex):
    """First nonzero Bass index of a complex with its value, auto-raising
    the bound until found.  The table is certified for every index below
    its ceiling, so its smallest stored index is the depth."""
    qr = x.ring
    b = max(4, qr.krull_dim() + abs(inf_of(x)) + 2)
    while b <= _HARD_CAP:
        t = bass_table(x, b)
        nz = t.nonzero_indices()
        if nz:
            return nz[0], t.values[nz[0]]
        b *= 2
    raise WindowInsufficientError(
        f"no nonzero Bass number found below hard cap {_HARD_CAP}")


# -- comparisons ------------------------------------------------------------


def outcome(route, x):
    """route(x), or the class of the refusal it raised."""
    try:
        return route(x)
    except (WindowInsufficientError, ZeroModuleError) as e:
        return type(e)


def module_route(doc, p, name, leaf):
    """(depth, type) of complex `name` of a problem document from leaf(M)
    of the module M it resolves, through shift and sum; None for a
    cone."""
    spec = doc["complexes"][name]
    if "module" in spec:
        return leaf(p.modules[spec["module"]])
    if "shift" in spec:
        base, s = spec["shift"]
        d, r = module_route(doc, p, base, leaf)
        return d - s, r
    if "sum" in spec:
        (da, ra), (db, rb) = (module_route(doc, p, c, leaf)
                              for c in spec["sum"])
        d = min(da, db)
        return d, ra * (da == d) + rb * (db == d)
    return None


def oracle_leaf(m):
    """depth 0 and type mu^0(M) by the oracle, for M over an artinian
    ring over F_p."""
    return 0, oracle_bass(from_presentation(realize(m.ring), m), 0)[0]


def compare(doc, p, name, may_refuse=False):
    """The Koszul route of complex `name` against the old scan, and where
    that refuses, against the module route; returns the Koszul route."""
    x = p.complexes[name]
    old, new = outcome(old_complex_bass_scan, x), outcome(_depth_type, x)
    if isinstance(old, tuple):
        assert new == old, (doc["name"], name)
        return new
    if may_refuse and new is WindowInsufficientError:
        return new
    expected = module_route(doc, p, name, _depth_type)
    assert expected is not None and new == expected, (doc["name"], name, old)
    qr = p.qr
    if qr.is_artinian() and hasattr(qr.ambient.field, "p"):
        assert module_route(doc, p, name, oracle_leaf) == expected
    return new


# -- the corpus -------------------------------------------------------------


CORPUS = [d for d in corpus_problems() if d.get("complexes")]


@pytest.mark.parametrize("doc", CORPUS, ids=lambda d: d["name"])
def test_corpus_complexes_match_the_old_scan(doc):
    p = build_problem(doc)
    for name in doc["complexes"]:
        # the Koszul route answers every corpus complex
        assert isinstance(compare(doc, p, name), tuple), name


def test_corpus_complexes_cover_both_cases():
    """The corpus has complexes where the old scan answers (the cone over
    k[x, y]/(xy), and the truncated resolution K of k over the dual
    numbers, shifted or not) and one where it never could (K (+) K[2])."""
    answered = {}
    for doc in CORPUS:
        p = build_problem(doc)
        for name, x in p.complexes.items():
            answered[doc["name"], name] = isinstance(
                outcome(old_complex_bass_scan, x), tuple)
    assert answered == {("dual-numbers", "Kc"): True,
                        ("dual-numbers", "K2"): True,
                        ("dual-numbers", "KS"): False,
                        ("hypersurface-xy", "Cone"): True}


# -- the benchmark's templates ----------------------------------------------


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(workloads.TEMPLATES), st.integers(-3, 3),
       st.integers(-3, 3), st.sampled_from(["X", "Y", "Z", "C"]))
def test_templates_match_the_old_scan(template, a, c, name):
    assume(a * c != 1)
    u, v = {(1, 0): 1, (0, 1): a}, {(1, 0): c, (0, 1): 1}
    doc = workloads.template_doc(template, u, v)
    # golod's Z = X (+) X[1] at bound 3: the Koszul ceiling n + sup Z = 3
    # lies in the band X's truncation leaves untrusted, so both refuse
    compare(doc, build_problem(doc), name,
            may_refuse=template[0] == "golod" and name == "Z")
