"""Sizes and vanishing of Ext and homology read off Hilbert series.

modules.middle_series reads HS(H) of the homology at B of A -> B -> C as
HS(coker(A -> B)) + HS(coker(B -> C)) - HS(C), with no kernel; ext_series
and homology_series apply it along a resolution and along a free complex.
Here both are compared with the series of the presentations that
ext_module and homology_presentation build, and first_ext with a scan
that builds each Ext (ext_reference.presentation_first_ext): on every
module pair of the corpus, and on the benchmark's ring templates in
random coordinates, with their module-as-complex, shifted-sum and cone
complexes.  The invariants the series readers rely on are checked too:
a finite-length Ext^i(k, M) is summed, a pole at t = 1 there is an
internal fault, and a positive-dimensional Ext or Tor is refused.
"""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homcalc import invariants
from homcalc.cli import build_problem, main, run_tasks
from homcalc.corpus import corpus_problems
from homcalc.groebner import HilbertSeries, NotArtinianError
from homcalc.invariants import _ext_mu, ext_dims, residue_field, tor_dims
from homcalc.modules import (ModulePresentation, ext_module, ext_series,
                             first_ext, homology_presentation,
                             homology_series)

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
