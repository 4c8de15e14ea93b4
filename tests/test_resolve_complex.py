"""A complex of free modules is its own resolution.

complexes.resolve_complex_with_map returns its input, cut at the bound,
with the identity map whenever the input is trusted at its bottom term
(a bounded-below complex of finitely generated free modules is semi-free;
Avramov & Foxby, JPAA 71, 1991).  Here that branch is compared with the
cone loop it skips (complexes._cone_resolution) on the benchmark's ring
templates in random coordinates: their X, Y, Z and C, and the truncated
resolutions K_b of k.  Beyond b - 1 the two windows differ: the branch
keeps the trusted degrees of its input above an untrusted one, and the
readers must not take terms across that gap.
"""

import sys
from pathlib import Path

from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from homcalc.cli import build_problem
from homcalc.complexes import (NEG_INF, INF, TrustWindow, minimize_complex,
                               resolve_complex_with_map, _cone_resolution)
from homcalc.invariants import betti_table, pd_verdict, residue_field
from homcalc.modules import homology_series, resolution

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402
from chain_checks import validate_chain_map  # noqa: E402

GOLOD = next(t for t in workloads.TEMPLATES if t[0] == "golod")


def _problem(template, a=0, c=0):
    u, v = {(1, 0): 1, (0, 1): a}, {(1, 0): c, (0, 1): 1}
    return build_problem(workloads.template_doc(template, u, v))


@seed(16)
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(workloads.TEMPLATES), st.integers(-3, 3),
       st.integers(-3, 3), st.sampled_from(["X", "Y", "Z", "C", "K"]),
       st.integers(1, 4), st.integers(1, 4))
def test_identity_agrees_with_cone_loop(template, a, c, name, cut, b):
    assume(a * c != 1)
    p = _problem(template, a, c)
    X = resolution(residue_field(p.qr), cut) if name == "K" \
        else p.complexes[name]
    xb = X.term_range()[0]
    # the branch applies: X is trusted at its bottom term, its truth floor
    assert X.window.contains(xb) and X.true_lo <= xb
    P, q = resolve_complex_with_map(X, b)
    validate_chain_map(q)
    for t in range(xb, b + 1):
        if P.window.contains(t):
            assert homology_series(P, t) == homology_series(X, t), t
    L = _cone_resolution(X, xb, b)[0]
    below = TrustWindow.interval(NEG_INF, b - 1)
    win = P.window.intersect(below)
    assert win == L.window.intersect(below)
    assert (P.true_lo, P.true_hi) == (L.true_lo, L.true_hi)
    mp, ml = minimize_complex(P), minimize_complex(L)
    for i in win.run(xb, b, 1):
        # the loop may list a term's twists in another order
        assert sorted(mp.term(i).twists) == sorted(ml.term(i).twists), i


def test_readers_stop_at_the_untrusted_degree_of_a_truncated_resolution():
    # K2 is the resolution of k over the golod ring cut at bound 2, so its
    # degree 2 is untrusted; resolved at 3, the identity keeps the
    # trusted [3, inf) above that gap, which the loop drops
    K2 = resolution(residue_field(_problem(GOLOD).qr), 2)
    assert resolve_complex_with_map(K2, 3)[0].window == \
        TrustWindow([(NEG_INF, 1), (3, INF)])
    assert _cone_resolution(K2, 0, 3)[0].window == \
        TrustWindow.interval(NEG_INF, 1)
    betti = betti_table(K2, 3)
    assert (betti.values, betti.certified) == ({0: 1, 1: 2}, (None, 1))
    pd = pd_verdict(K2, 3)
    assert (pd.status, pd.n, pd.bound) == ("unknown", None, 3)
    assert pd.witness == "no zero Betti number past sup 0 through 3"
