"""Certify, then complete: the candidate basis against the full run.

syzygy_generators and lift_matrix take their basis from _certified_gb: it
takes reduced_gb's candidate (the inputs pushed and inter-reduced, no pair
queued) and runs Buchberger's pair loop only when the candidate fails its
certificate: (a) every minimal Schreyer S-vector and (b) every nonzero
input reduces to zero by it.  The full run is reduced_gb with the pair
loop always on (``full_run``); under it the first try is already the full
basis, so syzygy_generators and lift_matrix give the full run's answers.

Two hand cases fall back: x^2, x^2 + y^2 passes (a) and fails (b), and
x^2, xy + y^2 fails (a), since its basis needs y^3.  The inputs are
reduced first, so the first case builds no S-vector expression before
the fallback, even with y^3 added to give its candidate a pair.  On random inputs
over F_32003 and Q the answers are the full run's, entry for entry, and
every syzygy, evaluated on the inputs in Polynomial arithmetic, is zero.
A full run that fails its certificate raises, for a kernel and a lift.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import event, given, seed, settings
from hypothesis import strategies as st

from homcalc import groebner
from homcalc.field import PrimeField
from homcalc.groebner import (
    QuotientRing, TermOverPosition, index_order, kernel_matrix,
    lift_matrix, minimal_pairs, reduced_gb, syzygy_generators, vec_divide,
    vec_from_column, vec_to_column,
)
from homcalc.ring import GradedFree, GradedMatrix, PolyRing

from test_kernel_reference import CASES, draw_matrix

REDUCED_GB = groebner.reduced_gb


@contextmanager
def full_run():
    """reduced_gb with Buchberger's pair loop always on."""
    def full(*args, **kwargs):
        return REDUCED_GB(*args, **dict(kwargs, pair_loop=True))
    with mock.patch.object(groebner, "reduced_gb", full):
        yield


def gb_items(gb):
    """Everything a GBResult holds, term order included: elements, leads,
    by_comp and exprs."""
    return ([list(v.items()) for v in gb.elements], gb.leads,
            gb.reducers.by_comp, [list(e.items()) for e in gb.exprs])


def vec_items(vecs):
    return [list(v.items()) for v in vecs]


def evaluate(syz, inputs, order, ring):
    """sum_(i, e) syz[x^e e_i] x^e inputs[i] over the ambient ring, in
    Polynomial arithmetic, as {row: Polynomial} with zero rows dropped."""
    index = index_order(ring, len(inputs))
    cols = [vec_to_column(v, order) for v in inputs]
    acc = {}
    for t, c in syz.items():
        i, e = index.unpack(t)
        for r, p in cols[i].items():
            acc[r] = acc.get(r, ring.zero()) + ring.monomial(e).scale(c) * p
    return {r: p for r, p in acc.items() if not p.is_zero()}


def fails_a(gb):
    return any(vec_divide(s, gb.reducers)[0] for *_, s in minimal_pairs(gb))


def fails_b(gb, inputs):
    return any(gb.normal_form(v)[0] for v in inputs if v)


# -- two hand cases over F_7[x, y] in rank one -------------------------------


P = PolyRing(PrimeField(7), ["x", "y"])
R = QuotientRing(P, [])
ORDER = TermOverPosition(P, [0])


def row(*texts):
    """The 1 x n matrix over F_7[x, y] with the given entries, each
    column twisted by its entry's degree."""
    polys = [P.from_string(t) for t in texts]
    return GradedMatrix(R, GradedFree.of([p.degree() for p in polys]),
                        GradedFree.of([0]),
                        {(0, j): p for j, p in enumerate(polys)})


def vecs(m):
    return [vec_from_column(c, ORDER) for c in m.columns()]


def check_against_full_run(m, target):
    """The kernel of m, the lift of target through m and m's syzygies
    equal the full run's; the lift exists, since target is in the span."""
    inputs = vecs(m)
    kernel = kernel_matrix(m)
    lift = lift_matrix(m, target)
    syz = syzygy_generators(inputs, P, ORDER)
    with full_run():
        assert kernel == kernel_matrix(m)
        assert lift == lift_matrix(m, target)
        assert vec_items(syz) == vec_items(syzygy_generators(inputs, P, ORDER))
    assert lift is not None
    assert m.compose(lift) == target
    assert m.compose(kernel).is_zero()
    assert all(evaluate(s, inputs, ORDER, P) == {} for s in syz)


def test_candidate_of_x2_and_x2_plus_y2_fails_only_b():
    m = row("x^2", "x^2 + y^2")
    inputs = vecs(m)
    cand = reduced_gb(inputs, P, ORDER, track=True, pair_loop=False)
    # the drop step keeps only x^2 + y^2, which x^2 does not reduce by
    assert len(cand.elements) == 1
    assert not fails_a(cand) and fails_b(cand, inputs)
    assert len(reduced_gb(inputs, P, ORDER, track=True).elements) == 2
    # y^2 = (x^2 + y^2) - x^2 is in the span, but not reduced to zero by
    # the candidate
    check_against_full_run(m, row("y^2"))


@pytest.mark.parametrize("texts", [("x^2", "x^2 + y^2"),
                                   ("x^2", "x^2 + y^2", "y^3")])
def test_a_candidate_failing_at_an_input_builds_no_s_expr(texts):
    """_certificate reduces the inputs before the S-vectors, so a
    candidate that fails at the input x^2 builds no S-vector expression
    before the fallback.  With y^3 the candidate {x^2 + y^2, y^3} has a
    minimal pair, whose S-vector y^5 reduces to zero."""
    m = row(*texts)
    inputs = vecs(m)
    cand = reduced_gb(inputs, P, ORDER, track=True, pair_loop=False)
    assert len(list(minimal_pairs(cand))) == len(texts) - 2
    assert not fails_a(cand) and fails_b(cand, inputs)
    s_expr, built, at_fallback = groebner._s_expr, [], []

    def counted_s_expr(*args):
        built.append(args)
        return s_expr(*args)

    def recorded_gb(*args, **kwargs):
        if kwargs.get("pair_loop", True):
            at_fallback.append(len(built))
        return REDUCED_GB(*args, **kwargs)
    with mock.patch.object(groebner, "_s_expr", counted_s_expr), \
            mock.patch.object(groebner, "reduced_gb", recorded_gb):
        syz = syzygy_generators(inputs, P, ORDER)
    assert at_fallback == [0]
    with full_run():
        assert vec_items(syz) == vec_items(syzygy_generators(inputs, P, ORDER))
    check_against_full_run(m, row("y^2"))


def test_candidate_of_x2_and_xy_plus_y2_fails_a():
    m = row("x^2", "x*y + y^2")
    inputs = vecs(m)
    cand = reduced_gb(inputs, P, ORDER, track=True, pair_loop=False)
    assert len(cand.elements) == 2 and fails_a(cand)
    # y * x^2 - x * (xy + y^2) = -xy^2 reduces to y^3, a new element
    full = reduced_gb(inputs, P, ORDER, track=True)
    assert len(full.elements) == 3
    check_against_full_run(m, row("y^3"))


def test_a_full_run_that_fails_its_certificate_raises():
    """With the pair loop made to return the candidate, x^2, xy + y^2
    fails its certificate on both tries: an internal fault, raised for a
    kernel's syzygies and for a lift alike."""
    m = row("x^2", "x*y + y^2")

    def candidate(*args, **kwargs):
        return REDUCED_GB(*args, **dict(kwargs, pair_loop=False))
    with mock.patch.object(groebner, "reduced_gb", candidate):
        with pytest.raises(ArithmeticError):
            syzygy_generators(vecs(m), P, ORDER)
        with pytest.raises(ArithmeticError):
            lift_matrix(m, row("y^3"))


# -- random inputs ------------------------------------------------------------


@CASES
@seed(20260)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_certify_first_matches_full_run(field, quotient, data):
    """Random small homogeneous inputs (a matrix's columns plus the ideal
    padding) give exactly the full run's basis, syzygies, kernel and
    lift."""
    qr, m = draw_matrix(data, field, quotient)
    order, inputs, padded = groebner._inputs(m, ())
    full = reduced_gb(inputs, qr.ambient, order, track=True, padded=padded)
    cand = reduced_gb(inputs, qr.ambient, order, track=True, padded=padded,
                      pair_loop=False)
    # the certificate holds exactly when the candidate is the full basis
    certified = not fails_a(cand) and not fails_b(cand, inputs)
    event("certified" if certified else "falls back")
    assert certified == (gb_items(cand) == gb_items(full))
    assert gb_items(groebner._certified_gb(inputs, qr.ambient, order, padded,
                                           False)[0]) == gb_items(full)
    # lift targets: m itself, x times m's first column (solvable) and
    # x^2 e_0 (solvable or not)
    x = qr.variable(0)
    t0, r0 = m.source.twists[0], m.target.twists[0]
    targets = [m, m.compose(GradedMatrix(qr, GradedFree.of([t0 + 1]),
                                         m.source, {(0, 0): x})),
               GradedMatrix(qr, GradedFree.of([r0 + 2]), m.target,
                            {(0, 0): qr.reduce(x * x)})]
    syz = syzygy_generators(inputs, qr.ambient, order, padded=padded)
    # every syzygy vanishes on the inputs, fallback draws included
    assert all(evaluate(s, inputs, order, qr.ambient) == {} for s in syz)
    kernel = kernel_matrix(m)
    lifts = [lift_matrix(m, t) for t in targets]
    with full_run():
        assert vec_items(syz) == vec_items(
            syzygy_generators(inputs, qr.ambient, order, padded=padded))
        assert kernel == kernel_matrix(m)
        assert lifts == [lift_matrix(m, t) for t in targets]
