"""Groebner bases, syzygies, quotient-ring normal forms, Hilbert series.

Reference values here were worked out by hand (and are classical
textbook cases); they pin the engine independently of its own output.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from homcalc.field import PrimeField, RationalField
from homcalc.ring import FIELD_MASK, PolyRing, GradedFree, GradedMatrix
from homcalc.groebner import (
    TermOverPosition, QuotientRing, HilbertSeries,
    Reducers, reduced_gb, syzygy_generators,
    kernel_matrix, lift_matrix, hilbert_numerator, minimalize_monomials,
    index_order, vec_divide, vec_from_column, vec_to_column, vec_axpy,
)

from chain_checks import entry
from slice_homology import monomials_of_degree, top_degree
from term_orders import PositionOverTerm
from test_kernel_reference import schreyer_syzygies
from tuple_kernel import mono_div, old_vec_axpy, old_vec_term_mul

F = PrimeField(32003)


def ring_vec(p, order):
    """Rank-one vector from a polynomial."""
    return vec_from_column({0: p}, order)


def packed(v, order):
    """A vector given as {(component, exponents): coeff}, packed."""
    return {order.pack(c, e): x for (c, e), x in v.items()}


def ring_poly(v, order):
    """The polynomial of a rank-one vector."""
    return vec_to_column(v, order).get(0, order.ring.zero())


def contains(gb, v):
    """Whether v lies in the span of the Groebner basis gb."""
    rem, _ = gb.normal_form(v)
    return not rem


def combo(inputs, s, ring):
    """Evaluate a syzygy candidate or an expression, a Vec over the
    inputs packed by index_order: sum_(i,e) s_(i,e) x^e * inputs[i]."""
    units = index_order(ring, len(inputs)).bases
    acc = {}
    for t, c in s.items():
        i = t & FIELD_MASK
        vec_axpy(acc, c, t - units[i], inputs[i], ring.field)
    return acc


def unpacked(s, ring, n):
    """A Vec over n indexed vectors, packed by index_order, as
    {(index, exponents): coeff}."""
    order = index_order(ring, n)
    return {order.unpack(t): c for t, c in s.items()}


# -- reduced Groebner bases -------------------------------------------------

def test_twisted_cubic_grevlex():
    R = PolyRing(F, ["x", "y", "z"])
    order = PositionOverTerm(R, 1)
    gens = [ring_vec(R.from_string(s), order) for s in ("y - x^2", "z - x^3")]
    gb = reduced_gb(gens, R, order, track=True)
    polys = sorted(repr(ring_poly(v, order)) for v in gb.elements)
    assert polys == sorted(["x^2 + 32002*y", "x*y + 32002*z", "y^2 + 32002*x*z"])
    # tracking: each basis element is the claimed combination of the inputs
    for v, expr in zip(gb.elements, gb.exprs):
        assert combo(gens, expr, R) == v


def test_semigroup_345_reduced_basis():
    # k[a,b,c], weights (3,4,5): defining ideal of the semigroup ring.
    # Hand computation: the three generators are already a Groebner basis
    # (all S-pairs reduce to zero) and inter-reduce to the forms below.
    R = PolyRing(F, ["a", "b", "c"], weights=(3, 4, 5))
    order = PositionOverTerm(R, 1)
    gens = [ring_vec(R.from_string(s), order)
            for s in ("b^2 - a*c", "b*c - a^3", "c^2 - a^2*b")]
    gb = reduced_gb(gens, R, order)
    polys = {repr(ring_poly(v, order)) for v in gb.elements}
    assert polys == {"b^2 + 32002*a*c", "a^3 + 32002*b*c", "a^2*b + 32002*c^2"}
    leads = {order.unpack(lt) for (lt, _) in gb.leads}
    assert leads == {(0, (0, 2, 0)), (0, (3, 0, 0)), (0, (2, 1, 0))}


def test_gb_membership_and_normal_form():
    R = PolyRing(F, ["x", "y", "z"])
    order = PositionOverTerm(R, 1)
    gens = [ring_vec(R.from_string(s), order) for s in ("y - x^2", "z - x^3")]
    gb = reduced_gb(gens, R, order)
    # y*z - x^5 = y(z - x^3) + x^3(y - x^2) is in the ideal
    assert contains(gb, ring_vec(R.from_string("y*z - x^5"), order))
    assert not contains(gb, ring_vec(R.from_string("x*y - 1"), order))


def test_gb_deterministic():
    R = PolyRing(F, ["x", "y", "z"])
    order = PositionOverTerm(R, 1)
    gens = [ring_vec(R.from_string(s), order)
            for s in ("x*y - z^2", "y^2 - x*z", "x^3 - y*z")]
    a = reduced_gb(gens, R, order)
    b = reduced_gb(gens, R, order)
    assert a.elements == b.elements
    assert a.leads == b.leads


@given(st.lists(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                   st.integers(-3, 3)),
                         min_size=1, max_size=3),
                min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_gb_spairs_reduce_and_tracking(raw):
    R = PolyRing(F, ["x", "y"])
    order = PositionOverTerm(R, 1)
    gens = []
    for terms in raw:
        t = {}
        for a, b, c in terms:
            cc = F.add(t.get((a, b), F.zero), F.normalize(c))
            if F.is_zero(cc):
                t.pop((a, b), None)
            else:
                t[(a, b)] = cc
        gens.append({order.pack(0, e): c for e, c in t.items()})
    gb = reduced_gb(gens, R, order, track=True)
    # every input reduces to zero
    for v in gens:
        assert contains(gb, v)
    # S-pairs of the basis reduce to zero (Buchberger criterion)
    for k, (lt, lc) in enumerate(gb.leads):
        assert lc == F.one
    for s in schreyer_syzygies(gb):
        assert combo(gb.elements, s, R) == {}
    # tracked expressions reconstruct the basis
    for v, expr in zip(gb.elements, gb.exprs):
        assert combo(gens, expr, R) == v


# -- division against the plain maximum scan --------------------------------


def reference_vec_divide(f, basis, leads, ring, F, okey, track=False):
    """Divide f by basis (list of Vec with precomputed leads).

    Returns (remainder, quotients) with f = sum_i q_i basis_i + remainder
    and no remainder term divisible by any lead.  quotients is a list of
    term dicts (exponent -> coeff) when track is set, else None.
    """
    work = dict(f)
    rem = {}
    quots = [dict() for _ in basis] if track else None
    kf = lambda ce: okey(*ce)
    while work:
        ce = max(work, key=kf)
        c, e = ce
        coef = work[ce]
        hit = -1
        for i, ((lc, le), lcoef) in enumerate(leads):
            if lc == c and ring.mono_divides(le, e):
                hit = i
                break
        if hit < 0:
            rem[ce] = coef
            del work[ce]
            continue
        shift = mono_div(e, leads[hit][0][1])
        fac = F.div(coef, leads[hit][1])
        old_vec_axpy(work, F.neg(fac), old_vec_term_mul(basis[hit], shift, F.one, ring, F), F)
        if track:
            q = quots[hit]
            s = F.add(q.get(shift, F.zero), fac)
            if F.is_zero(s):
                q.pop(shift, None)
            else:
                q[shift] = s
    return rem, quots


def _reference_key(ring, twists):
    """The module orders' ascending keys: position over term when twists
    is None, else twisted degree, ring order, component."""
    if twists is None:
        return lambda c, e: (-c, ring.mono_key(e))
    return lambda c, e: (ring.wdeg(e) + twists[c], ring.mono_key(e), -c)


_NONZERO = {
    "p": st.integers(1, 32002),
    "q": st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)),
}


@pytest.mark.parametrize("field", ["p", "q"])
@pytest.mark.parametrize("kind", ["pot", "top"])
@seed(20260)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_vec_divide_matches_max_scan(field, kind, data):
    Fld = PrimeField(32003) if field == "p" else RationalField()
    R = PolyRing(Fld, ["x", "y", "z"])
    rank = data.draw(st.integers(1, 3))
    twists = data.draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank))
    order = (PositionOverTerm(R, rank) if kind == "pot"
             else TermOverPosition(R, twists))
    okey = _reference_key(R, None if kind == "pot" else twists)

    def monomial(d):
        monos = monomials_of_degree(R, d)
        return monos[data.draw(st.integers(0, len(monos) - 1))]

    def vector(deg, max_terms):
        """Random vector, homogeneous of twisted degree deg."""
        v = {}
        for _ in range(data.draw(st.integers(1, max_terms))):
            c = data.draw(st.integers(0, rank - 1))
            if deg - twists[c] >= 0:
                term = {(c, monomial(deg - twists[c])): Fld.normalize(
                    data.draw(_NONZERO[field]))}
                old_vec_axpy(v, Fld.one, term, Fld)
        return v

    basis = [vector(data.draw(st.integers(1, 3)), 4) for _ in range(data.draw(st.integers(1, 6)))]
    basis = [b for b in basis if b]
    D = data.draw(st.integers(2, 5))
    f = vector(D, 3)
    # multiples of basis vectors, so that division has work to do
    for b in basis:
        (c, e) = next(iter(b))
        d = D - R.wdeg(e) - twists[c]
        if d >= 0 and data.draw(st.booleans()):
            old_vec_axpy(f, Fld.normalize(data.draw(_NONZERO[field])),
                         old_vec_term_mul(b, monomial(d), Fld.one, R, Fld), Fld)
    skip = data.draw(st.integers(-1, len(basis) - 1))
    keep = [i for i in range(len(basis)) if i != skip]
    ref_basis = [basis[i] for i in keep]
    ref_leads = []
    for b in ref_basis:
        lt = max(b, key=lambda ce: okey(*ce))
        ref_leads.append((lt, b[lt]))
    red = Reducers(order, [packed(b, order) for b in basis])
    assert [(order.unpack(lt), c) for lt, c in
            (red.leads[i] for i in keep)] == ref_leads

    for track in (False, True):
        rem, quots = vec_divide(packed(f, order), red, track=track, skip=skip)
        ref_rem, ref_quots = reference_vec_divide(f, ref_basis, ref_leads,
                                                 R, Fld, okey, track=track)
        # equal term for term, in the same order
        assert [(order.unpack(t), c) for t, c in rem.items()] == \
            list(ref_rem.items())
        if track:
            # quotients are keyed by packed shift
            assert {i: {R.unlin(s): c for s, c in q.items()}
                    for i, q in quots.items()} == \
                {keep[k]: q for k, q in enumerate(ref_quots) if q}
            assert list(quots) == sorted(quots)
        else:
            assert quots is None
    # dropping a position from the index is the same as skipping it
    if skip >= 0:
        red.replace(skip, None)
        assert vec_divide(packed(f, order), red, track=True) == (rem, quots)


# -- syzygies ---------------------------------------------------------------

def test_koszul_syzygy_two_variables():
    R = PolyRing(F, ["x", "y"])
    order, o2 = PositionOverTerm(R, 1), PositionOverTerm(R, 2)
    inputs = [ring_vec(R.variable("x"), order), ring_vec(R.variable("y"), order)]
    syz = syzygy_generators(inputs, R, order)
    assert syz
    for s in syz:
        assert combo(inputs, s, R) == {}
    # the Koszul relation (y, -x) lies in the span of the output
    kos = {(0, (0, 1)): F.one, (1, (1, 0)): F.normalize(-1)}
    sgb = reduced_gb([packed(unpacked(s, R, 2), o2) for s in syz], R, o2)
    assert contains(sgb, packed(kos, o2))


def test_koszul_syzygies_three_variables():
    R = PolyRing(F, ["x", "y", "z"])
    order, o3 = PositionOverTerm(R, 1), PositionOverTerm(R, 3)
    inputs = [ring_vec(R.variable(i), order) for i in range(3)]
    syz = syzygy_generators(inputs, R, order)
    for s in syz:
        assert combo(inputs, s, R) == {}
    sgb = reduced_gb([packed(unpacked(s, R, 3), o3) for s in syz], R, o3)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        kos = {(i, tuple(1 if t == j else 0 for t in range(3))): F.one,
               (j, tuple(1 if t == i else 0 for t in range(3))): F.normalize(-1)}
        assert contains(sgb, packed(kos, o3))


def test_zero_input_gets_unit_syzygy():
    R = PolyRing(F, ["x"])
    inputs = [ring_vec(R.variable(0), PositionOverTerm(R, 1)), {}]
    syz = syzygy_generators(inputs, R, PositionOverTerm(R, 1))
    assert any(unpacked(s, R, 2) == {(1, (0,)): F.one} for s in syz)


def test_redundant_generator_syzygy():
    # inputs x, x^2: e_1 - x e_0 must be recoverable
    R = PolyRing(F, ["x"])
    order, o2 = PositionOverTerm(R, 1), PositionOverTerm(R, 2)
    inputs = [ring_vec(R.variable(0), order),
              ring_vec(R.from_string("x^2"), order)]
    syz = syzygy_generators(inputs, R, order)
    for s in syz:
        assert combo(inputs, s, R) == {}
    sgb = reduced_gb([packed(unpacked(s, R, 2), o2) for s in syz], R, o2)
    target = {(1, (0,)): F.one, (0, (1,)): F.normalize(-1)}
    assert contains(sgb, packed(target, o2))


# -- quotient rings ---------------------------------------------------------

def test_quotient_normal_forms():
    R = PolyRing(F, ["x", "y"])
    Q = QuotientRing(R, ["x^2 + y^2", "x*y"])
    assert Q.reduce(R.from_string("x^3")).is_zero()  # x^3 = x(x^2+y^2) - y(x*y)
    assert Q.from_string("y^3").is_zero()
    assert not Q.from_string("y^2").is_zero()
    assert Q.is_artinian()
    assert [Q.ambient.wdeg(e) for e in Q.std_monomials()] == [0, 1, 1, 2]
    assert top_degree(Q) == 2


def test_quotient_ring_polynomial_case():
    R = PolyRing(F, ["x", "y"])
    Q = QuotientRing(R, [])
    p = R.from_string("x^2*y + 3")
    assert Q.reduce(p) == p
    assert not Q.is_artinian()
    assert Q.krull_dim() == 2


def test_unit_ideal_rejected():
    R = PolyRing(F, ["x"])
    with pytest.raises(ValueError):
        QuotientRing(R, ["x - x + 1"]) if False else QuotientRing(R, [R.one()])


def test_inhomogeneous_relation_rejected():
    R = PolyRing(F, ["x", "y"])
    from homcalc.ring import HomogeneityError
    with pytest.raises(HomogeneityError):
        QuotientRing(R, ["x^2 - y"])


# -- kernels and lifts over quotients ---------------------------------------

def test_kernel_of_multiplication_map():
    R = PolyRing(F, ["x"])
    Q = QuotientRing(R, ["x^2"])
    m = GradedMatrix(Q, GradedFree.of([1]), GradedFree.of([0]),
                     {(0, 0): R.variable(0)})
    ker = kernel_matrix(m)
    assert ker.source.rank == 1
    assert repr(entry(ker, 0, 0)) == "x"
    assert ker.source.twists == (2,)


def test_kernel_is_killed_by_map():
    R = PolyRing(F, ["x", "y"])
    Q = QuotientRing(R, ["x*y"])
    m = GradedMatrix(Q, GradedFree.of([1, 1]), GradedFree.of([0]),
                     {(0, 0): R.variable("x"), (0, 1): R.variable("y")})
    ker = kernel_matrix(m)
    assert ker.source.rank > 0
    prod = m.compose(ker)
    assert Q.reduce_matrix(prod).is_zero()


def test_lift_success_and_failure():
    R = PolyRing(F, ["x", "y"])
    Q = QuotientRing(R, ["x*y"])
    m = GradedMatrix(Q, GradedFree.of([1]), GradedFree.of([0]),
                     {(0, 0): R.variable("y")})
    tgt = GradedMatrix(Q, GradedFree.of([2]), GradedFree.of([0]),
                       {(0, 0): R.from_string("y^2")})
    X = lift_matrix(m, tgt)
    assert X is not None
    assert Q.reduce_matrix(m.compose(X)) == Q.reduce_matrix(tgt)
    bad = GradedMatrix(Q, GradedFree.of([1]), GradedFree.of([0]),
                       {(0, 0): R.variable("x")})
    assert lift_matrix(m, bad) is None


def test_lift_uses_quotient_relations():
    # over R = k[x]/(x^2), x*1 = x and also x*(1 + x) = x: any lift works,
    # and x^2 = 0 lifts through multiplication by x as x*x
    R = PolyRing(F, ["x"])
    Q = QuotientRing(R, ["x^3"])
    m = GradedMatrix(Q, GradedFree.of([2]), GradedFree.of([0]),
                     {(0, 0): R.from_string("x^2")})
    tgt = GradedMatrix(Q, GradedFree.of([3]), GradedFree.of([0]),
                       {(0, 0): R.from_string("x^3")})
    X = lift_matrix(m, Q.reduce_matrix(tgt))
    # x^3 reduces to 0, so the zero lift must be found
    assert X is not None
    assert Q.reduce_matrix(m.compose(X)).is_zero()


def test_empty_mod_is_the_plain_kernel_and_lift():
    R = PolyRing(F, ["x", "y"])
    Q = QuotientRing(R, ["x*y"])
    m = GradedMatrix(Q, GradedFree.of([1, 1]), GradedFree.of([0]),
                     {(0, 0): R.variable("x"), (0, 1): R.variable("y")})
    assert kernel_matrix(m, []) == kernel_matrix(m)
    assert lift_matrix(m, m, []) == lift_matrix(m, m)


def test_kernel_and_lift_modulo_a_submodule():
    # over k[x,y]/(x^2), (a, b) with a x + b y in (x) are those with b in
    # (x): R/(x) = k[y] has y regular.  So e_0 and x e_1 generate.  y^2
    # is no multiple of x, but modulo (y) it is: zero times x
    R = PolyRing(F, ["x", "y"])
    Q = QuotientRing(R, ["x^2"])
    x, y = Q.variable(0), Q.variable(1)
    tgt = GradedFree.of([0])
    m = GradedMatrix(Q, GradedFree.of([1, 1]), tgt, {(0, 0): x, (0, 1): y})
    xs = GradedMatrix(Q, GradedFree.of([1]), tgt, {(0, 0): x})
    ker = kernel_matrix(m, [xs])
    assert ker == GradedMatrix(Q, GradedFree.of([1, 2]), m.source,
                               {(0, 0): Q.one(), (1, 1): x})
    ys = GradedMatrix(Q, GradedFree.of([1]), tgt, {(0, 0): y})
    y2 = GradedMatrix(Q, GradedFree.of([2]), tgt, {(0, 0): y * y})
    assert lift_matrix(xs, y2) is None
    X = lift_matrix(xs, y2, [ys])
    assert X == GradedMatrix.zero(Q, y2.source, xs.source)
    with pytest.raises(ValueError):
        kernel_matrix(m, [GradedMatrix.zero(Q, tgt, GradedFree.of([1]))])


# -- Hilbert series ---------------------------------------------------------

def test_minimalize_monomials():
    R = PolyRing(F, ["x", "y"])
    out = minimalize_monomials([(2, 0), (2, 1), (0, 3), (2, 0)], R)
    assert out == [(2, 0), (0, 3)]


def test_hilbert_polynomial_ring():
    R = PolyRing(F, ["x", "y"])
    hs = HilbertSeries(R.weights, hilbert_numerator([], R))
    assert hs.coeffs(0, 4) == [1, 2, 3, 4, 5]
    assert hs.dimension() == 2


def test_hilbert_hypersurface_xy():
    R = PolyRing(F, ["x", "y"])
    Q = QuotientRing(R, ["x*y"])
    hs = Q.hilbert_series()
    assert hs.coeffs(0, 5) == [1, 2, 2, 2, 2, 2]
    assert hs.dimension() == 1
    assert Q.krull_dim() == 1


def test_hilbert_artinian_length():
    R = PolyRing(F, ["x"])
    Q = QuotientRing(R, ["x^2"])
    hs = Q.hilbert_series()
    assert hs.coeffs(0, 3) == [1, 1, 0, 0]
    assert hs.dimension() == 0


def test_hilbert_weighted_cusp():
    # k[x,y] with weights (2,3) modulo x^3 - y^2: the numerical semigroup <2,3>
    R = PolyRing(F, ["x", "y"], weights=(2, 3))
    Q = QuotientRing(R, ["x^3 - y^2"])
    hs = Q.hilbert_series()
    assert hs.coeffs(0, 7) == [1, 0, 1, 1, 1, 1, 1, 1]
    assert hs.dimension() == 1


def test_hilbert_semigroup_345():
    R = PolyRing(F, ["a", "b", "c"], weights=(3, 4, 5))
    Q = QuotientRing(R, ["b^2 - a*c", "b*c - a^3", "c^2 - a^2*b"])
    hs = Q.hilbert_series()
    assert hs.coeffs(0, 10) == [1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1]
    assert hs.dimension() == 1


def test_hilbert_shift_and_sum():
    R = PolyRing(F, ["x"])
    hs = HilbertSeries(R.weights, {0: 1})  # k[x]
    sh = hs.times([2])
    assert sh.coeffs(0, 4) == [0, 0, 1, 1, 1]
    assert hs.plus(sh).coeffs(0, 3) == [1, 1, 2, 2]


def test_hilbert_equality_is_numerator_equality():
    R = PolyRing(F, ["x", "y"])
    a = HilbertSeries(R.weights, {0: 1, 2: -1})
    b = HilbertSeries(R.weights, {0: 1, 2: -1})
    c = HilbertSeries(R.weights, {0: 1, 1: -1})
    assert a == b and a != c
