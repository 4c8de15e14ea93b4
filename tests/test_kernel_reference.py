"""The kernel path against its previous forms.

Three references, all copies of earlier code.  First, the tuple-keyed
kernel from before module terms were packed into ints, in
tests/tuple_kernel.py: on seeded random matrices over F_32003 and Q,
over a polynomial ring and a quotient ring, in both term orders, the
packed kernel's bases, leads, expressions, quotients, syzygies, kernels,
lifts and inter-reduced columns, unpacked, equal that kernel's.  The
expressions and syzygies are packed over the input index space and the
quotients keyed by packed shift; each is unpacked before it is compared.

Second, the kernel before it kept only the Schreyer syzygies with a
minimal lead, inter-reduced in one pass, queued no pair of two padding
vectors, skipped the zero I - UV columns and left the reduction mod I to
interreduce_columns.  Each step is exact, so that code, copied verbatim
below (only the function names are prefixed with old_, its calls to
GBResult and vec_from_column drop the arguments those no longer take,
and it calls the tuple-keyed kernel's pieces, vec_axpy, _expr_axpy and
the ring's mono_mul and monomial among them, under their names in
tests/tuple_kernel.py), is
the reference: the reduced bases are equal and the two kernels generate
the same module.

Third, schreyer_syzygies, verbatim from the engine before its kernels
read each syzygy off the S-vector's expression over the inputs: the
Schreyer syzygies of a basis over the basis's own indices.  The tests
here and in tests/test_groebner.py check those against the tuple kernel
and by evaluation.
"""

from fractions import Fraction
import heapq
from operator import neg

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from homcalc.field import PrimeField, RationalField
from homcalc.ring import (GradedFree, GradedMatrix, Polynomial, PolyRing,
                         TermRangeError, hstack)
from homcalc.groebner import (
    GBResult, QuotientRing, TermOverPosition, clean_columns, index_order,
    interreduce_columns, kernel_matrix, lift_matrix, minimal_pairs,
    reduced_gb, syzygy_generators, vec_axpy, vec_divide, vec_from_column,
    vec_scale, vec_to_column,
)

import tuple_kernel as tk
from tuple_kernel import (
    mono_div, mono_lcm, mono_mul, monomial, old_expr_axpy, old_GBResult,
    old_PositionOverTerm, old_Reducers, old_TermOverPosition,
    old_interreduce_columns, old_padding_vectors, old_vec_axpy,
    old_vec_divide, old_vec_from_column, old_vec_term_mul,
)
from slice_homology import monomials_of_degree
from term_orders import PositionOverTerm


# -- the code before the one-pass inter-reduction, verbatim --------------------------------------------


def old_reduced_gb(inputs, ring: PolyRing, order, track=False) -> old_GBResult:
    """Buchberger with normal selection, then full inter-reduction.

    inputs: list of Vec (zero entries allowed; they are ignored here and
    handled by the syzygy layer).
    """
    F = ring.field
    red = old_Reducers(order)
    basis, leads, by_comp = red.vecs, red.leads, red.by_comp
    exprs = []      # input_index -> Polynomial

    def push(v, expr):
        exprs.append(expr)
        return red.push(v)

    for i, v in enumerate(inputs):
        if v:
            push(dict(v), {i: ring.one()} if track else {})

    # pair queue keyed by the lcm term, smallest first (normal strategy):
    # the negated order key ascends with the order
    pairs = []
    ticket = 0
    pending = set()

    def lcm_of(i, j):
        (ci, ei), _ = leads[i]
        (cj, ej), _ = leads[j]
        if ci != cj:
            return None
        return (ci, mono_lcm(ei, ej))

    def queue_pairs_with(j):
        # only leads in the same component make a pair
        nonlocal ticket
        (cj, ej), _ = leads[j]
        for i, ei in by_comp[cj]:
            if i >= j:
                break
            m = (cj, mono_lcm(ei, ej))
            heapq.heappush(pairs, (tuple(map(neg, order.key(m))), ticket, i, j))
            pending.add((i, j))
            ticket += 1

    for j in range(len(basis)):
        queue_pairs_with(j)

    # the product criterion needs every vector confined to one component
    # (leads alone are not enough: coprime-lead S-pairs can leave
    # uncancelled residue in other components)
    rank1 = len({c for v in basis for (c, _) in v}) <= 1

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        m = lcm_of(i, j)
        (ci, ei), lci = leads[i]
        (cj, ej), lcj = leads[j]
        mc, me = m
        # product criterion: in a rank-one ambient module a pair with
        # coprime leading monomials reduces to zero
        if rank1 and mono_mul(ei, ej) == me:
            continue
        # chain criterion with the lcm-inequality guards that make
        # pop-time elimination safe
        skip = False
        for k, ek in by_comp[mc]:
            if k == i or k == j or not ring.mono_divides(ek, me):
                continue
            a, b = (i, k) if i < k else (k, i)
            c2, d2 = (j, k) if j < k else (k, j)
            if (a, b) in pending or (c2, d2) in pending:
                continue
            if lcm_of(a, b) == m or lcm_of(c2, d2) == m:
                continue
            skip = True
            break
        if skip:
            continue
        si = mono_div(me, ei)
        sj = mono_div(me, ej)
        s = old_vec_term_mul(basis[i], si, F.inv(lci), ring, F)
        old_vec_axpy(s, F.neg(F.one), old_vec_term_mul(basis[j], sj, F.inv(lcj), ring, F), F)
        rem, quots = old_vec_divide(s, red, track=track)
        if not rem:
            continue
        expr = {}
        if track:
            old_expr_axpy(expr, monomial(ring, si, F.neg(F.inv(lci))), exprs[i])
            old_expr_axpy(expr, monomial(ring, sj, F.inv(lcj)), exprs[j])
            for k, q in quots.items():
                old_expr_axpy(expr, Polynomial(ring, q), exprs[k])
        jnew = push(rem, expr)
        queue_pairs_with(jnew)

    # inter-reduce to the reduced basis, keeping expressions consistent
    changed = True
    while changed:
        changed = False
        for idx in range(len(basis)):
            if basis[idx] is None:
                continue
            rem, quots = old_vec_divide(basis[idx], red, track=track, skip=idx)
            if rem == basis[idx]:
                continue
            changed = True
            if not rem:
                red.replace(idx, None)
                exprs[idx] = None
                continue
            if track:
                expr = dict(exprs[idx])
                for t, q in quots.items():
                    old_expr_axpy(expr, Polynomial(ring, q), exprs[t])
                exprs[idx] = expr
            red.replace(idx, rem)

    # ascending by lead, as order keys descend
    final = [(b, leads[t], exprs[t]) for t, b in enumerate(basis) if b is not None]
    final.sort(key=lambda ble: order.key(ble[1][0]), reverse=True)
    out = old_Reducers(order)
    out_e = []
    for b, (lt, lc), e in final:
        inv = F.inv(lc)
        out.push(vec_scale(b, inv, F))
        if track:
            out_e.append({i: p.scale(inv) for i, p in e.items()})
        else:
            out_e.append({})
    return old_GBResult(ring, out, out_e)


def old_schreyer_syzygies(gb: old_GBResult):
    """Syzygies of gb.elements from all same-component S-pairs.

    Each syzygy is a Vec over the index space of gb.elements.  By the
    Schreyer construction these generate the full syzygy module of the
    basis.
    """
    ring, F = gb.ring, gb.ring.field
    elements, leads, by_comp = gb.elements, gb.leads, gb.reducers.by_comp
    out = []
    for i, ((ci, ei), lci) in enumerate(leads):
        for j, ej in by_comp[ci]:
            if j <= i:
                continue
            lcj = leads[j][1]
            me = mono_lcm(ei, ej)
            si = mono_div(me, ei)
            sj = mono_div(me, ej)
            s = old_vec_term_mul(elements[i], si, F.inv(lci), ring, F)
            old_vec_axpy(s, F.neg(F.one),
                     old_vec_term_mul(elements[j], sj, F.inv(lcj), ring, F), F)
            rem, quots = old_vec_divide(s, gb.reducers, track=True)
            if rem:
                raise ArithmeticError("S-pair of a Groebner basis did not reduce to zero")
            syz = {}
            syz[(i, si)] = F.inv(lci)
            prev = syz.get((j, sj), F.zero)
            syz[(j, sj)] = F.sub(prev, F.inv(lcj))
            if F.is_zero(syz[(j, sj)]):
                del syz[(j, sj)]
            for k, q in quots.items():
                for e, c in q.items():
                    cur = F.sub(syz.get((k, e), F.zero), c)
                    if F.is_zero(cur):
                        syz.pop((k, e), None)
                    else:
                        syz[(k, e)] = cur
            if syz:
                out.append(syz)
    return out


def old_syzygy_generators(inputs, ring: PolyRing, order):
    """Generators of the syzygy module of the input vectors.

    Returns Vecs over the input index space: transported Schreyer
    syzygies of the reduced basis plus the columns of I - U V, where U, V
    express the basis in the inputs and back.  Zero inputs contribute
    unit syzygies.
    """
    F = ring.field
    zero_idx = [i for i, v in enumerate(inputs) if not v]
    gb = old_reduced_gb(inputs, ring, order, track=True)

    out = []
    for i in zero_idx:
        out.append({(i, ring.zero_exp): F.one})

    # transported Schreyer syzygies: s over GB indices -> U s over inputs
    for s in old_schreyer_syzygies(gb):
        t = {}
        for (k, e), c in s.items():
            for i, p in gb.exprs[k].items():
                for pe, pc in p.terms.items():
                    key = (i, mono_mul(pe, e))
                    cur = F.add(t.get(key, F.zero), F.mul(c, pc))
                    if F.is_zero(cur):
                        t.pop(key, None)
                    else:
                        t[key] = cur
        if t:
            out.append(t)

    # inputs re-expressed through the basis: columns of I - U V
    for i, v in enumerate(inputs):
        if not v:
            continue
        rem, quots = gb.normal_form(v, track=True)
        if rem:
            raise ArithmeticError("input does not reduce to zero against its own basis")
        t = {(i, ring.zero_exp): F.one}
        for k, q in quots.items():
            for j, p in gb.exprs[k].items():
                prod = q * p
                for pe, pc in prod.terms.items():
                    key = (j, pe)
                    cur = F.sub(t.get(key, F.zero), pc)
                    if F.is_zero(cur):
                        t.pop(key, None)
                    else:
                        t[key] = cur
        if t:
            out.append(t)
    return out


def old_kernel_matrix(m: GradedMatrix) -> GradedMatrix:
    """Generators of ker(m) for m over a QuotientRing (or PolyRing)."""
    qr = m.ring
    if isinstance(qr, PolyRing):
        qr = QuotientRing(qr, [])
    P = qr.ambient
    cols = [old_vec_from_column(c) for c in m.columns()]
    pads = old_padding_vectors(qr, m.target.rank)
    order = old_TermOverPosition(P, m.target.twists)
    syz = old_syzygy_generators(cols + pads, P, order)
    ncols = len(cols)
    raw = []
    for s in syz:
        col = {}
        for (idx, e), c in s.items():
            if idx < ncols:
                col.setdefault(idx, {})[e] = c
        if not col:
            continue
        red = {i: qr.reduce(Polynomial(P, t)) for i, t in col.items()}
        red = {i: p for i, p in red.items() if not p.is_zero()}
        if red:
            raw.append(red)
    raw = old_interreduce_columns(qr, m.source, raw)
    return GradedMatrix.from_columns(qr, m.source, raw)


# -- the Schreyer syzygies over a basis's own indices, verbatim -------------


def schreyer_syzygies(gb: GBResult):
    """Generators of the syzygy module of gb.elements, from S-pairs; None
    when an S-vector does not reduce to zero, so gb is not a Groebner
    basis.

    Each syzygy is a Vec over the index space of gb.elements, x^e e_k
    packed by index_order(ring, len(gb.elements)).  For each pair of
    minimal_pairs, tau_ij = (m_ij/m_i) e_i - (m_ij/m_j) e_j minus the
    quotients of the S-vector's standard expression.  By Schreyer's
    theorem (Eisenbud, *Commutative Algebra*, Thm 15.10) the tau_ij of
    all pairs form a Groebner basis of the syzygies, with lead
    (m_ij/m_i) e_i; the minimal pairs keep their lead module, so their
    tau_ij still generate every syzygy.
    """
    F = gb.ring.field
    units = index_order(gb.ring, len(gb.elements)).bases
    neg_one = F.neg(F.one)
    out = []
    for i, j, si, sj, s in minimal_pairs(gb):
        rem, quots = vec_divide(s, gb.reducers, track=True)
        if rem:
            return None
        syz = {units[i] + si: F.one, units[j] + sj: neg_one}
        for k, q in quots.items():
            vec_axpy(syz, neg_one, units[k], q, F)
        out.append(syz)
    return out


# -- seeded random matrices -------------------------------------------------


_NONZERO = {
    "p": st.integers(1, 32002),
    "q": st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)),
}


def draw_matrix(data, field, quotient):
    """A homogeneous matrix over F[x,y,z] (as its quotient by no
    relations) or a quotient of it by one to three random quadrics, with
    1-2 rows and 2-5 columns."""
    Fld = PrimeField(32003) if field == "p" else RationalField()
    P = PolyRing(Fld, ["x", "y", "z"])

    def poly(d):
        monos = monomials_of_degree(P, d)
        out = P.zero()
        for _ in range(data.draw(st.integers(1, 4))):
            e = monos[data.draw(st.integers(0, len(monos) - 1))]
            out = out + P.monomial(e).scale(Fld.normalize(data.draw(_NONZERO[field])))
        return out

    R = QuotientRing(P, [])
    if quotient:
        R = QuotientRing(P, [poly(2) for _ in range(data.draw(st.integers(1, 3)))])
    rows = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=2))
    cols = [min(rows) + data.draw(st.integers(1, 3))
            for _ in range(data.draw(st.integers(2, 5)))]
    entries = {}
    for j, s in enumerate(cols):
        for i, t in enumerate(rows):
            if s >= t and data.draw(st.integers(0, 3)):
                p = poly(s - t)
                entries[(i, j)] = R.reduce(p) if quotient else p
    return R, GradedMatrix(R, GradedFree.of(cols), GradedFree.of(rows), entries)


def gb_inputs(R, m):
    """The columns of m plus the ideal padding, as reduced_gb sees them,
    tuple-keyed."""
    P = R.ambient
    cols = [old_vec_from_column(c) for c in m.columns()]
    pads = old_padding_vectors(R, m.target.rank)
    return P, cols + pads, len(pads)


def orders(P, m, top):
    """A packed term order on m's target and its tuple-keyed twin:
    TermOverPosition on the target's twists, or position over term."""
    if top:
        return (TermOverPosition(P, m.target.twists),
                old_TermOverPosition(P, m.target.twists))
    return PositionOverTerm(P, m.target.rank), old_PositionOverTerm(P)


def pack(order, v):
    return {order.pack(c, e): x for (c, e), x in v.items()}


def unpack(order, v):
    return {order.unpack(t): x for t, x in v.items()}


def unpack_indexed(ring, n, v):
    """A Vec over n indexed vectors (an expression or a syzygy), packed by
    index_order, tuple-keyed: {(index, exponents): coeff}."""
    return unpack(index_order(ring, n), v)


def expr_polys(ring, n, expr):
    """An expression over n inputs as the tuple kernel keeps it:
    {index: Polynomial}."""
    return vec_to_column(expr, index_order(ring, n))


def unpack_quotients(ring, quots):
    """vec_divide's quotients, keyed by exponents instead of packed
    shifts, in the same order."""
    if quots is None:
        return None
    return {i: {ring.unlin(s): c for s, c in q.items()}
            for i, q in quots.items()}


def combo(inputs, s, ring):
    """sum_(i,e) s_(i,e) x^e * inputs[i], for tuple-keyed inputs."""
    F = ring.field
    acc = {}
    for (i, e), c in s.items():
        old_vec_axpy(acc, F.one, old_vec_term_mul(inputs[i], e, c, ring, F), F)
    return acc


def schreyer_lead(s, gb, order):
    """(i, e) of the Schreyer lead of a syzygy s over a tuple-keyed basis
    gb: the term whose image x^e * lead(g_i) is largest, ties to the
    smaller index."""
    ring = gb.ring

    def key(term):
        (i, e), _ = term
        (c, le), _ = gb.leads[i]
        return order.key((c, mono_mul(le, e))), i

    return min(s.items(), key=key)[0]


CASES = pytest.mark.parametrize("field,quotient", [
    ("p", False), ("p", True), ("q", False), ("q", True)])
ORDERS = pytest.mark.parametrize("top", [True, False], ids=["top", "pot"])


@CASES
@seed(20260)
@settings(max_examples=13, deadline=None)
@given(data=st.data())
def test_reduced_gb_one_pass_matches_loop(field, quotient, data):
    R, m = draw_matrix(data, field, quotient)
    P, inputs, npad = gb_inputs(R, m)
    order, old_order = orders(P, m, data.draw(st.booleans()))
    old = old_reduced_gb(inputs, P, old_order)
    for track in (False, True):
        new = reduced_gb([pack(order, v) for v in inputs], P, order,
                         track=track, padded=npad)
        assert [unpack(order, v) for v in new.elements] == old.elements
        assert [(order.unpack(lt), c) for lt, c in new.leads] == old.leads
    # elements[k] = sum_(i, e) exprs[k][x^e e_i] x^e inputs[i]
    for v, expr in zip(new.elements, new.exprs):
        s = unpack_indexed(P, len(inputs), expr)
        assert combo(inputs, s, P) == unpack(order, v)


@CASES
@seed(20260)
@settings(max_examples=13, deadline=None)
@given(data=st.data())
def test_schreyer_keeps_minimal_leads(field, quotient, data):
    R, m = draw_matrix(data, field, quotient)
    P, inputs, npad = gb_inputs(R, m)
    order, old_order = orders(P, m, True)
    gb = reduced_gb([pack(order, v) for v in inputs], P, order, track=True,
                    padded=npad)
    # the tuple-keyed twin of gb, for the Schreyer leads and old_schreyer
    tgb = tk.old_reduced_gb(inputs, P, old_order, track=True, padded=npad)
    assert [unpack(order, v) for v in gb.elements] == tgb.elements
    kept = [unpack_indexed(P, len(gb.elements), s)
            for s in schreyer_syzygies(gb)]
    by_i = {}
    for s in kept:
        assert combo(tgb.elements, s, P) == {}
        i, e = schreyer_lead(s, tgb, old_order)
        by_i.setdefault(i, []).append(e)
    # within each e_i the kept leads are pairwise non-dividing
    for es in by_i.values():
        for a in es:
            assert sum(P.mono_divides(b, a) for b in es) == 1
    # and they generate the lead module of every tau_ij
    for s in old_schreyer_syzygies(tgb):
        i, e = schreyer_lead(s, tgb, old_order)
        assert any(P.mono_divides(b, e) for b in by_i.get(i, ()))


@CASES
@seed(20260)
@settings(max_examples=13, deadline=None)
@given(data=st.data())
def test_kernel_matches_full_schreyer(field, quotient, data):
    R, m = draw_matrix(data, field, quotient)
    new = kernel_matrix(m)
    old = old_kernel_matrix(m)
    prod = m.compose(new)
    assert (R.reduce_matrix(prod) if quotient else prod).is_zero()
    # each kernel's columns lift through the other: the same module
    assert lift_matrix(new, old) is not None
    assert lift_matrix(old, new) is not None


# -- the packed kernel against the tuple-keyed one ---------------------------


def same_division(order, new, old):
    """A packed (remainder, quotients) equals a tuple-keyed one, the
    remainder term for term in the same order, the quotients once their
    packed shifts are unpacked."""
    (rem, quots), (old_rem, old_quots) = new, old
    quots = unpack_quotients(order.ring, quots)
    assert list(unpack(order, rem).items()) == list(old_rem.items())
    assert quots == old_quots
    assert list(quots or ()) == list(old_quots or ())


@CASES
@ORDERS
@seed(20260)
@settings(max_examples=13, deadline=None)
@given(data=st.data())
def test_packed_gb_division_and_syzygies_match_tuple_kernel(field, quotient,
                                                           top, data):
    R, m = draw_matrix(data, field, quotient)
    P, inputs, npad = gb_inputs(R, m)
    order, old_order = orders(P, m, top)
    packed = [pack(order, v) for v in inputs]
    assert [unpack(order, v) for v in packed] == inputs
    for track in (False, True):
        new = reduced_gb(packed, P, order, track=track, padded=npad)
        old = tk.old_reduced_gb(inputs, P, old_order, track=track,
                                padded=npad)
        assert [list(unpack(order, v).items()) for v in new.elements] == \
            [list(v.items()) for v in old.elements]
        assert [(order.unpack(lt), c) for lt, c in new.leads] == old.leads
        assert {c: [(i, order.unpack(lt)[1]) for i, lt in ls]
                for c, ls in new.reducers.by_comp.items()} == \
            old.reducers.by_comp
        assert [expr_polys(P, len(inputs), e) for e in new.exprs] == \
            old.exprs
    # division of each input and of x times it, leaving out a drawn
    # position, tracked and not
    x = old_vec_term_mul(inputs[0], (1, 0, 0), P.field.one, P, P.field)
    for f in inputs + [x]:
        skip = data.draw(st.integers(-1, len(new.elements) - 1))
        for track in (False, True):
            same_division(order, vec_divide(pack(order, f), new.reducers,
                                            track=track, skip=skip),
                          old_vec_divide(f, old.reducers, track=track,
                                         skip=skip))
        # the tuple kernel's normal_form gives its quotients as
        # Polynomials, the packed kernel's the term dicts of vec_divide
        old_rem, old_quots = old.normal_form(f, track=True)
        same_division(order, new.normal_form(pack(order, f), track=True),
                      (old_rem, {k: q.terms for k, q in old_quots.items()}))
    assert [unpack_indexed(P, len(new.elements), s)
            for s in schreyer_syzygies(new)] == tk.old_schreyer_syzygies(old)
    assert [unpack_indexed(P, len(packed), s)
            for s in syzygy_generators(packed, P, order, padded=npad)] == \
        tk.old_syzygy_generators(inputs, P, old_order, padded=npad)


@CASES
@seed(20260)
@settings(max_examples=13, deadline=None)
@given(data=st.data())
def test_packed_kernel_lift_and_interreduce_match_tuple_kernel(field,
                                                              quotient, data):
    R, m = draw_matrix(data, field, quotient)
    assert kernel_matrix(m) == tk.old_kernel_matrix(m)
    cols = m.columns()
    order = TermOverPosition(R.ambient, m.target.twists)
    kept = interreduce_columns(R, m.target,
                               [vec_from_column(c, order) for c in cols])
    old_kept = old_interreduce_columns(R, m.target, cols)
    assert [vec_to_column(v, order) for v in kept] == old_kept
    assert clean_columns(R, m.target, cols) == GradedMatrix.from_columns(
        R, m.target, old_kept)
    # targets: m itself, its columns times x (solvable), x times each
    # target generator (mostly not), and both side by side
    x = R.variable(0)
    times_x = GradedMatrix(R, m.source.shifted(1), m.target,
                           {k: R.reduce(p * x) for k, p in m.entries.items()})
    units = GradedMatrix(R, m.target.shifted(1), m.target,
                         {(i, i): x for i in range(m.target.rank)})
    for t in (m, times_x, units, hstack(R, [times_x, units])):
        assert lift_matrix(m, t) == tk.old_lift_matrix(m, t)


# -- the range edge ---------------------------------------------------------


#: the largest twist a TermOverPosition packs
EDGE = (1 << 29) - 1


@pytest.mark.parametrize("field", ["p", "q"])
@pytest.mark.parametrize("twist,pad", [(-EDGE, 2), (-EDGE, (1 << 30) - 8),
                                       (EDGE - 1, 2), (EDGE - 1, (1 << 30) - 8)])
def test_kernel_and_lift_at_the_range_edge(field, twist, pad):
    # the expressions and syzygies are packed over the inputs with zero
    # twists, so an input's twisted degree (the padding's, twist + pad, is
    # 2^29 or more in three of the cases) is never packed as a twist: as
    # when they were Polynomials, only the target's and the source's twists
    # and the lcms are packed, and those are all in range here
    Fld = PrimeField(32003) if field == "p" else RationalField()
    P = PolyRing(Fld, ["x", "y"])
    R = QuotientRing(P, [f"x^{pad}"])
    x, y = R.variable(0), R.variable(1)
    tgt = GradedFree.of([twist])
    m = GradedMatrix(R, GradedFree.of([twist + 1, twist + 1]), tgt,
                     {(0, 0): x, (0, 1): y})
    assert kernel_matrix(m) == tk.old_kernel_matrix(m)
    xy = GradedMatrix(R, GradedFree.of([twist + 2]), tgt,
                      {(0, 0): R.reduce(x * y)})
    for t in (xy, m, GradedMatrix.identity(R, tgt)):
        assert lift_matrix(m, t) == tk.old_lift_matrix(m, t)


def test_kernel_refuses_a_source_twist_out_of_range():
    # the kernel's columns are packed in the source's order, as they were
    # before for interreduce_columns; lift_matrix packs no source twist
    P = PolyRing(PrimeField(32003), ["x", "y"])
    R = QuotientRing(P, ["x^2"])
    m = GradedMatrix(R, GradedFree.of([EDGE + 1, EDGE + 1]),
                     GradedFree.of([EDGE]),
                     {(0, 0): R.variable(0), (0, 1): R.variable(1)})
    with pytest.raises(TermRangeError):
        kernel_matrix(m)
    assert lift_matrix(m, m) == tk.old_lift_matrix(m, m)
