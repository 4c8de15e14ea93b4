"""The Groebner kernel as it was with tuple term keys, for tests.

The engine packs each module term (component, exponents) into one int
(groebner.TermOverPosition).  The code below is the kernel from before
that change, verbatim except that its names are prefixed with old_ (calls
between the copies renamed too): its vectors are dicts {(component,
exponents): coeff}, and its term orders key terms by memoized tuples.
vec_scale did not change and comes from the engine.  The engine's
vec_axpy now shifts its vector by a packed monomial, and its expressions
are packed vectors, so the tuple-keyed vec_axpy and _expr_axpy are kept
here as old_vec_axpy and old_expr_axpy.  PolyRing.mono_div,
PolyRing.mono_lcm, PolyRing.mono_mul and the coefficient of
PolyRing.monomial, which the packed kernel no longer uses, are the module
functions mono_div, mono_lcm, mono_mul and monomial here.
old_kernel_matrix and old_lift_matrix take the engine's later mod
argument, and old_kernel_matrix its early exits.
tests/test_kernel_reference.py runs the packed kernel against it.
"""

import bisect
import heapq
from operator import add, neg, sub

from homcalc.groebner import QuotientRing, vec_scale
from homcalc.ring import GradedFree, GradedMatrix, Polynomial, PolyRing


def mono_div(b, a):
    return tuple(map(sub, b, a))


def mono_mul(a, b):
    return tuple(map(add, a, b))


def monomial(ring, exps, coeff=1) -> Polynomial:
    c = ring.field.normalize(coeff)
    e = tuple(exps)
    if len(e) != ring.n:
        raise ValueError("wrong exponent length")
    return Polynomial(ring, {} if ring.field.is_zero(c) else {e: c})


def old_vec_axpy(target, c, v, F):
    """target += c * v, in place."""
    for k, x in v.items():
        s = F.add(target.get(k, F.zero), F.mul(c, x))
        if F.is_zero(s):
            target.pop(k, None)
        else:
            target[k] = s
    return target


def old_expr_axpy(target: dict, coeff: Polynomial, src: dict):
    """target -= coeff * src for expression dicts (index -> Polynomial)."""
    for i, p in src.items():
        cur = target.get(i)
        upd = (cur - coeff * p) if cur is not None else -(coeff * p)
        if upd.is_zero():
            target.pop(i, None)
        else:
            target[i] = upd


def mono_lcm(a, b):
    return tuple(map(max, a, b))


class old_TermOrder:
    """key(term) of a term (component, exponents) is memoized in _keys and
    descends with the term order: the larger term has the smaller key, so
    a min-heap of keys pops the leading term first and min(v, key=key)
    is the lead of v.  Keys are negated order tuples, flat and injective.
    """

    __slots__ = ("ring", "_keys")

    def __init__(self, ring: PolyRing):
        self.ring = ring
        self._keys = {}

    def key(self, term):
        k = self._keys.get(term)
        if k is None:
            k = self._keys[term] = self._key(*term)
        return k


class old_TermOverPosition(old_TermOrder):
    """Twisted degree, then ring order on the monomial, then component."""

    __slots__ = ("twists",)

    def __init__(self, ring: PolyRing, twists):
        super().__init__(ring)
        self.twists = tuple(twists)

    def _key(self, c, e):
        return ((-(self.ring.wdeg(e) + self.twists[c]),)
                + tuple(map(neg, self.ring.mono_key(e))) + (c,))


def old_vec_from_column(col: dict) -> dict:
    v = {}
    for i, p in col.items():
        for e, c in p.terms.items():
            v[(i, e)] = c
    return v


def old_vec_to_column(v: dict, ring) -> dict:
    col = {}
    for (i, e), c in v.items():
        col.setdefault(i, {})[e] = c
    return {i: Polynomial(ring, t) for i, t in col.items()}


def old_vec_term_mul(v, shift, c, ring, F):
    """(c * x^shift) * v."""
    out = {}
    for (comp, e), x in v.items():
        out[(comp, mono_mul(e, shift))] = F.mul(c, x)
    return out


def old_vec_lead(v, order):
    return min(v, key=order.key)


class old_Reducers:
    """The divisor list of old_vec_divide, with its leads indexed by component.

    vecs[i] is a Vec and leads[i] its ((component, exponents), coeff);
    both are None once position i is dropped.  by_comp maps a component
    to the (position, exponents) of its live leads in position order, so
    the first divisor found there is the first in basis order.
    """

    __slots__ = ("order", "vecs", "leads", "by_comp")

    def __init__(self, order, vecs=()):
        self.order = order
        self.vecs = []
        self.leads = []
        self.by_comp = {}
        for v in vecs:
            self.push(v)

    def push(self, v) -> int:
        lt = old_vec_lead(v, self.order)
        i = len(self.vecs)
        self.vecs.append(v)
        self.leads.append((lt, v[lt]))
        self.by_comp.setdefault(lt[0], []).append((i, lt[1]))
        return i

    def replace(self, i, v):
        """Put v at position i; v None drops the position."""
        (c, e), _ = self.leads[i]
        self.by_comp[c].remove((i, e))
        if v is None:
            self.vecs[i] = self.leads[i] = None
            return
        lt = old_vec_lead(v, self.order)
        self.vecs[i] = v
        self.leads[i] = (lt, v[lt])
        bisect.insort(self.by_comp.setdefault(lt[0], []), (i, lt[1]))


def old_vec_divide(f, reducers, track=False, skip=-1):
    """Divide f by the vectors of a old_Reducers, leaving out position skip.

    Returns (remainder, quotients) with f = sum_i q_i vecs_i + remainder
    and no remainder term divisible by any lead.  quotients is None
    unless track is set; then it maps each position with a nonzero
    quotient, in increasing order, to its term dict (exponent -> coeff).

    Terms are popped from a heap of order keys, largest first.  This
    picks the same term as a scan for the maximum because of two
    invariants: every term a reduction step adds is smaller than the
    popped term (the reducer's lead times the shift is the popped term
    and cancels it exactly, so it is dropped rather than computed), and
    the reducer of a term is the first lead in basis order whose
    component matches and whose monomial divides it.  A term cancelled
    after it was pushed leaves a stale heap entry, skipped when popped.
    """
    order = reducers.order
    ring = order.ring
    F = ring.field
    key = order.key
    divides = ring.mono_divides
    vecs, leads, by_comp = reducers.vecs, reducers.leads, reducers.by_comp
    work = dict(f)
    heap = [(key(ce), ce) for ce in work]
    heapq.heapify(heap)
    rem = {}
    quots = {} if track else None
    while heap:
        ce = heapq.heappop(heap)[1]
        coef = work.pop(ce, None)
        if coef is None:
            continue
        c, e = ce
        for i, le in by_comp.get(c, ()):
            if i != skip and divides(le, e):
                break
        else:
            rem[ce] = coef
            continue
        shift = mono_div(e, le)
        fac = F.div(coef, leads[i][1])
        nfac = F.neg(fac)
        for (bc, be), x in vecs[i].items():
            if bc == c and be == le:
                continue
            t = (bc, mono_mul(be, shift))
            old = work.get(t)
            if old is None:
                work[t] = F.mul(nfac, x)
                heapq.heappush(heap, (key(t), t))
            else:
                s = F.add(old, F.mul(nfac, x))
                if F.is_zero(s):
                    del work[t]
                else:
                    work[t] = s
        if track:
            quots.setdefault(i, {})[shift] = fac
    if track:
        quots = {i: quots[i] for i in sorted(quots)}
    return rem, quots


class old_GBResult:
    """Reduced Groebner basis of a list of input vectors.

    reducers.vecs (also elements): basis vectors, lead coefficient 1,
        sorted by lead.
    reducers.leads (also leads): ((component, exponents), 1).
    exprs[k]: dict input_index -> Polynomial with
        elements[k] = sum_i exprs[k][i] * inputs[i]   (over the ambient ring).
    """

    __slots__ = ("ring", "reducers", "exprs")

    def __init__(self, ring, reducers, exprs):
        self.ring = ring
        self.reducers = reducers
        self.exprs = exprs

    @property
    def elements(self):
        return self.reducers.vecs

    @property
    def leads(self):
        return self.reducers.leads

    def normal_form(self, v, track=False):
        """(remainder, quotients): quotients maps basis positions with a
        nonzero quotient to it as a Polynomial, or is None untracked."""
        rem, quots = old_vec_divide(v, self.reducers, track=track)
        if not track:
            return rem, None
        return rem, {k: Polynomial(self.ring, q) for k, q in quots.items()}


def old_reduced_gb(inputs, ring: PolyRing, order, track=False,
               padded=0) -> old_GBResult:
    """Buchberger with normal selection, then one inter-reduction pass.

    inputs: list of Vec (zero entries allowed; they are ignored here and
    handled by the syzygy layer).  The last `padded` inputs are a tail
    that already forms a Groebner basis in each component: the ideal
    padding (``old_padding_vectors``), or one copy of a module's reduced
    basis per block of components (``modules._coker_gb``).  No pair of two
    of them is queued.  Such a pair has a standard representation in the
    tail (pairs in different components make no S-vector), so the chain
    criterion, which treats every unqueued pair as done, stays sound.

    The inter-reduction first drops every element whose lead another live
    lead divides (of equal leads the last stays, as a division pass in
    index order would leave it), then divides each element once by the
    others.  The leads left never change, so that one pass leaves every
    non-lead term irreducible: the reduced basis.
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
    # first basis position of the padding (padding vectors are nonzero)
    pad_from = len(basis) - padded

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

    def queue_pairs_with(j, below):
        # pairs (i, j) with i < below; only leads in the same component
        # make a pair
        nonlocal ticket
        (cj, ej), _ = leads[j]
        for i, ei in by_comp[cj]:
            if i >= below:
                break
            m = (cj, mono_lcm(ei, ej))
            heapq.heappush(pairs, (tuple(map(neg, order.key(m))), ticket, i, j))
            pending.add((i, j))
            ticket += 1

    for j in range(len(basis)):
        queue_pairs_with(j, min(j, pad_from))

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
        queue_pairs_with(jnew, jnew)

    # inter-reduce to the reduced basis, keeping expressions consistent:
    # drop the non-minimal leads, then reduce each tail once
    for idx, ((c, e), _) in enumerate(leads):
        for k, ek in by_comp[c]:
            if k != idx and ring.mono_divides(ek, e) and (k > idx or ek != e):
                red.replace(idx, None)
                exprs[idx] = None
                break
    for idx in range(len(basis)):
        if basis[idx] is None:
            continue
        rem, quots = old_vec_divide(basis[idx], red, track=track, skip=idx)
        if rem == basis[idx]:
            continue
        if not rem:
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
    """Generators of the syzygy module of gb.elements, from S-pairs.

    Each syzygy is a Vec over the index space of gb.elements.  For i < j
    with leads in one component, tau_ij = (m_ij/m_i) e_i - (m_ij/m_j) e_j
    minus the quotients of the S-pair's standard expression, where m_ij
    is the lcm of the leading monomials m_i, m_j.  By Schreyer's theorem
    (Eisenbud, *Commutative Algebra*, Thm 15.10) the tau_ij form a
    Groebner basis of the syzygies, with lead (m_ij/m_i) e_i in the
    order that breaks ties by the smaller index.  So for each i only the
    tau_ij whose m_ij/m_i is a minimal generator of {m_ij/m_i}_j are kept
    (of equal ones, the lowest j): their leads generate the same lead
    module, so they still generate every syzygy.
    """
    ring, F = gb.ring, gb.ring.field
    elements, leads, by_comp = gb.elements, gb.leads, gb.reducers.by_comp
    divides = ring.mono_divides
    out = []
    for i, ((ci, ei), lci) in enumerate(leads):
        first = {}      # m_ij/m_i -> lowest j, in position order
        for j, ej in by_comp[ci]:
            if j > i:
                first.setdefault(mono_div(mono_lcm(ei, ej), ei), j)
        for si, j in first.items():
            if any(t != si and divides(t, si) for t in first):
                continue
            lcj = leads[j][1]
            sj = mono_div(mono_mul(ei, si), leads[j][0][1])
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


def old_syzygy_generators(inputs, ring: PolyRing, order, padded=0):
    """Generators of the syzygy module of the input vectors.

    Returns Vecs over the input index space: transported Schreyer
    syzygies of the reduced basis plus the columns of I - U V, where U, V
    express the basis in the inputs and back.  Zero inputs contribute
    unit syzygies.  An input that is a basis element up to a scalar (its
    basis expression is {i: constant}) has a zero I - U V column, so it
    is not divided again.  The last `padded` inputs are the ideal padding
    (see old_reduced_gb).
    """
    F = ring.field
    zero_idx = [i for i, v in enumerate(inputs) if not v]
    gb = old_reduced_gb(inputs, ring, order, track=True, padded=padded)

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
    in_basis = {i for ex in gb.exprs if len(ex) == 1
                for i, p in ex.items() if p.terms.keys() == {ring.zero_exp}}
    for i, v in enumerate(inputs):
        if not v or i in in_basis:
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


def old_padding_vectors(qr: QuotientRing, rank: int):
    pads = []
    for g in qr.ideal_basis:
        for t in range(rank):
            pads.append({(t, e): c for e, c in g.terms.items()})
    return pads


def old_kernel_matrix(m: GradedMatrix, mod=()) -> GradedMatrix:
    """Generators of ker(m) for m over a QuotientRing, read modulo the
    images of the matrices in mod (their columns go between m's and the
    padding).  A map from zero or into zero takes the engine's early exit,
    which the stacked route took before it (tests/stacked_route.py): the
    zero matrix, or the identity in the source's order, where the syzygies
    below would list its columns ascending by lead."""
    qr = m.ring
    if m.source.rank == 0:
        return GradedMatrix.zero(qr, GradedFree.of([]), m.source)
    if m.target.rank == 0:
        return GradedMatrix.identity(qr, m.source)
    P = qr.ambient
    cols = [old_vec_from_column(c) for c in m.columns()]
    rest = [old_vec_from_column(c) for d in mod for c in d.columns()]
    pads = old_padding_vectors(qr, m.target.rank)
    order = old_TermOverPosition(P, m.target.twists)
    syz = old_syzygy_generators(cols + rest + pads, P, order,
                                padded=len(pads))
    ncols = len(cols)
    raw = []
    for s in syz:
        col = {}
        for (idx, e), c in s.items():
            if idx < ncols:
                col.setdefault(idx, {})[e] = c
        if col:
            raw.append({i: Polynomial(P, t) for i, t in col.items()})
    # old_interreduce_columns divides by the padding: its columns are normal
    # forms mod I, and a column zero mod I drops there
    raw = old_interreduce_columns(qr, m.source, raw)
    return GradedMatrix.from_columns(qr, m.source, raw)


def old_interreduce_columns(qr: QuotientRing, free: GradedFree, cols):
    """Greedy inter-reduction of module elements over the quotient ring.

    Preserves the span; drops zeros and elements reducible to zero by the
    others plus the ideal padding.  Not a Groebner basis, just cleanup to
    keep iterated syzygy runs small.
    """
    P = qr.ambient
    order = old_TermOverPosition(P, free.twists)
    vecs = [old_vec_from_column(c) for c in cols]
    vecs = [v for v in vecs if v]
    # ascending by lead; reverse=True keeps equal leads in input order
    vecs.sort(key=lambda v: order.key(old_vec_lead(v, order)), reverse=True)
    accepted = old_Reducers(order, old_padding_vectors(qr, free.rank))
    out = []
    for v in vecs:
        rem, _ = old_vec_divide(v, accepted)
        if not rem:
            continue
        rem = vec_scale(rem, qr.field.inv(rem[old_vec_lead(rem, order)]), qr.field)
        accepted.push(rem)
        out.append(old_vec_to_column(rem, P))
    return out


def old_lift_matrix(m: GradedMatrix, targets: GradedMatrix, mod=()):
    """Solve m X = targets over the quotient ring, modulo the images of
    the matrices in mod (their columns go between m's and the padding);
    None when unsolvable.

    targets.target must equal m.target.  The result X maps
    targets.source -> m.source.
    """
    if targets.target != m.target:
        raise ValueError("lift target mismatch")
    qr = m.ring
    P = qr.ambient
    cols = [old_vec_from_column(c) for c in m.columns()]
    rest = [old_vec_from_column(c) for d in mod for c in d.columns()]
    pads = old_padding_vectors(qr, m.target.rank)
    order = old_TermOverPosition(P, m.target.twists)
    gb = old_reduced_gb(cols + rest + pads, P, order, track=True,
                        padded=len(pads))
    ncols = len(cols)
    entries = {}
    for j, col in enumerate(targets.columns()):
        v = old_vec_from_column(col)
        rem, quots = gb.normal_form(v, track=True)
        if rem:
            return None
        acc = {}
        for k, q in quots.items():
            for i, p in gb.exprs[k].items():
                if i >= ncols:
                    continue
                cur = acc.get(i)
                prod = q * p
                acc[i] = prod if cur is None else cur + prod
        for i, p in acc.items():
            p = qr.reduce(p)
            if not p.is_zero():
                entries[(i, j)] = p
    return GradedMatrix(qr, targets.source, m.source, entries)


class old_PositionOverTerm(old_TermOrder):
    """Component dominates; lower component index wins, then the ring order."""

    __slots__ = ()

    def _key(self, c, e):
        return (c,) + tuple(map(neg, self.ring.mono_key(e)))
