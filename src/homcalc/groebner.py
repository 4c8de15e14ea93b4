"""Groebner machinery for graded free modules over weighted polynomial
rings, plus quotient rings and Hilbert series.

Module elements ("vectors") are sparse dicts {term: coefficient}, each
term (component, exponents) packed into one int by a TermOverPosition
order, with nonzero coefficients only.  Everything is kept exact;
coefficients are unboxed field elements and all choices (selection
strategy, reducer choice, final ordering) are deterministic, so repeated
runs produce identical output.  The tracked side is packed too: a
quotient term x^s is keyed by its shift lin(s), and the expressions of a
basis and the syzygies are Vecs over the input index space, packed by
index_order with zero twists.  Polynomials and matrices keep exponent
tuples; vec_from_column converts on entry to kernel_matrix, lift_matrix
and clean_columns, and vec_to_column and columns_matrix on exit.

Quotient-ring computations are run upstairs: to compute kernels or lifts
over R = P/I inside a free module F with components e_0..e_{r-1}, read
modulo the images of some further matrices into F (kernel_matrix's and
lift_matrix's mod), the input columns are followed by those matrices'
columns and then by the padding vectors g*e_t for every defining relation
g and every component t.  The computation runs over P, and the answers
are projected onto the input columns and normal-formed mod I: they hold
modulo I*F plus the images of mod.

Certify, then complete: the inputs of a kernel or a lift are nearly
always a Groebner basis already, so _certified_gb keeps reduced_gb's
candidate, built with no S-pair queued, when its certificate holds, and
runs Buchberger's pair loop only when it fails.  A kernel's syzygies are
read off the certificate's own reductions (see _certificate).
"""

from __future__ import annotations

import bisect
import heapq
import itertools

from .ring import (
    DEGREE_BOUND, FIELD, FIELD_MASK, GradedFree, GradedMatrix,
    HomogeneityError, Polynomial, PolyRing, TermRangeError, ZERO_FREE,
)

# ---------------------------------------------------------------------------
# the module term order


class TermOverPosition:
    """Twisted degree, then ring order on the monomial, then component.

    A term (component c, exponents e) is the int pack(c, e) = bases[c] +
    ring.lin(e), whose FIELD-bit fields are, high to low,

        OFF - (wdeg e + twists[c]),  OFF - wdeg e,  e_{n-1}, ..., e_0,  c

    with OFF = 2^(FIELD - 1).  While every field stays in range, ints
    compare as these field tuples do lexicographically, and the tuple
    falls as the term rises: a larger twisted degree, then a larger
    degree, then a smaller last exponent (grevlex), then a smaller
    component.  So a smaller int is a larger term: min(v) is the lead of
    v, and a min-heap pops the largest term first.  lin is linear, so a
    term times x^s is the term plus lin(s), and the shift from a lead L
    to a term t of its component is t - L.  L divides t when no exponent
    field of t - L borrows, which would set its top (guard) bit: not (t
    - L) & ring.guard.

    Range: lin refuses a weighted degree above 2^30 and the order a twist
    of size 2^29 or more (TermRangeError), so packing fills every field
    in range.  Terms made by arithmetic stay in range: a reduction never
    raises the twisted degree (every term it adds is smaller than the
    term it cancels, and twisted degree is compared first), and every new
    lcm is packed through lin.  So every term has twisted degree below
    2^30 + 2^29 and weighted degree below 2^31, and its exponents leave
    the guard bits clear.

    >>> from homcalc.field import PrimeField
    >>> P = PolyRing(PrimeField(7), ["x", "y"])
    >>> order = TermOverPosition(P, [0, 1])
    >>> order.unpack(order.pack(1, (2, 0)))
    (1, (2, 0))
    >>> v = {order.pack(0, (1, 1)): 1, order.pack(1, (2, 0)): 1,
    ...      order.pack(0, (0, 2)): 1}
    >>> order.unpack(min(v))    # x^2 e_1: twisted degree 3
    (1, (2, 0))
    """

    __slots__ = ("ring", "twists", "bases")

    def __init__(self, ring: PolyRing, twists):
        self.ring = ring
        self.twists = tuple(twists)
        for t in self.twists:
            if abs(t) >= DEGREE_BOUND >> 1:
                raise TermRangeError(f"twist {t} is not inside "
                                     f"±2^{FIELD - 3}")
        off, low = 1 << (FIELD - 1), ring.deg_shift
        self.bases = tuple(((off - t) << (low + FIELD)) + (off << low) + c
                           for c, t in enumerate(self.twists))

    def pack(self, c, e) -> int:
        return self.bases[c] + self.ring.lin(e)

    def unpack(self, t):
        c = t & FIELD_MASK
        return c, self.ring.unlin(t - self.bases[c])

    def degree(self, t) -> int:
        """The twisted degree wdeg e + twists[c] of a term."""
        return (1 << (FIELD - 1)) - (t >> (self.ring.deg_shift + FIELD))

    def lcm(self, a, b) -> int:
        """The lcm of two terms of one component."""
        c, ea = self.unpack(a)
        eb = self.ring.unlin(b - self.bases[c])
        return self.bases[c] + self.ring.lin(tuple(map(max, ea, eb)))


# ---------------------------------------------------------------------------
# sparse vector helpers: Vec = dict {packed term: coeff}, with nonzero
# coefficients only


def vec_from_column(col: dict, order) -> dict:
    bases, lin = order.bases, order.ring.lin
    v = {}
    for i, p in col.items():
        b = bases[i]
        for e, c in p.terms.items():
            v[b + lin(e)] = c
    return v


def vec_to_column(v: dict, order) -> dict:
    col = {}
    for t, c in v.items():
        i, e = order.unpack(t)
        col.setdefault(i, {})[e] = c
    return {i: Polynomial(order.ring, t) for i, t in col.items()}


def vec_scale(v, c, F):
    if F.is_zero(c):
        return {}
    return {k: F.mul(c, x) for k, x in v.items()}


def vec_axpy(target, c, shift, v, F):
    """target += (c * x^s) * v, in place, for shift = lin(s)."""
    for k, x in v.items():
        k += shift
        s = F.add(target.get(k, F.zero), F.mul(c, x))
        if F.is_zero(s):
            target.pop(k, None)
        else:
            target[k] = s
    return target


# ---------------------------------------------------------------------------
# division


class Reducers:
    """The divisor list of vec_divide, with its leads indexed by component.

    vecs[i] is a Vec and leads[i] its (lead term, coeff); both are None
    once position i is dropped.  by_comp maps a component to the
    (position, lead term) of its live leads in position order, so the
    first divisor found there is the first in basis order.
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
        lt = min(v)
        i = len(self.vecs)
        self.vecs.append(v)
        self.leads.append((lt, v[lt]))
        self.by_comp.setdefault(lt & FIELD_MASK, []).append((i, lt))
        return i

    def replace(self, i, v):
        """Put v at position i; v None drops the position."""
        lt, _ = self.leads[i]
        self.by_comp[lt & FIELD_MASK].remove((i, lt))
        if v is None:
            self.vecs[i] = self.leads[i] = None
            return
        lt = min(v)
        self.vecs[i] = v
        self.leads[i] = (lt, v[lt])
        bisect.insort(self.by_comp.setdefault(lt & FIELD_MASK, []), (i, lt))


def vec_divide(f, reducers, track=False, skip=-1):
    """Divide f by the vectors of a Reducers, leaving out position skip.

    Returns (remainder, quotients) with f = sum_i q_i vecs_i + remainder
    and no remainder term divisible by any lead.  quotients is None
    unless track is set; then it maps each position with a nonzero
    quotient, in increasing order, to its term dict {lin(s): coeff}, each
    monomial x^s keyed by its packed shift.

    Terms are popped from a min-heap of packed terms, largest first.
    This picks the same term as a scan for the maximum because of two
    invariants: every term a reduction step adds is smaller than the
    popped term (the reducer's lead times the shift is the popped term
    and cancels it exactly, so it is dropped rather than computed), and
    the reducer of a term is the first lead in basis order whose
    component matches and whose monomial divides it.  A term cancelled
    after it was pushed leaves a stale heap entry, skipped when popped.
    """
    ring = reducers.order.ring
    F, guard = ring.field, ring.guard
    vecs, leads, by_comp = reducers.vecs, reducers.leads, reducers.by_comp
    heappush, heappop = heapq.heappush, heapq.heappop
    work = dict(f)
    heap = list(work)
    heapq.heapify(heap)
    rem = {}
    quots = {} if track else None
    while heap:
        t = heappop(heap)
        coef = work.pop(t, None)
        if coef is None:
            continue
        for i, lt in by_comp.get(t & FIELD_MASK, ()):
            if i != skip and not (t - lt) & guard:
                break
        else:
            rem[t] = coef
            continue
        shift = t - lt
        fac = F.div(coef, leads[i][1])
        nfac = F.neg(fac)
        for bt, x in vecs[i].items():
            if bt == lt:
                continue
            nt = bt + shift
            old = work.get(nt)
            if old is None:
                work[nt] = F.mul(nfac, x)
                heappush(heap, nt)
            else:
                s = F.add(old, F.mul(nfac, x))
                if F.is_zero(s):
                    del work[nt]
                else:
                    work[nt] = s
        if track:
            quots.setdefault(i, {})[shift] = fac
    if track:
        quots = {i: quots[i] for i in sorted(quots)}
    return rem, quots


# ---------------------------------------------------------------------------
# Buchberger with expression tracking


def index_order(ring: PolyRing, n: int) -> TermOverPosition:
    """The order that packs expressions and syzygies over n indexed
    vectors: x^e e_i is pack(i, e).  Its twists are zero, so it refuses no
    input's twist, and pack(i, e) - bases[i] is the shift lin(e).  Their
    terms come by shifts, not lin, and stay in range: x^e times input i
    has a twisted degree below 2^30 + 2^29, and input i one above -2^29,
    so wdeg e is below 2^31."""
    return TermOverPosition(ring, [0] * n)


class GBResult:
    """Reduced Groebner basis of a list of input vectors.

    reducers.vecs (also elements): basis vectors, lead coefficient 1,
        sorted by lead.
    reducers.leads (also leads): (lead term, 1).
    exprs[k]: a Vec over the inputs, x^e e_i packed by
        index_order(ring, len(inputs)), with
        elements[k] = sum_(i, e) exprs[k][x^e e_i] x^e inputs[i]   (over
        the ambient ring); {} unless tracked.
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
        """vec_divide by the basis: (remainder, quotients)."""
        return vec_divide(v, self.reducers, track=track)


def _minus_quotients(expr, quots, exprs, F):
    """expr -= sum_k q_k exprs[k], in place, for the quotients q_k of
    vec_divide by a basis whose expressions are exprs."""
    for k, q in quots.items():
        for s, c in q.items():
            vec_axpy(expr, F.neg(c), s, exprs[k], F)
    return expr


def reduced_gb(inputs, ring: PolyRing, order, track=False, padded=0,
               pair_loop=True) -> GBResult:
    """Buchberger with normal selection, then one inter-reduction pass.

    inputs: list of Vec (zero entries allowed; they are ignored here and
    handled by the syzygy layer).  The last `padded` inputs are a tail
    that already forms a Groebner basis in each component: the ideal
    padding (``_padding_vectors``), or one copy of a module's reduced
    basis per block of components (``modules._coker_gb``).  No pair of two
    of them is queued.  Such a pair has a standard representation in the
    tail (pairs in different components make no S-vector), so the chain
    criterion, which treats every unqueued pair as done, stays sound.

    Each basis vector is made monic as it is pushed, its expression
    scaled with it, and each pair's lcm is packed once, from the leads'
    exponents.  The inter-reduction first drops every element whose lead
    another live lead divides (of equal leads the last stays, as a
    division pass in index order would leave it), then divides each
    element once by the others.  The leads left never change, so that one
    pass leaves every non-lead term irreducible: the reduced basis.

    pair_loop=False queues no pair: the inputs are pushed and
    inter-reduced as above, and nothing else.  When this candidate passes
    _certified_gb's certificate, it is a Groebner basis of the inputs'
    span, and its leads are leads of inputs, so the inputs are already a
    Groebner basis.  The pair loop then pushes nothing, and the full run
    inter-reduces the same pushes: its elements, leads, order and exprs
    are the candidate's.
    """
    F = ring.field
    guard, lin, unlin = ring.guard, ring.lin, ring.unlin
    one, neg_one = F.one, F.neg(F.one)
    red = Reducers(order)
    basis, leads, by_comp = red.vecs, red.leads, red.by_comp
    exprs = []      # Vecs over the inputs, as GBResult.exprs
    exps = []       # the exponents of each lead

    def push(v, expr):
        lt = min(v)
        if v[lt] != one:
            inv = F.inv(v[lt])
            v, expr = vec_scale(v, inv, F), vec_scale(expr, inv, F)
        exprs.append(expr)
        exps.append(unlin(lt - order.bases[lt & FIELD_MASK]))
        return red.push(v)

    units = index_order(ring, len(inputs)).bases
    for i, v in enumerate(inputs):
        if v:
            push(dict(v), {units[i]: one} if track else {})
    # first basis position of the padding (padding vectors are nonzero)
    pad_from = len(basis) - padded

    # pair queue keyed by the lcm term, smallest first (normal strategy):
    # the negated packed term ascends with the order
    pairs = []
    ticket = 0
    pending = set()
    lcms = {}

    def lcm_of(i, j):
        # the lcm of the leads of i < j, which share a component
        m = lcms.get((i, j))
        if m is None:
            m = lcms[i, j] = (order.bases[leads[i][0] & FIELD_MASK]
                              + lin(tuple(map(max, exps[i], exps[j]))))
        return m

    def queue_pairs_with(j, below):
        # pairs (i, j) with i < below; only leads in the same component
        # make a pair
        nonlocal ticket
        for i, _ in by_comp[leads[j][0] & FIELD_MASK]:
            if i >= below:
                break
            heapq.heappush(pairs, (-lcm_of(i, j), ticket, i, j))
            pending.add((i, j))
            ticket += 1

    for j in range(len(basis) if pair_loop else 0):
        queue_pairs_with(j, min(j, pad_from))

    # the product criterion needs every vector confined to one component
    # (leads alone are not enough: coprime-lead S-pairs can leave
    # uncancelled residue in other components); read only with a pair
    rank1 = bool(pairs) and len({t & FIELD_MASK for v in basis
                                 for t in v}) <= 1

    while pairs:
        m, _, i, j = heapq.heappop(pairs)
        m = -m
        pending.discard((i, j))
        li, lj = leads[i][0], leads[j][0]
        # product criterion: in a rank-one ambient module a pair with
        # coprime leading monomials reduces to zero
        if rank1 and li + lj - order.bases[li & FIELD_MASK] == m:
            continue
        # chain criterion with the lcm-inequality guards that make
        # pop-time elimination safe
        skip = False
        for k, lk in by_comp[m & FIELD_MASK]:
            if k == i or k == j or (m - lk) & guard:
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
        si, sj = m - li, m - lj
        s = {t + si: x for t, x in basis[i].items()}
        vec_axpy(s, neg_one, sj, basis[j], F)
        rem, quots = vec_divide(s, red, track=track)
        if not rem:
            continue
        expr = _s_expr(i, j, si, sj, quots, exprs, F) if track else {}
        jnew = push(rem, expr)
        queue_pairs_with(jnew, jnew)

    # inter-reduce to the reduced basis, keeping expressions consistent:
    # drop the non-minimal leads, then reduce each tail once (the lead
    # stays, so each element stays monic)
    for idx, (lt, _) in enumerate(leads):
        for k, lk in by_comp[lt & FIELD_MASK]:
            if k != idx and not (lt - lk) & guard and (k > idx or lk != lt):
                red.replace(idx, None)
                exprs[idx] = None
                break
    for idx in range(len(basis)):
        if basis[idx] is None:
            continue
        rem, quots = vec_divide(basis[idx], red, track=track, skip=idx)
        if not rem or rem == basis[idx]:
            continue
        if track:
            exprs[idx] = _minus_quotients(dict(exprs[idx]), quots, exprs, F)
        red.replace(idx, rem)

    # ascending by lead, as packed terms descend
    final = sorted((t for t, b in enumerate(basis) if b is not None),
                   key=lambda t: leads[t][0], reverse=True)
    return GBResult(ring, Reducers(order, [basis[t] for t in final]),
                    [exprs[t] for t in final])


# ---------------------------------------------------------------------------
# syzygies


def minimal_pairs(gb: GBResult):
    """The minimal Schreyer pairs of gb.elements, with their S-vectors.

    Yields (i, j, si, sj, s) for i < j with leads in one component, where
    si and sj are the packed shifts of m_ij/m_i and m_ij/m_j, m_ij the lcm
    of the leading monomials m_i, m_j, and s = x^si g_i - x^sj g_j.  For
    each i only the pairs whose m_ij/m_i is a minimal generator of
    {m_ij/m_i}_j come (of equal ones, the lowest j).

    Their sigma_ij = (m_ij/m_i) e_i - (m_ij/m_j) e_j generate the
    syzygies of the leading terms.  All sigma_ij do (Eisenbud,
    *Commutative Algebra*, Lemma 15.1), and they are a Groebner basis of
    those syzygies with lead (m_ij/m_i) e_i, in the order that breaks
    ties by the smaller index (Schreyer's theorem, Thm 15.10, for the
    leading terms themselves).  The minimal ones have the same lead
    module, so they generate too.  So the elements are a Groebner basis
    exactly when every s here reduces to zero by them: Buchberger's
    criterion over a generating set of the syzygies of the leads
    (Eisenbud §15.4; Cox, Little & O'Shea, *Ideals, Varieties, and
    Algorithms*, Ch. 2 §9 of the 3rd edition).
    """
    ring, F = gb.ring, gb.ring.field
    guard, order = ring.guard, gb.reducers.order
    elements, leads, by_comp = gb.elements, gb.leads, gb.reducers.by_comp
    neg_one = F.neg(F.one)
    for i, (li, _) in enumerate(leads):
        first = {}      # lin(m_ij/m_i) -> lowest j, in position order
        for j, lj in by_comp[li & FIELD_MASK]:
            if j > i:
                first.setdefault(order.lcm(li, lj) - li, j)
        for si, j in first.items():
            if any(t != si and not (si - t) & guard for t in first):
                continue
            sj = li + si - leads[j][0]
            s = {t + si: x for t, x in elements[i].items()}
            vec_axpy(s, neg_one, sj, elements[j], F)
            yield i, j, si, sj, s


def _s_expr(i, j, si, sj, quots, exprs, F):
    """x^si exprs[i] - x^sj exprs[j] minus the quotients' expressions: the
    expression over the inputs of the remainder of the S-vector x^si g_i -
    x^sj g_j, for its quotients by a basis whose expressions are exprs."""
    expr = vec_axpy({}, F.one, si, exprs[i], F)
    vec_axpy(expr, F.neg(F.one), sj, exprs[j], F)
    return _minus_quotients(expr, quots, exprs, F)


def _certificate(gb: GBResult, inputs, track):
    """Reduce gb's certificate: None on the first nonzero remainder, else
    the syzygies of the inputs read off its reductions ([] unless track),
    the Schreyer syzygies first and the columns of I - U V after them.

    Each nonzero input first, with quotients V: the column e_i - U V e_i
    of I - U V, zero and skipped when the input's basis expression is a
    constant times e_i.  A failing candidate nearly always fails here, so
    no S-vector expression is built for it.  Then the S-vector of each
    pair of minimal_pairs(gb).  Its expression over the inputs (_s_expr)
    is the Schreyer syzygy tau_ij = (m_ij/m_i) e_i - (m_ij/m_j) e_j minus
    the quotients, carried onto the inputs by the basis's expressions U.
    The tau_ij of all pairs are a Groebner basis of the syzygies of the
    basis, with leads (m_ij/m_i) e_i (Schreyer's theorem: Eisenbud,
    *Commutative Algebra*, Thm 15.10); the minimal ones keep that lead
    module, so they generate them too.  With the unit syzygies of the
    zero inputs these generate every syzygy a of the inputs: V a is a
    syzygy of the basis, and a = (I - U V) a + U V a.
    """
    F = gb.ring.field
    units = index_order(gb.ring, len(inputs)).bases
    in_basis = {u for ex in gb.exprs if len(ex) == 1 for u in ex}
    cols = []
    for i, v in enumerate(inputs):
        if not v or units[i] in in_basis:
            continue
        rem, quots = gb.normal_form(v, track=track)
        if rem:
            return None
        if track:
            cols.append(_minus_quotients({units[i]: F.one}, quots, gb.exprs,
                                         F))
    out = []
    for i, j, si, sj, s in minimal_pairs(gb):
        rem, quots = vec_divide(s, gb.reducers, track=track)
        if rem:
            return None
        if track:
            out.append(_s_expr(i, j, si, sj, quots, gb.exprs, F))
    return [t for t in out + cols if t]


def _certified_gb(inputs, ring, order, padded, track):
    """The tracked reduced basis of the inputs, and the syzygies its
    _certificate reads off ([] unless track).

    reduced_gb's candidate (pair_loop=False) first, the full run only when
    the candidate fails its certificate, which holds exactly when the
    candidate is the reduced basis of the inputs' span.  (a) Every
    S-vector of minimal_pairs reducing to zero makes it a Groebner basis
    of its own span, by Buchberger's criterion (see minimal_pairs).
    (b) Every nonzero input reducing to zero makes that span the inputs'
    one: the drop step keeps the span only when the inputs are a Groebner
    basis, so (a) alone is not enough (x^2, x^2 + y^2 leave x^2 + y^2).
    A certified candidate is the full run's basis, exprs included (see
    reduced_gb), so every kernel and lift is the same either way.  A full
    run that fails its certificate is an internal fault.
    """
    for pair_loop in (False, True):
        gb = reduced_gb(inputs, ring, order, track=True, padded=padded,
                        pair_loop=pair_loop)
        syz = _certificate(gb, inputs, track)
        if syz is not None:
            return gb, syz
    raise ArithmeticError("a Groebner basis failed its certificate")


def syzygy_generators(inputs, ring: PolyRing, order, padded=0):
    """Generators of the syzygy module of the input vectors.

    Returns Vecs over the input index space, x^e e_i packed by
    index_order(ring, len(inputs)): the unit syzygies of the zero inputs,
    then the syzygies _certificate reads off the reduced basis.  The last
    `padded` inputs are the ideal padding (see reduced_gb).
    """
    units = index_order(ring, len(inputs)).bases
    return [{units[i]: ring.field.one} for i, v in enumerate(inputs)
            if not v] + _certified_gb(inputs, ring, order, padded, True)[1]


# ---------------------------------------------------------------------------
# quotient rings


class NotArtinianError(ValueError):
    """A computation that needs a finite-dimensional ring or module (finite
    length over k) got one of positive dimension."""


class QuotientRing:
    """R = P/I for a homogeneous ideal I in a weighted polynomial ring.

    Elements are represented by their normal forms against the frozen
    reduced Groebner basis of I, so equality is dict equality.  An empty
    relation list gives the polynomial ring itself in quotient-ring
    clothing, which is how regular base rings enter the pipeline.
    """

    def __init__(self, ambient: PolyRing, relations):
        self.ambient = ambient
        self.field = ambient.field
        self.names = ambient.names
        self.weights = ambient.weights
        rels = []
        for r in relations:
            if isinstance(r, str):
                r = ambient.from_string(r)
            if r.is_zero():
                continue
            if not r.is_homogeneous():
                raise HomogeneityError(f"inhomogeneous relation {r}")
            rels.append(r)
        self.relations = tuple(rels)
        order = TermOverPosition(ambient, [0])
        vecs = [vec_from_column({0: r}, order) for r in rels]
        gb = reduced_gb(vecs, ambient, order, track=False)
        self._gb = gb
        self.ideal_basis = tuple(vec_to_column(v, order)[0]
                                 for v in gb.elements)
        self._lead_exps = tuple(order.unpack(lt)[1] for lt, _ in gb.leads)
        if any(all(x == 0 for x in e) for e in self._lead_exps):
            raise ValueError("unit ideal: quotient ring is zero")
        # derived objects over this ring, filled by modules.ring_memo and
        # numerator; owned here so they die with the ring
        self.memo = {}

    # -- element layer -----------------------------------------------------

    def reduce(self, p: Polynomial) -> Polynomial:
        if not self.ideal_basis or p.is_zero():
            return p
        order = self._gb.reducers.order
        rem, _ = self._gb.normal_form(vec_from_column({0: p}, order))
        col = vec_to_column(rem, order)
        return col[0] if col else self.ambient.zero()

    def one(self):
        return self.ambient.one()

    def variable(self, i_or_name):
        return self.reduce(self.ambient.variable(i_or_name))

    def from_string(self, text):
        return self.reduce(self.ambient.from_string(text))

    def reduce_matrix(self, m: GradedMatrix) -> GradedMatrix:
        return GradedMatrix(self, m.source, m.target,
                            {k: self.reduce(p) for k, p in m.entries.items()})

    def maximal_ideal_gens(self):
        return [self.variable(i) for i in range(self.ambient.n)]

    # -- ring-level structure ---------------------------------------------

    def lead_ideal_min_gens(self):
        return minimalize_monomials(self._lead_exps, self.ambient)

    def is_artinian(self) -> bool:
        return self.krull_dim() == 0

    def std_monomials(self):
        """All monomials outside the leading-term ideal (artinian only)."""
        return standard_monomials(self.lead_ideal_min_gens(), self.ambient)

    def hilbert_series(self):
        """HS(R), its numerator kept under the packed leads of the ideal
        basis, the key each free component over R has in modules._series."""
        shifts = tuple(sorted(map(self.ambient.lin, self._lead_exps)))
        return HilbertSeries(self.weights, self.numerator(shifts))

    def numerator(self, shifts):
        """hilbert_numerator of the monomial ideal generated by the x^e
        with lin(e) in shifts, a sorted tuple: one memo entry per ideal,
        so each distinct lead ideal is unpacked and recursed on once."""
        key = ("numerator", shifts)
        out = self.memo.get(key)
        if out is None:
            P = self.ambient
            out = self.memo[key] = hilbert_numerator(map(P.unlin, shifts), P)
        return out

    def krull_dim(self) -> int:
        return self.hilbert_series().dimension()

    def __eq__(self, other):
        return (isinstance(other, QuotientRing) and other.ambient == self.ambient
                and other.ideal_basis == self.ideal_basis)

    def __hash__(self):
        # Polynomial itself is unhashable; hash the sorted term data
        key = tuple(tuple(sorted(p.terms.items())) for p in self.ideal_basis)
        return hash((self.ambient, key))

    def __repr__(self):
        rels = ", ".join(str(r) for r in self.relations) or "0"
        return f"QuotientRing({self.ambient!r} / ({rels}))"


# ---------------------------------------------------------------------------
# kernels, lifts, images over a quotient ring


def _padding_vectors(qr: QuotientRing, order):
    """g*e_t for every g of the ideal basis and every component t: the
    ring's packed basis, shifted to each component's base."""
    b0 = qr._gb.reducers.order.bases[0]
    shifts = [b - b0 for b in order.bases]
    return [{t + d: c for t, c in g.items()} for g in qr._gb.elements
            for d in shifts]


def columns_matrix(qr: QuotientRing, target: GradedFree, vecs, order):
    """The matrix into target with the nonzero homogeneous Vecs vecs, in
    target's order, as its columns, each twisted by its lead's degree."""
    entries, twists = {}, []
    for j, v in enumerate(vecs):
        twists.append(order.degree(min(v)))
        for i, p in vec_to_column(v, order).items():
            entries[(i, j)] = p
    return GradedMatrix(qr, GradedFree.of(twists), target, entries)


def _inputs(m: GradedMatrix, mod):
    """The order of m.target and the inputs of a kernel or lift of m
    modulo I*target plus the images of the matrices in mod: m's columns,
    then mod's, then the padding, which alone is a Groebner basis and so
    goes last as reduced_gb's padded tail; and the padding's length."""
    if any(d.target != m.target for d in mod):
        raise ValueError("mod target mismatch")
    qr = m.ring
    order = TermOverPosition(qr.ambient, m.target.twists)
    cols = [vec_from_column(c, order) for d in (m, *mod) for c in d.columns()]
    pads = _padding_vectors(qr, order)
    return order, cols + pads, len(pads)


def _onto_source(vecs, src):
    """Each Vec over the input index space projected onto m's columns,
    the first len(src.twists) indices, with each e_i shifted from
    index_order into src, an order on m.source."""
    n = len(src.twists)
    shifts = [b - u for b, u in zip(src.bases, index_order(src.ring, n).bases)]
    return [{t + shifts[t & FIELD_MASK]: c for t, c in v.items()
             if t & FIELD_MASK < n} for v in vecs]


def kernel_matrix(m: GradedMatrix, mod=()) -> GradedMatrix:
    """Generators of {v : m v in I*target + the images of the matrices in
    mod} for m over a QuotientRing: ker(m) for an empty mod, else the
    kernel of m into target modulo those images.  A map from zero has a
    zero kernel and a map into zero the identity, with no syzygy run."""
    qr = m.ring
    if m.source.rank == 0:
        return GradedMatrix.zero(qr, ZERO_FREE, m.source)
    if m.target.rank == 0:
        return GradedMatrix.identity(qr, m.source)
    order, inputs, padded = _inputs(m, mod)
    syz = syzygy_generators(inputs, qr.ambient, order, padded=padded)
    src = TermOverPosition(qr.ambient, m.source.twists)
    raw = [v for v in _onto_source(syz, src) if v]
    # interreduce_columns divides by the padding: its columns are normal
    # forms mod I, and a column zero mod I drops there
    return columns_matrix(qr, m.source, interreduce_columns(qr, m.source, raw),
                          src)


def interreduce_columns(qr: QuotientRing, free: GradedFree, vecs):
    """Greedy inter-reduction of module elements over the quotient ring.

    vecs are Vecs in the TermOverPosition order of free.  Returns the kept
    ones, monic and ascending by lead.  Preserves the span; drops zeros
    and elements reducible to zero by the others plus the ideal padding.
    Not a Groebner basis, just cleanup to keep iterated syzygy runs small.
    """
    order = TermOverPosition(qr.ambient, free.twists)
    vecs = [v for v in vecs if v]
    # ascending by lead; reverse=True keeps equal leads in input order
    vecs.sort(key=min, reverse=True)
    accepted = Reducers(order, _padding_vectors(qr, order))
    out = []
    for v in vecs:
        rem, _ = vec_divide(v, accepted)
        if not rem:
            continue
        rem = vec_scale(rem, qr.field.inv(rem[min(rem)]), qr.field)
        accepted.push(rem)
        out.append(rem)
    return out


def clean_columns(qr: QuotientRing, free: GradedFree, cols) -> GradedMatrix:
    """The matrix of interreduce_columns of the nonzero columns among cols
    ({row: Polynomial}) of a matrix into free."""
    order = TermOverPosition(qr.ambient, free.twists)
    vecs = [vec_from_column(c, order) for c in cols if c]
    return columns_matrix(qr, free, interreduce_columns(qr, free, vecs), order)


def lift_matrix(m: GradedMatrix, targets: GradedMatrix, mod=()):
    """Solve m X = targets over the quotient ring, modulo the images of
    the matrices in mod; None when unsolvable.

    targets.target must equal m.target.  The result X maps
    targets.source -> m.source, its entries normal forms mod I, read off
    the tracked basis of _certified_gb.
    """
    if targets.target != m.target:
        raise ValueError("lift target mismatch")
    qr = m.ring
    P = qr.ambient
    order, inputs, padded = _inputs(m, mod)
    gb = _certified_gb(inputs, P, order, padded, False)[0]
    # the solution stays in the index order: a normal form mod I does not
    # depend on the twists, so no source twist is packed or refused
    src = index_order(P, m.source.rank)
    exprs = _onto_source(gb.exprs, src)
    pads = Reducers(src, _padding_vectors(qr, src))
    entries = {}
    for j, col in enumerate(targets.columns()):
        rem, quots = gb.normal_form(vec_from_column(col, order), track=True)
        if rem:
            return None
        acc = {}
        for k, q in quots.items():
            for s, c in q.items():
                vec_axpy(acc, c, s, exprs[k], P.field)
        # dividing by the padding normal-forms each entry mod I
        acc, _ = vec_divide(acc, pads)
        for i, p in vec_to_column(acc, src).items():
            entries[(i, j)] = p
    return GradedMatrix(qr, targets.source, m.source, entries)


# ---------------------------------------------------------------------------
# Hilbert series


def minimalize_monomials(exps, ring):
    """Minimal generators of the monomial ideal generated by exps."""
    uniq = sorted(set(exps), key=lambda e: (ring.wdeg(e), ring.mono_key(e)))
    out = []
    for e in uniq:
        if not any(ring.mono_divides(g, e) for g in out):
            out.append(e)
    return out


def standard_monomials(gens, ring):
    """The monomials outside the monomial ideal generated by gens,
    ascending by degree, then by the ring order.  Raises NotArtinianError
    unless the ideal is the unit ideal or holds a pure power of every
    variable, since otherwise they are infinitely many."""
    if any(not any(e) for e in gens):
        return []
    bounds = []
    for v in range(ring.n):
        pure = [e[v] for e in gens if e[v] == sum(e)]
        if not pure:
            raise NotArtinianError("standard monomial basis is infinite")
        bounds.append(min(pure))
    out = [e for e in itertools.product(*map(range, bounds))
           if not any(ring.mono_divides(g, e) for g in gens)]
    out.sort(key=lambda e: (ring.wdeg(e), ring.mono_key(e)))
    return out


def _poly_mul_int(a: dict, b: dict) -> dict:
    out = {}
    for da, ca in a.items():
        for db, cb in b.items():
            d = da + db
            out[d] = out.get(d, 0) + ca * cb
    return {d: c for d, c in out.items() if c}


def _poly_add_int(a: dict, b: dict) -> dict:
    out = dict(a)
    for d, c in b.items():
        s = out.get(d, 0) + c
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def hilbert_numerator(gens, ring: PolyRing) -> dict:
    """Numerator of the Hilbert series of P/(monomial ideal).

    The series is numerator / prod_v (1 - t^{w_v}); computed by the
    colon/sum pivot recursion.  gens: minimal exponent tuples.
    """
    gens = minimalize_monomials(gens, ring)
    if not gens:
        return {0: 1}
    if any(all(x == 0 for x in e) for e in gens):
        return {}
    # pairwise coprime generators split as a product
    coprime = True
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if any(a > 0 and b > 0 for a, b in zip(gens[i], gens[j])):
                coprime = False
                break
        if not coprime:
            break
    if coprime:
        out = {0: 1}
        for e in gens:
            out = _poly_mul_int(out, {0: 1, ring.wdeg(e): -1})
        return out
    # pivot: most frequent variable among the generators
    counts = [0] * ring.n
    for e in gens:
        for v, x in enumerate(e):
            if x > 0:
                counts[v] += 1
    v = max(range(ring.n), key=lambda u: (counts[u], -u))
    plus = [e for e in gens if e[v] == 0]
    xv = tuple(1 if u == v else 0 for u in range(ring.n))
    plus = plus + [xv]
    colon = [tuple(x - 1 if u == v and x > 0 else x for u, x in enumerate(e)) for e in gens]
    n_plus = hilbert_numerator(plus, ring)
    n_colon = hilbert_numerator(colon, ring)
    shifted = {d + ring.weights[v]: c for d, c in n_colon.items()}
    return _poly_add_int(n_plus, shifted)


class HilbertSeries:
    """numerator / prod_v (1 - t^{w_v}), numerator an integer Laurent
    polynomial (dict degree -> coefficient)."""

    __slots__ = ("weights", "numer")

    def __init__(self, weights, numer: dict):
        self.weights = tuple(weights)
        self.numer = {d: c for d, c in numer.items() if c}

    def plus(self, other: "HilbertSeries") -> "HilbertSeries":
        if other.weights != self.weights:
            raise ValueError("mixed denominators")
        return HilbertSeries(self.weights, _poly_add_int(self.numer, other.numer))

    def minus(self, other: "HilbertSeries") -> "HilbertSeries":
        neg = {d: -c for d, c in other.numer.items()}
        return self.plus(HilbertSeries(other.weights, neg))

    def times(self, twists) -> "HilbertSeries":
        """The series of the sum of shifts M(-a), a in twists: this one
        times sum_a t^a."""
        mono = {}
        for a in twists:
            mono[a] = mono.get(a, 0) + 1
        return HilbertSeries(self.weights, _poly_mul_int(self.numer, mono))

    def coeffs(self, lo: int, hi: int):
        """Series coefficients for degrees lo..hi inclusive."""
        if not self.numer:
            return [0] * (hi - lo + 1)
        base = min(self.numer)
        span = hi - base
        if span < 0:
            return [0] * (hi - lo + 1)
        # denominator inverse: weighted partition counts
        part = [0] * (span + 1)
        part[0] = 1
        for w in self.weights:
            for d in range(w, span + 1):
                part[d] += part[d - w]
        out = []
        for d in range(lo, hi + 1):
            s = 0
            for nd, nc in self.numer.items():
                if 0 <= d - nd <= span:
                    s += nc * part[d - nd]
            out.append(s)
        return out

    def k_dimension(self) -> int:
        """Total k-dimension of a finite-length module: the sum of the
        series' coefficients.  The series is then a Laurent polynomial
        whose support sits inside the numerator's span, so summing over
        that span is exact.  A pole at t = 1 raises NotArtinianError."""
        if not self.numer:
            return 0
        if self.dimension() != 0:
            raise NotArtinianError("module has positive dimension")
        lo, hi = min(self.numer), max(self.numer)
        return sum(self.coeffs(lo, hi))

    def dimension(self) -> int:
        """Order of the pole at t = 1 (Krull dimension of the module).

        The zero module reports -1.
        """
        if not self.numer:
            return -1
        # multiplicity of (1 - t) in the numerator
        base = min(self.numer)
        coeffs = {d - base: c for d, c in self.numer.items()}
        z = 0
        while True:
            if sum(coeffs.values()) != 0:
                break
            # divide by (1 - t): if f = (1-t) g, g_d = sum_{e <= d} f_e
            top = max(coeffs)
            g = {}
            acc = 0
            for d in range(top + 1):
                acc += coeffs.get(d, 0)
                if acc:
                    g[d] = acc
            # the top coefficient of the quotient telescopes away
            g.pop(top, None)
            coeffs = g if g else {}
            z += 1
            if not coeffs:
                break
        return len(self.weights) - z

    def __eq__(self, other):
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        return self.weights == other.weights and self.numer == other.numer

    __hash__ = None

    def __repr__(self):
        if not self.numer:
            return "HilbertSeries(0)"
        bits = []
        for d in sorted(self.numer):
            c = self.numer[d]
            bits.append(f"{'+' if c > 0 and bits else ''}{c}t^{d}")
        den = "".join(f"(1-t^{w})" for w in self.weights)
        return f"HilbertSeries(({''.join(bits)})/{den})"
