"""Finitely presented graded modules: minimal presentations, resolutions,
Hom/tensor/Ext as presentations, and the canonical evaluation maps.

A module is a cokernel presentation F1 -> F0 over a QuotientRing.  All
membership questions (is this element zero, does this map land in that
submodule) reduce to lifts against relation matrices, and every
subquotient (homology, Hom, Ext) to a kernel read modulo the images of
relation matrices.  The Groebner layer answers both exactly: lift_matrix
and kernel_matrix take the matrices to read modulo as their mod
argument.  A minimal free resolution grows one kernel at a time, each
kernel's unit entries contracted as it is taken, so every map below the
top stays minimal; it is returned as a plain FreeComplex, so Betti
numbers read off as ranks.

Hom and Ext presentations are read by one routine, _hom_cohomology:
Hom(M, N) is the cohomology of Hom(F1 -> F0 -> 0, N) at F0, and
Ext^i(M, N) that of Hom(F, N) at F_i along the resolution F.  Their
matrices, like those presenting M (x) N, are Kronecker products built by
ring.kron, the one place the position formula lives.  Sizes and
vanishing come from Hilbert series instead, with no kernel: middle_series
reads the homology of A -> B -> C as HS(coker(A -> B)) + HS(coker(B ->
C)) - HS(C), which ext_series applies along F and homology_series along a
free complex.  first_ext, the one scan for the first nonzero Ext, and the
homology readers test zero on the series.  _series sums one numerator
per distinct lead ideal, kept in the ring memo, so the many cokernels
over one ring share their few lead ideals' numerators, R's among them.

Hom modules carry their universal pairing: the presentation remembers
how each abstract generator acts as an honest matrix F0 -> N, which is
what lets the homothety and evaluation maps be constructed rather than
asserted.  A map is an isomorphism when it is onto and source and
target have equal Hilbert series.  The graded Matlis dual of a
finite-length module is presented on the k-basis that the module's
Groebner basis gives (matlis_dual).
"""

from __future__ import annotations

import functools
import inspect

from .ring import (FIELD_MASK, GradedFree, GradedMatrix, ZERO_FREE, ONE_FREE,
                   hstack, kron)
from .groebner import (QuotientRing, kernel_matrix, lift_matrix, reduced_gb,
                       TermOverPosition, vec_from_column, _padding_vectors,
                       minimalize_monomials, standard_monomials,
                       HilbertSeries)
from .complexes import (FreeComplex, from_resolution, minimize_complex,
                        zero_complex, resolve_complex_with_map)


class NotCohenMacaulayError(ValueError):
    """Raised when a canonical-module request meets off-codimension Ext."""


# ---------------------------------------------------------------------------
# presentations


class ModulePresentation:
    """Cokernel presentation of a finitely generated graded module.

    gens is the generator free module (the target of the relation
    matrix); minimal means no degree-matching constant entry survives in
    the relations, so the generator count equals the minimal number of
    generators by graded Nakayama.  The relations must be normal forms
    mod the ring's ideal, the rule FreeComplex states for differentials:
    every construction keeps them so (kernels and lifts come out reduced,
    Kronecker products and sums copy entries), and the two that build
    other entries, canonical_module (re-housing Ext over the ambient ring)
    and invariants._module_cut (substituting a linear form), reduce them.
    """

    __slots__ = ("ring", "gens", "relations", "minimal", "_key")

    def __init__(self, ring: QuotientRing, relations: GradedMatrix,
                 minimal=False):
        self.ring = ring
        self.relations = relations
        self.gens = relations.target
        self.relations.validate_homogeneous()
        self.minimal = minimal
        self._key = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def free(ring: QuotientRing, twists) -> "ModulePresentation":
        free = GradedFree.of(twists)
        return ModulePresentation(
            ring, GradedMatrix.zero(ring, ZERO_FREE, free), minimal=True)

    @staticmethod
    def cyclic(ring: QuotientRing, elements) -> "ModulePresentation":
        """R/J for the ideal generated by the given homogeneous elements."""
        polys = []
        for e in elements:
            if isinstance(e, str):
                e = ring.from_string(e)
            else:
                e = ring.reduce(e)
            if not e.is_zero():
                polys.append(e)
        tgt = GradedFree.of([0])
        src = GradedFree.of([p.degree() for p in polys])
        entries = {(0, j): p for j, p in enumerate(polys)}
        return ModulePresentation(ring, GradedMatrix(ring, src, tgt, entries))

    @staticmethod
    def residue_field(ring: QuotientRing) -> "ModulePresentation":
        return ModulePresentation.cyclic(ring, ring.maximal_ideal_gens())

    # -- basic queries -----------------------------------------------------

    def shifted(self, n: int) -> "ModulePresentation":
        m = GradedMatrix(self.ring, self.relations.source.shifted(n),
                         self.gens.shifted(n), dict(self.relations.entries))
        return ModulePresentation(self.ring, m, minimal=self.minimal)

    def is_zero_module(self) -> bool:
        return minimal_presentation(self).gens.rank == 0

    def hilbert_series(self) -> HilbertSeries:
        return _hilbert_series(self)

    def __repr__(self):
        return (f"ModulePresentation({self.gens.rank} gens, "
                f"{self.relations.source.rank} relations)")


# ---------------------------------------------------------------------------
# the ring memo


def _matrix_key(m: GradedMatrix):
    return (m.source.twists, m.target.twists,
            tuple(sorted((k, tuple(sorted(p.terms.items())))
                         for k, p in m.entries.items())))


def _arg_key(x):
    """Structural key of one argument: equal keys mean equal inputs.
    The ring itself keys as a constant, since the memo is its own."""
    if x is None or isinstance(x, int):
        return x
    if isinstance(x, QuotientRing):
        return "ring"
    if isinstance(x, ModulePresentation):
        if x._key is None:
            x._key = ("module", x.minimal, _matrix_key(x.relations))
        return x._key
    if isinstance(x, FreeComplex):
        return ("complex",
                tuple(sorted((i, f.twists) for i, f in x.terms.items())),
                tuple(sorted((i, _matrix_key(d)) for i, d in x.diffs.items())),
                x.window.parts, x.true_lo, x.true_hi)
    raise TypeError(f"no structural key for {type(x).__name__}")


def _ring_of(x):
    return x if isinstance(x, QuotientRing) else getattr(x, "ring", None)


_MISSING = object()


def ring_memo(fn):
    """Memoize fn in the memo of the ring its arguments live over.

    The key is fn's name plus the structural key of every argument after
    binding, so equal inputs built separately share an entry and keyword
    and positional calls agree.  A call that raises stores nothing.  A
    call whose arguments live over more than one ring object runs
    unmemoized, so fn's own ring check decides it.  Results are shared
    between callers, who must not mutate them beyond their lazily filled
    structural key (_key).
    """
    sig = inspect.signature(fn)
    arity = len(sig.parameters)

    @functools.wraps(fn)
    def memoized(*args, **kwargs):
        values = args    # every argument positional: bound as given
        if kwargs or len(args) != arity:
            call = sig.bind(*args, **kwargs)
            call.apply_defaults()
            values = call.arguments.values()
        rings = {id(r): r for r in map(_ring_of, values) if r is not None}
        if len(rings) != 1:
            return fn(*args, **kwargs)
        memo = next(iter(rings.values())).memo
        key = (fn.__name__,) + tuple(map(_arg_key, values))
        out = memo.get(key, _MISSING)
        if out is _MISSING:
            out = memo[key] = fn(*args, **kwargs)
        return out
    return memoized


# ---------------------------------------------------------------------------
# minimal presentations and Hilbert data


def minimal_presentation(m: ModulePresentation) -> ModulePresentation:
    """Isomorphic presentation with every relation entry in the maximal
    ideal, found by minimize_complex's contraction of unit entries."""
    return m if m.minimal else _minimal_presentation(m)


@ring_memo
def _minimal_presentation(m: ModulePresentation) -> ModulePresentation:
    # F1 -> F0 as a two-term complex: contracting its unit entries drops
    # redundant generators, and the zero columns left are no relations
    qr = m.ring
    cx = minimize_complex(FreeComplex(
        qr, {1: m.relations.source, 0: m.gens}, {1: m.relations}))
    gens = cx.term(0)
    cols = [c for c in cx.diff(1).columns() if c]
    return ModulePresentation(
        qr, GradedMatrix.from_columns(qr, gens, cols), minimal=True)


@ring_memo
def _module_gb(m: ModulePresentation):
    """_coker_gb(m, R), R with no relations: the reduced Groebner basis of
    the relations plus the ring ideal padding over the ambient ring, in
    TermOverPosition order, so division by it is the normal form in M.
    Memoized for a module whose series and normal forms are both read
    (matlis_dual), so that Buchberger runs once for both."""
    return _coker_gb(m, ModulePresentation.free(m.ring, [0]))


def _component_leads(m: ModulePresentation, gb):
    """Per-generator lead ideals of a Groebner basis gb of M's relations
    (_module_gb): the standard monomials of component a times
    generator a form a k-basis of M."""
    P, order = m.ring.ambient, gb.reducers.order
    per = [[] for _ in range(m.gens.rank)]
    for lt, _ in gb.leads:
        comp, e = order.unpack(lt)
        per[comp].append(e)
    return [minimalize_monomials(es, P) for es in per]


def _series(m: ModulePresentation, gb) -> HilbertSeries:
    """HS(M) from a Groebner basis gb of its relations: the sum over the
    generators a of HS(P/L_a) shifted by a's twist, L_a the ideal of the
    leads in component a.  Components are grouped by the sorted shifts
    lt - bases[a] of their leads: a shift is lin(e) for a lead x^e e_a,
    free of the twists, so one key names one monomial ideal over the ring
    for every module.  Each group adds its ring-memoized numerator
    (QuotientRing.numerator) times the sum of its twists."""
    qr, bases = m.ring, gb.reducers.order.bases
    per = [[] for _ in range(m.gens.rank)]
    for lt, _ in gb.leads:
        per[lt & FIELD_MASK].append(lt - bases[lt & FIELD_MASK])
    groups = {}
    for a, shifts in enumerate(per):
        groups.setdefault(tuple(sorted(shifts)), []).append(m.gens.twists[a])
    total = HilbertSeries(qr.weights, {})
    for shifts, twists in groups.items():
        hs = HilbertSeries(qr.weights, qr.numerator(shifts))
        total = total.plus(hs.times(twists))
    return total


@ring_memo
def matlis_dual(m: ModulePresentation) -> ModulePresentation:
    """The graded Matlis dual M^v = Hom_k(M, k) of a finite-length module,
    minimally presented (Bruns & Herzog, Cohen-Macaulay Rings, Sec. 3.6).

    M has the k-basis of standard monomials b of _component_leads, and
    M^v one generator e_b* in degree -deg b for each.  x_v acts by
    (x_v e_b*)(l) = e_b*(x_v l), so the relations are x_v e_b* = sum_l
    [coefficient of b in NF(x_v l)] e_l*; they make the e_b* span M^v
    over k, so they present it.  A module of positive dimension has no
    finite basis and raises NotArtinianError.
    """
    qr = m.ring
    P, F = qr.ambient, qr.field
    gb = _module_gb(m)
    order = gb.reducers.order
    basis = [(a, e) for a, leads in enumerate(_component_leads(m, gb))
             for e in standard_monomials(leads, P)]
    index = {b: j for j, b in enumerate(basis)}
    degs = [m.gens.twists[a] + P.wdeg(e) for a, e in basis]
    entries, twists = {}, []
    for v in range(P.n):
        col0, x = len(twists), qr.variable(v)
        twists += [P.weights[v] - d for d in degs]
        for j in range(len(basis)):
            entries[(j, col0 + j)] = x
        for l, (a, e) in enumerate(basis):
            step = tuple(t + (u == v) for u, t in enumerate(e))
            rem, _ = gb.normal_form({order.pack(a, step): F.one})
            for b, c in rem.items():
                entries[(l, col0 + index[order.unpack(b)])] = \
                    P.constant(F.neg(c))
    return minimal_presentation(ModulePresentation(qr, GradedMatrix(
        qr, GradedFree.of(twists), GradedFree.of([-d for d in degs]),
        entries)))


@ring_memo
def _hilbert_series(m: ModulePresentation) -> HilbertSeries:
    return _series(m, _module_gb(m))


def middle_series(left: ModulePresentation, right: ModulePresentation,
                  term: HilbertSeries, n: ModulePresentation) -> HilbertSeries:
    """HS(H) of the homology H at B of a complex A -> B -> C of graded
    modules, given left = coker(A -> B), right = coker(B -> C) and term =
    HS(C), with no kernel computed.  The sequence

        0 -> H -> coker(A -> B) -> C -> coker(B -> C) -> 0

    is exact, and Hilbert series are additive on exact sequences (Bruns &
    Herzog, Cohen-Macaulay Rings, Sec. 4.1), so HS(H) = HS(left) +
    HS(right) - HS(C).  Each cokernel's series is a ring-memo entry and
    its Groebner basis is dropped; both are laid out around N's relations
    as _coker_gb reads them (N = R for a plain cokernel).  On R(-1)
    -> R by x over F_7[x]/(x^2), H_0 = k and H_1 = xR(-1) = k(-2):

    >>> from homcalc.field import PrimeField
    >>> from homcalc.ring import PolyRing
    >>> R = QuotientRing(PolyRing(PrimeField(7), ["x"]), ["x^2"])
    >>> d = GradedMatrix(R, GradedFree.of([1]), GradedFree.of([0]),
    ...                  {(0, 0): R.variable(0)})
    >>> X = FreeComplex(R, {1: d.source, 0: d.target}, {1: d})
    >>> [homology_series(X, t) for t in (0, 1)]
    [HilbertSeries((1t^0-1t^1)/(1-t^1)), HilbertSeries((1t^2-1t^3)/(1-t^1))]
    >>> [homology_series(X, t) == homology_presentation(X, t).hilbert_series()
    ...  for t in (0, 1)]
    [True, True]
    """
    return _coker_series(left, n).plus(_coker_series(right, n)).minus(term)


@ring_memo
def _coker_series(c: ModulePresentation,
                  n: ModulePresentation) -> HilbertSeries:
    """HS(c) from _coker_gb(c, n), the basis dropped: adjacent steps of an
    Ext scan or a homology walk read the same cokernel."""
    return _series(c, _coker_gb(c, n))


def _coker_gb(c: ModulePresentation, n: ModulePresentation):
    """The reduced Groebner basis of c's relations plus the ring ideal
    padding, for a cokernel whose relations begin with one copy of N's
    relations per block of N's generators, as _hom_coker lays them out (N
    = R fits any c).  Buchberger starts from the other columns plus a copy
    of N's reduced basis per block, shifted to its components, in
    reduced_gb's padded tail: TermOverPosition is N's order up to a
    constant twist inside a block, so each copy is a Groebner basis, and
    leads in different blocks never pair.  An N with no relations has R's
    basis in every component for its copies: the padding itself.  The
    reduced basis of the same submodule is unique, so the result does not
    depend on N."""
    P, g0 = c.ring.ambient, n.gens.rank
    blocks = c.gens.rank // max(g0, 1)
    cols = c.relations.columns()[blocks * n.relations.source.rank:]
    order = TermOverPosition(P, c.gens.twists)
    if n.relations.source.rank:
        ngb = _module_gb(n)
        nb, cb = ngb.reducers.order.bases, order.bases
        tail = [{t - nb[t & FIELD_MASK] + cb[a * g0 + (t & FIELD_MASK)]: x
                 for t, x in v.items()}
                for a in range(blocks) for v in ngb.elements]
    else:
        tail = _padding_vectors(c.ring, order)
    return reduced_gb([vec_from_column(col, order) for col in cols] + tail,
                      P, order, padded=len(tail))


# ---------------------------------------------------------------------------
# minimal free resolutions


@ring_memo
def _resolution_steps(mm: ModulePresentation, length: int):
    """(d_1, ..., d_n) with n <= length of the minimal resolution of the
    minimal presentation mm, and whether it ended (a kernel came out
    zero).  The entry for length n + 1 extends that for n by K =
    kernel_matrix(d_n), whose columns generate ker d_n, so K has a unit
    entry exactly when a column of d_n is redundant.  Contracting K's
    units (minimize_complex) deletes those columns and changes nothing
    below d_n, where no unit is left; so one contraction per step keeps
    every map below the top minimal, and only the top may list redundant
    columns.  The columns of K left zero are dropped; if none is left,
    the resolution ended."""
    qr = mm.ring
    if length == 1:
        return (mm.relations,), mm.relations.source.rank == 0
    mats, ended = _resolution_steps(mm, length - 1)
    if ended:
        return mats, True
    K = kernel_matrix(mats[-1])
    if any(p.is_constant() for p in K.entries.values()):
        cx = minimize_complex(from_resolution(qr, mats + (K,), False))
        mats = tuple(cx.diff(i) for i in range(1, length))
        K = GradedMatrix.from_columns(
            qr, cx.term(length - 1), [c for c in cx.diff(length).columns() if c])
    if K.source.rank == 0:
        return mats, True
    return mats + (K,), False


def resolution(m: ModulePresentation, length: int) -> FreeComplex:
    """The module as a derived-category representative: its minimal free
    resolution out to homological degree `length` >= 1, with the matching
    trust window.  Its ranks in trusted degrees are the Betti numbers;
    unless the complex is complete (the resolution ended), the top term
    is a construction artifact."""
    if length < 1:
        raise ValueError("resolution bound must be at least 1")
    mm = minimal_presentation(m)
    if mm.gens.rank == 0:
        return zero_complex(mm.ring)
    mats, complete = _resolution_steps(mm, length)
    return from_resolution(mm.ring, mats, complete)


def is_module(x) -> bool:
    """Whether a module-or-complex argument is a module presentation."""
    return isinstance(x, ModulePresentation)


def resolved(x, bound: int) -> FreeComplex:
    """A free resolution truncated at `bound`, of a module or a complex."""
    if is_module(x):
        return resolution(x, bound)
    return resolve_complex_with_map(x, bound)[0]


def syzygy(m: ModulePresentation, g: int) -> ModulePresentation:
    """Cokernel presentation of the g-th syzygy in the minimal resolution."""
    if g < 0:
        raise ValueError("syzygy index must be non-negative")
    if g == 0:
        return minimal_presentation(m)
    res = resolution(m, g + 1)
    if res.term(g).rank == 0:
        return ModulePresentation.free(m.ring, [])
    return ModulePresentation(m.ring, res.diff(g + 1), minimal=True)


# ---------------------------------------------------------------------------
# homology


def _stretch(X: FreeComplex, i: int) -> FreeComplex:
    """X_{i+1} -> X_i -> X_{i-1}, all that H_i depends on: the memo keys
    H_i by it, so equal stretches of complexes built separately share
    H_i, and a large complex is never keyed whole."""
    return FreeComplex(X.ring, {j: X.term(j) for j in (i - 1, i, i + 1)},
                       {i: X.diff(i), i + 1: X.diff(i + 1)})


def homology_presentation(X: FreeComplex, i: int) -> ModulePresentation:
    """H_i of a free complex as a presented module.  Representative-level:
    it ignores X.window, so read trusted homology by trusted_homology.
    Ring-memoized on the stretch of X at i."""
    return _homology(_stretch(X, i), i)


def homology_series(X: FreeComplex, i: int) -> HilbertSeries:
    """HS(H_i) of a free complex, with no kernel: middle_series of coker
    d_{i+1} and coker d_i, less HS(R) * sum t^a over the twists a of
    X_{i-1}.  Representative-level, and ring-memoized on the stretch of X
    at i, as homology_presentation is."""
    return _homology_series(_stretch(X, i), i)


@ring_memo
def _homology_series(X: FreeComplex, i: int) -> HilbertSeries:
    qr = X.ring
    if X.term(i).rank == 0:
        return HilbertSeries(qr.weights, {})
    term = qr.hilbert_series().times(X.term(i - 1).twists)
    return middle_series(ModulePresentation(qr, X.diff(i + 1)),
                         ModulePresentation(qr, X.diff(i)), term,
                         ModulePresentation.free(qr, [0]))


@ring_memo
def _homology(X: FreeComplex, i: int) -> ModulePresentation:
    qr = X.ring
    if X.term(i).rank == 0:
        return ModulePresentation.free(qr, [])
    # ker d_i modulo im d_{i+1}: relations on the cycles' generators
    kappa = kernel_matrix(X.diff(i))
    return ModulePresentation(qr, kernel_matrix(kappa, [X.diff(i + 1)]))


def trusted_homology(X: FreeComplex):
    """Yield each degree t of X's term range that X.window trusts and
    where H_t is nonzero, ascending.  The series decides, so no
    presentation is built; homology_presentation gives H_t to a caller
    that reads the module."""
    lo, hi = X.term_range()
    for t in range(lo, hi + 1):
        if X.window.contains(t) and homology_series(X, t).numer:
            yield t


def first_homology(X: FreeComplex, start: int, stop: int, step: int):
    """(t, True) for the first t of X.window.run(start, stop, step) with
    H_t nonzero, else (None, whether the run covered the whole range):
    a walk stopped by an untrusted degree certifies nothing."""
    run = X.window.run(start, stop, step)
    for t in run:
        if homology_series(X, t).numer:
            return t, True
    return None, len(run) == len(range(start, stop, step))


def extreme_homology(X: FreeComplex, step: int):
    """first_homology from the band edge, the lowest trusted degree of
    X's term range going up (step 1) or the highest going down (step -1);
    untrusted degrees beyond the edge are a truncation's garbage."""
    lo, hi = X.term_range()
    span = range(lo, hi + 1)[::step]
    start = X.window.first(span.start, span.stop, step)
    if start is None:
        return None, not span
    return first_homology(X, start, span.stop, step)


# ---------------------------------------------------------------------------
# Hom, tensor, Ext


class HomPresentation(ModulePresentation):
    """Presentation of Hom(M, N) carrying its universal pairing.

    pairing maps the abstract generator free onto honest elements of
    N^rank(F0_M).
    """

    __slots__ = ("pairing", "source_module", "target_module")

    def __init__(self, ring, relations, pairing, source_module, target_module):
        super().__init__(ring, relations)
        self.pairing = pairing
        self.source_module = source_module
        self.target_module = target_module

    def express(self, beta: GradedMatrix) -> GradedMatrix:
        """Write columns of beta (elements of N^r in the hom layout) in
        generator coordinates of this presentation."""
        relblk = kron(self.source_module.gens.dual(),
                      self.target_module.relations)
        sol = lift_matrix(self.pairing, beta, [relblk])
        if sol is None:
            raise ArithmeticError("element does not lie in the hom module")
        return sol


def _hom_cohomology(d_in: GradedMatrix, d_out: GradedMatrix,
                    n: ModulePresentation):
    """Cohomology of Hom(F, N) at F = target(d_out) = source(d_in), for
    free maps d_out: F' -> F and d_in: F -> F'', as (kappa, rels): kappa
    generates the kernel of Hom(d_out, N) inside Hom(F, N), and rels
    presents it modulo the image of Hom(d_in, N).  Hom(F, N) is F^* (x)
    N's generators modulo N's relations, so both are kernels read modulo
    relation blocks: kappa that of Hom(d_out, N) modulo N's relations on
    F'^*, rels that of kappa modulo N's relations on F^* and the image of
    Hom(d_in, N).  Hom and Ext both read their answer here."""
    kappa = kernel_matrix(kron(d_out.transpose(), n.gens),
                          [kron(d_out.source.dual(), n.relations)])
    rels = kernel_matrix(kappa, [kron(d_out.target.dual(), n.relations),
                                 kron(d_in.transpose(), n.gens)])
    return kappa, rels


@ring_memo
def hom_modules(m: ModulePresentation, n: ModulePresentation) -> HomPresentation:
    """Presentation of Hom_R(M, N) as the kernel of the induced map
    Hom(F0, N) -> Hom(F1, N), with the universal pairing attached."""
    if m.ring != n.ring:
        raise ValueError("hom over different rings")
    qr = m.ring
    kappa, rels = _hom_cohomology(GradedMatrix.zero(qr, m.gens, ZERO_FREE),
                                  m.relations, n)
    return HomPresentation(qr, rels, kappa, m, n)


def tensor_modules(m: ModulePresentation,
                   n: ModulePresentation) -> ModulePresentation:
    """M (x) N presented by relations of both factors spread over the
    generators of the other."""
    if m.ring != n.ring:
        raise ValueError("tensor over different rings")
    return ModulePresentation(m.ring, hstack(m.ring, [
        kron(m.relations, n.gens), kron(m.gens, n.relations)]))


def _ext_resolution(m: ModulePresentation, n: ModulePresentation,
                    i: int) -> FreeComplex:
    """The minimal resolution F of M out to F_{i+1}, along which
    Ext^i(M, N) is read."""
    if i < 0:
        raise ValueError("ext index must be non-negative")
    if m.ring != n.ring:
        raise ValueError("ext over different rings")
    return resolution(m, i + 1)


@ring_memo
def ext_module(m: ModulePresentation, n: ModulePresentation,
               i: int) -> ModulePresentation:
    """Ext^i_R(M, N) as the cohomology of Hom(F, N) at F_i along a
    minimal free resolution F of M."""
    res = _ext_resolution(m, n, i)
    if res.term(i).rank == 0:
        return ModulePresentation.free(m.ring, [])
    _, rels = _hom_cohomology(res.diff(i), res.diff(i + 1), n)
    return ModulePresentation(m.ring, rels)


def _hom_coker(d: GradedMatrix, n: ModulePresentation) -> ModulePresentation:
    """Hom(source(d), N) modulo the image of Hom(d, N)."""
    qr = n.ring
    return ModulePresentation(qr, hstack(qr, [
        kron(d.source.dual(), n.relations), kron(d.transpose(), n.gens)]))


@ring_memo
def ext_series(m: ModulePresentation, n: ModulePresentation,
               i: int) -> HilbertSeries:
    """HS(Ext^i_R(M, N)), with no kernel.  Ext^i is the homology of
    Hom(F_{i-1}, N) -> Hom(F_i, N) -> Hom(F_{i+1}, N) along the minimal
    resolution F of M, so middle_series reads it from C_i and C_{i+1},
    C_j = Hom(F_j, N) / im Hom(d_j, N) (C_0 = Hom(F_0, N)), less
    HS(Hom(F_{i+1}, N)) = HS(N) * sum t^{-a} over the twists a of
    F_{i+1}.  Buchberger on each C_j starts from the columns of Hom(d_j, N)
    and one copy of N's reduced basis per summand of F_j (_coker_gb)."""
    res = _ext_resolution(m, n, i)
    if res.term(i).rank == 0:
        return HilbertSeries(m.ring.weights, {})
    term = n.hilbert_series().times([-a for a in res.term(i + 1).twists])
    return middle_series(_hom_coker(res.diff(i), n),
                         _hom_coker(res.diff(i + 1), n), term, n)


def first_ext(m: ModulePresentation, n: ModulePresentation, lo: int,
              hi: int):
    """The first i in lo..hi with Ext^i(M, N) != 0, or None, read off
    the series."""
    return next((i for i in range(lo, hi + 1) if ext_series(m, n, i).numer),
                None)


# ---------------------------------------------------------------------------
# module maps and the canonical constructions


class ModuleMap:
    """A map of presented modules given on generator frees, its matrix in
    normal form by ModulePresentation's rule (express lifts it so)."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: ModulePresentation, target: ModulePresentation,
                 matrix: GradedMatrix):
        self.source = source
        self.target = target
        self.matrix = matrix

    def validate(self):
        self.matrix.validate_homogeneous()
        if self.source.relations.source.rank:
            comp = self.matrix.compose(self.source.relations)
            if lift_matrix(self.target.relations, comp) is None:
                raise ValueError("map does not respect relations")

    def is_surjective(self) -> bool:
        if self.target.gens.rank == 0:
            return True
        ones = GradedMatrix.identity(self.source.ring, self.target.gens)
        return lift_matrix(self.matrix, ones,
                           [self.target.relations]) is not None

    def is_isomorphism(self) -> bool:
        """A degree-0 surjection of graded modules with finite-dimensional
        pieces (weights are at least 1) is bijective exactly when source
        and target have the same dimension in every degree."""
        return self.is_surjective() and (self.source.hilbert_series().numer
                                         == self.target.hilbert_series().numer)


def homothety_map(c: ModulePresentation) -> ModuleMap:
    """The canonical map R -> Hom(C, C) sending 1 to the identity."""
    qr = c.ring
    D = hom_modules(c, c)
    g0 = c.gens.rank
    entries = {(a * g0 + a, 0): qr.one() for a in range(g0)}
    iota = GradedMatrix(qr, ONE_FREE, kron(c.gens.dual(), c.gens), entries)
    out = ModuleMap(ModulePresentation.free(qr, [0]), D, D.express(iota))
    out.validate()
    return out


def evaluation_map(m: ModulePresentation, c: ModulePresentation) -> ModuleMap:
    """The canonical map M -> Hom(Hom(M, C), C)."""
    if m.ring != c.ring:
        raise ValueError("evaluation over different rings")
    qr = m.ring
    D = hom_modules(m, c)
    DD = hom_modules(D, c)
    g0c = c.gens.rank
    entries = {}
    for (pos, j), p in D.pairing.entries.items():
        a, b = divmod(pos, g0c)
        entries[(j * g0c + b, a)] = p
    beta = GradedMatrix(qr, m.gens, kron(D.gens.dual(), c.gens), entries)
    out = ModuleMap(m, DD, DD.express(beta))
    out.validate()
    return out


@ring_memo
def over_ambient(r: QuotientRing) -> ModulePresentation:
    """R = S/I as a cyclic module over S, its ambient polynomial ring,
    kept in R's memo: one S per ring, so what is derived over S (its
    resolution of R, read by canonical_module and
    invariants.poincare_certificate) is derived once."""
    return ModulePresentation.cyclic(QuotientRing(r.ambient, []),
                                     list(r.ideal_basis))


def canonical_module(r: QuotientRing) -> ModulePresentation:
    """The graded canonical module as top nonvanishing Ext over the
    ambient polynomial ring, re-housed over r, generators normalized to
    start in degree zero.

    Raises NotCohenMacaulayError when some off-codimension Ext over the
    ambient ring is nonzero.
    """
    n = r.ambient.n
    RS = over_ambient(r)
    SS = ModulePresentation.free(RS.ring, [0])
    codim = n - r.krull_dim()
    i = first_ext(RS, SS, 0, codim - 1)
    if i is None:
        i = first_ext(RS, SS, codim + 1, n)
    if i is not None:
        raise NotCohenMacaulayError(
            f"nonzero Ext at index {i}, codimension {codim}")
    w = minimal_presentation(ext_module(RS, SS, codim))
    rel = r.reduce_matrix(GradedMatrix(r, w.relations.source, w.gens,
                                       w.relations.entries))
    out = minimal_presentation(ModulePresentation(r, rel))
    if out.gens.rank == 0:
        return out
    return out.shifted(-min(out.gens.twists))
