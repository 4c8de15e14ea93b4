"""Every Hom and tensor matrix, cone and direct-sum differential and
hstack against their previous forms.

hom_complex, tensor_complex, _cone_diff, direct_sum and hstack now place
Kronecker products by ring.block_matrix, and the module Hom and tensor
presentations are built from ring.kron, where each wrote its own index
formula: _hom_free, _hom_rel_block and _hom_induced are now
kron(F^*, N's generators), kron(F^*, N's relations) and kron(d^T, N's
generators).  bass_table reads a complete complex through hom_frame, the
terms, window and truth bounds of hom_complex without its differential.
None of this changes what is computed, so the code before it, copied
verbatim below (only the function names are prefixed with old_, as are
the calls between the copies, and old_hom_cohomology reads its kernels
modulo the relation blocks by kernel_matrix's mod argument, as
_hom_cohomology does, where both called modules._sub_rels), is the
reference: old and new agree term
for term, entry for entry, twist for twist, in window and truth bounds,
or both refuse with the same error.

The inputs are the benchmark's ring templates in random coordinates
(their X, Y, Z, C, the truncated resolutions K_b of k and Hom(K_b, C), at
b = 1-4, drawn as tests/test_complexes_reference.py draws them) and every
call that running the benchmark's tasks on each template and the corpus
makes to the functions compared, including every Hom, Ext and tensor
presentation of the corpus modules.
"""

import sys
from collections import Counter
from contextlib import ExitStack, suppress
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homcalc import cli, complexes, invariants, modules, ring
from homcalc import semidualizing as sd
from homcalc.cli import build_problem, run_tasks
from homcalc.complexes import (
    INF, NEG_INF, ChainMap, FreeComplex, TrustWindow, UncertifiedDegreeError,
    _hsupp, _resolution_shape, hom_layout, tensor_layout, zero_complex,
)
from homcalc.corpus import corpus_problems
from homcalc.groebner import kernel_matrix
from homcalc.invariants import residue_field
from homcalc.modules import ModulePresentation, resolution
from homcalc.ring import GradedFree, GradedMatrix, kron

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


# -- the previous code, verbatim --------------------------------------------


def old_hstack(ring, mats):
    """Concatenate matrices with a common target side by side."""
    tgt = mats[0].target
    src_tw, entries = [], {}
    off = 0
    for m in mats:
        if m.target != tgt:
            raise ValueError("hstack target mismatch")
        for (i, j), p in m.entries.items():
            entries[(i, off + j)] = p
        src_tw.extend(m.source.twists)
        off += m.source.rank
    return GradedMatrix(ring, GradedFree.of(src_tw), tgt, entries)


def old_direct_sum(X: FreeComplex, Y: FreeComplex) -> FreeComplex:
    if X.ring != Y.ring:
        raise ValueError("direct sum over different rings")
    terms, diffs = {}, {}
    degs = set(X.terms) | set(Y.terms)
    for i in degs:
        fx, fy = X.term(i), Y.term(i)
        terms[i] = GradedFree.of(fx.twists + fy.twists)
    for i in degs:
        dx, dy = X.diff(i), Y.diff(i)
        entries = dict(dx.entries)
        rx, cx_ = X.term(i - 1).rank, X.term(i).rank
        for (a, b), p in dy.entries.items():
            entries[(rx + a, cx_ + b)] = p
        tgt = terms.get(i - 1, GradedFree.of(X.term(i - 1).twists + Y.term(i - 1).twists))
        m = GradedMatrix(X.ring, terms[i], tgt, entries)
        if not m.is_zero():
            diffs[i] = m
    return FreeComplex(X.ring, terms, diffs, X.window.intersect(Y.window),
                       min(X.true_lo, Y.true_lo), max(X.true_hi, Y.true_hi))


def old_cone_diff(f: ChainMap, j: int) -> GradedMatrix:
    """d_j of cone(f) for f: X -> Y, from X_{j-1} (+) Y_j to
    X_{j-2} (+) Y_{j-1}: the block matrix [[-d_X, 0], [f, d_Y]], so
    d(a, b) = (-da, db + fa) and d^2 = 0 because f commutes with d."""
    X, Y = f.source, f.target
    qr = X.ring
    neg = qr.field.normalize(-1)
    rx, cx = X.term(j - 2).rank, X.term(j - 1).rank
    entries = {k: p.scale(neg) for k, p in X.diff(j - 1).entries.items()}
    for (a, b), p in f.component(j - 1).entries.items():
        entries[(rx + a, b)] = p
    for (a, b), p in Y.diff(j).entries.items():
        entries[(rx + a, cx + b)] = p
    return GradedMatrix(
        qr, GradedFree.of(X.term(j - 1).twists + Y.term(j).twists),
        GradedFree.of(X.term(j - 2).twists + Y.term(j - 1).twists), entries)


def old_hom_complex(P: FreeComplex, Y: FreeComplex) -> FreeComplex:
    """Hom(P, Y) as a complex; P plays the projective-resolution role.

    Term t is the direct sum over i of Hom(P_i, Y_{i+t}), laid out by
    hom_layout.
    """
    qr = P.ring
    if qr != Y.ring:
        raise ValueError("hom over different rings")
    Fld = qr.field
    pb, pt, pwhi, pfloor = _resolution_shape(P)
    yb, yt = Y.term_range()
    if P.is_zero_complex() or Y.is_zero_complex():
        return zero_complex(qr)

    terms, offsets, diffs = {}, {}, {}
    tmin, tmax = yb - pt, yt - pb
    for t in range(tmin, tmax + 1):
        offs, twists = hom_layout(P, Y, t)
        if twists:
            terms[t], offsets[t] = GradedFree.of(twists), offs
    for t in range(tmin, tmax + 1):
        if t not in terms or (t - 1) not in terms:
            continue
        src_off = offsets[t]
        tgt_off = offsets[t - 1]
        entries = {}
        sgn = Fld.normalize(-1 if t % 2 == 0 else 1)  # -(-1)^t
        for i, base in src_off.items():
            rp = P.term(i).rank
            ry = Y.term(i + t).rank
            # postcompose with dY: block i of degree t-1, pair (a, c)
            if i in tgt_off:
                for (c, b), p in Y.diff(i + t).entries.items():
                    for a in range(rp):
                        entries[(tgt_off[i] + c * rp + a, base + b * rp + a)] = p
            # precompose with dP: block i+1 of degree t-1, pair (a2, b)
            if (i + 1) in tgt_off and (i + 1) <= pt:
                rp2 = P.term(i + 1).rank
                for (a, a2), p in P.diff(i + 1).entries.items():
                    for b in range(ry):
                        key = (tgt_off[i + 1] + b * rp2 + a2, base + b * rp + a)
                        cur = entries.get(key)
                        q = p.scale(sgn)
                        entries[key] = q if cur is None else cur.__add__(q)
        m = GradedMatrix(qr, terms[t], terms[t - 1], entries)
        if not m.is_zero():
            diffs[t] = m

    # untrusted bands from the hypercohomology pairing (module docstring):
    # garbage homology of Y against cells of P, garbage cells of P against
    # any homology of Y, missing high cells against true homology of Y
    plo, phi = Y.possible_range()
    win = TrustWindow.all()
    garbage_y = Y.window.complement().intersect(TrustWindow.interval(plo, phi))
    for glo, ghi in garbage_y.parts:
        win = win.minus_band(glo - pt, ghi - pb)
    if pwhi < pt:
        for hlo, hhi in _hsupp(Y).parts:
            win = win.minus_band(hlo - pt, hhi - (pwhi + 1))
    if not P.complete:
        win = win.minus_band(NEG_INF, Y.true_hi - pt - 1)
    if pfloor != NEG_INF and P.true_lo < pfloor:
        # unproven floor: every cell of P is suspect, as is anything a
        # deeper (higher-bound) resolution could reach
        for hlo, hhi in _hsupp(Y).union(garbage_y).parts:
            win = win.minus_band(hlo - pt, INF)
    true_hi = Y.true_hi - P.true_lo
    true_lo = (Y.true_lo - pt) if P.complete else NEG_INF
    return FreeComplex(qr, terms, diffs, win, true_lo, true_hi)


def old_tensor_complex(F: FreeComplex, Y: FreeComplex) -> FreeComplex:
    """F (x) Y as a complex; F plays the flat-resolution role.

    Term t is the sum over i+j=t of F_i (x) Y_j, laid out by
    tensor_layout.
    """
    qr = F.ring
    if qr != Y.ring:
        raise ValueError("tensor over different rings")
    Fld = qr.field
    fb, ft, fwhi, ffloor = _resolution_shape(F)
    yb, yt = Y.term_range()
    if F.is_zero_complex() or Y.is_zero_complex():
        return zero_complex(qr)

    terms, offsets, diffs = {}, {}, {}
    tmin, tmax = fb + yb, ft + yt
    for t in range(tmin, tmax + 1):
        offs, twists = tensor_layout(F, Y, t)
        if twists:
            terms[t], offsets[t] = GradedFree.of(twists), offs
    for t in range(tmin, tmax + 1):
        if t not in terms or (t - 1) not in terms:
            continue
        src_off = offsets[t]
        tgt_off = offsets[t - 1]
        entries = {}
        for i, base in src_off.items():
            rf = F.term(i).rank
            ry = Y.term(t - i).rank
            # dF (x) id: block i-1
            if (i - 1) in tgt_off:
                for (c, a), p in F.diff(i).entries.items():
                    for b in range(ry):
                        entries[(tgt_off[i - 1] + c * ry + b, base + a * ry + b)] = p
            # (-1)^i id (x) dY: block i of degree t-1
            if i in tgt_off:
                sgn = Fld.normalize(-1 if i % 2 else 1)
                ry3 = Y.term(t - 1 - i).rank
                for (d, b), p in Y.diff(t - i).entries.items():
                    for a in range(rf):
                        key = (tgt_off[i] + a * ry3 + d, base + a * ry + b)
                        cur = entries.get(key)
                        q = p.scale(sgn)
                        entries[key] = q if cur is None else cur.__add__(q)
        m = GradedMatrix(qr, terms[t], terms[t - 1], entries)
        if not m.is_zero():
            diffs[t] = m

    plo, phi = Y.possible_range()
    win = TrustWindow.all()
    garbage_y = Y.window.complement().intersect(TrustWindow.interval(plo, phi))
    for glo, ghi in garbage_y.parts:
        win = win.minus_band(glo + fb, ghi + ft)
    if fwhi < ft:
        for hlo, hhi in _hsupp(Y).parts:
            win = win.minus_band(hlo + fwhi + 1, hhi + ft)
    if not F.complete:
        win = win.minus_band(Y.true_lo + ft + 1, INF)
    if ffloor != NEG_INF and F.true_lo < ffloor:
        for hlo, hhi in _hsupp(Y).union(garbage_y).parts:
            win = win.minus_band(NEG_INF, hhi + ft)
    true_lo = F.true_lo + Y.true_lo
    true_hi = (ft + Y.true_hi) if F.complete else INF
    return FreeComplex(qr, terms, diffs, win, true_lo, true_hi)


def old_hom_free(fr: GradedFree, n: ModulePresentation) -> GradedFree:
    # layout: generator (a, b) = (basis a of fr) |-> (generator b of n),
    # flattened as a * n.gens.rank + b
    tw = []
    for a in range(fr.rank):
        for b in range(n.gens.rank):
            tw.append(n.gens.twists[b] - fr.twists[a])
    return GradedFree.of(tw)


def old_hom_rel_block(fr: GradedFree, n: ModulePresentation) -> GradedMatrix:
    """Relations of N^rank(fr) in the hom layout: one copy of the relation
    matrix of N per basis element of fr."""
    qr = n.ring
    g0, r1 = n.gens.rank, n.relations.source.rank
    src_tw = []
    entries = {}
    for a in range(fr.rank):
        for c in range(r1):
            src_tw.append(n.relations.source.twists[c] - fr.twists[a])
        for (b, c), p in n.relations.entries.items():
            entries[(a * g0 + b, a * r1 + c)] = p
    return GradedMatrix(qr, GradedFree.of(src_tw), old_hom_free(fr, n), entries)


def old_hom_induced(d: GradedMatrix, n: ModulePresentation) -> GradedMatrix:
    """Hom(d, N): Hom(target(d), N) -> Hom(source(d), N), precomposition."""
    qr = d.ring
    g0 = n.gens.rank
    entries = {}
    for (a0, a1), p in d.entries.items():
        for b in range(g0):
            entries[(a1 * g0 + b, a0 * g0 + b)] = p
    return GradedMatrix(qr, old_hom_free(d.target, n), old_hom_free(d.source, n),
                        entries)


def old_hom_cohomology(d_in: GradedMatrix, d_out: GradedMatrix,
                       n: ModulePresentation):
    """Cohomology of Hom(F, N) at F = target(d_out) = source(d_in), for
    free maps d_out: F' -> F and d_in: F -> F'', as (kappa, rels): kappa
    generates the kernel of Hom(d_out, N) inside Hom(F, N), and rels
    presents it modulo the image of Hom(d_in, N).  Hom and Ext both read
    their answer here."""
    A = old_hom_induced(d_out, n)
    kappa = kernel_matrix(A, [old_hom_rel_block(d_out.source, n)])
    rels = kernel_matrix(kappa, [old_hom_rel_block(d_out.target, n),
                                 old_hom_induced(d_in, n)])
    return kappa, rels


def old_hom_coker(d: GradedMatrix, n: ModulePresentation) -> ModulePresentation:
    """Hom(source(d), N) modulo the image of Hom(d, N)."""
    qr = n.ring
    return ModulePresentation(qr, old_hstack(qr, [old_hom_rel_block(d.source, n),
                                                  old_hom_induced(d, n)]))


def old_tensor_modules(m: ModulePresentation,
                       n: ModulePresentation) -> ModulePresentation:
    """M (x) N presented by relations of both factors spread over the
    generators of the other; generator (a, b) flattens as a * rank + b."""
    if m.ring != n.ring:
        raise ValueError("tensor over different rings")
    qr = m.ring
    g0m, g0n = m.gens.rank, n.gens.rank
    tw = [m.gens.twists[a] + n.gens.twists[b]
          for a in range(g0m) for b in range(g0n)]
    tgt = GradedFree.of(tw)
    src_tw = []
    entries = {}
    for r in range(m.relations.source.rank):
        for b in range(g0n):
            src_tw.append(m.relations.source.twists[r] + n.gens.twists[b])
    for (a, r), p in m.relations.entries.items():
        for b in range(g0n):
            entries[(a * g0n + b, r * g0n + b)] = p
    col = m.relations.source.rank * g0n
    for a in range(g0m):
        for c in range(n.relations.source.rank):
            src_tw.append(m.gens.twists[a] + n.relations.source.twists[c])
    for (b, c), p in n.relations.entries.items():
        for a in range(g0m):
            entries[(a * g0n + b, col + a * n.relations.source.rank + c)] = p
    rel = GradedMatrix(qr, GradedFree.of(src_tw), tgt, entries)
    return ModulePresentation(qr, rel)


# -- running the old code beside the new ------------------------------------


def same_complex(new, old, args):
    return (new.terms == old.terms and new.diffs == old.diffs
            and new.window == old.window
            and (new.true_lo, new.true_hi) == (old.true_lo, old.true_hi))


def same_frame(new, old, args):
    """hom_frame against the old hom_complex: all but the differential."""
    H = new[0]
    return not H.diffs and same_complex(H, FreeComplex(
        old.ring, old.terms, {}, old.window, old.true_lo, old.true_hi), args)


def same_blocks(d, n):
    """The deleted module Hom helpers against the kron expressions that
    replace them."""
    return kron(d.transpose(), n.gens) == old_hom_induced(d, n) and all(
        kron(F.dual(), n.relations) == old_hom_rel_block(F, n)
        and kron(F.dual(), n.gens) == old_hom_free(F, n)
        for F in (d.source, d.target))


def same_cohomology(new, old, args):
    d_in, d_out, n = args
    return new == old and same_blocks(d_in, n) and same_blocks(d_out, n)


def same_presentation(new, old, args):
    return (new.gens, new.relations) == (old.gens, old.relations)


def same_coker(new, old, args):
    return same_presentation(new, old, args) and same_blocks(*args)


def equal(new, old, args):
    return new == old


# name: (its module, the modules that call it by that name, old, same)
COMPARED = {
    "hom_complex": (complexes, (invariants, sd), old_hom_complex,
                    same_complex),
    "hom_frame": (complexes, (invariants,), old_hom_complex, same_frame),
    "tensor_complex": (complexes, (invariants, sd), old_tensor_complex,
                       same_complex),
    "direct_sum": (complexes, (cli,), old_direct_sum, same_complex),
    "_cone_diff": (complexes, (), old_cone_diff, equal),
    "hstack": (ring, (modules,), old_hstack, equal),
    "_hom_cohomology": (modules, (), old_hom_cohomology, same_cohomology),
    "_hom_coker": (modules, (), old_hom_coker, same_coker),
    "tensor_modules": (modules, (sd,), old_tensor_modules, same_presentation),
}


class Checks:
    """Within it, every call to a compared function, from its own module
    or a caller's, also runs the old version on the same arguments; the
    calls are counted and every disagreement recorded."""

    def __init__(self):
        self.calls, self.mismatches = Counter(), []
        self._patches = ExitStack()

    def _wrap(self, name, new_fn, old_fn, same):
        def run(*args):
            self.calls[name] += 1
            try:
                old = old_fn(*args)
            except Exception as e:
                try:
                    new_fn(*args)
                except type(e):
                    raise
                self.mismatches.append((name, f"only the old code raised {e!r}"))
                raise
            try:
                new = new_fn(*args)
            except Exception as e:
                self.mismatches.append((name, f"only the new code raised {e!r}"))
                raise
            if not same(new, old, args):
                self.mismatches.append((name, "results differ"))
            return new
        return run

    def __enter__(self):
        for name, (home, callers, old_fn, same) in COMPARED.items():
            run = self._wrap(name, getattr(home, name), old_fn, same)
            for site in (home,) + callers:
                self._patches.enter_context(mock.patch.object(site, name, run))
        return self

    def __exit__(self, *exc):
        self._patches.close()

    def verify(self, *names):
        assert self.mismatches == []
        assert all(self.calls[name] for name in names), self.calls


def identity(X):
    return ChainMap(X, X, {i: GradedMatrix.identity(X.ring, f)
                           for i, f in X.terms.items()})


# -- the benchmark's templates ----------------------------------------------


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(workloads.TEMPLATES), st.integers(-3, 3),
       st.integers(-3, 3), st.sampled_from(["X", "Y", "Z", "C", "K", "H"]),
       st.integers(1, 4))
def test_templates_match_the_old_code(template, a, c, name, b):
    assume(a * c != 1)
    u, v = {(1, 0): 1, (0, 1): a}, {(1, 0): c, (0, 1): 1}
    with Checks() as checks:
        p = build_problem(workloads.template_doc(template, u, v))
        C = p.complexes["C"]
        K = resolution(residue_field(p.qr), b)
        X = dict(p.complexes, K=K, H=complexes.hom_complex(K, C))[name]
        for P, Y in ((K, X), (X, C), (C, X)):
            for build in (complexes.hom_complex, complexes.hom_frame,
                          complexes.tensor_complex):
                with suppress(UncertifiedDegreeError):
                    build(P, Y)
        complexes.direct_sum(X, C)
        complexes.cone(identity(X))
    checks.verify("hom_complex", "hom_frame", "tensor_complex", "direct_sum",
                  "_cone_diff")


@pytest.mark.parametrize("doc", workloads.random_complexes(None, 1),
                         ids=lambda d: d["name"])
def test_template_tasks_match_the_old_code(doc):
    with Checks() as checks:
        run = run_tasks(build_problem(doc))
    assert not [e for e in run["entries"] if e.get("internal")]
    checks.verify("hom_complex", "tensor_complex", "direct_sum", "_cone_diff")


# -- the corpus -------------------------------------------------------------


@pytest.mark.parametrize("doc", corpus_problems(), ids=lambda d: d["name"])
def test_corpus_matches_the_old_code(doc):
    with Checks() as checks:
        p = build_problem(doc)
        run = run_tasks(p)
        ms = list(p.modules.values()) + [
            ModulePresentation.free(p.qr, [0]), residue_field(p.qr)]
        for m in ms:
            for n in ms:
                sd.tensor_modules(m, n)
                modules.hom_modules(m, n)
                for i in range(3):
                    modules.ext_module(m, n, i)
                    modules.ext_series(m, n, i)
    assert not [e for e in run["entries"] if e.get("internal")]
    checks.verify("_hom_cohomology", "_hom_coker", "tensor_modules", "hstack")
