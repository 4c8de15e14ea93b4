"""Semidualizing certification, G-dimension with respect to a coefficient
module, and mechanized verifiers for the numerical identities relating
type, Betti, and Bass data.

Every verifier returns a four-valued report: PASS and FAIL are only
issued when all inputs sat inside certified windows; hypothesis
shortfalls give HYPOTHESES-NOT-MET and window shortfalls UNCERTIFIED, so
a truncated computation can never masquerade as a counterexample.  The
reports have one path: the _verifier decorator builds every
VerificationReport, from the conclusion a verifier returns, the
hypothesis shortfall it raises through _require, or the window
shortfall it meets.
"""

from __future__ import annotations

import functools

from .groebner import QuotientRing
from .complexes import (FreeComplex, cone, hom_complex, tensor_complex,
                        resolve_complex_with_map, biduality_rep,
                        homothety_rep, UncertifiedDegreeError)
from .modules import (ModulePresentation, minimal_presentation, syzygy,
                      hom_modules, tensor_modules, ext_module, ext_series,
                      first_ext, evaluation_map, homothety_map,
                      homology_presentation, trusted_homology,
                      extreme_homology, ring_memo, is_module, resolved)
from .invariants import (residue_field, depth, type_of, kdim_complex, nu,
                         is_cohen_macaulay, bass_table, betti_table,
                         pd_verdict, id_verdict, grade_wrt, tor_dims, inf_of,
                         amplitude, ext_presentation, Result,
                         ZeroModuleError, WindowInsufficientError)

PASS = "PASS"
FAIL = "FAIL"
HYPOTHESES_NOT_MET = "HYPOTHESES-NOT-MET"
UNCERTIFIED = "UNCERTIFIED"


class NotSemidualizingError(ValueError):
    """The coefficient object failed its semidualizing certificate."""


def _ring_module(qr: QuotientRing) -> ModulePresentation:
    return ModulePresentation.free(qr, [0])


def _is_gorenstein(r: ModulePresentation, bound: int) -> bool:
    """R (as the module r) has type 1 and certified finite id."""
    return type_of(r) == 1 and id_verdict(r, bound).is_finite_certified()


def _cone_clear(c: FreeComplex):
    """(all trusted homology zero, witness degree or None)."""
    t = next(trusted_homology(c), None)
    return t is None, t


# ---------------------------------------------------------------------------
# semidualizing and dualizing certification


class SdcCertificate(Result):
    __slots__ = ("bound", "homothety_ok", "ext_vanishing_ok", "reason")
    KIND = "semidualizing"
    FIELDS = ("ok",) + __slots__

    @property
    def ok(self) -> bool:
        return self.homothety_ok and self.ext_vanishing_ok

    def verdict(self) -> str:
        if self.ok:
            return f"semidualizing-up-to({self.bound})"
        return f"failed({self.reason})"

    def __repr__(self):
        return f"SdcCertificate({self.verdict()})"


@ring_memo
def semidualizing_certificate(c, bound: int) -> SdcCertificate:
    """Certify that the homothety map is an isomorphism and that all
    checkable self-Ext in nonzero degrees vanish."""
    if is_module(c):
        hok = homothety_map(c).is_isomorphism()
        bad = first_ext(c, c, 1, bound)
        eok = bad is None
        reason = "" if hok and eok else \
            ("homothety" if not hok else f"self-ext nonzero at {bad}")
        return SdcCertificate(bound, hok, eok, reason)
    q = resolve_complex_with_map(c, bound)[1]
    ok, t = _cone_clear(cone(homothety_rep(q)))
    if ok:
        return SdcCertificate(bound, True, True, "")
    reason = "homothety" if t in (0, 1) else f"self-ext nonzero at {-t}"
    return SdcCertificate(bound, t not in (0, 1), t in (0, 1), reason)


class DualizingVerdict(Result):
    __slots__ = FIELDS = ("dualizing", "reason", "id_status", "gcdim_of_k")
    KIND = "dualizing"

    def __repr__(self):
        tag = "dualizing" if self.dualizing else f"not-dualizing({self.reason})"
        return f"DualizingVerdict({tag})"


def dualizing_verdict(c, bound: int) -> DualizingVerdict:
    """Dualizing = semidualizing with certified finite injective
    dimension.  The finite-G-dimension-of-k signal is computed alongside
    as a cross-check; the two agree on every corpus ring."""
    cert = semidualizing_certificate(c, bound)
    qr = c.ring
    idv = id_verdict(c, bound)
    gk = None
    if cert.ok:
        k = residue_field(qr)
        gk = gcdim(k, c, bound)
    if not cert.ok:
        return DualizingVerdict(False, cert.verdict(), idv.status, gk)
    if not idv.is_finite_certified():
        return DualizingVerdict(
            False, f"injective dimension {idv.status} at bound {bound}",
            idv.status, gk)
    return DualizingVerdict(True, "", idv.status, gk)


# ---------------------------------------------------------------------------
# G-dimension


class GcdimVerdict(Result):
    """FiniteEquals(g) / Infinite(witness) / UncertifiedUpTo(bound)."""

    __slots__ = FIELDS = ("status", "g", "witness", "bound", "inf_rhom")
    KIND = "gcdim"

    @staticmethod
    def finite(g, bound, inf_rhom=None):
        return GcdimVerdict("finite", g, "", bound, inf_rhom)

    @staticmethod
    def infinite(witness, bound):
        return GcdimVerdict("infinite", None, witness, bound, None)

    @staticmethod
    def uncertified(bound, witness=""):
        return GcdimVerdict("uncertified", None, witness, bound, None)

    def is_finite(self):
        return self.status == "finite"

    def __repr__(self):
        if self.status == "finite":
            return f"GcdimVerdict(finite, g={self.g})"
        if self.status == "infinite":
            return f"GcdimVerdict(infinite: {self.witness})"
        return f"GcdimVerdict(uncertified up to {self.bound})"


def _require_semidualizing(c, bound):
    cert = semidualizing_certificate(c, bound)
    if not cert.ok:
        raise NotSemidualizingError(cert.verdict())
    return cert


@ring_memo
def gcdim_module(m: ModulePresentation, c: ModulePresentation,
                 bound: int) -> GcdimVerdict:
    """G-dimension of a module with respect to a semidualizing module.

    The finite value is forced to be g = depth R - depth M (Christensen
    2001; Holm and Jorgensen 2006), so a negative g refutes it and the test
    reduces to total reflexivity of the g-th syzygy: vanishing of both
    Ext columns plus the evaluation isomorphism.  Any definite failure
    refutes finiteness outright, because a finite G-dimension would make
    that syzygy totally reflexive.
    """
    _require_semidualizing(c, bound)
    if m.is_zero_module():
        raise ZeroModuleError("G-dimension of the zero module")
    dr, dm = depth(_ring_module(m.ring)), depth(m)
    g = dr - dm
    if g < 0:
        return GcdimVerdict.infinite(
            f"depth M = {dm} exceeds depth R = {dr}", bound)
    om = syzygy(m, g)
    if om.is_zero_module():
        return GcdimVerdict.finite(g, bound)
    i = first_ext(om, c, 1, bound)
    if i is not None:
        return GcdimVerdict.infinite(f"Ext^{i}(syzygy^{g}, C) != 0", bound)
    i = first_ext(hom_modules(om, c), c, 1, bound)
    if i is not None:
        return GcdimVerdict.infinite(
            f"Ext^{i}(Hom(syzygy^{g}, C), C) != 0", bound)
    if not evaluation_map(om, c).is_isomorphism():
        return GcdimVerdict.infinite(
            f"biduality of syzygy^{g} is not an isomorphism", bound)
    return GcdimVerdict.finite(g, bound)


@ring_memo
def gcdim_complex(z, c, bound: int) -> GcdimVerdict:
    """G-dimension via reflexivity of the biduality representative:
    inf C - inf RHom(Z, C) when the biduality cone is homologically
    trivial in the window."""
    _require_semidualizing(c, bound)
    qr = z.ring
    P = resolved(z, bound)
    C = resolved(c, bound)
    delta = biduality_rep(P, C, bound)
    ok, t = _cone_clear(cone(delta))
    if not ok:
        return GcdimVerdict.infinite(
            f"biduality cone has homology at degree {t}", bound)
    H = hom_complex(P, C)
    inf_rhom, certified = extreme_homology(H, 1)
    if not certified:
        return GcdimVerdict.uncertified(bound, "RHom window bottom untrusted")
    if inf_rhom is None:
        return GcdimVerdict.uncertified(bound, "RHom has no homology in window")
    g = inf_of(c) - inf_rhom
    dr = depth(_ring_module(qr))
    dz = depth(z)
    dc = depth(c)
    if g != dr - dz:
        raise RuntimeError(
            f"G-dimension {g} violates the depth formula {dr} - {dz}")
    if inf_rhom != dz - dc:
        raise RuntimeError(
            f"inf RHom {inf_rhom} violates the depth difference {dz} - {dc}")
    return GcdimVerdict.finite(g, bound, inf_rhom)


def gcdim(x, c, bound: int) -> GcdimVerdict:
    """G-dimension by the module route when both arguments are modules,
    else by the complex route."""
    if is_module(x) and is_module(c):
        return gcdim_module(x, c, bound)
    return gcdim_complex(x, c, bound)


# ---------------------------------------------------------------------------
# verification reports


class VerificationReport(Result):
    __slots__ = FIELDS = ("name", "hypotheses", "left", "right", "verdict",
                          "bound", "notes")
    KIND = "report"

    def __repr__(self):
        return f"VerificationReport({self.name}: {self.verdict})"


class _Unmet(Exception):
    """A hypothesis shortfall, carrying (hypotheses, left, right, notes)
    out of a verifier to its HYPOTHESES-NOT-MET report."""


def _require(hyps, notes, left=None, right=None):
    """Abort the verifier with HYPOTHESES-NOT-MET unless every hypothesis
    is met."""
    if any(v != "met" for v in hyps.values()):
        raise _Unmet(hyps, left, right, notes)


def _semidualizing_hypothesis(c, hyps, bound):
    """HYPOTHESES-NOT-MET unless C passes its semidualizing certificate."""
    cert = semidualizing_certificate(c, bound)
    if not cert.ok:
        hyps["semidualizing"] = "failed"
        _require(hyps, [cert.verdict()])


def _verifier(fn):
    """The one place a VerificationReport is built.

    The verifier returns (hypotheses, left, right, conclusion, notes)
    once every hypothesis is met: conclusion True gives PASS, False gives
    FAIL, None UNCERTIFIED.  A hypothesis shortfall aborts it through
    _require and gives HYPOTHESES-NOT-MET; a window shortfall gives
    UNCERTIFIED, so a truncated computation never decides an identity.
    The report is named after the function, and the bound is its last
    argument."""
    name = fn.__name__.replace("verify_", "").replace("_", "-")

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        bound = kwargs["bound"] if "bound" in kwargs else args[-1]
        try:
            hyps, left, right, ok, notes = fn(*args, **kwargs)
            verdict = UNCERTIFIED if ok is None else PASS if ok else FAIL
        except _Unmet as e:
            hyps, left, right, notes = e.args
            verdict = HYPOTHESES_NOT_MET
        except (WindowInsufficientError, UncertifiedDegreeError) as e:
            hyps, left, right, notes = {}, None, None, [str(e)]
            verdict = UNCERTIFIED
        return VerificationReport(name, hyps, left, right, verdict, bound,
                                  notes)
    return wrapped


def _top_ext(x, c, hyps, bound):
    """(g, e, nu(Ext^e(X, C))) for the G-dimension g of X with respect to
    C and e = g - inf C, a zero Ext^e counting as nu = 0.  Aborts with
    HYPOTHESES-NOT-MET when g is not certified finite."""
    v = gcdim(x, c, bound)
    if not v.is_finite():
        hyps["finite-gcdim"] = \
            "failed" if v.status == "infinite" else "uncertified"
        _require(hyps, [repr(v)])
    e = v.g - inf_of(c)
    try:
        nu_ext = nu(ext_presentation(x, c, e, bound))
    except ZeroModuleError:
        nu_ext = 0
    return v.g, e, nu_ext


@_verifier
def verify_type_formula(z, c, bound: int) -> VerificationReport:
    """type(Z) = nu(Ext^{g - inf C}(Z, C)) * mu^{depth C}(C) whenever the
    G-dimension of Z with respect to C is finite."""
    hyps = {"semidualizing": "met", "finite-gcdim": "met"}
    _semidualizing_hypothesis(c, hyps, bound)
    g, e, nu_ext = _top_ext(z, c, hyps, bound)
    left = type_of(z)
    mu_c = type_of(c)
    right = nu_ext * mu_c
    return hyps, left, right, left == right, \
        [f"g={g}, nu(Ext^{e})={nu_ext}, mu^depth(C)={mu_c}"]


@_verifier
def verify_dualizing_criteria(x, c, bound: int) -> VerificationReport:
    """A Cohen-Macaulay object of finite G-dimension whose type is
    bounded by the generator count of its top Ext against C forces C to
    be dualizing (amplitude-zero proviso, or the dimension equality
    dim X = dim C - grade); conversely a dualizing C passes the same
    hypotheses with X = C."""
    notes = []
    hyps = {"semidualizing": "met", "cohen-macaulay": "met",
            "finite-gcdim": "met", "type-bound": "met",
            "amplitude-zero-or-dimension-equality": "met"}
    _semidualizing_hypothesis(c, hyps, bound)
    if not is_cohen_macaulay(x):
        hyps["cohen-macaulay"] = "failed"
    _, e, nu_ext = _top_ext(x, c, hyps, bound)
    r_x = type_of(x)
    if r_x > nu_ext:
        hyps["type-bound"] = "failed"
        notes.append(f"type {r_x} > nu(Ext^{e}) = {nu_ext}")
    amp0 = amplitude(x) == 0
    dim_eq = kdim_complex(x) == kdim_complex(c) - grade_wrt(x, c, bound)
    if not (amp0 or dim_eq):
        hyps["amplitude-zero-or-dimension-equality"] = "failed"
    _require(hyps, notes, r_x, nu_ext)
    dv = dualizing_verdict(c, bound)
    notes.append(f"conclusion: {dv!r}")
    # C is dualizing exactly when G_C-dim k is finite, so only a
    # certified infinite one refutes; an uncertified id decides nothing
    conclusion = False if dv.gcdim_of_k.status == "infinite" else None
    if dv.dualizing:
        # converse direction with X = C: the coefficient itself must
        # satisfy the same numerical bound with equality at type 1
        r_c = type_of(c)
        notes.append(f"converse: type(C) = {r_c}")
        conclusion = r_c == 1
    return hyps, r_x, nu_ext, conclusion, notes


@_verifier
def verify_finite_injective_from_homology(x: FreeComplex,
                                          bound: int) -> VerificationReport:
    """If every homology module has certified finite injective dimension
    then the complex does too, with the Bass table truncating at
    max(id H_i - i)."""
    notes = []
    hyps = {}
    ceilings = []
    for i in trusted_homology(x):
        v = id_verdict(homology_presentation(x, i), bound)
        key = f"finite-id-H{i}"
        if v.is_finite_certified():
            hyps[key] = "met"
            ceilings.append(v.n - i)
        else:
            hyps[key] = "uncertified"
            notes.append(f"H_{i}: {v!r}")
    if not hyps:
        hyps["finite-id-homology"] = "met"   # exact complex: vacuous
    _require(hyps, notes)
    ceiling = max(ceilings, default=None)
    observed = max(bass_table(x, bound).nonzero_indices(), default=None)
    ok = observed is None or (ceiling is not None and observed <= ceiling)
    notes.append(f"Bass ceiling {ceiling}, last nonzero {observed}")
    return hyps, ceiling, observed, ok, notes


@_verifier
def verify_ext_vanishing_descent(m: ModulePresentation, n: ModulePresentation,
                                 bound: int) -> VerificationReport:
    """Eventual Ext vanishing plus finite injective dimension of the
    nonvanishing Ext modules forces pd M and id N finite (and Gorenstein
    when M = N).  The theorem is about nonzero M and N, so a zero one is
    refused.  The Ext tail checked for vanishing starts at
    max(1, bound // 2)."""
    if m.is_zero_module() or n.is_zero_module():
        raise ZeroModuleError("Ext-descent needs nonzero M and N")
    tail = max(1, bound // 2)
    notes = []
    hyps = {"ext-tail-vanishes": "met", "finite-id-of-ext": "met"}
    i = first_ext(m, n, tail, bound)
    if i is not None:
        hyps["ext-tail-vanishes"] = "failed"
        notes.append(f"Ext^{i}(M, N) != 0")
    else:
        for i in range(0, tail):
            if not ext_series(m, n, i).numer:
                continue
            v = id_verdict(ext_module(m, n, i), bound)
            if not v.is_finite_certified():
                hyps["finite-id-of-ext"] = "uncertified"
                notes.append(f"id of Ext^{i}(M, N): {v!r}")
                break
    _require(hyps, notes)
    pv = pd_verdict(m, bound)
    iv = id_verdict(n, bound)
    ok = pv.is_finite_certified() and iv.is_finite_certified()
    notes.append(f"pd M: {pv!r}; id N: {iv!r}")
    same = m is n or (m.ring == n.ring and m.gens == n.gens
                      and m.relations == n.relations)
    if same and ok:
        r = _ring_module(m.ring)
        gor = _is_gorenstein(r, bound)
        notes.append(f"Gorenstein conclusion: {gor}")
        ok = gor
    return hyps, pv.status, iv.status, ok, notes


@_verifier
def verify_auslander_reiten(m: ModulePresentation, mode: str,
                            bound: int) -> VerificationReport:
    """Vanishing self-Ext and Ext against R, plus finite injective
    dimension of Hom(M, R) or Hom(M, M), forces M free and R Gorenstein.
    The proof's convolution identity mu^t(Hom(M, R)) = sum beta_i(M)
    mu^j(R) is checked independently whenever Ext^{>0}(M, R) vanishes."""
    if mode not in ("hom-MR", "hom-MM"):
        raise ValueError("mode must be hom-MR or hom-MM")
    r = _ring_module(m.ring)
    notes = []
    hyps = {"self-ext-vanishes": "met", "ext-against-ring-vanishes": "met",
            "finite-id-of-hom": "met"}
    failed = []
    for key, n, name in (("self-ext-vanishes", m, "M"),
                         ("ext-against-ring-vanishes", r, "R")):
        i = first_ext(m, n, 1, bound)
        if i is not None:
            hyps[key] = "failed"
            failed.append((i, f"Ext^{i}(M, {name}) != 0"))
    # notes ascend by index, Ext(M, M) first on a tie (a stable sort)
    notes += [note for _, note in sorted(failed, key=lambda f: f[0])]
    hom = hom_modules(m, r if mode == "hom-MR" else m)
    if hom.is_zero_module():
        # no injective dimension to read on Hom = 0; a failed Ext
        # hypothesis decides the report first
        notes.append("Hom is zero")
        _require(hyps, notes)
    hv = id_verdict(hom, bound)
    if not hv.is_finite_certified():
        hyps["finite-id-of-hom"] = "uncertified"
        notes.append(f"id Hom: {hv!r}")
    # independent convolution check, meaningful once Ext^{>0}(M, R) = 0
    conv = None
    if hyps["ext-against-ring-vanishes"] == "met":
        hb = bass_table(hom_modules(m, r), bound)
        bt = betti_table(m, bound)
        rb = bass_table(r, bound)
        conv = True
        for t in range(0, min(hb.certified[1], rb.certified[1],
                              bt.certified[1]) + 1):
            rhs = sum(bt.value(i) * rb.value(t - i) for i in range(0, t + 1))
            if hb.value(t) != rhs:
                conv = False
                notes.append(f"convolution mismatch at t={t}: "
                             f"{hb.value(t)} != {rhs}")
                break
        notes.append(f"convolution identity holds: {conv}")
    _require(hyps, notes)
    free = minimal_presentation(m).relations.source.rank == 0
    gor = _is_gorenstein(r, bound)
    notes.append(f"M free: {free}; R Gorenstein: {gor}")
    return hyps, free, gor, free and gor and conv is not False, notes


@_verifier
def verify_betti_bass_convolution(x, c, bound: int) -> VerificationReport:
    """beta_t(X) = sum_{i+j=t} mu^i(C) mu^{-j}(C tensor X) when the
    derived tensor has certified finite injective dimension.  A window
    holding only zeros on both sides decides nothing for a nonzero X, and
    reads UNCERTIFIED."""
    notes = []
    hyps = {"semidualizing": "met", "finite-id-of-tensor": "met"}
    _semidualizing_hypothesis(c, hyps, bound)
    Pc = resolved(c, bound)
    Fx = resolved(x, bound)
    T = tensor_complex(Pc, Fx)
    degrees = list(trusted_homology(T))
    if len(degrees) == 1:
        # quasi-isomorphic to a shifted module: Bass data certify there
        s = degrees[0]
        ht = homology_presentation(T, s)
        hv = id_verdict(ht, bound)
        if not hv.is_finite_certified():
            hyps["finite-id-of-tensor"] = "uncertified"
            notes.append(f"id of tensor homology: {hv!r}")
        mu_t = bass_table(ht, bound)
        tensor_mu = lambda u: mu_t.value(u + s)
        support = [u - s for u in mu_t.nonzero_indices()]
    elif not degrees:
        tensor_mu = lambda u: 0
        support = []
    else:
        hyps["finite-id-of-tensor"] = "uncertified"
        notes.append("tensor homology spread across degrees "
                     f"{degrees}; no module-route certificate")
    _require(hyps, notes)
    bt = betti_table(x, bound)
    bc = bass_table(c, bound)
    blo, bhi = bt.certified
    t_hi = min(bhi, bc.certified[1] - max(support, default=0))
    t_lo = min(bt.nonzero_indices(), default=0)
    if blo is not None:
        t_lo = max(t_lo, blo)
    if t_hi < t_lo:
        return hyps, None, None, None, ["no comparable degrees in window"]
    lhs = {t: bt.value(t) for t in range(t_lo, t_hi + 1)}
    rhs = {t: sum(tensor_mu(u) * bc.value(t + u) for u in support)
           for t in range(t_lo, t_hi + 1)}
    notes.append(f"compared degrees {t_lo}..{t_hi}")
    if not any(lhs.values()) and not any(rhs.values()) and (
            not x.is_zero_module() if is_module(x)
            else next(trusted_homology(x), None) is not None):
        # zeros on both sides of a nonzero X compare nothing
        return hyps, None, None, None, notes + [
            "every compared number is zero; X is nonzero"]
    return hyps, lhs, rhs, lhs == rhs, notes


@_verifier
def verify_generator_count_formula(m: ModulePresentation,
                                   c: ModulePresentation,
                                   bound: int) -> VerificationReport:
    """nu(M) = mu^d(C) * mu^d(C tensor M) with d = dim R, under derived
    C-flatness (Tor vanishing) and finite injective dimension of the
    tensor; generator count 1 additionally forces C dualizing."""
    if not is_module(c):
        raise ValueError("the coefficient must be a module presentation")
    notes = []
    hyps = {"semidualizing": "met", "tor-vanishes": "met",
            "finite-id-of-tensor": "met"}
    _semidualizing_hypothesis(c, hyps, bound)
    bad = [i for i, v in tor_dims(c, m, 1, bound).items() if v]
    if bad:
        hyps["tor-vanishes"] = "failed"
        notes.append(f"Tor_{min(bad)}(C, M) != 0")
    t = tensor_modules(c, m)
    tv = id_verdict(t, bound)
    if not tv.is_finite_certified():
        hyps["finite-id-of-tensor"] = "uncertified"
        notes.append(f"id of C tensor M: {tv!r}")
    _require(hyps, notes)
    d = m.ring.krull_dim()
    left = nu(m)
    right = bass_table(c, max(d, bound)).value(d) * \
        bass_table(t, max(d, bound)).value(d)
    ok = left == right
    notes.append(f"d={d}")
    if ok and left == 1:
        dv = dualizing_verdict(c, bound)
        notes.append(f"generator count 1 forces dualizing: {dv!r}")
        ok = dv.dualizing
    return hyps, left, right, ok, notes
