"""Every verifier report, whole: a characterization of each outcome of
each ``verify_*`` function in ``homcalc.semidualizing``.

golden/verifiers.json maps a case name to the serialized report (the
CLI's JSON form plus the order of the hypotheses) or to the exception the
verifier raised.  The cases cover PASS, FAIL, HYPOTHESES-NOT-MET from
each hypothesis and UNCERTIFIED from window shortfalls for every
verifier, the dualizing-criteria verifier included, which no corpus task
reaches.  Outcomes the engine never produces on a real ring (a FAIL of a
proven identity, the convolution verifier's "no comparable degrees") are
forced by replacing one function the verifier calls; such cases are
named ``forced-*``.

Regenerate the golden file on purpose only, after checking every change:
    PYTHONPATH=src python tests/test_verifier_reports.py --write
"""

import contextlib
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

import homcalc.semidualizing as sd
from homcalc.cli import _jsonable
from homcalc.complexes import (module_as_complex, shift_complex, direct_sum,
                               cone, ChainMap)
from homcalc.field import PrimeField
from homcalc.groebner import QuotientRing
from homcalc.invariants import (residue_field, InvariantTable,
                                FinitenessVerdict, WindowInsufficientError,
                                ZeroModuleError)
from homcalc.modules import ModulePresentation, canonical_module, resolution
from homcalc.ring import PolyRing, GradedFree, GradedMatrix

GOLDEN = Path(__file__).parent / "golden" / "verifiers.json"

F = PrimeField(7)
P1 = PolyRing(F, ["x"])
P2 = PolyRing(F, ["x", "y"])
P3 = PolyRing(F, ["a", "b", "c"], weights=[3, 4, 5])

DN = QuotientRing(P1, ["x^2"])                         # dual numbers
CI = QuotientRing(P2, ["x^2", "y^2"])                  # complete intersection
NG = QuotientRing(P2, ["x^2", "x*y", "y^2"])           # not Gorenstein
NC = QuotientRing(P2, ["x^2", "x*y"])                  # not Cohen-Macaulay
HY = QuotientRing(P2, ["x*y"])                         # hypersurface, dim 1
PL = QuotientRing(P2, [])                              # regular, dim 2
SG = QuotientRing(P3, ["b^2 - a*c", "b*c - a^3", "c^2 - a^2*b"])


def R(q):
    return ModulePresentation.free(q, [0])


def k(q):
    return residue_field(q)


def cyclic(q, *gens):
    return ModulePresentation.cyclic(q, list(gens))


def one(q):
    """R as a one-term complex in degree 0."""
    return module_as_complex(q, GradedFree.of([0]))


def mult(q, f):
    """Multiplication by f as a chain map R(-1) -> R of one-term complexes."""
    src, tgt = GradedFree.of([1]), GradedFree.of([0])
    return ChainMap(module_as_complex(q, src), module_as_complex(q, tgt),
                    {0: GradedMatrix(q, src, tgt, {(0, 0): q.from_string(f)})})


def exact(q):
    """The cone of the identity of R: an exact complex."""
    return cone(ChainMap(one(q), one(q),
                         {0: GradedMatrix.identity(q, GradedFree.of([0]))}))


def window_error(*args, **kwargs):
    raise WindowInsufficientError("forced window shortfall")


def table(name, values, hi):
    return lambda *args, **kwargs: InvariantTable(name, values, (None, hi))


def converse_type_fails():
    """A dualizing coefficient whose type reads 2: the converse fails."""
    c = R(CI)
    with mock.patch.object(sd, "type_of", lambda x: 2 if x is c else 1):
        return sd.verify_dualizing_criteria(R(CI), c, 3)


# name -> (thunk, {semidualizing attribute: replacement})
CASES = {
    # type formula
    "type-formula/pass-module": (
        lambda: sd.verify_type_formula(k(DN), R(DN), 3), {}),
    "type-formula/pass-complex-coefficient": (
        lambda: sd.verify_type_formula(k(DN), one(DN), 2), {}),
    "type-formula/pass-semigroup-omega": (
        lambda: sd.verify_type_formula(R(SG), canonical_module(SG), 2), {}),
    "type-formula/not-semidualizing": (
        lambda: sd.verify_type_formula(R(DN), k(DN), 3), {}),
    "type-formula/gcdim-infinite-module": (
        lambda: sd.verify_type_formula(k(NG), R(NG), 3), {}),
    "type-formula/gcdim-infinite-complex": (
        lambda: sd.verify_type_formula(resolution(k(NG), 2), R(NG), 2), {}),
    "type-formula/gcdim-uncertified": (
        lambda: sd.verify_type_formula(exact(DN), R(DN), 3), {}),
    "type-formula/pass-truncated-resolution": (
        lambda: sd.verify_type_formula(resolution(k(DN), 2), R(DN), 2), {}),
    # the Koszul ceiling n + sup X = 2 lies in the band that the
    # truncation at 1 leaves untrusted; the band edge above it is garbage
    "type-formula/window-koszul-top": (
        lambda: sd.verify_type_formula(resolution(k(CI), 1), R(CI), 1), {}),
    "type-formula/window-bottom-cell": (
        lambda: sd.verify_type_formula(
            shift_complex(resolution(k(DN), 1), 2), R(DN), 1), {}),
    "type-formula/forced-zero-ext-fail": (
        lambda: sd.verify_type_formula(k(DN), R(DN), 3),
        {"ext_presentation": mock.Mock(side_effect=ZeroModuleError("zero"))}),

    # dualizing criteria
    "dualizing-criteria/pass-gorenstein": (
        lambda: sd.verify_dualizing_criteria(R(CI), R(CI), 3), {}),
    "dualizing-criteria/pass-semigroup-omega": (
        lambda: sd.verify_dualizing_criteria(R(SG), canonical_module(SG), 2),
        {}),
    "dualizing-criteria/fail-complex-coefficient": (
        lambda: sd.verify_dualizing_criteria(R(DN), one(DN), 2), {}),
    "dualizing-criteria/not-semidualizing": (
        lambda: sd.verify_dualizing_criteria(R(DN), k(DN), 3), {}),
    "dualizing-criteria/gcdim-infinite": (
        lambda: sd.verify_dualizing_criteria(k(NG), R(NG), 3), {}),
    "dualizing-criteria/not-cm-and-gcdim-infinite": (
        lambda: sd.verify_dualizing_criteria(
            direct_sum(resolution(cyclic(PL, "x"), 3),
                       shift_complex(resolution(k(PL), 3), 1)), R(PL), 3),
        {}),
    "dualizing-criteria/type-bound": (
        lambda: sd.verify_dualizing_criteria(R(NG), R(NG), 3), {}),
    "dualizing-criteria/not-cm": (
        lambda: sd.verify_dualizing_criteria(R(NC), R(NC), 3), {}),
    "dualizing-criteria/window": (
        lambda: sd.verify_dualizing_criteria(resolution(k(CI), 1), R(CI), 1),
        {}),
    "dualizing-criteria/exact-complex-refused": (
        lambda: sd.verify_dualizing_criteria(exact(DN), R(DN), 3), {}),
    "dualizing-criteria/forced-gcdim-uncertified": (
        lambda: sd.verify_dualizing_criteria(R(CI), R(CI), 3),
        {"gcdim": lambda x, c, b: sd.GcdimVerdict.uncertified(b, "forced")}),
    "dualizing-criteria/forced-converse-type-fail": (converse_type_fails, {}),
    "dualizing-criteria/forced-amplitude-and-dimension": (
        lambda: sd.verify_dualizing_criteria(R(CI), R(CI), 3),
        {"amplitude": lambda x: 1, "grade_wrt": lambda x, c, b: 1}),

    # finite injective dimension from homology
    "finite-injective-from-homology/pass-direct-sum": (
        lambda: sd.verify_finite_injective_from_homology(
            direct_sum(resolution(R(CI), 3),
                       shift_complex(resolution(R(CI), 3), 2)), 3), {}),
    "finite-injective-from-homology/pass-cone": (
        lambda: sd.verify_finite_injective_from_homology(
            cone(mult(HY, "x + y")), 2), {}),
    "finite-injective-from-homology/pass-exact": (
        lambda: sd.verify_finite_injective_from_homology(exact(DN), 3), {}),
    "finite-injective-from-homology/id-of-homology": (
        lambda: sd.verify_finite_injective_from_homology(
            resolution(k(DN), 2), 2), {}),
    "finite-injective-from-homology/id-of-two-homologies": (
        lambda: sd.verify_finite_injective_from_homology(
            cone(mult(HY, "x")), 3), {}),
    "finite-injective-from-homology/forced-fail": (
        lambda: sd.verify_finite_injective_from_homology(
            resolution(R(CI), 3), 3),
        {"bass_table": table("bass", {5: 1}, 5)}),
    "finite-injective-from-homology/forced-window": (
        lambda: sd.verify_finite_injective_from_homology(
            resolution(R(CI), 3), 3),
        {"bass_table": window_error}),

    # Ext-vanishing descent
    "ext-vanishing-descent/pass-gorenstein": (
        lambda: sd.verify_ext_vanishing_descent(R(CI), R(CI), 4), {}),
    "ext-vanishing-descent/pass-distinct": (
        lambda: sd.verify_ext_vanishing_descent(R(SG), canonical_module(SG),
                                                2), {}),
    "ext-vanishing-descent/ext-tail": (
        lambda: sd.verify_ext_vanishing_descent(k(DN), k(DN), 4), {}),
    "ext-vanishing-descent/id-of-ext": (
        lambda: sd.verify_ext_vanishing_descent(k(DN), R(DN), 4), {}),
    "ext-vanishing-descent/forced-fail": (
        lambda: sd.verify_ext_vanishing_descent(R(CI), R(CI), 4),
        {"pd_verdict": lambda m, b: FinitenessVerdict.unknown_at_least(
            b, "forced")}),
    "ext-vanishing-descent/forced-window": (
        lambda: sd.verify_ext_vanishing_descent(R(CI), R(CI), 4),
        {"pd_verdict": window_error}),

    # Auslander-Reiten
    "auslander-reiten/pass-hom-MR": (
        lambda: sd.verify_auslander_reiten(R(DN), "hom-MR", 4), {}),
    "auslander-reiten/pass-hom-MM": (
        lambda: sd.verify_auslander_reiten(
            ModulePresentation.free(HY, [0, 0]), "hom-MM", 3), {}),
    "auslander-reiten/id-of-hom": (
        lambda: sd.verify_auslander_reiten(R(NG), "hom-MR", 3), {}),
    "auslander-reiten/self-ext": (
        lambda: sd.verify_auslander_reiten(k(DN), "hom-MM", 3), {}),
    "auslander-reiten/ext-against-ring": (
        lambda: sd.verify_auslander_reiten(canonical_module(SG), "hom-MR", 2),
        {}),
    # Hom(k, R) = 0: the failed Ext hypotheses decide before id is read
    "auslander-reiten/zero-hom-refused": (
        lambda: sd.verify_auslander_reiten(k(PL), "hom-MR", 2), {}),
    "auslander-reiten/bad-mode-refused": (
        lambda: sd.verify_auslander_reiten(R(DN), "hom-RR", 2), {}),
    "auslander-reiten/forced-not-gorenstein-fail": (
        lambda: sd.verify_auslander_reiten(R(DN), "hom-MR", 4),
        {"type_of": lambda x: 2}),
    "auslander-reiten/forced-convolution-mismatch-fail": (
        lambda: sd.verify_auslander_reiten(R(DN), "hom-MR", 4),
        {"betti_table": table("betti", {0: 2}, 4)}),
    "auslander-reiten/forced-window": (
        lambda: sd.verify_auslander_reiten(R(DN), "hom-MR", 4),
        {"bass_table": window_error}),

    # Betti-Bass convolution
    "betti-bass-convolution/pass": (
        lambda: sd.verify_betti_bass_convolution(R(CI), R(CI), 3), {}),
    "betti-bass-convolution/pass-exact": (
        lambda: sd.verify_betti_bass_convolution(exact(DN), R(DN), 3), {}),
    "betti-bass-convolution/pass-shifted": (
        lambda: sd.verify_betti_bass_convolution(
            shift_complex(one(DN), -2), R(DN), 2), {}),
    "betti-bass-convolution/not-semidualizing": (
        lambda: sd.verify_betti_bass_convolution(R(DN), k(DN), 2), {}),
    "betti-bass-convolution/id-of-tensor": (
        lambda: sd.verify_betti_bass_convolution(k(DN), R(DN), 3), {}),
    "betti-bass-convolution/tensor-spread": (
        lambda: sd.verify_betti_bass_convolution(
            direct_sum(one(DN), shift_complex(one(DN), 1)), R(DN), 3), {}),
    "betti-bass-convolution/window": (
        lambda: sd.verify_betti_bass_convolution(
            R(DN), shift_complex(one(DN), 1), 1), {}),
    "betti-bass-convolution/forced-no-comparable-degrees": (
        lambda: sd.verify_betti_bass_convolution(R(CI), R(CI), 3),
        {"betti_table": table("betti", {}, -1)}),
    "betti-bass-convolution/forced-fail": (
        lambda: sd.verify_betti_bass_convolution(R(CI), R(CI), 3),
        {"betti_table": table("betti", {0: 2}, 3)}),

    # generator count formula
    "generator-count-formula/pass-one-generator": (
        lambda: sd.verify_generator_count_formula(R(CI), R(CI), 2), {}),
    "generator-count-formula/pass-two-generators": (
        lambda: sd.verify_generator_count_formula(
            ModulePresentation.free(CI, [0, 0]), R(CI), 2), {}),
    "generator-count-formula/not-semidualizing": (
        lambda: sd.verify_generator_count_formula(R(DN), k(DN), 2), {}),
    "generator-count-formula/tor-and-id-of-tensor": (
        lambda: sd.verify_generator_count_formula(k(NG), canonical_module(NG),
                                                  2), {}),
    "generator-count-formula/id-of-tensor": (
        lambda: sd.verify_generator_count_formula(R(NG), R(NG), 2), {}),
    "generator-count-formula/complex-coefficient-refused": (
        lambda: sd.verify_generator_count_formula(R(DN), one(DN), 2), {}),
    "generator-count-formula/forced-count-fail": (
        lambda: sd.verify_generator_count_formula(R(CI), R(CI), 2),
        {"nu": lambda m: 3}),
    "generator-count-formula/forced-not-dualizing-fail": (
        lambda: sd.verify_generator_count_formula(R(CI), R(CI), 2),
        {"dualizing_verdict": lambda c, b: sd.DualizingVerdict(
            False, "forced", "unknown", None)}),
    "generator-count-formula/forced-window": (
        lambda: sd.verify_generator_count_formula(R(CI), R(CI), 2),
        {"tor_dims": window_error}),
}


def outcome(name):
    """The serialized report of a case, or the exception it raised."""
    thunk, patches = CASES[name]
    with contextlib.ExitStack() as stack:
        for attr, value in patches.items():
            stack.enter_context(mock.patch.object(sd, attr, value))
        try:
            r = thunk()
        except Exception as e:
            return {"error": f"{type(e).__name__}: {e}"}
    return {"report": _jsonable(r), "hypothesis_order": list(r.hypotheses)}


def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_names_every_case():
    assert sorted(_golden()) == sorted(CASES)


def test_every_verifier_reaches_every_verdict():
    reached = {(o["report"]["name"], o["report"]["verdict"])
               for o in _golden().values() if "report" in o}
    names = {n.split("/")[0] for n in CASES}
    assert len(names) == 7
    assert reached == {(n, v) for n in names
                       for v in (sd.PASS, sd.FAIL, sd.HYPOTHESES_NOT_MET,
                                 sd.UNCERTIFIED)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_verifier_report_matches_golden(name):
    assert outcome(name) == _golden()[name]


# -- the two hypothesis rules -----------------------------------------------


@pytest.mark.parametrize("v, reading", [
    (FinitenessVerdict.finite_certified(2, "w"), "met"),
    (FinitenessVerdict.finite_likely(2, "w"), "uncertified"),
    (FinitenessVerdict.unknown_at_least(3, "w"), "uncertified"),
    # the status a certified infinite pd or id would carry
    (FinitenessVerdict("infinite", None, None, "w"), "failed"),
    (sd.GcdimVerdict.finite(0, 3), "met"),
    (sd.GcdimVerdict.infinite("w", 3), "failed"),
    (sd.GcdimVerdict.uncertified(3), "uncertified"),
    (None, "uncertified"),
], ids=lambda x: x if isinstance(x, str) or x is None
    else f"{x.KIND}-{x.status}")
def test_finite_hypothesis_reads_every_status(v, reading):
    hyps, notes = {"other": "met"}, ["earlier"]
    met = sd._finite_hypothesis(hyps, notes, "key", v, "note")
    assert hyps == {"other": "met", "key": reading}
    assert met == (reading == "met")
    assert notes == ["earlier"] + ([] if met else ["note"])


@pytest.mark.parametrize("i", [None, 0, 2])
def test_vanishing_hypothesis_fails_on_a_found_index(i):
    hyps, notes = {"key": "met"}, ["earlier"]
    sd._vanishing_hypothesis(hyps, notes, "key", i, "note")
    assert hyps == {"key": "met" if i is None else "failed"}
    assert notes == ["earlier"] + ([] if i is None else ["note"])


@pytest.mark.parametrize("mode", ["hom-MR", "hom-MM"])
def test_auslander_reiten_notes_on_a_tie_put_self_ext_first(mode):
    # both Ext hypotheses fail first at index 1
    r = sd.verify_auslander_reiten(k(NG), mode, 3)
    assert r.verdict == sd.HYPOTHESES_NOT_MET
    assert r.hypotheses == {"self-ext-vanishes": "failed",
                            "ext-against-ring-vanishes": "failed",
                            "finite-id-of-hom": "uncertified"}
    assert r.notes[:2] == ["Ext^1(M, M) != 0", "Ext^1(M, R) != 0"]
    assert len(r.notes) == 3 and r.notes[2].startswith("id Hom: ")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    doc = {name: outcome(name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
