"""Every call the corpus run and the seed-1 template rings make, checked.

Four checks run over the shipped corpus and the benchmark's nine template
rings in the coordinates its seed 1 draws (perfbench/workloads.py), each
problem built and all its tasks run as the CLI runs them:

- every kernel_matrix, lift_matrix and interreduce_columns call gives
  exactly what the tuple-keyed kernel of tests/tuple_kernel.py gives on
  the same input (the packed vectors of interreduce_columns unpacked);
- every tracked basis a kernel or a lift uses, a certified candidate or
  a fallback, is the full reduced_gb's (elements, leads, by_comp and
  exprs), and every syzygy_generators call gives the full run's syzygies
  (see tests/test_certificate.py);
- every kernel read modulo a submodule (kernel_matrix with a nonempty
  mod) spans the same submodule as the stacked route of
  tests/stacked_route.py, each lifting through the other; every
  HomPresentation.express equals the stacked one and solves pairing X =
  beta modulo the relation block; every ModuleMap.is_surjective agrees
  with the stacked one;
- every ModulePresentation and ModuleMap is built on a matrix in normal
  form, the rule their docstrings state: each equals qr.reduce_matrix of
  itself.

run_tasks records an error inside a task as that task's entry, so the
wrappers collect what they find and the test asserts afterwards, and
also that the entries equal those of a run without the wrappers.
"""

import sys
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import pytest

from homcalc import complexes, groebner, modules
from homcalc.cli import build_problem, run_tasks
from homcalc.corpus import corpus_problems
from homcalc.groebner import TermOverPosition, vec_to_column
from homcalc.ring import GradedMatrix, kron

import stacked_route as sr
import tuple_kernel as tk
from test_certificate import REDUCED_GB, full_run, gb_items, vec_items

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

DOCS = corpus_problems() + workloads.random_complexes(corpus_problems,
                                                      workloads.DEV_SEED)


def _run(doc, patches):
    """Build doc and run its tasks with the given (object, name, value)
    patches in place, and again without them: the entries agree."""
    with ExitStack() as stack:
        for obj, name, value in patches:
            stack.enter_context(mock.patch.object(obj, name, value))
        entries = run_tasks(build_problem(doc))["entries"]
    assert entries == run_tasks(build_problem(doc))["entries"]


@pytest.mark.parametrize("doc", DOCS, ids=lambda d: d["name"])
def test_kernel_calls_match_tuple_kernel(doc):
    kernel, lift = groebner.kernel_matrix, groebner.lift_matrix
    interreduce = groebner.interreduce_columns
    calls, bad = [], []

    def checked_kernel(m, mod=()):
        out = kernel(m, mod)
        calls.append("kernel_matrix")
        if out != tk.old_kernel_matrix(m, mod):
            bad.append(("kernel_matrix", m, mod))
        return out

    def checked_lift(m, targets, mod=()):
        out = lift(m, targets, mod)
        calls.append("lift_matrix")
        if out != tk.old_lift_matrix(m, targets, mod):
            bad.append(("lift_matrix", m, targets, mod))
        return out

    def checked_interreduce(qr, free, vecs):
        out = interreduce(qr, free, vecs)
        calls.append("interreduce_columns")
        order = TermOverPosition(qr.ambient, free.twists)
        cols = [vec_to_column(v, order) for v in vecs]
        if [vec_to_column(v, order) for v in out] != \
                tk.old_interreduce_columns(qr, free, cols):
            bad.append(("interreduce_columns", free, cols))
        return out

    patches = [(owner, "kernel_matrix", checked_kernel)
               for owner in (groebner, modules, complexes)]
    patches += [(owner, "lift_matrix", checked_lift)
                for owner in (groebner, modules, complexes)]
    patches.append((groebner, "interreduce_columns", checked_interreduce))
    _run(doc, patches)
    assert "kernel_matrix" in calls
    assert bad == []


@pytest.mark.parametrize("doc", DOCS, ids=lambda d: d["name"])
def test_certified_bases_match_full_run(doc):
    syzygies, certified_gb = groebner.syzygy_generators, groebner._certified_gb
    tried, used, bad = [], [], []

    def recorded_gb(*args, **kwargs):
        out = REDUCED_GB(*args, **kwargs)
        tried.append(out)
        return out

    def checked_certified_gb(inputs, ring, order, padded, track):
        n = len(tried)
        out = certified_gb(inputs, ring, order, padded, track)
        used.append(out[0])
        if len(tried) - n not in (1, 2):
            bad.append(("tries", inputs))
        full = REDUCED_GB(inputs, ring, order, track=True, padded=padded)
        if gb_items(out[0]) != gb_items(full):
            bad.append(("basis", inputs))
        return out

    def checked_syzygies(inputs, ring, order, padded=0):
        out = syzygies(inputs, ring, order, padded)
        with full_run(), mock.patch.object(groebner, "_certified_gb",
                                           certified_gb):
            full = syzygies(inputs, ring, order, padded)
        if vec_items(out) != vec_items(full):
            bad.append(("syzygy_generators", inputs))
        return out

    _run(doc, [(groebner, "reduced_gb", recorded_gb),
               (groebner, "syzygy_generators", checked_syzygies),
               (groebner, "_certified_gb", checked_certified_gb)])
    assert used
    assert bad == []


@pytest.mark.parametrize("doc", DOCS, ids=lambda d: d["name"])
def test_presentations_and_maps_are_normal_forms(doc):
    MP, MM = modules.ModulePresentation, modules.ModuleMap
    presentation_init, map_init = MP.__init__, MM.__init__
    seen, bad = [], []

    def checked_presentation(self, ring, relations, minimal=False):
        presentation_init(self, ring, relations, minimal)
        seen.append(self)
        if ring.reduce_matrix(relations) != relations:
            bad.append(relations)

    def checked_map(self, source, target, matrix):
        map_init(self, source, target, matrix)
        seen.append(self)
        if source.ring.reduce_matrix(matrix) != matrix:
            bad.append(matrix)

    _run(doc, [(MP, "__init__", checked_presentation),
               (MM, "__init__", checked_map)])
    assert seen
    assert bad == []


def _spans_equal(a: GradedMatrix, b: GradedMatrix) -> bool:
    """Whether the columns of a and b generate the same submodule of
    their common target: each lifts through the other."""
    lift = groebner.lift_matrix
    return (a.target == b.target and lift(a, b) is not None
            and lift(b, a) is not None)


def _difference(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    zero = a.ring.ambient.zero()
    return GradedMatrix(a.ring, a.source, a.target, {
        k: a.entries.get(k, zero) - b.entries.get(k, zero)
        for k in set(a.entries) | set(b.entries)})


@pytest.mark.parametrize("doc", DOCS, ids=lambda d: d["name"])
def test_relative_calls_match_stacked_route(doc):
    kernel = groebner.kernel_matrix
    HP, MM = modules.HomPresentation, modules.ModuleMap
    express, is_surjective = HP.express, MM.is_surjective
    bad = []

    def checked_kernel(m, mod=()):
        out = kernel(m, mod)
        if mod and not _spans_equal(out, sr.old_sub_rels(m, mod)):
            bad.append(("kernel_matrix", m, mod))
        return out

    def checked_express(self, beta):
        out = express(self, beta)
        relblk = kron(self.source_module.gens.dual(),
                      self.target_module.relations)
        rest = _difference(beta, self.pairing.compose(out))
        if out != sr.old_express(self, beta) or \
                groebner.lift_matrix(relblk, rest) is None:
            bad.append(("express", self, beta))
        return out

    def checked_is_surjective(self):
        out = is_surjective(self)
        if out != sr.old_is_surjective(self):
            bad.append(("is_surjective", self))
        return out

    patches = [(owner, "kernel_matrix", checked_kernel)
               for owner in (groebner, modules, complexes)]
    patches += [(HP, "express", checked_express),
                (MM, "is_surjective", checked_is_surjective)]
    _run(doc, patches)
    assert bad == []
