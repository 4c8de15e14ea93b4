"""Every call the corpus run and the seed-1 template rings make, checked.

Two checks run over the shipped corpus and the benchmark's nine template
rings in the coordinates its seed 1 draws (perfbench/workloads.py), each
problem built and all its tasks run as the CLI runs them:

- every kernel_matrix, lift_matrix and interreduce_columns call gives
  exactly what the tuple-keyed kernel of tests/tuple_kernel.py gives on
  the same input (the packed vectors of interreduce_columns unpacked);
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

import tuple_kernel as tk

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

    def checked_kernel(m):
        out = kernel(m)
        calls.append("kernel_matrix")
        if out != tk.old_kernel_matrix(m):
            bad.append(("kernel_matrix", m))
        return out

    def checked_lift(m, targets):
        out = lift(m, targets)
        calls.append("lift_matrix")
        if out != tk.old_lift_matrix(m, targets):
            bad.append(("lift_matrix", m, targets))
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

    patches = [(mod, "kernel_matrix", checked_kernel)
               for mod in (groebner, modules, complexes)]
    patches += [(mod, "lift_matrix", checked_lift)
                for mod in (groebner, modules, complexes)]
    patches.append((groebner, "interreduce_columns", checked_interreduce))
    _run(doc, patches)
    assert "kernel_matrix" in calls
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
