"""The stacked route to relative kernels and lifts, as it was, for tests.

The engine reads a kernel or a lift modulo a submodule in one call:
kernel_matrix(m, mod) and lift_matrix(m, targets, mod) put the columns
of mod beside m's inside the Groebner layer and project onto m's.  Before
that, modules stacked the matrices with hstack, took the full kernel or
lift, and dropped the rows past m's; a kernel was then inter-reduced once
more (clean_columns).  The functions below are that code, verbatim except
that their names are prefixed with old_ and the two methods take their
object as the first argument.  tests/test_workload_calls.py runs the
engine against them.
"""

from homcalc.groebner import clean_columns, kernel_matrix, lift_matrix
from homcalc.ring import ZERO_FREE, GradedFree, GradedMatrix, hstack, kron


def old_restrict_rows(K: GradedMatrix, head: GradedFree) -> GradedMatrix:
    entries = {(i, j): p for (i, j), p in K.entries.items() if i < head.rank}
    return GradedMatrix(K.ring, K.source, head, entries)


def old_sub_rels(kappa: GradedMatrix, denominators) -> GradedMatrix:
    """Generators of {v in source(kappa) : kappa(v) lies in the images of
    the denominators}: the kernel of [kappa | denominators] restricted to
    the kappa block, cleaned.  Read as relations on the kappa generators
    modulo those images, or as the kernel of kappa into their quotient."""
    qr = kappa.ring
    if kappa.source.rank == 0:
        return GradedMatrix.zero(qr, ZERO_FREE, kappa.source)
    if kappa.target.rank == 0:
        return GradedMatrix.identity(qr, kappa.source)
    mats = [kappa] + [d for d in denominators if d.source.rank]
    K = kernel_matrix(hstack(qr, mats))
    return clean_columns(qr, kappa.source,
                         old_restrict_rows(K, kappa.source).columns())


def old_express(self, beta: GradedMatrix) -> GradedMatrix:
    """Write columns of beta (elements of N^r in the hom layout) in
    generator coordinates of this presentation."""
    qr = self.ring
    relblk = kron(self.source_module.gens.dual(),
                  self.target_module.relations)
    mats = [self.pairing] + ([relblk] if relblk.source.rank else [])
    sol = lift_matrix(hstack(qr, mats), beta)
    if sol is None:
        raise ArithmeticError("element does not lie in the hom module")
    return old_restrict_rows(sol, self.gens)


def old_is_surjective(self) -> bool:
    if self.target.gens.rank == 0:
        return True
    qr = self.source.ring
    mats = [m for m in (self.matrix, self.target.relations)
            if m.source.rank]
    if not mats:
        return False
    big = hstack(qr, mats)
    return lift_matrix(big, GradedMatrix.identity(qr, self.target.gens)) \
        is not None
