"""Structural checks on complexes and chain maps, for tests.

validate_complex checks shapes, homogeneity and d o d = 0;
validate_chain_map checks shapes, homogeneity and d f = f d.  Each raises
ValueError (or HomogeneityError) on the first failure and returns its
argument otherwise.  entry reads one entry of a GradedMatrix.
"""

from homcalc.ring import GradedMatrix


def entry(m, i, j):
    """Entry (i, j) of the GradedMatrix m, zero where m stores none; m's
    ring is a PolyRing or a QuotientRing of one."""
    p = m.entries.get((i, j))
    return getattr(m.ring, "ambient", m.ring).zero() if p is None else p


def validate_complex(X):
    qr = X.ring
    for i, m in X.diffs.items():
        if m.source != X.terms[i]:
            raise ValueError(f"differential {i} source mismatch")
        if m.target != X.term(i - 1):
            raise ValueError(f"differential {i} target mismatch")
        m.validate_homogeneous()
    for i in X.diffs:
        if (i - 1) in X.diffs:
            comp = X.diff(i - 1).compose(X.diff(i))
            if not qr.reduce_matrix(comp).is_zero():
                raise ValueError(f"d_{i-1} d_{i} != 0")
    return X


def validate_chain_map(f):
    qr = f.source.ring
    for i, m in f.components.items():
        if m.source != f.source.term(i) or m.target != f.target.term(i):
            raise ValueError(f"chain map component {i} shape mismatch")
        m.validate_homogeneous()
    degs = list(f.source.terms) + list(f.target.terms)
    for i in range(min(degs, default=0), max(degs, default=0) + 1):
        left = f.target.diff(i).compose(f.component(i))
        right = f.component(i - 1).compose(f.source.diff(i))
        diff = dict(left.entries)
        for k, p in right.entries.items():
            diff[k] = diff[k] - p if k in diff else -p
        if not qr.reduce_matrix(GradedMatrix(qr, left.source, left.target,
                                             diff)).is_zero():
            raise ValueError(f"not a chain map at degree {i}")
    return f
