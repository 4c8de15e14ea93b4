"""Field arithmetic, exact linear algebra, monomial orders, polynomials,
graded matrices."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcalc.field import PrimeField, RationalField, FieldError
from homcalc.ring import (
    PolyRing, GradedFree, GradedMatrix, PolyParseError, HomogeneityError,
    MixedRingError, TermRangeError, hstack, kron,
)

from chain_checks import entry
from slice_homology import rref, rank, generic_rref, monomials_of_degree
from tuple_kernel import mono_mul

F = PrimeField(32003)
Q = RationalField()


# -- fields ----------------------------------------------------------------

def test_prime_field_rejects_composite():
    # 32001 = 3 * 10667 and 1022117 = 1009 * 1013; 0, 1, -5 are below 2
    for p in (32001, 0, 1, -5, 1022117):
        with pytest.raises(FieldError):
            PrimeField(p)


@given(st.integers(), st.integers())
@settings(max_examples=50)
def test_prime_field_ring_axioms(a, b):
    a, b = F.normalize(a), F.normalize(b)
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(a, F.neg(a)) == F.zero
    if not F.is_zero(a):
        assert F.mul(a, F.inv(a)) == F.one


def test_prime_field_accepts_large_prime_quickly():
    # trial division up to sqrt(p) took minutes here; Miller-Rabin is instant
    t0 = time.perf_counter()
    G = PrimeField(2**61 - 1)
    assert time.perf_counter() - t0 < 1.0
    assert G.mul(2, G.inv(2)) == 1
    # strong pseudoprimes to the bases 2..7 and 2..23
    for n in (3215031751, 3825123056546413051):
        with pytest.raises(FieldError):
            PrimeField(n)
    # a prime beyond the deterministic bound is refused, not guessed
    with pytest.raises(FieldError, match="too large"):
        PrimeField(2**89 - 1)


def test_prime_field_inverse_small():
    G = PrimeField(7)
    for a in range(1, 7):
        assert G.mul(a, G.inv(a)) == 1


def test_rational_field_exact():
    x = Q.div(Q.one, Q.normalize(3))
    assert Q.mul(x, Q.normalize(3)) == Q.one


# -- linear algebra --------------------------------------------------------
# nullspaces, solutions and row-space membership are read off rref's output,
# so these tests check that output


def _nullspace(rows, field):
    """Right nullspace basis, one vector per free column of the RREF."""
    red, pivots = rref(rows, field)
    n = len(rows[0])
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [field.zero] * n
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(field.normalize(red[r][fc]))
        basis.append(v)
    return basis


def _solve(rows, rhs, field):
    """One solution of A x = b with free variables zero, or None when
    the RREF of [A | b] has a pivot in the last column."""
    n = len(rows[0])
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)], field)
    if n in pivots:
        return None
    x = [field.zero] * n
    for r, pc in enumerate(pivots):
        x[pc] = field.normalize(red[r][n])
    return x


def _in_row_space(red, pivots, vec, field):
    """Whether vec reduces to zero against the pivot rows of an RREF."""
    v = [field.normalize(x) for x in vec]
    for r, pc in enumerate(pivots):
        f = v[pc]
        v = [field.sub(x, field.mul(f, field.normalize(y)))
             for x, y in zip(v, red[r])]
    return all(field.is_zero(x) for x in v)


def test_rref_identity_block():
    rows = [[F.one, 2, 3], [0, F.one, 4]]
    rows = [[F.normalize(x) for x in r] for r in rows]
    red, pivots = rref(rows, F)
    assert pivots == [0, 1]
    assert red[0][1] == 0  # reduced above pivots


def test_rank_and_nullspace_complementary():
    random.seed(11)
    rows = [[F.normalize(random.randrange(32003)) for _ in range(6)] for _ in range(4)]
    r = rank(rows, F)
    ns = _nullspace(rows, F)
    assert r + len(ns) == 6
    for v in ns:
        for row in rows:
            s = F.zero
            for a, b in zip(row, v):
                s = F.add(s, F.mul(a, b))
            assert F.is_zero(s)


def test_solve_consistent_and_not():
    rows = [[F.one, F.one], [F.normalize(2), F.normalize(2)]]
    assert _solve(rows, [F.normalize(3), F.normalize(6)], F) is not None
    assert _solve(rows, [F.normalize(3), F.normalize(7)], F) is None


def test_solve_recovers_combination():
    rows = [[F.normalize(v) for v in r] for r in ([1, 2, 0], [0, 1, 5])]
    rhs = [F.normalize(v) for v in (2, 5, 5)]  # = 2*r0 + 1*r1
    x = _solve([list(c) for c in zip(*rows)], rhs, F)
    # columns are the two generators; solution expresses rhs in them
    assert x is not None
    got = [F.zero, F.zero, F.zero]
    for j, c in enumerate(x):
        for i in range(3):
            got[i] = F.add(got[i], F.mul(rows[j][i], c))
    assert got == rhs


def test_rref_large_prime_is_exact():
    # p * p > 2**63: int64 row operations would overflow
    p = 4294967311
    G = PrimeField(p)
    assert rref([[p - 1, 2], [3, p - 11]], G) == ([[1, 0], [0, 1]], [0, 1])
    rng = random.Random(5)
    rows = [[rng.randrange(p) for _ in range(5)] for _ in range(3)]
    rows.append([G.add(a, b) for a, b in zip(rows[0], rows[1])])
    assert rref(rows, G) == generic_rref(rows, G)
    assert rank(rows, G) == 3


def test_rational_rref_no_precision_loss():
    rows = [[Q.normalize(1), Q.div(Q.one, Q.normalize(3))],
            [Q.normalize(3), Q.normalize(1)]]
    assert rank(rows, Q) == 1


def test_row_space_membership():
    rows = [[F.normalize(v) for v in r] for r in ([1, 0, 2], [0, 1, 3])]
    red, piv = rref(rows, F)
    assert _in_row_space(red, piv, [F.one, F.one, F.normalize(5)], F)
    assert not _in_row_space(red, piv, [F.zero, F.zero, F.one], F)
    assert rank(rows, F) == 2


# -- monomial orders -------------------------------------------------------

def test_grevlex_standard_cases():
    R = PolyRing(F, ["x", "y", "z"])
    k = R.mono_key
    # degree dominates
    assert k((0, 0, 3)) > k((1, 1, 0))
    # degree 2 in k[x,y,z]: x^2 > xy > y^2 > xz > yz > z^2
    deg2 = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert sorted(deg2, key=k, reverse=True) == deg2
    assert k((0, 2, 0)) > k((1, 0, 1))  # y^2 > xz, classic grevlex vs lex split


def test_weighted_degree():
    R = PolyRing(F, ["a", "b", "c"], weights=(3, 4, 5))
    assert R.wdeg((1, 1, 0)) == 7
    assert R.wdeg((0, 0, 2)) == 10
    # b^2 and ac both have weight 8 but grevlex separates them
    assert R.mono_key((0, 2, 0)) != R.mono_key((1, 0, 1))


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
                min_size=3, max_size=3))
@settings(max_examples=60)
def test_order_multiplicative(ms):
    R = PolyRing(F, ["x", "y", "z"], weights=(1, 2, 1))
    a, b, c = ms
    if R.mono_key(a) > R.mono_key(b):
        assert R.mono_key(mono_mul(a, c)) > R.mono_key(mono_mul(b, c))


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
                min_size=2, max_size=2))
@settings(max_examples=60)
def test_packed_monomials(ms):
    # lin is linear and injective, descends with the order, and reads
    # divisibility off the guard bits of a difference
    R = PolyRing(F, ["x", "y", "z"], weights=(1, 2, 1))
    a, b = ms
    assert R.lin(a) + R.lin(b) == R.lin(mono_mul(a, b))
    assert R.unlin(R.lin(a)) == a
    assert R.unlin(R.lin(a) + R.lin(b)) == mono_mul(a, b)
    assert (R.mono_key(a) > R.mono_key(b)) == (R.lin(a) < R.lin(b))
    assert R.mono_divides(a, b) == (not (R.lin(b) - R.lin(a)) & R.guard)


def test_lin_refuses_a_degree_above_the_bound():
    R = PolyRing(F, ["x", "y"], weights=(1, 2))
    assert R.unlin(R.lin((2 ** 28, 2 ** 28))) == (2 ** 28, 2 ** 28)
    with pytest.raises(TermRangeError, match="weighted degree 1073741826"):
        R.lin((0, 2 ** 29 + 1))


def test_monomials_of_degree():
    R = PolyRing(F, ["x", "y"])
    assert len(monomials_of_degree(R, 3)) == 4
    Rw = PolyRing(F, ["a", "b", "c"], weights=(3, 4, 5))
    # degree 8: ac has weight 8? a=3,c=5 yes; b^2 = 8 yes; a... 3+5=8
    assert set(monomials_of_degree(Rw, 8)) == {(0, 2, 0), (1, 0, 1)}
    assert monomials_of_degree(Rw, 1) == []
    assert monomials_of_degree(Rw, 0) == [(0, 0, 0)]


# -- polynomials -----------------------------------------------------------

def test_poly_parse_and_format_roundtrip():
    R = PolyRing(F, ["x", "y"])
    p = R.from_string("x^2 + 2*x*y - y^2 + 1")
    assert R.from_string(repr(p)) == p
    assert p.terms[(2, 0)] == 1
    assert p.terms[(0, 2)] == F.normalize(-1)


def test_poly_parse_errors_carry_position():
    R = PolyRing(F, ["x", "y"])
    with pytest.raises(PolyParseError) as exc:
        R.from_string("x + w")
    assert exc.value.column == 4
    with pytest.raises(PolyParseError):
        R.from_string("x^")
    with pytest.raises(PolyParseError):
        R.from_string("(x + y")
    with pytest.raises(PolyParseError):
        R.from_string("x y")  # implicit multiplication rejected


def test_poly_arith_basic():
    R = PolyRing(F, ["x", "y"])
    x, y = R.variable("x"), R.variable("y")
    assert (x + y) * (x - y) == x * x - y * y
    p = x * x + y
    assert (p - p).is_zero()


def test_poly_mixed_ring_rejected():
    R1 = PolyRing(F, ["x"])
    R2 = PolyRing(F, ["y"])
    with pytest.raises(MixedRingError):
        R1.variable(0) + R2.variable(0)


def test_poly_homogeneity_weighted():
    R = PolyRing(F, ["a", "b", "c"], weights=(3, 4, 5))
    p = R.from_string("b^2 - a*c")
    assert p.is_homogeneous()
    assert p.degree() == 8
    q = R.from_string("a + b")
    assert not q.is_homogeneous()
    with pytest.raises(HomogeneityError):
        q.degree()


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=40)
def test_poly_distributivity(a, b, c):
    R = PolyRing(F, ["x", "y"])
    x, y = R.variable("x"), R.variable("y")
    p = x.scale(a) + y
    q = y.scale(b) + R.one()
    r = x + y.scale(c)
    assert p * (q + r) == p * q + p * r


# -- graded free modules and matrices --------------------------------------

def test_graded_free_twists():
    Fm = GradedFree.of([0, 2, 5])
    assert Fm.rank == 3
    assert Fm.shifted(3).twists == (3, 5, 8)


def test_matrix_homogeneity_validation():
    R = PolyRing(F, ["x", "y"])
    src = GradedFree.of([2])
    tgt = GradedFree.of([0])
    good = GradedMatrix(R, src, tgt, {(0, 0): R.from_string("x^2 + x*y")})
    good.validate_homogeneous()
    bad = GradedMatrix(R, src, tgt, {(0, 0): R.from_string("x")})
    with pytest.raises(HomogeneityError):
        bad.validate_homogeneous()


def test_matrix_compose_and_identity():
    R = PolyRing(F, ["x", "y"])
    x, y = R.variable("x"), R.variable("y")
    A = GradedFree.of([1, 1])
    B = GradedFree.of([0])
    f = GradedMatrix(R, A, B, {(0, 0): x, (0, 1): y})  # [x y]
    f.validate_homogeneous()
    # koszul relation column (-y, x)
    C = GradedFree.of([2])
    g = GradedMatrix(R, C, A, {(0, 0): -y, (1, 0): x})
    g.validate_homogeneous()
    assert f.compose(g).is_zero()
    assert f.compose(GradedMatrix.identity(R, A)) == f
    assert GradedMatrix.identity(R, B).compose(f) == f


def test_matrix_from_columns_infers_twists():
    R = PolyRing(F, ["x", "y"])
    tgt = GradedFree.of([0, 1])
    m = GradedMatrix.from_columns(R, tgt, [{0: R.from_string("x^2"), 1: R.variable("x")}])
    assert m.source.twists == (2,)
    m.validate_homogeneous()
    with pytest.raises(HomogeneityError):
        GradedMatrix.from_columns(R, tgt, [{0: R.variable("x"), 1: R.variable("x")}])


def test_block_and_hstack_shapes():
    R = PolyRing(F, ["x"])
    x = R.variable(0)
    m = GradedMatrix(R, GradedFree.of([1]), GradedFree.of([0]), {(0, 0): x})
    hs = hstack(R, [m, m])
    assert hs.source.rank == 2 and hs.target.rank == 1
    assert entry(hs, 0, 0) == x and entry(hs, 0, 1) == x
    hs.validate_homogeneous()


def test_kron_and_transpose():
    R = PolyRing(F, ["x", "y"])
    x, y = R.variable("x"), R.variable("y")
    # A: R(-1)^2 -> R is [x y]; B: R(-2) (+) R(-3) -> R(-1)^2
    A = GradedMatrix(R, GradedFree.of([1, 1]), GradedFree.of([0]),
                     {(0, 0): x, (0, 1): y})
    B = GradedMatrix(R, GradedFree.of([2, 3]), A.source,
                     {(0, 0): x, (1, 0): y, (0, 1): y * y, (1, 1): x * x})
    Fr = GradedFree.of([0, 3])
    # twists add, generator (i, k) at i * rank + k
    assert kron(Fr, GradedFree.of([1, 2, 5])) == \
        GradedFree.of([1, 2, 5, 4, 5, 8])
    for k in (kron(A, Fr), kron(Fr, A), kron(B.transpose(), Fr)):
        k.validate_homogeneous()
    assert kron(A, Fr).entries == {(0, 0): x, (1, 1): x, (0, 2): y, (1, 3): y}
    assert kron(Fr, A).entries == {(0, 0): x, (0, 1): y, (1, 2): x, (1, 3): y}
    # the mixed product: (A (x) 1)(B (x) 1) = AB (x) 1, on either side
    assert kron(A, Fr).compose(kron(B, Fr)) == kron(A.compose(B), Fr)
    assert kron(Fr, A).compose(kron(Fr, B)) == kron(Fr, A.compose(B))
    # the transpose is the dual map: an involution reversing composition
    assert A.transpose().source == A.target.dual() == GradedFree.of([0])
    assert A.transpose().target == GradedFree.of([-1, -1])
    A.transpose().validate_homogeneous()
    assert A.transpose().transpose() == A
    assert A.compose(B).transpose() == B.transpose().compose(A.transpose())
