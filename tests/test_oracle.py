"""Brute-force path: realization, resolutions, and the cross-check
against the main pipeline on artinian rings."""

import numpy as np
import pytest

from homcalc.field import FieldError, PrimeField, RationalField
from homcalc.ring import PolyRing
from homcalc.groebner import QuotientRing
from homcalc.modules import ModulePresentation, syzygy, canonical_module
from homcalc.invariants import (betti_table, bass_table, ext_dims, tor_dims,
                                residue_field, type_of, nu)
from homcalc.oracle import (NotArtinianError, _nullspace, _rank, realize,
                            residue_module,
                            free_module, from_presentation,
                            oracle_minimal_resolution, oracle_betti,
                            oracle_bass, oracle_ext_dim, oracle_tor_dim,
                            oracle_invariants)

F = PrimeField(7)
P1 = PolyRing(F, ["x"])
P2 = PolyRing(F, ["x", "y"])
PW = PolyRing(F, ["a", "b"], weights=[2, 3])

DN = QuotientRing(P1, [P1.from_string("x^2")])
CUBE = QuotientRing(P1, [P1.from_string("x^3")])
CI = QuotientRing(P2, [P2.from_string("x^2"), P2.from_string("y^2")])
NG = QuotientRing(P2, [P2.from_string("x^2"), P2.from_string("x*y"),
                       P2.from_string("y^2")])
WART = QuotientRing(PW, [PW.from_string("a^2"), PW.from_string("b^2")])
HY = QuotientRing(P2, [P2.from_string("x*y")])

A_DN = realize(DN)
A_CUBE = realize(CUBE)
A_CI = realize(CI)
A_NG = realize(NG)
A_WART = realize(WART)


# ---------------------------------------------------------------- realization

def test_realize_dual_numbers_basis():
    assert A_DN.basis == [(0,), (1,)]
    assert A_DN.degrees == [0, 1]
    # x . x = 0 in the table
    assert not (A_DN.var_mats[0] @ A_DN.var_mats[0] % 7).any()


def test_realize_dimensions():
    assert A_NG.dim == 3
    assert A_CI.dim == 4
    assert set(A_CI.basis) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert A_CUBE.dim == 3


def test_realize_rejects_positive_dimension():
    with pytest.raises(NotArtinianError):
        realize(HY)


def test_realize_rejects_rational_field():
    Q1 = PolyRing(RationalField(), ["x"])
    r = QuotientRing(Q1, [Q1.from_string("x^2")])
    with pytest.raises(NotArtinianError):
        realize(r)


OVERFLOW_IDEAL = ["x^2 + 12345*x*y", "y^3 - 777*x*y^2", "x*y^2"]


@pytest.mark.parametrize("p", [4294967311, 2147483647])
def test_realize_rejects_large_prime(p):
    # int64 matrix products would sum n products near p^2 > 2^63 / n
    Pp = PolyRing(PrimeField(p), ["x", "y"])
    with pytest.raises(FieldError, match=r"p < 2\^20"):
        realize(QuotientRing(Pp, OVERFLOW_IDEAL))


def test_realize_below_prime_bound_matches_pipeline():
    Pp = PolyRing(PrimeField(32003), ["x", "y"])
    r = QuotientRing(Pp, OVERFLOW_IDEAL)
    got = oracle_betti(residue_module(realize(r)), 4)
    t = betti_table(residue_field(r), 5)
    assert got == [t.value(i) for i in range(5)] == [1, 2, 4, 8, 16]


def test_variable_actions_commute_and_satisfy_relations():
    x, y = A_CI.var_mats
    assert np.array_equal(x @ y % 7, y @ x % 7)
    assert not (x @ x % 7).any()
    assert not (y @ y % 7).any()


def test_weighted_realization_degrees():
    # basis 1, a, b, ab at weighted degrees 0, 2, 3, 5
    assert sorted(A_WART.degrees) == [0, 2, 3, 5]


# ---------------------------------------------------------------- resolutions

def test_linear_algebra_large_prime_is_exact():
    # p * p > 2**63, so int64 row operations would overflow
    p = 4294967311
    a = np.array([[p - 1, 2], [3, p - 11]])
    assert _rank(a, p) == 2
    assert _nullspace(a, p).shape == (2, 0)
    s = np.array([[p - 1, 2, 5], [2 * (p - 1) % p, 4, 10]])
    assert _rank(s, p) == 1
    ker = _nullspace(s, p)
    assert ker.shape == (3, 2)
    for col in ker.T:
        assert all(sum(int(x) * int(y) for x, y in zip(row, col)) % p == 0
                   for row in s.tolist())


def test_residue_resolution_hypersurface():
    k = residue_module(A_DN)
    assert oracle_betti(k, 6) == [1, 1, 1, 1, 1, 1, 1]


def test_residue_resolution_short_ring():
    k = residue_module(A_NG)
    assert oracle_betti(k, 5) == [1, 2, 4, 8, 16, 32]


def test_residue_resolution_complete_intersection():
    k = residue_module(A_CI)
    assert oracle_betti(k, 6) == [1, 2, 3, 4, 5, 6, 7]


def test_free_module_resolution_stops():
    f = free_module(A_CI, [0, -1, 2])
    assert oracle_betti(f, 4) == [3, 0, 0, 0, 0]


def test_resolution_differential_entries_in_radical():
    # minimality: no unit appears in any differential entry
    k = residue_module(A_NG)
    res = oracle_minimal_resolution(k, 4)
    for d in res.diffs:
        for a in range(d.shape[0]):
            for b in range(d.shape[1]):
                assert d[a, b][0] == 0


# ------------------------------------------------------------ derived numbers

def test_bass_of_ring():
    assert oracle_bass(free_module(A_DN, [0]), 4) == [1, 0, 0, 0, 0]
    assert oracle_bass(free_module(A_CI, [0]), 4) == [1, 0, 0, 0, 0]
    ng = oracle_bass(free_module(A_NG, [0]), 4)
    assert ng[0] == 2
    assert ng == [2, 3, 6, 12, 24]


def test_socle_dimensions():
    assert free_module(A_DN, [0]).socle_dimension() == 1
    assert free_module(A_CI, [0]).socle_dimension() == 1
    assert free_module(A_NG, [0]).socle_dimension() == 2


def test_tor_with_residue_field_reproduces_betti():
    k = residue_module(A_NG)
    res = oracle_minimal_resolution(k, 6)
    tors = [oracle_tor_dim(k, k, i, res) for i in range(5)]
    assert tors == res.ranks[:5]


def test_ext_self_of_residue_field():
    k = residue_module(A_DN)
    assert [oracle_ext_dim(k, k, i) for i in range(5)] == [1, 1, 1, 1, 1]


def test_presented_module_cyclic():
    m = ModulePresentation.cyclic(CI, [CI.from_string("x")])
    fm = from_presentation(A_CI, m)
    assert fm.dim == 2
    assert sorted(fm.degrees) == [0, 1]
    assert oracle_betti(fm, 5) == [1, 1, 1, 1, 1, 1]


def test_presented_module_zero():
    m = ModulePresentation.cyclic(DN, [DN.from_string("1")])
    fm = from_presentation(A_DN, m)
    assert fm.dim == 0
    assert oracle_betti(fm, 3) == [0, 0, 0, 0]


def test_slice_dimensions_match_hilbert_series():
    for qr, alg in ((DN, A_DN), (CI, A_CI), (NG, A_NG), (WART, A_WART)):
        f = free_module(alg, [0])
        hs = qr.hilbert_series()
        for d in range(0, 8):
            assert f.slice_dimension(d) == hs.coeffs(d, d)[0]


def test_oracle_invariants_shape():
    k = residue_module(A_DN)
    r = free_module(A_DN, [0])
    out = oracle_invariants(k, 3, other=r)
    assert out["betti"] == [1, 1, 1, 1]
    assert out["bass"] == [1, 1, 1, 1]
    # the ring is self-injective here, so Ext^{>0}(k, R) and Tor_{>0}(k, R)
    # both vanish while degree zero sees the socle and the residue field
    assert out["ext"] == [1, 0, 0, 0]
    assert out["tor"] == [1, 0, 0, 0]


# -------------------------------------------------- cross-validation master

CROSS_RINGS = [(DN, A_DN), (CUBE, A_CUBE), (CI, A_CI), (NG, A_NG),
               (WART, A_WART)]


def _pair(qr, alg, which):
    if which == "k":
        return residue_field(qr), residue_module(alg)
    if which == "R":
        return (ModulePresentation.free(qr, [0]), free_module(alg, [0]))
    m = ModulePresentation.cyclic(qr, [qr.variable(0)])
    return m, from_presentation(alg, m)


@pytest.mark.parametrize("which", ["k", "R", "cyc"])
def test_cross_validation_betti_bass(which):
    bound = 6
    for qr, alg in CROSS_RINGS:
        m, fm = _pair(qr, alg, which)
        bt = betti_table(m, bound + 1)
        mu = bass_table(m, bound)
        assert oracle_betti(fm, bound) == [bt.value(i) for i in range(bound + 1)]
        assert oracle_bass(fm, bound) == [mu.value(i) for i in range(bound + 1)]


def test_cross_validation_ext_tor():
    bound = 5
    for qr, alg in ((DN, A_DN), (CI, A_CI), (NG, A_NG)):
        k_m, k_f = _pair(qr, alg, "k")
        c_m, c_f = _pair(qr, alg, "cyc")
        res = oracle_minimal_resolution(c_f, bound + 1)
        ed = ext_dims(c_m, k_m, 0, bound)
        td = tor_dims(c_m, k_m, 0, bound)
        for i in range(bound + 1):
            assert oracle_ext_dim(c_f, k_f, i, res) == ed[i]
            assert oracle_tor_dim(c_f, k_f, i, res) == td[i]


def test_cross_validation_syzygy_module():
    # second syzygy of k over the short ring, both routes
    m = syzygy(residue_field(NG), 2)
    fm = from_presentation(A_NG, m)
    bt = betti_table(m, 5)
    assert oracle_betti(fm, 4) == [bt.value(i) for i in range(5)]
    mu = bass_table(m, 4)
    assert oracle_bass(fm, 4) == [mu.value(i) for i in range(5)]


def test_cross_validation_type():
    for qr, alg in CROSS_RINGS:
        r_m, r_f = _pair(qr, alg, "R")
        assert r_f.socle_dimension() == type_of(r_m)


def test_cross_validation_canonical_module():
    w = canonical_module(NG)
    fw = from_presentation(A_NG, w)
    assert fw.dim == A_NG.dim  # length of omega equals length of R
    bt = betti_table(w, 5)
    assert oracle_betti(fw, 4) == [bt.value(i) for i in range(5)]
    assert oracle_bass(fw, 4) == [1, 0, 0, 0, 0]  # omega has type 1, id 0
    assert nu(w) == oracle_betti(fw, 0)[0]
