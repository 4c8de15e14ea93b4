"""reduced_gb against sympy's Groebner bases.

On seeded homogeneous ideals in two and three variables of weight one,
over F_32003 and over Q, the engine's reduced Groebner basis equals
sympy.groebner(..., order='grevlex'), with the variables in the same
order (x_0 > x_1 > ...) and every basis element made monic on both sides:
the reduced Groebner basis of an ideal is unique.  sympy is not a test
dependency, so the test is skipped where it is not installed.
"""

import random
from fractions import Fraction

import pytest

from homcalc.field import PrimeField, RationalField
from homcalc.groebner import (TermOverPosition, reduced_gb, vec_from_column,
                              vec_to_column)
from homcalc.ring import PolyRing

from slice_homology import monomials_of_degree

sympy = pytest.importorskip("sympy")

PRIME = 32003


def random_ideal(rng, P):
    """Two to four nonzero forms of degree 1-3, of one to four terms."""
    gens = []
    for _ in range(rng.randint(2, 4)):
        monos = monomials_of_degree(P, rng.randint(1, 3))
        f = P.zero()
        for _ in range(rng.randint(1, 4)):
            f = f + P.monomial(rng.choice(monos)).scale(
                rng.choice([-3, -2, -1, 1, 2, 5]))
        if not f.is_zero():
            gens.append(f)
    return gens


def monic(P, terms):
    """terms {exponents: coeff} divided by its grevlex lead coefficient."""
    F = P.field
    inv = F.inv(terms[max(terms, key=P.mono_key)])
    return frozenset((e, F.mul(inv, c)) for e, c in terms.items())


def sympy_basis(P, gens, field):
    """sympy's reduced Groebner basis of gens, each element monic."""
    xs = sympy.symbols(P.names)
    to_sympy = int if field == "p" else sympy.Rational
    to_field = int if field == "p" else (lambda c: Fraction(int(c.p),
                                                            int(c.q)))
    exprs = [sum(to_sympy(c) * sympy.prod(x ** a for x, a in zip(xs, e))
                 for e, c in f.terms.items()) for f in gens]
    opts = {"modulus": PRIME} if field == "p" else {"domain": "QQ"}
    G = sympy.groebner(exprs, *xs, order="grevlex", **opts)
    return {monic(P, {e: P.field.normalize(to_field(c)) for e, c in
                      sympy.Poly(g, *xs, **opts).terms()})
            for g in G.exprs}


@pytest.mark.parametrize("field", ["p", "q"])
@pytest.mark.parametrize("seed", range(20))
def test_reduced_gb_matches_sympy(field, seed):
    rng = random.Random(seed)
    F = PrimeField(PRIME) if field == "p" else RationalField()
    P = PolyRing(F, ["x", "y", "z"][:rng.randint(2, 3)])
    gens = random_ideal(rng, P)
    order = TermOverPosition(P, [0])
    gb = reduced_gb([vec_from_column({0: f}, order) for f in gens], P, order)
    ours = {monic(P, vec_to_column(v, order)[0].terms) for v in gb.elements}
    assert all(c == F.one for _, c in gb.leads)
    assert ours == sympy_basis(P, gens, field)
