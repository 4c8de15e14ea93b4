"""Exact coefficient arithmetic: prime fields and the rationals.

Field elements are plain Python values: ints in [0, p) for F_p and
fractions.Fraction for the rationals.  A field object supplies the
operations.  Keeping elements unboxed keeps the Groebner inner loops
cheap; canonical form is enforced by the field object, so equality of
elements is plain ``==``.

>>> F = PrimeField(7)
>>> F.add(5, 4)
2
>>> F.inv(3)
5
>>> Q = RationalField()
>>> Q.div(Q.one, Q.normalize(3))
Fraction(1, 3)
"""

from __future__ import annotations

from fractions import Fraction

DEFAULT_PRIME = 32003


class FieldError(ArithmeticError):
    pass


#: Miller-Rabin with these bases decides primality for every n below
#: _MR_BOUND (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10**24.

    >>> is_prime(2**61 - 1), is_prime(1009 * 1013)
    (True, False)
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:
        raise FieldError(f"modulus {n} is too large to certify as prime")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p with elements stored as ints in [0, p).

    The modulus is checked by deterministic Miller-Rabin (``is_prime``),
    so a large prime is accepted at once:

    >>> PrimeField(2**61 - 1).inv(2)
    1152921504606846976
    """

    __slots__ = ("p", "zero", "one")

    def __init__(self, p: int = DEFAULT_PRIME):
        if not is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1

    def normalize(self, a) -> int:
        return int(a) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise FieldError("division by zero in prime field")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField:
    """Q with elements stored as fractions.Fraction."""

    __slots__ = ("zero", "one")

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def normalize(self, a) -> Fraction:
        return Fraction(a)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero in rational field")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise FieldError("division by zero in rational field")
        return Fraction(a) / b

    def is_zero(self, a) -> bool:
        return a == 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"
