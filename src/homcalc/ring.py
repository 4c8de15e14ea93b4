"""Core graded algebra: weighted polynomial rings, the monomial order,
polynomials, graded free modules, and graded matrices.

Conventions
-----------
* Monomials are dense exponent tuples (the engine targets <= 8 variables).
* Every variable carries a positive integer weight; the weighted degree of
  x^e is sum(w_i * e_i).  Weight vector (1,...,1) recovers the standard
  grading; (3,4,5) realizes k[t^3,t^4,t^5] as a quotient in three
  variables.
* The monomial order is weighted degree, then reverse lexicographic
  (grevlex).  ``mono_key`` gives tuples that ascend with the order, so
  ``max(..., key=ring.mono_key)`` picks the leading monomial.
* ``lin(e)`` packs x^e into one int: the sum of -wdeg e in each of two
  FIELD-bit degree fields and e_{n-1}, ..., e_0 in one field each, high
  to low, above an empty lowest field.  It is linear, lin(a + b) =
  lin(a) + lin(b), and it descends with the order.  ``unlin`` inverts
  it; both are cached on the ring, so every module term order over it
  (``groebner.TermOverPosition``) shares them and adds a constant base
  per component.  A monomial of weighted degree above DEGREE_BOUND
  raises TermRangeError.
* A graded free module is (rank, twists); generator j of F sits in
  internal degree twists[j].  A graded matrix f: source -> target is
  homogeneous when entry (i, j) is zero or homogeneous of degree
  source.twists[j] - target.twists[i].
"""

from __future__ import annotations

from operator import add, le, mul, neg
from typing import Iterable, NamedTuple


class HomogeneityError(ValueError):
    pass


class MixedRingError(TypeError):
    pass


class TermRangeError(ValueError):
    """A monomial or a twist too large for the packed term fields."""


#: bits per field of a packed term; bit FIELD - 1 of every exponent field
#: stays clear, as the guard bit of the divisibility test
FIELD = 32
FIELD_MASK = (1 << FIELD) - 1
#: the largest weighted degree lin packs; a positive weight makes every
#: exponent at most this, below the guard bit
DEGREE_BOUND = 1 << (FIELD - 2)


def _check_same_ring(a, b):
    if a.ring is not b.ring and a.ring != b.ring:
        raise MixedRingError("operands live over different rings")


class PolyRing:
    """Ambient weighted polynomial ring k[x_1..x_n], ordered by grevlex
    on weighted degree."""

    def __init__(self, field, names: Iterable[str], weights: Iterable[int] | None = None):
        self.field = field
        self.names = tuple(names)
        self.n = len(self.names)
        if len(set(self.names)) != self.n:
            raise ValueError("duplicate variable names")
        if weights is None:
            weights = (1,) * self.n
        self.weights = tuple(int(w) for w in weights)
        if len(self.weights) != self.n or any(
                not 1 <= w <= DEGREE_BOUND for w in self.weights):
            raise ValueError(f"need one integer weight in 1..2^{FIELD - 2} "
                             f"per variable")
        self.zero_exp = (0,) * self.n
        self._var_index = {nm: i for i, nm in enumerate(self.names)}
        # packed monomials (lin): field positions, the guard bits of the
        # exponent fields, and the caches both ways
        self._shifts = tuple(FIELD * (i + 1) for i in range(self.n))
        self.deg_shift = FIELD * (self.n + 1)
        self.guard = sum(1 << (s + FIELD - 1) for s in self._shifts)
        self._lin, self._unlin = {}, {}

    # -- monomial helpers (exponent tuples) --------------------------------

    def wdeg(self, e) -> int:
        return sum(map(mul, self.weights, e))

    def mono_key(self, e):
        return (self.wdeg(e),) + tuple(map(neg, reversed(e)))

    def mono_divides(self, a, b) -> bool:
        """a | b componentwise."""
        return all(map(le, a, b))

    def lin(self, e) -> int:
        """x^e packed into one int (see Conventions)."""
        x = self._lin.get(e)
        if x is None:
            d = self.wdeg(e)
            if d > DEGREE_BOUND:
                raise TermRangeError(
                    f"monomial {format_polynomial(self.monomial(e))} has "
                    f"weighted degree {d}, above 2^{FIELD - 2}")
            x = (sum(a << s for a, s in zip(e, self._shifts))
                 - d * ((1 << self.deg_shift) + (1 << (self.deg_shift + FIELD))))
            self._lin[e] = x
            self._unlin[x] = e
        return x

    def unlin(self, x):
        """The exponents e with lin(e) = x."""
        e = self._unlin.get(x)
        if e is None:
            e = self._unlin[x] = tuple((x >> s) & FIELD_MASK for s in self._shifts)
        return e

    # -- element constructors ----------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {self.zero_exp: self.field.one})

    def constant(self, c) -> "Polynomial":
        c = self.field.normalize(c)
        return Polynomial(self, {} if self.field.is_zero(c) else {self.zero_exp: c})

    def monomial(self, exps) -> "Polynomial":
        e = tuple(exps)
        if len(e) != self.n:
            raise ValueError("wrong exponent length")
        return Polynomial(self, {e: self.field.one})

    def variable(self, i_or_name) -> "Polynomial":
        i = self._var_index[i_or_name] if isinstance(i_or_name, str) else i_or_name
        e = [0] * self.n
        e[i] = 1
        return self.monomial(e)

    def from_string(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and other.field == self.field
                and other.names == self.names and other.weights == self.weights)

    def __hash__(self):
        return hash((self.field, self.names, self.weights))

    def __repr__(self):
        ws = "" if all(w == 1 for w in self.weights) else f", weights={self.weights}"
        return f"PolyRing({self.field!r}, {list(self.names)}{ws})"


class Polynomial:
    """Element of a PolyRing: dict from exponent tuple to nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        it = iter(self.terms)
        d = self.ring.wdeg(next(it))
        return all(self.ring.wdeg(e) == d for e in it)

    def degree(self):
        """Weighted degree; requires homogeneity. None for 0."""
        if not self.terms:
            return None
        degs = {self.ring.wdeg(e) for e in self.terms}
        if len(degs) != 1:
            raise HomogeneityError(f"inhomogeneous polynomial {self}")
        return degs.pop()

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.ring.zero_exp in self.terms)

    def constant_value(self):
        return self.terms.get(self.ring.zero_exp, self.ring.field.zero)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        _check_same_ring(self, other)
        F = self.ring.field
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = F.add(t.get(e, F.zero), c)
            if F.is_zero(s):
                t.pop(e, None)
            else:
                t[e] = s
        return Polynomial(self.ring, t)

    def __neg__(self):
        F = self.ring.field
        return Polynomial(self.ring, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        _check_same_ring(self, other)
        F = self.ring.field
        t = {}
        small, big = (self.terms, other.terms) if len(self.terms) <= len(other.terms) else (other.terms, self.terms)
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                e = tuple(map(add, e1, e2))
                s = F.add(t.get(e, F.zero), F.mul(c1, c2))
                if F.is_zero(s):
                    t.pop(e, None)
                else:
                    t[e] = s
        return Polynomial(self.ring, t)

    def scale(self, c):
        F = self.ring.field
        c = F.normalize(c)
        if F.is_zero(c):
            return Polynomial(self.ring, {})
        return Polynomial(self.ring, {e: F.mul(c, v) for e, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None

    # -- formatting --------------------------------------------------------

    def __repr__(self):
        return format_polynomial(self)


def format_polynomial(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    ring = p.ring
    bits = []
    for e in sorted(p.terms, key=ring.mono_key, reverse=True):
        c = p.terms[e]
        factors = []
        for nm, ex in zip(ring.names, e):
            if ex == 1:
                factors.append(nm)
            elif ex > 1:
                factors.append(f"{nm}^{ex}")
        csz = str(c)
        if factors:
            mono = "*".join(factors)
            body = mono if csz == "1" else f"{csz}*{mono}"
        else:
            body = csz
        bits.append(body)
    return " + ".join(bits)


# -- polynomial string grammar --------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := atom ('^' int)?
# atom   := int | name | '-' atom | '(' expr ')'
#
# Used by problem files and by fixture construction.  Errors carry the
# 0-based column of the offending token.

class PolyParseError(ValueError):
    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", n))
    return toks


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    toks = _tokenize(text)
    pos = 0

    def peek():
        return toks[pos]

    def take(kind=None):
        nonlocal pos
        t = toks[pos]
        if kind is not None and t[0] != kind:
            raise PolyParseError(f"expected {kind}, found {t[1]!r}", t[2])
        pos += 1
        return t

    def atom() -> Polynomial:
        kind, val, col = peek()
        if kind == "int":
            take()
            return ring.constant(int(val))
        if kind == "name":
            take()
            if val not in ring._var_index:
                raise PolyParseError(f"unknown variable {val!r}", col)
            return ring.variable(val)
        if kind == "-":
            take()
            return -atom()
        if kind == "(":
            take()
            e = expr()
            take(")")
            return e
        raise PolyParseError(f"expected a term, found {val!r}", col)

    def factor() -> Polynomial:
        base = atom()
        if peek()[0] == "^":
            take()
            kind, val, col = peek()
            if kind != "int":
                raise PolyParseError("exponent must be a nonnegative integer", col)
            take()
            k = int(val)
            if k > DEGREE_BOUND:
                raise TermRangeError(f"exponent {k} is above 2^{FIELD - 2} "
                                     f"(column {col})")
            out = ring.one()
            while k:    # square and multiply
                if k & 1:
                    out = out * base
                k >>= 1
                if k:
                    base = base * base
            return out
        return base

    def term() -> Polynomial:
        out = factor()
        while peek()[0] == "*":
            take()
            out = out * factor()
        return out

    def expr() -> Polynomial:
        kind, _, _ = peek()
        neg = False
        if kind in ("+", "-"):
            neg = take()[0] == "-"
        out = term()
        if neg:
            out = -out
        while peek()[0] in ("+", "-"):
            op = take()[0]
            t = term()
            out = out - t if op == "-" else out + t
        return out

    result = expr()
    kind, val, col = peek()
    if kind != "end":
        raise PolyParseError(f"trailing input {val!r}", col)
    for e in result.terms:
        ring.lin(e)     # refuses a monomial too large to pack
    return result


# -- graded free modules and matrices --------------------------------------

class GradedFree(NamedTuple):
    """Finitely generated graded free module, described by generator degrees."""

    rank: int
    twists: tuple

    @staticmethod
    def of(twists) -> "GradedFree":
        tw = tuple(int(t) for t in twists)
        return GradedFree(len(tw), tw)

    def shifted(self, n: int) -> "GradedFree":
        # suspension by n raises internal generator degrees by 0; the
        # homological shift is bookkept at complex level.  This helper is
        # an internal-degree twist F(-n): generator degrees go up by n.
        return GradedFree(self.rank, tuple(t + n for t in self.twists))

    def dual(self) -> "GradedFree":
        """Hom(F, R): generator j in degree -twists[j]."""
        return GradedFree(self.rank, tuple(map(neg, self.twists)))


ZERO_FREE = GradedFree(0, ())
ONE_FREE = GradedFree(1, (0,))    # R itself: kron(ONE_FREE, m) is m


class GradedMatrix:
    """Homogeneous matrix over a graded ring: map source -> target.

    entries: sparse dict (i, j) -> nonzero Polynomial (i indexes target
    generators, j source generators).  Columns are elements of the target
    free module.
    """

    __slots__ = ("ring", "source", "target", "entries")

    def __init__(self, ring, source: GradedFree, target: GradedFree, entries: dict):
        self.ring = ring
        self.source = source
        self.target = target
        self.entries = {k: v for k, v in entries.items() if not v.is_zero()}

    # constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ring, source: GradedFree, target: GradedFree) -> "GradedMatrix":
        return cls(ring, source, target, {})

    @classmethod
    def identity(cls, ring, free: GradedFree) -> "GradedMatrix":
        one = ring.one()
        return cls(ring, free, free, {(i, i): one for i in range(free.rank)})

    @classmethod
    def from_columns(cls, ring, target: GradedFree, columns) -> "GradedMatrix":
        """columns: list of dicts {row_index: Polynomial}.  Source twists
        are inferred from homogeneity; a zero column gets twist 0."""
        entries = {}
        twists = []
        for j, col in enumerate(columns):
            deg = None
            for i, p in col.items():
                if p.is_zero():
                    continue
                entries[(i, j)] = p
                d = p.degree() + target.twists[i]
                if deg is None:
                    deg = d
                elif deg != d:
                    raise HomogeneityError(f"column {j} is not homogeneous")
            twists.append(0 if deg is None else deg)
        return cls(ring, GradedFree.of(twists), target, entries)

    # access ---------------------------------------------------------------

    def columns(self):
        cols = [dict() for _ in range(self.source.rank)]
        for (i, j), p in self.entries.items():
            cols[j][i] = p
        return cols

    def is_zero(self) -> bool:
        return not self.entries

    # algebra --------------------------------------------------------------

    def compose(self, other: "GradedMatrix") -> "GradedMatrix":
        """self o other (other first). Requires other.target == self.source."""
        if other.target != self.source:
            raise ValueError("composition shape mismatch")
        by_k = {}
        for (i, k), p in self.entries.items():
            by_k.setdefault(k, []).append((i, p))
        out = {}
        for (k, j), q in other.entries.items():
            for i, p in by_k.get(k, ()):
                prod = p * q
                if prod.is_zero():
                    continue
                key = (i, j)
                cur = out.get(key)
                out[key] = prod if cur is None else cur + prod
        return GradedMatrix(self.ring, other.source, self.target, out)

    def transpose(self) -> "GradedMatrix":
        """The dual map Hom(target, R) -> Hom(source, R)."""
        return GradedMatrix(self.ring, self.target.dual(), self.source.dual(),
                            {(j, i): p for (i, j), p in self.entries.items()})

    def map_entries(self, fn) -> "GradedMatrix":
        return GradedMatrix(self.ring, self.source, self.target,
                            {k: fn(p) for k, p in self.entries.items()})

    # validation -----------------------------------------------------------

    def validate_homogeneous(self):
        """Check entry (i,j) is homogeneous of degree source.twists[j] - target.twists[i]."""
        for (i, j), p in self.entries.items():
            if p.is_zero():
                continue
            want = self.source.twists[j] - self.target.twists[i]
            got = p.degree()
            if got != want:
                raise HomogeneityError(
                    f"entry ({i},{j}) has degree {got}, expected {want}")
        return self

    def __eq__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.entries == other.entries)

    __hash__ = None

    def __repr__(self):
        return (f"GradedMatrix({self.target.rank}x{self.source.rank}, "
                f"{len(self.entries)} entries)")


def kron(a, b):
    """Kronecker product a (x) b of graded frees and matrices, at least
    one of them a free, which stands for its identity: twists add, and
    block_matrix places the entries."""
    if isinstance(a, GradedFree) and isinstance(b, GradedFree):
        return GradedFree.of([s + t for s in a.twists for t in b.twists])
    if isinstance(a, GradedFree):
        return block_matrix(b.ring, kron(a, b.source), kron(a, b.target),
                            [(0, 0, a, b)])
    return block_matrix(a.ring, kron(a.source, b), kron(a.target, b),
                        [(0, 0, a, b)])


def block_matrix(ring, source, target, blocks):
    """The matrix source -> target holding, for each (row, col, a, b) of
    blocks, kron(a, b) with its (0, 0) entry at (row, col): entry (k, l)
    of b inside entry (i, j) of a sits at (row + i * rows b + k, col + j *
    cols b + l); a or b is a free, standing for its identity.  A plain
    block m is (row, col, ONE_FREE, m).  Blocks must not overlap."""
    entries = {}
    for row, col, a, b in blocks:
        if isinstance(a, GradedFree):
            rb, cb = b.target.rank, b.source.rank
            for i in range(a.rank):
                r, c = row + i * rb, col + i * cb
                for (k, l), q in b.entries.items():
                    entries[(r + k, c + l)] = q
        else:
            n = b.rank
            for (i, j), p in a.entries.items():
                r, c = row + i * n, col + j * n
                for k in range(n):
                    entries[(r + k, c + k)] = p
    return GradedMatrix(ring, source, target, entries)


def hstack(ring, mats):
    """Concatenate matrices with a common target side by side."""
    tgt = mats[0].target
    src_tw, blocks = [], []
    for m in mats:
        if m.target != tgt:
            raise ValueError("hstack target mismatch")
        blocks.append((0, len(src_tw), ONE_FREE, m))
        src_tw.extend(m.source.twists)
    return block_matrix(ring, GradedFree.of(src_tw), tgt, blocks)
