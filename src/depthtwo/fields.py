"""Exact scalars: arbitrary-precision rationals and prime fields F_p.

Every computation in this package runs over one of these two kinds of
field; there is no floating point anywhere.  Rational values are plain
``fractions.Fraction`` objects, prime-field values are ``FpElement``
wrappers that stay reduced mod p, so generic linear algebra can use the
ordinary arithmetic operators on either.  An ``FpElement`` combines with
an element of the same modulus or with an int; any other modulus raises
``FieldError``, and a ``Fraction`` or float raises ``TypeError``.  An
operator reduces its result once and takes it from ``fp_element``: for p
below ``_TABLE_LIMIT`` that is the shared element of a per-prime table
built on first use, and a new object only for larger p.
The exact elimination in ``linalg`` does not use these objects at all; it
converts rows to plain integers once and back when they leave.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    """Invalid field data: composite modulus, mixed-field arithmetic, bad literal."""


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic primality test; raises FieldError above the certified bound."""
    if p >= _MR_BOUND:
        raise FieldError(f"modulus {p} is too large to certify as prime")
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# prime fields below this bound share one element object per residue
_TABLE_LIMIT = 1 << 12
_TABLES: dict[int, list] = {}


def fp_element(v: int, p: int) -> "FpElement":
    """The element with residue v in range(p): the shared one when p is small."""
    table = _TABLES.get(p)
    if table is None:
        if p >= _TABLE_LIMIT:
            return FpElement(v, p)
        table = _TABLES[p] = [FpElement(r, p) for r in range(p)]
    return table[v]


class FpElement:
    """A residue mod the prime p.  Arithmetic only combines equal moduli.

    Each operator handles an element of the same modulus first and an int
    next, and builds its result with ``fp_element``, which for small p returns
    the shared element from a table built on first use.
    """

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _other(self, other):
        """The residue of an FpElement of the same modulus or of an int, else None."""
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldError(f"mixed moduli {self.p} and {other.p}")
            return other.v
        if isinstance(other, int):
            return other % self.p
        return None

    def __add__(self, other):
        p = self.p
        if type(other) is FpElement and other.p == p:
            return fp_element((self.v + other.v) % p, p)
        o = self._other(other)
        if o is None:
            return NotImplemented
        return fp_element((self.v + o) % p, p)

    __radd__ = __add__

    def __sub__(self, other):
        p = self.p
        if type(other) is FpElement and other.p == p:
            return fp_element((self.v - other.v) % p, p)
        o = self._other(other)
        if o is None:
            return NotImplemented
        return fp_element((self.v - o) % p, p)

    def __rsub__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        p = self.p
        return fp_element((o - self.v) % p, p)

    def __mul__(self, other):
        p = self.p
        if type(other) is FpElement and other.p == p:
            return fp_element(self.v * other.v % p, p)
        o = self._other(other)
        if o is None:
            return NotImplemented
        return fp_element(self.v * o % p, p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        if o == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        p = self.p
        return fp_element(self.v * pow(o, p - 2, p) % p, p)

    def __neg__(self):
        p = self.p
        return fp_element(-self.v % p, p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __repr__(self):
        return f"{self.v}#(mod {self.p})".replace("#", "")


class Rationals:
    """The field Q, elements represented as ``Fraction``."""

    char = 0

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def of(self, n) -> Fraction:
        return Fraction(n)

    def parse(self, obj) -> Fraction:
        if isinstance(obj, bool):
            raise FieldError(f"not a rational literal: {obj!r}")
        if isinstance(obj, int):
            return Fraction(obj)
        if isinstance(obj, str):
            try:
                return Fraction(obj)
            except (ValueError, ZeroDivisionError) as exc:
                raise FieldError(f"bad rational literal {obj!r}") from exc
        raise FieldError(f"not a rational literal: {obj!r}")

    def render(self, x: Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"

    def to_json(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The field F_p for a prime p."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise FieldError(f"modulus {p!r} is not prime")
        self.p = p
        self.char = p

    @property
    def zero(self):
        return fp_element(0, self.p)

    @property
    def one(self):
        return fp_element(1, self.p)

    def of(self, n) -> FpElement:
        if isinstance(n, FpElement):
            if n.p != self.p:
                raise FieldError(f"mixed moduli {self.p} and {n.p}")
            return n
        if isinstance(n, int):
            return fp_element(n % self.p, self.p)
        return FpElement(n, self.p)

    def parse(self, obj) -> FpElement:
        if isinstance(obj, bool):
            raise FieldError(f"not an F_{self.p} literal: {obj!r}")
        if isinstance(obj, int):
            return fp_element(obj % self.p, self.p)
        if isinstance(obj, str):
            # accept "a/b" so rational catalogs port to F_p unchanged
            try:
                q = Fraction(obj)
            except (ValueError, ZeroDivisionError) as exc:
                raise FieldError(f"bad F_{self.p} literal {obj!r}") from exc
            if q.denominator % self.p == 0:
                raise FieldError(f"F_{self.p} literal {obj!r} divides by zero")
            return FpElement(q.numerator, self.p) / FpElement(q.denominator, self.p)
        raise FieldError(f"not an F_{self.p} literal: {obj!r}")

    def render(self, x: FpElement):
        return x.v

    def to_json(self):
        return {"Fp": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"


QQ = Rationals()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """F_p; a modulus that is not an int (a bool, a float, a list) is a FieldError."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise FieldError(f"modulus {p!r} is not an integer")
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_from_json(obj):
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"Fp"}:
        return GF(obj["Fp"])
    raise FieldError(f"unrecognized field tag {obj!r}")
