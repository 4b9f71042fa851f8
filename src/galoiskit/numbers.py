"""Exact scalar arithmetic: rationals, prime fields, elementary number theory.

Rational numbers are `fractions.Fraction` values (always normalized, positive
denominator, zero is 0/1).  Prime-field scalars are `FpElem` instances that
carry their modulus.  Both kinds of scalar, together with tower elements from
`galoiskit.tower`, satisfy one informal protocol: they support `+ - * /`,
equality, hashing, and truthiness (nonzero test).  Code generic over the
scalar type talks to a *field object* instead (`QQ`, `PrimeField(p)`, towers),
which knows how to build and coerce its own scalars.

A base field is the tower of height 0 (`BaseField`): it answers the tower
questions too -- its base is itself, its degree 1, its chain of levels empty,
its coordinates the one scalar -- and `adjoin` starts a `Tower` over it, so
no caller asks whether a field is a base field or a tower.

Factorization and divisors run on one trial-division loop, `factor_integer`,
capped by `TRIAL_DIVISION_CAP`; `is_prime` divides by the primes up to 37 and
then runs strong pseudoprime tests to those twelve bases, a proof below
`STRONG_TEST_BOUND` (Sorenson & Webster, Math. Comp. 86 (2017)).  Nothing
here is probabilistic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import Budget, NotPrime, ZeroInverse

Rational = Fraction

TRIAL_DIVISION_CAP = 10**12
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
STRONG_TEST_BOUND = 318665857834031151167461  # least strong pseudoprime to all SMALL_PRIMES


def factor_integer(n: int) -> list[int]:
    """Prime factor multiset of n >= 1, ascending, by trial division: the one
    trial-division loop here, capped at TRIAL_DIVISION_CAP."""
    if n < 1:
        raise ValueError("factor_integer needs n >= 1")
    if n > TRIAL_DIVISION_CAP:
        raise Budget(f"trial division capped at {TRIAL_DIVISION_CAP}, got {n}")
    out = []
    while n % 2 == 0:
        out.append(2)
        n //= 2
    d = 3
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 2
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < STRONG_TEST_BOUND (`Budget`
    above): trial division by the SMALL_PRIMES (n < 41^2 is then prime), else
    a strong pseudoprime test to each of them as a base."""
    if n >= STRONG_TEST_BOUND:
        raise Budget(f"primality is proved only below {STRONG_TEST_BOUND}, got {n}")
    for q in SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:
        return n > 1
    d, r = n - 1, 0
    while not d & 1:
        d, r = d >> 1, r + 1
    for a in SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(r):  # a 1 not preceded by n - 1 stays 1: composite
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending: the products of the prime
    powers in `factor_integer(n)`.  A repeated prime q multiplies only the
    divisors that the previous q made."""
    divs, last, prev = [1], [], None
    for q in factor_integer(n):
        last = [d * q for d in (last if q == prev else divs)]
        divs += last
        prev = q
    return sorted(divs)


def is_fermat_prime(q: int) -> bool:
    """True iff q is a prime of the form 2^u + 1 with u >= 1."""
    if q < 3:
        return False
    m = q - 1
    if m & (m - 1) != 0:
        return False
    return is_prime(q)


class FpElem:
    """A residue mod a prime p.  Immutable value, arithmetic stays mod p."""

    __slots__ = ("r", "p")

    def __init__(self, r: int, p: int):
        self.r = r % p
        self.p = p

    def _check(self, other):
        if isinstance(other, FpElem):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other.r
        if isinstance(other, int):
            return other
        return NotImplemented

    def __add__(self, other):
        v = self._check(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElem(self.r + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._check(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElem(self.r - v, self.p)

    def __rsub__(self, other):
        v = self._check(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElem(v - self.r, self.p)

    def __mul__(self, other):
        v = self._check(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElem(self.r * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._check(other)
        if v is NotImplemented:
            return NotImplemented
        return self * FpElem(v, self.p).inv()

    def __rtruediv__(self, other):
        v = self._check(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElem(v, self.p) * self.inv()

    def __neg__(self):
        return FpElem(-self.r, self.p)

    def __pow__(self, n: int):
        return FpElem(pow(self.r, n, self.p), self.p)

    def inv(self) -> "FpElem":
        if self.r == 0:
            raise ZeroInverse(f"0 has no inverse mod {self.p}")
        return FpElem(pow(self.r, -1, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpElem):
            return self.p == other.p and self.r == other.r
        if isinstance(other, int):
            return self.r == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.r, self.p))

    def __bool__(self):
        return self.r != 0

    def __repr__(self):
        return f"{self.r}"


@lru_cache(maxsize=None)  # at most one table per prime below 1024
def _residue_table(p):
    return tuple(FpElem(r, p) for r in range(p))


def _fp_elems(p, ints):
    """FpElems from reduced int residues; for p < 1024 each residue is one
    shared FpElem, looked up, not constructed (a table costs p objects, so
    larger primes construct each one)."""
    if p >= 1024:
        return [FpElem(c, p) for c in ints]
    table = _residue_table(p)
    return [table[c] for c in ints]


def fp_inv(a: FpElem) -> FpElem:
    """Multiplicative inverse in F_p; raises ZeroInverse on a = 0."""
    return a.inv()


class BaseField:
    """The tower protocol of `galoiskit.tower.Tower` for a field of degree 1
    over itself.  `_flat` and `_view` convert between scalars and the kernel
    coordinates that tower elements store: the `Fraction` itself over Q, the
    int residue in [0, p) over F_p."""

    @property
    def base(self):
        return self

    def absolute_degree(self) -> int:
        return 1

    def chain(self) -> list:
        return []

    generators = describe = chain

    def flatten(self, x) -> list:
        return [self.coerce(x)]

    def unflatten(self, vec):
        return self.coerce(vec[0])

    def min_poly_over_base(self, x):
        from .poly import Poly

        return Poly(self, [-self.coerce(x), self.one()])

    def adjoin(self, minpoly, label: str, certify: bool = True):
        from .tower import Tower

        return Tower(self, minpoly, label, certify=certify)


class RationalField(BaseField):
    """The field of rational numbers; elements are `Fraction` values."""

    characteristic = 0

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def exact_div(self, a, b):
        return a / b

    _flat = coerce

    def _view(self, coords) -> list:
        return list(coords)

    def sort_key(self, x):
        return x

    def element_str(self, x) -> str:
        return str(x)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


class PrimeField(BaseField):
    """The field F_p of integers mod a prime p; elements are FpElem."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def zero(self) -> FpElem:
        return FpElem(0, self.p)

    def one(self) -> FpElem:
        return FpElem(1, self.p)

    def from_int(self, n: int) -> FpElem:
        return FpElem(n, self.p)

    def coerce(self, x):
        if isinstance(x, FpElem):
            if x.p != self.p:
                raise ValueError(f"element of F_{x.p} is not in F_{self.p}")
            return x
        if isinstance(x, int):
            return FpElem(x, self.p)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroInverse(f"denominator divisible by {self.p}")
            return FpElem(x.numerator, self.p) / FpElem(x.denominator, self.p)
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def exact_div(self, a, b):
        return a / b

    def _flat(self, x) -> int:
        return x % self.p if type(x) is int else self.coerce(x).r

    def _view(self, coords) -> list:
        return _fp_elems(self.p, coords)

    def sort_key(self, x):
        return x.r

    def element_str(self, x) -> str:
        return str(x.r)

    def elements(self):
        return [FpElem(r, self.p) for r in range(self.p)]

    def __repr__(self):
        return f"F_{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))
