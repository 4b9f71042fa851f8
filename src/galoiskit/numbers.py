"""Exact scalar arithmetic: rationals, prime fields, elementary number theory.

Rational numbers are `fractions.Fraction` values (always normalized, positive
denominator, zero is 0/1); a tower element over Q holds int numerators over
one such denominator instead (`QQ._view` makes its `Fraction`s).  An F_p
scalar is the degree-1 finite-field element `TowerElem(PrimeField(p), (r,))`,
one residue r in [0, p) (Lidl & Niederreiter, *Finite Fields*, ch. 2);
`galoiskit.tower` re-exports the class.  Every scalar supports `+ - * /`,
equality, hashing and truthiness (nonzero test).  Generic code talks to a
*field object* (`QQ`, `PrimeField(p)`, towers), which builds and coerces its
own scalars.

A base field is the tower of height 0 (`BaseField`): it answers the tower
questions too -- its base is itself, its degree 1, its chain of levels empty,
its coordinates the one scalar -- and a `Tower` takes it as its lower level
as it takes another tower, so no caller asks whether a field is a base field
or a tower.

Factorization and divisors run on one trial-division loop, `factor_integer`,
capped by `TRIAL_DIVISION_CAP`; `is_prime` divides by the primes up to 37 and
then runs strong pseudoprime tests to those twelve bases, a proof below
`STRONG_TEST_BOUND` (Sorenson & Webster, Math. Comp. 86 (2017)).  Nothing
here is probabilistic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import Budget, NotPrime, TowerMismatch, ZeroInverse

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


class TowerElem:
    """An element of a `galoiskit.tower.Tower` or of a `PrimeField` (one
    residue): `v` is its flat coordinate tuple over the base, and the field
    `tower` computes on tuples (`_zero`, `_one`, `_add`, `_sub`, `_mul`,
    `_pow`, `_inv`)."""

    __slots__ = ("tower", "v")

    def __init__(self, tower, v: tuple):
        self.tower = tower
        self.v = v  # length tower.absolute_degree(), kernel form

    @property
    def coeffs(self) -> list:
        """The level view: coefficients over the lower level, lowest first."""
        return self.tower.lower._view(self.v)

    def _operands(self, other):
        """(field, coordinates of self, coordinates of other) in this
        element's field, or in the other operand's field when this one lies
        below it (in its base field or a lower level); None if neither holds
        both."""
        t = self.tower
        if type(other) is TowerElem and other.tower is t:
            return t, self.v, other.v
        try:
            return t, self.v, t.coerce(other).v
        except (TypeError, TowerMismatch):
            pass
        if type(other) is TowerElem and (t == other.tower.base or t in other.tower.chain()):
            # Python tries no reflected method between two TowerElems
            return other.tower, other.tower.coerce(self).v, other.v
        return None

    def __add__(self, other):
        if (ops := self._operands(other)) is None:
            return NotImplemented
        t, x, y = ops
        return TowerElem(t, t._add(x, y))

    __radd__ = __add__

    def __neg__(self):
        t = self.tower
        return TowerElem(t, t._sub(t._zero, self.v))

    def __sub__(self, other):
        if (ops := self._operands(other)) is None:
            return NotImplemented
        t, x, y = ops
        return TowerElem(t, t._sub(x, y))

    def __rsub__(self, other):
        if (ops := self._operands(other)) is None:
            return NotImplemented
        t, x, y = ops
        return TowerElem(t, t._sub(y, x))

    def __mul__(self, other):
        if (ops := self._operands(other)) is None:
            return NotImplemented
        t, x, y = ops
        return TowerElem(t, t._mul(x, y))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (ops := self._operands(other)) is None:
            return NotImplemented
        t, x, y = ops
        return TowerElem(t, x) * TowerElem(t, y).inv()

    def __rtruediv__(self, other):
        if (ops := self._operands(other)) is None:
            return NotImplemented
        t, x, y = ops
        return TowerElem(t, y) * TowerElem(t, x).inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        return TowerElem(self.tower, self.tower._pow(self.v, n))

    def inv(self) -> "TowerElem":
        """The inverse, by the field's `_inv` kernel."""
        if not self:
            raise ZeroInverse(f"zero has no inverse in {self.tower!r}")
        return TowerElem(self.tower, self.tower._inv(self.v))

    def __eq__(self, other):
        if (ops := self._operands(other)) is None:
            return NotImplemented
        return ops[1] == ops[2]

    def __hash__(self):
        """The numerators with trailing zeros stripped (then, over Q, the
        denominator), and a one-coordinate value as (residue, p) over F_p and
        as its `Fraction` over Q: equal elements of any level hash alike, and
        an F_p residue not as a plain int (3 and 8 are equal mod 5)."""
        v, p = self.v, self.tower.characteristic
        k = len(v) if p else len(v) - 1
        while k > 1 and not v[k - 1]:
            k -= 1
        if k > 1:
            return hash(v[:k] if p else v[:k] + v[-1:])
        return hash((v[0], p) if p else Fraction(v[0], v[-1]))

    def __bool__(self):
        return self.v != self.tower._zero

    def __repr__(self):
        return self.tower.element_str(self)


class BaseField:
    """The tower protocol of `galoiskit.tower.Tower` for a field of degree 1
    over itself.  `_view` turns the kernel coordinates that tower elements
    store into scalars: over Q, int numerators followed by their one
    denominator become `Fraction`s; over F_p, each int residue in [0, p)
    becomes its `TowerElem` (`_flat` is the way back)."""

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

    def exact_div(self, a, b):
        return a / b

    def min_poly_over_base(self, x):
        from .poly import Poly

        return Poly(self, [-self.coerce(x), self.one()])


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

    def _view(self, coords) -> list:
        *nums, den = coords
        return [Fraction(c, den) for c in nums] if den != 1 else list(map(Fraction, nums))

    def _concat(self, elems) -> tuple:  # the inverse of `_view`, for ints and Fractions
        den = math.lcm(*[x.denominator for x in elems])
        return (*[x.numerator * (den // x.denominator) for x in elems], den)

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
    """The field F_p of integers mod a prime p, the degree-1 case of a finite
    field: an element is `TowerElem(F, (r,))`, its one residue r in [0, p),
    and the kernel below is what `TowerElem` calls."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self._zero, self._one = (0,), (1,)

    def zero(self) -> TowerElem:
        return TowerElem(self, self._zero)

    def one(self) -> TowerElem:
        return TowerElem(self, self._one)

    def from_int(self, n: int) -> TowerElem:
        return TowerElem(self, (n % self.p,))

    def coerce(self, x):
        if type(x) is TowerElem:
            if x.tower is not self and x.tower != self:
                raise TypeError(f"element of {x.tower!r} is not in {self!r}")
            return x
        if isinstance(x, int):
            return TowerElem(self, (x % self.p,))
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroInverse(f"denominator divisible by {self.p}")
            return TowerElem(self, (x.numerator * pow(x.denominator, -1, self.p) % self.p,))
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def _add(self, a, b) -> tuple:
        return ((a[0] + b[0]) % self.p,)

    def _sub(self, a, b) -> tuple:
        return ((a[0] - b[0]) % self.p,)

    def _mul(self, a, b) -> tuple:
        return (a[0] * b[0] % self.p,)

    def _pow(self, v, e: int) -> tuple:
        return (pow(v[0], e, self.p),)

    def _inv(self, v) -> tuple:
        return (pow(v[0], -1, self.p),)

    def _flat(self, x) -> int:
        return x % self.p if type(x) is int else self.coerce(x).v[0]

    def _view(self, coords) -> list:
        return [TowerElem(self, (c,)) for c in coords]

    def _concat(self, elems) -> tuple:
        return tuple(map(self._flat, elems))

    def sort_key(self, x):
        return x.v[0]

    def element_str(self, x) -> str:
        return str(x.v[0])

    def elements(self):
        return self._view(range(self.p))

    def __repr__(self):
        return f"F_{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))
