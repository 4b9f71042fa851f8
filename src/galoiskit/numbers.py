"""Exact scalar arithmetic: the one element kernel, the rationals, prime
fields, elementary number theory.

Every field element is a `TowerElem`: its field object and the flat tuple
of its coordinates over the base field, in kernel form (`galoiskit.tower`
re-exports the class).  A rational number is the degree-1 case over Q,
`TowerElem(QQ, (n, D))` with n/D in lowest terms and D > 0, as a tower
element over Q holds int numerators over one such denominator (Cohen,
GTM 138, 4.2); an F_p scalar is `TowerElem(PrimeField(p), (r,))`, one
residue r in [0, p) (Lidl & Niederreiter, *Finite Fields*, ch. 2).  Every
element supports `+ - * /`, `**` (negative exponents too), equality,
hashing and truthiness (nonzero test); a rational also `<` and `>`, by
cross-multiplication, and it compares and hashes equal to the equal int
or `fractions.Fraction`, which it takes as an operand.  Generic code talks
to a *field object* (`QQ`, `PrimeField(p)`, towers), which builds and
coerces its own elements.

`Field` holds the kernel code every field object shares: sums and
differences of tuples, the level view and its inverse, zero, one, and
coercion, which pads a lower element's tuple (`_embed`) or has the base
field read an outside value.  A base field keeps only its one-coordinate
product, power and inverse, that reading, printing and its sort key.  It
is the tower of height 0 (`BaseField`): it answers the tower questions too
-- its base is itself, its degree 1, its chain of levels empty, its
coordinates the one scalar -- and a `Tower` takes it as its lower level as
it takes another tower, so no caller asks whether a field is a base field
or a tower.

Factorization and divisors run on one trial-division loop, `factor_integer`,
capped by `TRIAL_DIVISION_CAP`; `is_prime` divides by the primes up to 37 and
then runs strong pseudoprime tests to those twelve bases, a proof below
`STRONG_TEST_BOUND` (Sorenson & Webster, Math. Comp. 86 (2017)).  Nothing
here is probabilistic.
"""

from __future__ import annotations

import math
import operator
import sys

from .errors import Budget, NotPrime, TowerMismatch, ZeroInverse
from .linalg import kernel

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


def _rational_hash(n: int, d: int) -> int:
    """Python's hash of the rational n/d, in lowest terms with d > 0, as
    `int` and `fractions.Fraction` compute it: |n| d^-1 modulo the prime
    `sys.hash_info.modulus`, with n's sign (hash(n) when d = 1)."""
    if d == 1:
        return hash(n)
    m = sys.hash_info.modulus
    h = hash(abs(n) * pow(d, -1, m)) if d % m else sys.hash_info.inf
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


class TowerElem:
    """An element of a field object (`QQ`, a `PrimeField` or a
    `galoiskit.tower.Tower`): `v` is its flat coordinate tuple over the base
    field, and the field `tower` computes on tuples (`_zero`, `_one`,
    `_add`, `_sub`, `_mul`, `_pow`, `_inv`)."""

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
        if type(other) is TowerElem:  # Python tries no reflected method between two TowerElems
            try:
                return other.tower, other.tower.coerce(self).v, other.v
            except (TypeError, TowerMismatch):
                pass
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

    def _compare(self, other, cmp):
        """cmp(n*E, m*D) for rationals n/D and m/E (D, E > 0): n/D cmp m/E."""
        if (ops := self._operands(other)) is None or ops[0] is not QQ:
            return NotImplemented
        (n, d), (m, e) = ops[1], ops[2]
        return cmp(n * e, m * d)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __hash__(self):
        """The numerators with trailing zeros stripped (then, over Q, the
        denominator), and a one-coordinate value as (residue, p) over F_p and
        as the rational it is over Q: equal elements of any level hash alike,
        a rational as the equal int or `Fraction`, and an F_p residue not as
        a plain int (3 and 8 are equal mod 5)."""
        v, p = self.v, self.tower.characteristic
        k = len(v) if p else len(v) - 1
        while k > 1 and not v[k - 1]:
            k -= 1
        if k > 1:
            return hash(v[:k] if p else v[:k] + v[-1:])
        return hash((v[0], p)) if p else _rational_hash(v[0], v[-1])

    def __bool__(self):
        return self.v != self.tower._zero

    def __repr__(self):
        return self.tower.element_str(self)


class Field:
    """The kernel code every field object shares (`QQ`, `PrimeField`,
    `galoiskit.tower.Tower`).  A field sets `characteristic`, `base`, `_n`
    (its absolute degree), `_zero` and `_one`, and has its own `chain` and
    `_mul`, `_pow` and `_inv` on tuples; its base field reads outside values
    (`_scalar`)."""

    def zero(self) -> TowerElem:
        return TowerElem(self, self._zero)

    def one(self) -> TowerElem:
        return TowerElem(self, self._one)

    def coerce(self, x) -> TowerElem:
        """x as an element of this field: its own element; an element of a
        lower level or of the base field, padded by `_embed`; or a value
        the base field reads (an int or a rational, which F_p reduces)."""
        if type(x) is TowerElem:
            t = x.tower
            if t is self or t == self:
                return x
            if t in (self.base, *self.chain()):
                return TowerElem(self, self._embed(x.v))
            if t is not QQ:
                raise TowerMismatch(f"element of {t!r} is not in {self!r}")
        return TowerElem(self, self._embed(self.base._scalar(x)))

    from_int = coerce

    def absolute_degree(self) -> int:
        return self._n

    def flatten(self, x) -> list:
        """Coordinates of x in the power-product basis over the base field."""
        return self.base._view(self.coerce(x).v)

    def unflatten(self, vec) -> TowerElem:
        return TowerElem(self, self.base._concat(vec))

    def _embed(self, v) -> tuple:
        """The kernel tuple v of a lower level's (or the base's) element, padded."""
        k = len(v) - (not self.characteristic)  # the coordinates, without a denominator
        return v[:k] + self._zero[k : self._n] + v[k:]

    def _add(self, a, b) -> tuple:
        if p := self.characteristic:
            return tuple([(x + y) % p for x, y in zip(a, b)])
        if (da := a[-1]) == (db := b[-1]):
            return kernel(list(map(operator.add, a[:-1], b[:-1])), da)
        return kernel([x * db + y * da for x, y in zip(a[:-1], b[:-1])], da * db)

    def _sub(self, a, b) -> tuple:
        if p := self.characteristic:
            return tuple([(x - y) % p for x, y in zip(a, b)])
        if (da := a[-1]) == (db := b[-1]):
            return kernel(list(map(operator.sub, a[:-1], b[:-1])), da)
        return kernel([x * db - y * da for x, y in zip(a[:-1], b[:-1])], da * db)

    def _view(self, coords) -> list:
        """The elements whose concatenated coordinates are `coords` (over Q, then one denominator)."""
        n = self._n
        if self.characteristic:
            return [TowerElem(self, tuple(coords[i : i + n])) for i in range(0, len(coords), n)]
        den = coords[-1]
        return [TowerElem(self, kernel(coords[i : i + n], den)) for i in range(0, len(coords) - 1, n)]

    def _concat(self, elems) -> tuple:
        """The inverse of `_view`: over Q, the numerators over their least
        common denominator, in lowest terms as each element is."""
        vs = [self.coerce(x).v for x in elems]
        if self.characteristic:
            return tuple([c for v in vs for c in v])
        den = math.lcm(*[v[-1] for v in vs])
        return (*[c * (den // v[-1]) for v in vs for c in v[:-1]], den)


class BaseField(Field):
    """The tower protocol of `galoiskit.tower.Tower` for a field of degree 1
    over itself, whose kernel tuple is one residue over F_p and a numerator
    and its denominator over Q."""

    _n = 1

    @property
    def base(self):
        return self

    def chain(self) -> list:
        return []

    generators = describe = chain

    def min_poly_over_base(self, x):
        from .poly import Poly

        return Poly(self, [-self.coerce(x), self.one()])


class RationalField(BaseField):
    """The field of rational numbers: n/D is `TowerElem(QQ, (n, D))`, in
    lowest terms with D > 0."""

    characteristic = 0
    _zero, _one = (0, 1), (1, 1)

    def _scalar(self, x) -> tuple:
        """(n, D) of a rational: an int or a `Fraction`, read by duck typing
        and in lowest terms with D > 0 as each is, or a rational scalar,
        which only another field's coercion passes here."""
        if type(x) is TowerElem:
            return x.v
        try:
            return x.numerator, x.denominator
        except AttributeError:
            raise TypeError(f"cannot coerce {x!r} into {self!r}") from None

    def _mul(self, a, b) -> tuple:
        return kernel((a[0] * b[0],), a[1] * b[1])

    def _pow(self, v, e: int) -> tuple:
        return (v[0] ** e, v[1] ** e)  # powers of coprime ints stay coprime

    def _inv(self, v) -> tuple:
        return (v[1], v[0]) if v[0] > 0 else (-v[1], -v[0])

    def sort_key(self, x):
        return x

    def element_str(self, x) -> str:
        n, d = x.v
        return f"{n}/{d}" if d != 1 else str(n)

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

    def _scalar(self, x) -> tuple:
        """The residue of an int, or of a rational whose denominator p does not divide."""
        n, d = RationalField._scalar(self, x)
        if d % self.p == 0:
            raise ZeroInverse(f"denominator divisible by {self.p}")
        return (n * pow(d, -1, self.p) % self.p,)

    def _mul(self, a, b) -> tuple:
        return (a[0] * b[0] % self.p,)

    def _pow(self, v, e: int) -> tuple:
        return (pow(v[0], e, self.p),)

    def _inv(self, v) -> tuple:
        return (pow(v[0], -1, self.p),)

    def sort_key(self, x):
        return x.v[0]

    def element_str(self, x) -> str:
        return str(x.v[0])

    def elements(self):
        return [TowerElem(self, (r,)) for r in range(self.p)]

    def __repr__(self):
        return f"F_{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))
