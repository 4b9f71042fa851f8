"""GF(p^n): construction, Frobenius, subfield lattice, multiplicative structure.

GF(p^n) is F_p[a]/(m), the one-level `Tower` over F_p with the defining
polynomial m, and GF(p) is its degree-1 level F_p[a]/(a).  `GF` is that
tower, so an element is a `TowerElem` of it, as every finite-field element
of the library is, and `+`, `-`, `*`, `**` and `inv` are the tower's
kernels; the splitting and Galois machinery and GF share one F_p extension
product and one inverse.

No structure query lists the field (Lidl & Niederreiter, *Finite Fields*,
ch. 2).  The subfield of order p^m, for each m | n, is the fixed set
{a : a^(p^m) = a} of the m-th Frobenius power, so membership costs one
exponentiation.  The multiplicative generator is the first element in
canonical order whose order is certified to be q - 1 = p^n - 1
(x^((q-1)/l) != 1 for every prime l | q - 1); candidates are made one at a
time, and the answer is kept on the field.  Each proper subfield's size is
certified the same way: h = g^((q-1)/N), N = p^m - 1, has h^N = 1 and
h^(N/l) != 1 for every prime l | N, so ord h = N.  Only `GF.elements` and
`SubfieldOfGF.elements` enumerate, within ELEMENT_BUDGET.

The defining polynomial is the least monic irreducible of degree n in the
canonical order, so construction is deterministic.
"""

from __future__ import annotations

import itertools

from .errors import Budget, InternalInvariant, InvalidDegree, NotIrreducible, NotPrime
from .numbers import PrimeField, TowerElem, divisors, factor_integer, is_prime
from .poly import Poly
from .factor import is_irreducible_ff
from .tower import Tower

ELEMENT_BUDGET = 1 << 20


def find_irreducible(p: int, n: int) -> Poly:
    """Least monic irreducible of degree n over F_p in canonical order."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise InvalidDegree(f"field degree must be at least 1, got {n}")
    # p >= 2, so p^n > budget already when 2^n is; refuse that without
    # forming p^n, whose cost grows with n
    if n >= ELEMENT_BUDGET.bit_length() or p**n > ELEMENT_BUDGET:
        raise Budget(f"field order {p}^{n} exceeds budget {ELEMENT_BUDGET}")
    F = PrimeField(p)
    # canonical order: ascending (a_(n-1), ..., a_0)
    for high_to_low in itertools.product(range(p), repeat=n):
        cand = Poly(F, [F.from_int(c) for c in reversed(high_to_low)] + [F.one()])
        if is_irreducible_ff(cand):
            return cand
    raise NotPrime(f"no irreducible of degree {n} over F_{p}")  # unreachable


class GF(Tower):
    """The field of order p^n as its one-level tower F_p[a]/(modulus); its
    elements are the tower's `TowerElem`s, n residues mod p each, lowest
    power first."""

    def __init__(self, p: int, n: int, modulus: Poly | None = None):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if modulus is None:
            modulus = find_irreducible(p, n)  # certified by construction
        elif not (modulus.dom == PrimeField(p) and modulus.degree == n
                  and modulus.is_monic() and is_irreducible_ff(modulus)):
            raise NotIrreducible(f"{modulus} is not a monic irreducible of degree {n} over F_{p}")
        super().__init__(PrimeField(p), modulus, "a", certify=False)
        self.p = p
        self.n = n
        self.order = p**n
        self.modulus = modulus
        self._generator = None  # multiplicative_generator, once found

    def elements(self):
        """All elements in canonical (ascending coordinate) order."""
        if self.order > ELEMENT_BUDGET:
            raise Budget(f"enumerating {self.order} elements")
        return [TowerElem(self, v) for v in itertools.product(range(self.p), repeat=self.n)]

    def to_json(self):
        gen = multiplicative_generator(self)
        return {
            "p": self.p,
            "n": self.n,
            "order": self.order,
            "modulus": str(self.modulus),
            "subfield_orders": [self.p**m for m in divisors(self.n)],
            "generator": self.element_str(gen),
            "frobenius_order": frobenius_order(self),
        }

    def __repr__(self):
        return f"GF({self.p}^{self.n})"


def gf(p: int, n: int) -> GF:
    """The field of order p^n with the canonical defining polynomial."""
    return GF(p, n)


def frobenius(F: GF, a):
    """x -> x^p, the generator of the Galois group over F_p."""
    return a**F.p


def frobenius_order(F: GF) -> int:
    """Least m >= 1 with frobenius^m = id; equals n.

    Tested on the defining generator alpha alone: an automorphism fixing
    F_p and alpha pointwise fixes F_p(alpha), which is the whole field.
    """
    alpha = F.generator()
    y = frobenius(F, alpha)
    m = 1
    while y != alpha:
        y = frobenius(F, y)
        m += 1
        if m > F.n:
            raise InternalInvariant("Frobenius order exceeded the field degree")
    return m


def unique_pth_root(F: GF, a):
    """The unique y with y^p = a (inverse of Frobenius): a^(p^(n-1))."""
    return a ** (F.p ** (F.n - 1))


class SubfieldOfGF:
    """The subfield of F of order p^m: the elements of F fixed by x -> x^(p^m)."""

    __slots__ = ("field", "m", "order")

    def __init__(self, field: GF, m: int, order: int):
        self.field = field
        self.m = m
        self.order = order

    def __contains__(self, x):
        x = self.field.coerce(x)
        return x**self.order == x

    @property
    def elements(self) -> frozenset:
        """The members, listed on demand as 0 and the powers of
        g^((q-1)/(p^m-1)); an oracle for tests and demos."""
        if self.order > ELEMENT_BUDGET:
            raise Budget(f"enumerating {self.order} elements")
        F = self.field
        h = multiplicative_generator(F) ** ((F.order - 1) // (self.order - 1))
        members = {F.zero()}
        cur = F.one()
        for _ in range(self.order - 1):
            members.add(cur)
            cur = cur * h
        return frozenset(members)


def subfields(F: GF):
    """One subfield per divisor m of n: the fixed set {a : a^(p^m) = a} of
    the m-th Frobenius power, which has p^m elements.  Nothing is listed.
    For m < n the size is still checked: h = g^((q-1)/N), N = p^m - 1, must
    have order exactly N, certified by h^N = 1 and h^(N/l) != 1 for every
    prime l | N (O(n log p) products per subfield)."""
    if F.order > ELEMENT_BUDGET:
        raise Budget(f"field order {F.order} exceeds budget {ELEMENT_BUDGET}")
    g = multiplicative_generator(F)
    one = F.one()
    out = []
    for m in divisors(F.n):
        sub_order = F.p**m
        if m < F.n:
            N = sub_order - 1
            h = g ** ((F.order - 1) // N)
            if h**N != one or any(h ** (N // ell) == one for ell in set(factor_integer(N))):
                raise InternalInvariant("subfield has the wrong size")
        out.append((m, SubfieldOfGF(F, m, sub_order)))
    return out


def multiplicative_generator(F: GF):
    """First element (canonical order) of multiplicative order p^n - 1,
    certified by checking x^((q-1)/l) != 1 for every prime l | q-1.
    Candidates are made one at a time; the answer is kept on F."""
    if F._generator is None:
        F._generator = _first_generator(F)
    return F._generator


def _first_generator(F: GF):
    if F.order > ELEMENT_BUDGET:
        raise Budget(f"enumerating {F.order} elements")
    q1 = F.order - 1
    one = F.one()
    if q1 == 1:
        return one
    prime_divs = sorted(set(factor_integer(q1)))
    for v in itertools.product(range(F.p), repeat=F.n):
        a = TowerElem(F, v)
        if a and a != one and all(a ** (q1 // ell) != one for ell in prime_divs):
            return a
    raise InternalInvariant("no multiplicative generator found")


def is_primitive_root(a: int, p: int) -> bool:
    """True iff a generates the multiplicative group mod the prime p."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    a %= p
    if a == 0:
        return False
    for ell in sorted(set(factor_integer(p - 1))):
        if pow(a, (p - 1) // ell, p) == 1:
            return False
    return True
