"""Towers of simple extensions K(a_1)...(a_k) over Q or F_p.

A Tower is an immutable chain: its `lower` field is another Tower or a base
field, and `minpoly` is a monic irreducible polynomial over that lower field.
A base field (QQ / PrimeField) is the tower of height 0 (`numbers.BaseField`):
it answers the same structural questions, so `chain` and the degrees recurse
into `lower` and stop there.

An element (`TowerElem`) is stored flat: the tuple of its coordinates in the
power-product basis a^i * b_j * ... over the base (i of the top level
outermost), in kernel form -- `Fraction`s over Q, int residues in [0, p)
over F_p.  An element of an ancestor level is its own tuple followed by
zeros, so embedding is padding.  Sums and differences are coordinatewise.
A product (`Tower._mul`) over F_p is the schoolbook product of the residue
lists, then reduction by the monic minimal polynomial; over Q it multiplies
the integer numerators and reduces once by pseudo-division; over a lower level it convolves the
length-[lower : base] slices with the lower product and reduces by the
minimal polynomial, whose coefficients are cached as lower tuples.  Powers
(`Tower._pow`) square and multiply those tuples.  GF(p^n)
(`galoiskit.finitefield`) is a one-level tower over F_p and runs on these
same kernels.  No element object is built below the top, and no `FpElem`
at all.  The base scalars of `flatten` and the level view `TowerElem.coeffs`
(coefficients over the lower level, for printing, inversion and `Poly`) are
made only when asked for.  The flat coordinates are what all the linear
algebra (minimal polynomials, fixed fields, subfield membership) runs on.

A Tower is itself a field object in the sense of `galoiskit.numbers`, so
`Poly` works over it unchanged; that is how factoring and splitting climb the
tower.  A certified primitive element gamma also gives the one-level field
base[y]/(m_gamma) (`primitive_field`), with one cached change of basis each
way; Trager factoring runs there instead of on the tower.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import (
    NotIrreducible,
    NotMonic,
    SearchExhausted,
    TowerMismatch,
    ZeroInverse,
)
from .linalg import Echelon
from .poly import Poly, _mul_int, _numerators, _pseudo_divmod, _trim, gcd_ext

PRIMITIVE_SEARCH_BOUND = 8


class TowerElem:
    """An element of a Tower: `v` is its flat coordinate tuple over the base
    (see the module docstring)."""

    __slots__ = ("tower", "v")

    def __init__(self, tower, v: tuple):
        self.tower = tower
        self.v = v  # length tower.absolute_degree(), kernel form

    @property
    def coeffs(self) -> list:
        """The level view: coefficients over the lower level, lowest first."""
        return self.tower.lower._view(self.v)

    def _operands(self, other):
        """(tower, coordinates of self, coordinates of other) in this
        element's tower, or in the other operand's tower when this one lies
        below it; None if neither holds both."""
        t = self.tower
        if type(other) is TowerElem and other.tower is t:
            return t, self.v, other.v
        try:
            return t, self.v, t.coerce(other).v
        except (TypeError, TowerMismatch, ValueError):
            pass
        if type(other) is TowerElem and t in other.tower.chain():
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
        """The inverse.  In a one-level field over Q, by a primitive extended
        PRS on integer lists: pseudo-division from the integer modulus and
        the numerators a of this element (x = a/den), tracking only the
        cofactor u of a in u*a = r (mod m), each (r, u) divided by its joint
        content, until r is a constant c; then x^-1 = u*den/c, built as
        `Fraction`s once.  Elsewhere, by `gcd_ext` over the lower level mod
        the minimal polynomial, whose divisions invert lower elements the
        same way down to the bottom level.  A zero remainder before a
        constant is a zero divisor: NotIrreducible."""
        t = self.tower
        if not self:
            raise ZeroInverse("zero tower element")
        if isinstance(t.lower, Tower) or t.characteristic:
            d, a, _ = gcd_ext(Poly(t.lower, self.coeffs), t.minpoly)
            if d.degree != 0:
                raise NotIrreducible("minpoly is not irreducible: found a zero divisor")
            return t._from_poly(a % t.minpoly)
        nums, den = _numerators(self.v)
        r0, r1, u0, u1 = t._modulus, _trim(nums), [], [1]
        while len(r1) > 1:
            q, r, s = _pseudo_divmod(r0, r1)  # s*r0 = q*r1 + r
            if not r:
                raise NotIrreducible("minpoly is not irreducible: found a zero divisor")
            qu = _mul_int(q, u1)
            u = _trim([s * x - y for x, y in itertools.zip_longest(u0, qu, fillvalue=0)])
            g = math.gcd(*r, *u)
            r0, r1, u0, u1 = r1, [c // g for c in r], u1, [c // g for c in u]
        return TowerElem(t, tuple([Fraction(c * den, r1[0]) for c in u1]) + t._zero[len(u1) :])

    def __eq__(self, other):
        if (ops := self._operands(other)) is None:
            return NotImplemented
        return ops[1] == ops[2]

    def __hash__(self):
        """The coordinates with trailing zeros stripped, and a one-coordinate
        value as its base scalar, so that equal elements of any level hash
        alike; but not as a plain int over F_p (3 and 8 are equal mod 5)."""
        v = self.v[: max((i for i, c in enumerate(self.v) if c), default=0) + 1]
        if len(v) > 1:
            return hash(v)
        p = self.tower.characteristic  # an FpElem hashes as (r, p); none is built
        return hash((v[0], p) if p else v[0])

    def __bool__(self):
        return any(self.v)

    def __repr__(self):
        return self.tower.element_str(self)


class Tower:
    """One simple-extension level over `lower` (a base field or a Tower)."""

    def __init__(self, lower, minpoly: Poly, label: str, certify: bool = True):
        if not minpoly.is_monic():
            raise NotMonic("defining polynomial must be monic")
        if minpoly.degree < 1:
            raise NotIrreducible("defining polynomial must be nonconstant")
        if minpoly.dom != lower:
            raise TowerMismatch("defining polynomial must live over the lower level")
        if certify:
            from .factor import is_irreducible_over

            if not is_irreducible_over(minpoly):
                raise NotIrreducible(f"{minpoly} is reducible over {lower!r}")
        self.lower = lower
        self.minpoly = minpoly
        self.label = label
        self.level_degree = minpoly.degree
        self.base = lower.base
        self.characteristic = self.base.characteristic
        self._m = lower.absolute_degree()
        self._n = self.level_degree * self._m
        self._zero = (self.base._flat(0),) * self._n
        self._one = (self.base._flat(1),) + self._zero[1:]
        # the monic minimal polynomial in the product kernel's form
        if isinstance(lower, Tower):  # (j, coordinates) of the nonzero lower coefficients
            self._modulus = [(j, c.v) for j, c in enumerate(minpoly.coeffs[:-1]) if c]
        elif self.characteristic:
            self._modulus = [lower._flat(c) for c in minpoly.coeffs]
        else:  # integer numerators; the leading one is the common denominator
            self._modulus = _numerators(minpoly.coeffs)[0]
        self._hash = hash(("Tower", self.level_degree, lower, minpoly.coeffs))
        self._primitive = None
        self._primitive_echelon = None
        self._primitive_powers = None
        self._primitive_field = None

    # -- field-object protocol ------------------------------------------------

    def zero(self):
        return TowerElem(self, self._zero)

    def one(self):
        return TowerElem(self, self._one)

    def from_int(self, n: int):
        return self.coerce(n)

    def coerce(self, x):
        if isinstance(x, TowerElem):
            if x.tower == self:
                return x
            if x.tower not in self.lower.chain():
                raise TowerMismatch(f"element of {x.tower!r} is not in {self!r}")
            return TowerElem(self, x.v + self._zero[len(x.v) :])
        return TowerElem(self, (self.base._flat(x),) + self._zero[1:])

    def exact_div(self, a, b):
        return a / b

    def sort_key(self, x):
        return self.coerce(x).v

    # -- structure --------------------------------------------------------------

    def _add(self, a, b) -> tuple:
        p = self.characteristic
        if p:
            return tuple([(x + y) % p for x, y in zip(a, b)])
        return tuple([x + y for x, y in zip(a, b)])

    def _sub(self, a, b) -> tuple:
        p = self.characteristic
        if p:
            return tuple([(x - y) % p for x, y in zip(a, b)])
        return tuple([x - y for x, y in zip(a, b)])

    def _mul(self, a, b) -> tuple:
        """Product of two coordinate tuples, reduced mod the minimal
        polynomial (see the module docstring)."""
        d, m, lower = self.level_degree, self._m, self.lower
        if isinstance(lower, Tower):
            mul, add, sub = lower._mul, lower._add, lower._sub
            b_terms = [(j, y) for j in range(d) if any(y := b[j * m : j * m + m])]
            out = [lower._zero] * (2 * d - 1)
            for i in range(d):
                if any(x := a[i * m : i * m + m]):
                    for j, y in b_terms:  # a first term is stored, not added to zero
                        xy = mul(x, y)
                        out[i + j] = add(out[i + j], xy) if any(out[i + j]) else xy
            for k in range(2 * d - 2, d - 1, -1):
                if any(c := out[k]):
                    for j, mj in self._modulus:
                        out[k - d + j] = sub(out[k - d + j], mul(c, mj))
            return tuple(itertools.chain.from_iterable(out[:d]))
        if p := self.characteristic:  # schoolbook, then reduce by the monic modulus
            out = [0] * (2 * d - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            mod = self._modulus
            for k in range(2 * d - 2, d - 1, -1):
                if c := out[k] % p:
                    for j in range(d):
                        out[k - d + j] -= c * mod[j]
            return tuple([c % p for c in out[:d]])
        (na, da), (nb, db) = _numerators(a), _numerators(b)
        r, s = _mul_int(na, nb), 1
        if len(r) > d:  # s * r = q * m + remainder
            _, r, s = _pseudo_divmod(r, self._modulus)
        den = s * da * db
        return tuple([Fraction(c, den) for c in r]) + self._zero[len(r) :]

    def _pow(self, v, e: int) -> tuple:
        """v^e for e >= 0, by square-and-multiply on coordinate tuples."""
        result = self._one
        while e:
            if e & 1:
                result = self._mul(result, v)
            e >>= 1
            if e:
                v = self._mul(v, v)
        return result

    def _from_poly(self, poly: Poly) -> TowerElem:
        vec = [c for x in poly.coeffs for c in self.lower.flatten(x)]
        return self.unflatten(vec + [self.base.zero()] * (self._n - len(vec)))

    def generator(self) -> TowerElem:
        if self.level_degree == 1:
            return self.coerce(-self.minpoly.coeff(0))
        m = self._m
        return TowerElem(self, self._zero[:m] + self._one[:1] + self._zero[m + 1 :])

    def chain(self):
        """Tower levels bottom-up."""
        return self.lower.chain() + [self]

    def generators(self):
        """Each level's generator, embedded into this (top) tower."""
        return [self.coerce(level.generator()) for level in self.chain()]

    def absolute_degree(self) -> int:
        return self._n

    def adjoin(self, minpoly: Poly, label: str, certify: bool = True) -> "Tower":
        return Tower(self, minpoly, label, certify=certify)

    # -- coordinates ------------------------------------------------------------

    def flatten(self, x) -> list:
        """Coordinates of x in the power-product basis over the base field."""
        return self.base._view(self.coerce(x).v)

    def unflatten(self, vec) -> TowerElem:
        return TowerElem(self, tuple(map(self.base._flat, vec)))

    def _view(self, coords) -> list:
        """The elements whose concatenated coordinates are `coords`."""
        n = self._n
        return [TowerElem(self, coords[i : i + n]) for i in range(0, len(coords), n)]

    def try_lower_to_base(self, f: Poly):
        """Rewrite a polynomial over this tower as one over the base field,
        or return None if some coefficient is not a base scalar."""
        out = []
        for c in f.coeffs:
            v = self.coerce(c).v
            if any(v[1:]):
                return None
            out.append(v[0])
        return Poly(self.base, out)

    # -- minimal polynomials & primitive elements -------------------------------

    def _power_echelon(self, x):
        """(monic minimal polynomial of x over the base, Echelon of the
        flattened 1, x, ..., x^(d-1), those flattened powers): powers are
        added until the first one that depends on those before it."""
        x = self.coerce(x)
        echelon = Echelon(self.base)
        power, powers = self.one(), []
        while (comb := echelon.add(vec := self.flatten(power))) is None:
            powers.append(vec)
            power = power * x
        return Poly(self.base, [-c for c in comb] + [self.base.one()]), echelon, powers

    def min_poly_over_base(self, x) -> Poly:
        """Monic minimal polynomial of x over the base field."""
        return self._power_echelon(x)[0]

    def primitive_element(self):
        """A single generator gamma with base(gamma) = the whole tower,
        certified by deg(minpoly(gamma)) = [tower : base]; cached with the
        maps to and from `primitive_field`."""
        if self._primitive is not None:
            return self._primitive
        gens = self.generators()
        for bound in range(1, PRIMITIVE_SEARCH_BOUND + 1):
            sweep = [0]
            for c in range(1, bound + 1):
                sweep.extend((c, -c))
            for rest in itertools.product(sweep, repeat=len(gens) - 1):
                if max((abs(c) for c in rest), default=0) != bound and bound > 1:
                    continue
                gamma = gens[0]
                for c, g in zip(rest, gens[1:]):
                    if c:
                        gamma = gamma + g * self.from_int(c)
                mp, echelon, powers = self._power_echelon(gamma)
                if mp.degree == self._n:
                    # deg mp = [tower : base] proves mp irreducible
                    self._primitive_field = Tower(self.base, mp, "y", certify=False)
                    self._primitive_echelon, self._primitive_powers = echelon, powers
                    self._primitive = (gamma, mp)
                    return self._primitive
        raise SearchExhausted("no primitive element found within coefficient bound")

    def primitive_field(self) -> "Tower":
        """The one-level field base[y]/(m_gamma), isomorphic to this tower by
        y -> gamma; cached.  `express_in_primitive` maps into it and
        `eval_primitive_poly` maps back."""
        self.primitive_element()
        return self._primitive_field

    def express_in_primitive(self, x) -> Poly:
        """x as a base-coefficient polynomial in the primitive element: its
        combination of the powers of gamma."""
        self.primitive_element()  # finds gamma and keeps the echelon of its powers
        return Poly(self.base, self._primitive_echelon.reduce(self.flatten(x))[1])

    def eval_primitive_poly(self, f: Poly) -> TowerElem:
        """Evaluate a base-coefficient polynomial at the primitive element:
        f mod m_gamma times the matrix whose columns are the flattened
        1, gamma, ..., gamma^(n-1) (n^2 base operations)."""
        _, mgamma = self.primitive_element()
        vec = [self.base.zero()] * self._n
        for c, power in zip((f % mgamma).coeffs, self._primitive_powers):
            if c:
                vec = [v + c * x if x else v for v, x in zip(vec, power)]
        return self.unflatten(vec)

    # -- presentation ---------------------------------------------------------

    def element_str(self, x) -> str:
        coeffs = self.coerce(x).coeffs
        parts = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if not c:
                continue
            cs = self.lower.element_str(c)
            compound = " " in cs
            if compound and i > 0:
                cs = f"({cs})"
            negative = cs.startswith("-") and not compound
            if negative:
                cs = cs[1:]
            if i == 0:
                term = cs
            else:
                power = self.label if i == 1 else f"{self.label}^{i}"
                term = power if cs == "1" else f"{cs}*{power}"
            if not parts:
                parts.append(("-" if negative else "") + term)
            else:
                parts.append(("- " if negative else "+ ") + term)
        if not parts:
            return "0"
        return " ".join(parts)

    def describe(self):
        """JSON-ready description: one {label, min_poly} entry per level."""
        return [
            {"label": level.label, "min_poly": str(level.minpoly)}
            for level in self.chain()
        ]

    def __repr__(self):
        labels = ", ".join(level.label for level in self.chain())
        return f"{self.base!r}({labels})"

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Tower):
            return NotImplemented
        return (
            self.level_degree == other.level_degree
            and self.lower == other.lower
            and self.minpoly.coeffs == other.minpoly.coeffs
        )

    def __hash__(self):
        return self._hash


def adjoin_root(field, minpoly: Poly, label: str, certify: bool = True):
    """Adjoin a root of a monic irreducible polynomial to a base field or
    tower; returns (new_tower, root)."""
    ext = field.adjoin(minpoly, label, certify=certify)
    return ext, ext.generator()


def tower_degree(field) -> int:
    """[field : base]; 1 for a bare base field."""
    return field.absolute_degree()


def min_poly(field, x) -> Poly:
    """Monic minimal polynomial of x over the base of its field."""
    return field.min_poly_over_base(x)


def contains(subspace_rref, field, x) -> bool:
    """Membership of x in a base-linear subspace of the tower, given the
    subspace by an RREF basis of flattened coordinate vectors."""
    from .linalg import in_row_space

    vec = field.flatten(x)
    return in_row_space(field.base, subspace_rref, vec)
