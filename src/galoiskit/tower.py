"""Towers of simple extensions K(a_1)...(a_k) over Q or F_p.

A Tower is an immutable chain: its `lower` field is another Tower or a base
field, and `minpoly` is a monic irreducible polynomial over that lower field.
A base field (QQ / PrimeField) is the tower of height 0 (`numbers.BaseField`):
it answers the same structural questions, so `chain`, `flatten`, `unflatten`
and the degrees recurse into `lower` and stop there; only the product kernel
and equality look at which kind of field `lower` is.
Elements (`TowerElem`) are fixed-length coefficient tuples over the lower
level, always reduced mod the level's minimal polynomial; level-0
coefficients are base scalars.  The flattened coordinate vector over the
base realizes the power-product basis, which is what all the linear algebra
(minimal polynomials, fixed fields, subfield membership) runs on.

A product (`Tower._mul`) builds no `Poly`: over Q it pseudo-divides the
integer product of numerators by the cached integer minimal polynomial and
builds one `Fraction` per coefficient; over F_p it runs on residues; over a
lower level it is a schoolbook convolution and a monic reduction.

A Tower is itself a field object in the sense of `galoiskit.numbers`, so
`Poly` works over it unchanged; that is how factoring and splitting climb the
tower.  A certified primitive element gamma also gives the one-level field
base[y]/(m_gamma) (`primitive_field`), with one cached change of basis each
way; Trager factoring runs there instead of on the recursive elements.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import (
    NotIrreducible,
    NotMonic,
    SearchExhausted,
    TowerMismatch,
    ZeroInverse,
)
from .linalg import Echelon
from .poly import (
    Poly, _fp_elems, _mul_int, _mul_mod, _numerators, _pseudo_divmod, _rem_mod, gcd_ext
)

PRIMITIVE_SEARCH_BOUND = 8


class TowerElem:
    __slots__ = ("tower", "coeffs")

    def __init__(self, tower, coeffs):
        self.tower = tower
        self.coeffs = tuple(coeffs)  # length == tower.level_degree, reduced

    def _lift(self, other):
        """Coerce an operand into this element's tower, or return None."""
        try:
            return self.tower.coerce(other)
        except (TypeError, TowerMismatch, ValueError):
            return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return TowerElem(
            self.tower, [a + b for a, b in zip(self.coeffs, o.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return TowerElem(self.tower, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return TowerElem(
            self.tower, [a - b for a, b in zip(self.coeffs, o.coeffs)]
        )

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return TowerElem(self.tower, self.tower._mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        result = self.tower.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inv(self) -> "TowerElem":
        """Inverse via the extended Euclidean algorithm mod the minpoly."""
        t = self.tower
        if not self:
            raise ZeroInverse("zero tower element")
        d, a, _ = gcd_ext(Poly(t.lower, self.coeffs), t.minpoly)
        if d.degree != 0:
            raise NotIrreducible("minpoly is not irreducible: found a zero divisor")
        return t._from_poly(a % t.minpoly)

    def __eq__(self, other):
        if isinstance(other, TowerElem) and other.tower == self.tower:
            return self.coeffs == other.coeffs
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.tower, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

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
        self._n = self.level_degree * lower.absolute_degree()
        # the monic minimal polynomial in the product kernel's form
        if isinstance(lower, Tower):
            self._modulus = minpoly.coeffs[:-1]
        elif self.characteristic:
            self._modulus = [c.r for c in minpoly.coeffs]
        else:  # integer numerators; the leading one is the common denominator
            self._modulus = _numerators(minpoly.coeffs)[0]
        self._primitive = None
        self._primitive_echelon = None
        self._primitive_powers = None
        self._primitive_field = None

    # -- field-object protocol ------------------------------------------------

    def zero(self):
        return TowerElem(self, [self.lower.zero()] * self.level_degree)

    def one(self):
        z = self.lower.zero()
        return TowerElem(self, [self.lower.one()] + [z] * (self.level_degree - 1))

    def from_int(self, n: int):
        z = self.lower.zero()
        return TowerElem(self, [self.lower.from_int(n)] + [z] * (self.level_degree - 1))

    def coerce(self, x):
        if isinstance(x, TowerElem):
            if x.tower == self:
                return x
            if x.tower not in self.lower.chain():
                raise TowerMismatch(f"element of {x.tower!r} is not in {self!r}")
        c = self.lower.coerce(x)  # scalars and lower levels climb one level at a time
        z = self.lower.zero()
        return TowerElem(self, [c] + [z] * (self.level_degree - 1))

    def exact_div(self, a, b):
        return a / b

    def sort_key(self, x):
        return tuple(self.base.sort_key(c) for c in self.flatten(x))

    def pth_root(self, x):
        """Unique p-th root in a finite tower (inverse Frobenius)."""
        p = self.characteristic
        if p == 0:
            raise TypeError("pth_root needs positive characteristic")
        return x ** (p ** (self.absolute_degree() - 1))

    # -- structure --------------------------------------------------------------

    def _mul(self, a, b) -> list:
        """Product of two coefficient tuples, reduced mod the minimal
        polynomial (see the module docstring)."""
        n, m, lower = self.level_degree, self._modulus, self.lower
        if isinstance(lower, Tower):
            out = [lower.zero()] * (2 * n - 1)
            b_terms = [(j, y) for j, y in enumerate(b) if y]
            for i, x in enumerate(a):
                if x:
                    for j, y in b_terms:
                        out[i + j] = out[i + j] + x * y
            for i in range(2 * n - 2, n - 1, -1):
                if c := out[i]:
                    for j, mj in enumerate(m, i - n):
                        if mj:
                            out[j] = out[j] - c * mj
            return out[:n]
        if self.characteristic:
            p = lower.p
            r = _rem_mod(_mul_mod([c.r for c in a], [c.r for c in b], p), m, p)
            return _fp_elems(p, r + [0] * (n - len(r)))
        (na, da), (nb, db) = _numerators(a), _numerators(b)
        r, s = _mul_int(na, nb), 1
        if len(r) > n:  # s * r = q * m + remainder
            _, r, s = _pseudo_divmod(r, m)
        den = s * da * db
        return [Fraction(c, den) for c in r] + [Fraction(0)] * (n - len(r))

    def _from_poly(self, poly: Poly) -> TowerElem:
        coeffs = list(poly.coeffs)
        z = self.lower.zero()
        coeffs += [z] * (self.level_degree - len(coeffs))
        return TowerElem(self, coeffs)

    def generator(self) -> TowerElem:
        z = self.lower.zero()
        o = self.lower.one()
        if self.level_degree == 1:
            return self._from_poly(-(self.minpoly.coeff(0)) + Poly.zero(self.lower))
        return TowerElem(self, [z, o] + [z] * (self.level_degree - 2))

    def chain(self):
        """Tower levels bottom-up."""
        return self.lower.chain() + [self]

    def generators(self):
        """Each level's generator, embedded into this (top) tower."""
        return [self.coerce(level.generator()) for level in self.chain()]

    def absolute_degree(self) -> int:
        return self._n

    def degree_over(self, sub) -> int:
        """Degree over an ancestor level (or the base)."""
        if sub != self.base and sub not in self.chain():
            raise TowerMismatch(f"{sub!r} is not a level of {self!r}")
        return self._n // sub.absolute_degree()

    def adjoin(self, minpoly: Poly, label: str, certify: bool = True) -> "Tower":
        return Tower(self, minpoly, label, certify=certify)

    # -- coordinates ------------------------------------------------------------

    def flatten(self, x) -> list:
        """Coordinates of x in the power-product basis over the base field."""
        flatten = self.lower.flatten
        return [v for c in self.coerce(x).coeffs for v in flatten(c)]

    def unflatten(self, vec) -> TowerElem:
        m, unflatten = self._n // self.level_degree, self.lower.unflatten
        return TowerElem(self, [unflatten(vec[i : i + m]) for i in range(0, self._n, m)])

    def try_lower_to_base(self, f: Poly):
        """Rewrite a polynomial over this tower as one over the base field,
        or return None if some coefficient is not a base scalar."""
        out = []
        for c in f.coeffs:
            flat = self.flatten(c)
            if any(flat[1:]):
                return None
            out.append(flat[0])
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
        x = self.coerce(x)
        parts = []
        for i in range(len(x.coeffs) - 1, -1, -1):
            c = x.coeffs[i]
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
        return hash(("Tower", self.level_degree, self.lower, self.minpoly.coeffs))


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
