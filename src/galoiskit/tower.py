"""Towers of simple extensions K(a_1)...(a_k) over Q or F_p.

A Tower is an immutable chain: its `lower` field is another Tower or a base
field, and `minpoly` is a monic irreducible polynomial over that lower field.
A base field (QQ / PrimeField) is the tower of height 0 (`numbers.BaseField`):
it answers the same structural questions, so `chain` and the degrees recurse
into `lower` and stop there.

An element (`TowerElem`, defined in `galoiskit.numbers` and re-exported
here) is stored flat: the tuple of its coordinates in the power-product
basis a^i * b_j * ... over the base (i of the top level outermost), in
kernel form: int residues in [0, p) over F_p; over Q, int numerators and
then one positive denominator, in lowest terms (Cohen, GTM 138, 4.2).  An
F_p scalar is the same class with one residue, its field the `PrimeField`,
so a finite field of any degree has one element class.  An element of an
ancestor level or of the base is its own tuple with zero numerators padded
in.  Sums and differences are coordinatewise (over Q, one gcd at the end).
A product (`Tower._mul`) runs on integers through every level.  On the
bottom level over F_p it packs each residue tuple into one integer,
multiplies once and reduces by adding multiples of the packed x^k mod m,
rows built with the level (Kronecker substitution; von zur Gathen &
Gerhard, *Modern Computer Algebra*, 8.4).  Over Q the bottom level
multiplies the numerators and reduces once by pseudo-division.  A level
above convolves the length-[lower : base] slices with the lower integer
product (`_mul_z`) and reduces by the minimal polynomial, cached as integer
numerators over one denominator; every level's result carries that level's
fixed scale (`_scale`), which joins the operands' denominators before one
gcd (von zur Gathen & Gerhard, ch. 6).  Over F_p the same recursion keeps
residues.  Powers (`Tower._pow`) square and multiply the tuples.  GF(p^n)
(`galoiskit.finitefield.GF`) is a one-level tower over F_p, so its elements
are `TowerElem`s on these same kernels.  No element object is built below
the top.  `Fraction`s and F_p scalars are made only at the boundary, when
asked for: the base scalars of `flatten` (and of `sort_key` over Q) and the
level view `TowerElem.coeffs` (coefficients over the lower level, for
printing, inversion and `Poly`).  Each field object inverts its own tuples
(`Tower._inv`, `PrimeField._inv`), building no `Poly` over F_p and no F_p
scalar.  The kernel tuples are what all the linear algebra (minimal
polynomials, fixed fields, subfield membership; `galoiskit.linalg`) runs on.

A Tower is itself a field object in the sense of `galoiskit.numbers`, so
`Poly` works over it unchanged; that is how factoring and splitting climb the
tower.  A certified primitive element gamma also gives the one-level field
base[y]/(m_gamma) (`primitive_field`), with one cached change of basis each
way on kernel tuples: `to_primitive` reads an element's combination of the
powers of gamma off their echelon, and `from_primitive` multiplies by the
matrix of those powers.  Trager factoring runs there instead of on the
tower.  Splitting fields and `minpoly` label level k by `level_label(k)`.
"""

from __future__ import annotations

import itertools
import math
import operator

from .errors import (
    NotIrreducible,
    NotMonic,
    SearchExhausted,
    TowerMismatch,
)
from .factor import _shift_order, is_irreducible_over
from .linalg import Echelon, kernel, mat_mul_vec, matrix
from .numbers import TowerElem
from .poly import Poly, _mul_int, _numerators, _power, _pseudo_divmod, _sum_str, _trim, _xgcd_mod, gcd_ext

PRIMITIVE_SEARCH_BOUND = 8


class Tower:
    """One simple-extension level over `lower` (a base field or a Tower)."""

    def __init__(self, lower, minpoly: Poly, label: str, certify: bool = True):
        if not minpoly.is_monic():
            raise NotMonic("defining polynomial must be monic")
        if minpoly.degree < 1:
            raise NotIrreducible("defining polynomial must be nonconstant")
        if minpoly.dom != lower:
            raise TowerMismatch("defining polynomial must live over the lower level")
        if certify and not is_irreducible_over(minpoly):
            raise NotIrreducible(f"{minpoly} is reducible over {lower!r}")
        self.lower = lower
        self.minpoly = minpoly
        self.label = label
        self.level_degree = minpoly.degree
        self.base = lower.base
        self.characteristic = self.base.characteristic
        self._m = lower.absolute_degree()
        self._n = self.level_degree * self._m
        self._zero = (0,) * self._n + (() if self.characteristic else (1,))  # over Q, denominator 1
        self._one = (1,) + self._zero[1:]
        # the monic minimal polynomial in the product kernel's form
        if isinstance(lower, Tower):  # (j, coordinates) of the nonzero lower coefficients
            flat, m = lower._concat(minpoly.coeffs[:-1]), self._m  # over Q, then one denominator
            vs = [flat[j * m : j * m + m] for j in range(self.level_degree)]
            self._modulus = [(j, v) for j, v in enumerate(vs) if any(v)]
            self._step = lower._scale * (flat[-1] if not self.characteristic else 1)  # one reduction step's factor
            self._scale = lower._scale * self._step ** (self.level_degree - 1)
        elif p := self.characteristic:  # the packed product's slot width and rows
            self._scale = 1
            d = self.level_degree
            # 2^w > 2d(p-1)^2; a slot narrower than a byte is widened to one
            w = self._slot = max(8, (2 * d * (p - 1) ** 2).bit_length())
            # from three slots up, bytes in and out, with residues by table
            self._residues = bytes([i % p for i in range(256)]) if w == 8 and d > 2 else None
            m = self._modulus = [lower._flat(c) for c in minpoly.coeffs]  # residues, for `_inv`
            row, self._rows = [-c % p for c in m[:-1]], []  # x^d mod m, then x^(d+1) ...
            for _ in range(d - 1):
                self._rows.append(sum(c << i * w for i, c in enumerate(row)))
                row = [(c - row[-1] * mj) % p for c, mj in zip([0] + row[:-1], m)]
        else:  # integer numerators; the leading one is the common denominator
            self._modulus = _numerators(minpoly.coeffs)[0]
            self._scale = self._modulus[-1] ** (self.level_degree - 1)
        self._hash = hash(("Tower", self.level_degree, lower, minpoly.coeffs))
        # gamma with its minimal polynomial, the echelon and matrix of its powers, base[y]/(m_gamma)
        self._primitive = self._primitive_echelon = self._primitive_matrix = self._primitive_field = None

    # -- field-object protocol ------------------------------------------------

    def zero(self):
        return TowerElem(self, self._zero)

    def one(self):
        return TowerElem(self, self._one)

    def coerce(self, x):
        if isinstance(x, TowerElem):
            if x.tower == self:
                return x
            if x.tower is not self.base and x.tower not in self.lower.chain() + [self.base]:
                raise TowerMismatch(f"element of {x.tower!r} is not in {self!r}")
            return TowerElem(self, self._embed(x.v))
        if self.characteristic:
            return TowerElem(self, (self.base._flat(x),) + self._zero[1:])
        x = self.base.coerce(x)  # a Fraction, in lowest terms
        return TowerElem(self, (x.numerator,) + self._zero[1:-1] + (x.denominator,))

    from_int = coerce

    def exact_div(self, a, b):
        return a / b

    def sort_key(self, x):
        """The base coordinates: residues over F_p, `Fraction`s over Q."""
        v = self.coerce(x).v
        return v if self.characteristic else tuple(self.base._view(v))

    # -- structure --------------------------------------------------------------

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

    def _mul(self, a, b) -> tuple:
        """Product of two coordinate tuples, reduced mod the minimal
        polynomial (see the module docstring).  Over Q, `_mul_z` multiplies
        the integer numerators through every level, and the result goes over
        the product of the denominators and `_scale`, in lowest terms.

        On a level of degree d >= 2 over F_p, with residues in [0, p) and a
        monic modulus m, a and b are packed as x = sum a_i 2^(wi) and
        y = sum b_i 2^(wi), where 2^w > 2d(p-1)^2 (`_slot`).  Slot k of x*y
        is the sum of a_i b_j over i + j = k: at most d terms, each at most
        (p-1)^2, so below 2^w, and no slot carries into the next; the slots
        are the coefficients of the product polynomial.  Its d-1 high slots
        mod p give c_k in [0, p) for k = d .. 2d-2, and `_rows[k-d]` is
        x^k mod m packed with residues in [0, p).  Adding every c_k times
        its row adds at most (d-1)(p-1)^2 to a low slot, which then holds at
        most (2d-1)(p-1)^2 < 2d(p-1)^2 < 2^w, again without a carry, and
        whose residue mod p is that coefficient of a*b mod m.  From d = 3
        with slots of one byte, tuples are packed and read as bytes and the
        residues come from a 256-entry table; otherwise by shifts and masks.
        At d = 1 the product is one residue product."""
        d = self.level_degree
        if p := self.characteristic:
            if isinstance(self.lower, Tower):
                return tuple(self._mul_z(a, b))
            if d == 1:
                return (a[0] * b[0] % p,)
            if residues := self._residues:  # a byte a slot
                z = int.from_bytes(bytes(a), "little") * int.from_bytes(bytes(b), "little")
                z = z.to_bytes(2 * d - 1, "little")
                high = z[d:].translate(residues)  # c_k, k = d .. 2d-2
                lo = int.from_bytes(z[:d], "little") + sum(map(operator.mul, high, self._rows))
                return tuple(lo.to_bytes(d, "little").translate(residues))
            w, x, y = self._slot, 0, 0
            for u, v in zip(reversed(a), reversed(b)):
                x, y = x << w | u, y << w | v
            z, mask, n = x * y, (1 << w) - 1, d * w
            lo, z = z & (1 << n) - 1, z >> n
            for row in self._rows:  # slot k of z times x^k mod m, k = d .. 2d-2
                if c := (z & mask) % p:
                    lo += c * row
                z >>= w
            out = []
            for _ in range(d):
                out.append((lo & mask) % p)
                lo >>= w
            return tuple(out)
        return kernel(self._mul_z(a[:-1], b[:-1]), self._scale * a[-1] * b[-1])

    def _mul_z(self, a, b) -> list:
        """a*b*`_scale` on integer coordinate lists.  On the bottom level over
        Q, s*r = q*m + rem for the integer modulus m of leading coefficient
        D, s | D^(d-1), and the result is rem * D^(d-1)/s.  A level above
        convolves slices with the lower `_mul_z`, of scale S, then reduces by
        t^d + sum M_j t^j / D (integer slices M_j): the products c*M_j of a
        top coefficient c have scale S*S*D, so the coefficients below c are
        first multiplied by the step S*D (deferred while c is zero); the
        scale ends at S^d D^(d-1).  Over F_p (`_scale` = 1) the lower products
        are `_mul` on residues, so sums are reduced mod p before them and at
        the end."""
        d, m, lower = self.level_degree, self._m, self.lower
        if not isinstance(lower, Tower):  # over Q; a bottom level over F_p runs `_mul`
            r, s = _mul_int(a, b), 1
            if len(r) > d:  # s * r = q * m + remainder
                _, r, s = _pseudo_divmod(r, self._modulus)
            if s != self._scale:
                r = [c * (self._scale // s) for c in r]
            return r + [0] * (d - len(r))
        p, step = self.characteristic, self._step
        mul = lower._mul if p else lower._mul_z
        b_terms = [(j, y) for j in range(d) if any(y := b[j * m : j * m + m])]
        out = [[0] * m] * (2 * d - 1)  # every slot is replaced, never changed in place
        for i in range(d):
            if any(x := a[i * m : i * m + m]):
                for j, y in b_terms:
                    out[i + j] = list(map(operator.add, out[i + j], mul(x, y)))
        deferred = 1
        for k in range(2 * d - 2, d - 1, -1):
            if not any(c := [x % p for x in out[k]] if p else out[k]):
                deferred *= step
                continue
            if step != 1:
                out[:k] = [[x * step for x in v] for v in out[:k]]
            for j, mj in self._modulus:
                out[k - d + j] = list(map(operator.sub, out[k - d + j], mul(c, mj)))
        if p:
            return [x % p for v in out[:d] for x in v]
        return [x * deferred for v in out[:d] for x in v]

    def _pow(self, v, e: int) -> tuple:
        """v^e for e >= 0 on coordinate tuples."""
        return _power(v, e, self._mul, self._one)

    def _inv(self, v) -> tuple:
        """The inverse of a nonzero coordinate tuple.  In a one-level field
        over Q, by a primitive extended PRS on integer lists: pseudo-division
        from the integer modulus and the numerators a of the element
        (x = a/den), tracking only the cofactor u of a in u*a = r (mod m),
        each (r, u) divided by its joint content, until r is a constant c;
        then x^-1 = u*den/c, in kernel form.  On a bottom level over F_p, by
        `_xgcd_mod` on the residues.  Elsewhere, the cofactor's coordinates
        from `gcd_ext` over the lower level mod the minimal polynomial,
        which inverts lower elements the same way; an element of the lower
        level is inverted there and padded.  A zero remainder before a
        constant is a zero divisor: NotIrreducible."""
        if isinstance(self.lower, Tower) or self.characteristic:
            if not any(v[(m := self._m) : self._n]):  # over Q, v[n] is the denominator
                return self._embed(self.lower._inv(v[:m] + v[self._n :]))
            if isinstance(self.lower, Tower):
                d, a, _ = gcd_ext(Poly(self.lower, self.lower._view(v)), self.minpoly)
                d, u = d.coeffs, self.lower._concat((a % self.minpoly).coeffs)
            else:  # d and u as residue lists
                d, u = _xgcd_mod(_trim(list(v)), self._modulus, self.characteristic)
            if len(d) != 1:
                raise NotIrreducible("minpoly is not irreducible: found a zero divisor")
            return self._embed(tuple(u))
        den = v[-1]
        r0, r1, u0, u1 = self._modulus, _trim(list(v[:-1])), [], [1]
        while len(r1) > 1:
            q, r, s = _pseudo_divmod(r0, r1)  # s*r0 = q*r1 + r
            if not r:
                raise NotIrreducible("minpoly is not irreducible: found a zero divisor")
            qu = _mul_int(q, u1)
            u = _trim([s * x - y for x, y in itertools.zip_longest(u0, qu, fillvalue=0)])
            g = math.gcd(*r, *u)
            r0, r1, u0, u1 = r1, [c // g for c in r], u1, [c // g for c in u]
        return self._embed(kernel([c * den * r1[0] for c in u1], r1[0] ** 2))  # u*den*c / c^2

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

    # -- coordinates ------------------------------------------------------------

    def flatten(self, x) -> list:
        """Coordinates of x in the power-product basis over the base field."""
        return self.base._view(self.coerce(x).v)

    def unflatten(self, vec) -> TowerElem:
        return TowerElem(self, self.base._concat(vec))

    def _embed(self, v) -> tuple:
        """The kernel tuple v of a lower level's (or the base's) element, padded."""
        k = len(v) - (not self.characteristic)  # the coordinates, without a denominator
        return v[:k] + self._zero[k : self._n] + v[k:]

    def _view(self, coords) -> list:
        """The elements whose concatenated coordinates are `coords` (over Q, then one denominator)."""
        n = self._n
        if self.characteristic:
            return [TowerElem(self, coords[i : i + n]) for i in range(0, len(coords), n)]
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

    def try_lower_to_base(self, f: Poly):
        """Rewrite a polynomial over this tower as one over the base field,
        or return None if some coefficient is not a base scalar."""
        out = []
        for c in f.coeffs:
            v = self.coerce(c).v
            if any(v[1 : self._n]):
                return None
            out.append(self.base._view(v[:1] + v[self._n :])[0])  # over Q, with its denominator
        return Poly(self.base, out)

    # -- minimal polynomials & primitive elements -------------------------------

    def _power_echelon(self, x):
        """(the combination of x^d in 1, x, ..., x^(d-1), the Echelon of
        those powers, the powers), all kernel tuples: powers are added until
        the first one, x^d, that depends on those before it; d = deg of x."""
        x = self.coerce(x).v
        echelon = Echelon(self._n, self.characteristic)
        power, powers = self._one, []
        while (comb := echelon.add(power)) is None:
            powers.append(power)
            power = self._mul(power, x)
        return comb, echelon, powers

    def min_poly_over_base(self, x) -> Poly:
        """Monic minimal polynomial of x over the base field."""
        return relation_poly(self.base, self._power_echelon(x)[0])

    def primitive_element(self):
        """A single generator gamma with base(gamma) = the whole tower,
        certified by deg(minpoly(gamma)) = [tower : base]; cached with the
        maps to and from `primitive_field`."""
        if self._primitive is not None:
            return self._primitive
        gens = self.generators()
        for bound in range(1, PRIMITIVE_SEARCH_BOUND + 1):
            for rest in itertools.product(_shift_order(bound), repeat=len(gens) - 1):
                if max((abs(c) for c in rest), default=0) != bound and bound > 1:
                    continue
                gamma = gens[0]
                for c, g in zip(rest, gens[1:]):
                    if c:
                        gamma = gamma + g * self.from_int(c)
                comb, echelon, powers = self._power_echelon(gamma)
                if len(powers) == self._n:
                    # deg mp = [tower : base] proves mp irreducible
                    mp = relation_poly(self.base, comb)
                    self._primitive_field = Tower(self.base, mp, "y", certify=False)
                    self._primitive_echelon = echelon
                    self._primitive_matrix = matrix(powers, self.characteristic)
                    self._primitive = (gamma, mp)
                    return self._primitive
        raise SearchExhausted("no primitive element found within coefficient bound")

    def primitive_field(self) -> "Tower":
        """The one-level field base[y]/(m_gamma), isomorphic to this tower by
        y -> gamma; cached.  `to_primitive` maps into it and `from_primitive`
        maps back."""
        self.primitive_element()
        return self._primitive_field

    def to_primitive(self, x) -> TowerElem:
        """x in `primitive_field`: its kernel tuple is x's combination of the
        powers 1, gamma, ..., gamma^(n-1), read off their echelon."""
        K = self.primitive_field()
        return TowerElem(K, self._primitive_echelon.add(self.coerce(x).v))

    def from_primitive(self, y) -> TowerElem:
        """The inverse of `to_primitive`: the element y of `primitive_field`
        evaluated at gamma, the matrix whose columns are the kernel tuples of
        1, gamma, ..., gamma^(n-1) times y's tuple (n^2 integer products)."""
        self.primitive_element()
        return TowerElem(self, mat_mul_vec(self._primitive_matrix, y.v, self.characteristic))

    # -- presentation ---------------------------------------------------------

    def element_str(self, x) -> str:
        v, lower = self.coerce(x).v, self.lower
        if isinstance(lower, Tower):
            return _sum_str(lower._view(v), lower.element_str, self.label, False)
        return _sum_str(v if self.characteristic else lower._view(v), str, self.label, False)

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


def relation_poly(base, comb) -> Poly:
    """t^d - sum of c_i t^i over the base, for the kernel tuple comb of the
    c_i: the minimal polynomial of an x with x^d = sum of c_i x^i."""
    return Poly(base, [-c for c in base._view(comb)] + [base.one()])


def level_label(k: int) -> str:
    """The label of tower level k (from 0): "a" ... "l", then "g12", "g13", ..."""
    return "abcdefghijkl"[k] if k < 12 else f"g{k}"


def adjoin_root(field, minpoly: Poly, label: str, certify: bool = True):
    """Adjoin a root of a monic irreducible polynomial to a base field or
    tower; returns (new_tower, root)."""
    ext = Tower(field, minpoly, label, certify=certify)
    return ext, ext.generator()
