"""Dense univariate polynomials over an exact field (or exact domain).

A polynomial is a coefficient tuple, index i holding the coefficient of t^i,
with the invariant that the last entry is nonzero; the zero polynomial has an
empty tuple and degree NEG_INFINITY (a real sentinel object, not a magic
integer).  The coefficient domain is carried explicitly as a field object
(QQ, PrimeField(p) or a Tower), so the same class serves every level of the
engine.

Every operation has one implementation over every field: `*`, `divmod`,
`%`, `gcd_ext` and `poly_gcd` compute through the coefficient field's own
element operators, the division algorithm and Euclid's loop of von zur
Gathen & Gerhard, *Modern Computer Algebra*, ch. 2-3.

Below `Poly` sit the int-list kernels, which take and return plain int
coefficient lists (low to high) and never a `Poly`.  `factor` (its F_p
polynomial rings, Zassenhaus, Hensel lifting and Trager's norm), `tower`,
`apps` and the parser call them directly and wrap only their results:

* mod m (F_p, and Z/m for Hensel lifting): residues packed into one
  integer each, in w-bit slots (`_pack`, `_unpack`, Kronecker
  substitution, ch. 8): a product is one integer product (`_mul_mod`),
  and a division reads the top slot and adds a multiple of the packed
  divisor per quotient digit (`_divide_packed`, behind `_rem_mod` and
  `_divmod_mod`), with w wide enough that no slot carries; a chain of
  products mod one modulus divides each packed product directly
  (`_mulrem_mod`), and Euclid runs on residues in `_gcd_mod`, each divisor
  packed once, and `_xgcd_mod`;
* over Z: the unreduced product `_mul_int`, the fraction-free
  pseudo-division `_pseudo_divmod` and the signed remainder sequence
  `_sturm_ints`; `_numerators` reads rational coefficients as int
  numerators over one common denominator.

Division, gcd and friends require the domain to be a field; ring-only
operations (+ - *, evaluation, resultants via the subresultant PRS) work over
any exact integral domain with exact division.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd as _int_gcd

from .errors import DivisionByZeroPoly, InternalInvariant, ZeroPolynomial
from .numbers import QQ


class _NegInfinity:
    """Degree of the zero polynomial: less than every int, absorbing under +."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return not isinstance(other, _NegInfinity)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _NegInfinity)

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "-oo"


NEG_INFINITY = _NegInfinity()


class Poly:
    __slots__ = ("dom", "coeffs")

    def __init__(self, dom, coeffs, normalize=True):
        if normalize:
            coeffs = [dom.coerce(c) for c in coeffs]
            while coeffs and not coeffs[-1]:
                coeffs.pop()
        self.dom = dom
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, dom):
        return cls(dom, [], normalize=False)

    @classmethod
    def one(cls, dom):
        return cls(dom, [dom.one()], normalize=False)

    @classmethod
    def t(cls, dom):
        return cls(dom, [dom.zero(), dom.one()], normalize=False)

    @classmethod
    def constant(cls, dom, c):
        return cls(dom, [c])

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.dom.one()

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.dom.zero()

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.dom == other.dom and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dom, self.coeffs))

    # -- ring arithmetic ----------------------------------------------------

    def _coerce_operand(self, other):
        if isinstance(other, Poly):
            if other.dom != self.dom:
                raise ValueError("polynomials over different domains")
            return other
        return Poly(self.dom, [self.dom.coerce(other)])

    def __add__(self, other):
        other = self._coerce_operand(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.dom, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.dom, [-c for c in self.coeffs], normalize=False)

    def __sub__(self, other):
        return self + (-self._coerce_operand(other))

    def __rsub__(self, other):
        return self._coerce_operand(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        other = self._coerce_operand(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.dom)
        zero = self.dom.zero()
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return Poly(self.dom, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        return _power(self, n, Poly.__mul__, Poly.one(self.dom))

    def scale(self, c):
        c = self.dom.coerce(c)
        return Poly(self.dom, [c * a for a in self.coeffs])

    # -- division (field coefficients) --------------------------------------

    def __divmod__(self, other):
        other = self._coerce_operand(other)
        if other.is_zero():
            raise DivisionByZeroPoly("polynomial division by zero")
        dom = self.dom
        r = list(self.coeffs)
        dg = len(other.coeffs) - 1
        if len(r) - 1 < dg:
            return Poly.zero(dom), self
        # a monic divisor (every tower reduction) needs no inverse of lc
        inv_lc = None if other.lc() == dom.one() else dom.one() / other.lc()
        q = [dom.zero()] * (len(r) - dg)
        for i in range(len(r) - 1, dg - 1, -1):
            if not r[i]:
                continue
            c = r[i] if inv_lc is None else r[i] * inv_lc
            q[i - dg] = c
            for j, g in enumerate(other.coeffs):
                r[i - dg + j] = r[i - dg + j] - c * g
        return Poly(dom, q), Poly(dom, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def monic(self):
        if self.is_zero() or self.is_monic():
            return self
        inv = self.dom.one() / self.lc()
        return self.scale(inv)

    # -- calculus-flavoured operations ---------------------------------------

    def derivative(self) -> "Poly":
        dom = self.dom
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(dom.from_int(i) * self.coeffs[i])
        return Poly(dom, out)

    def eval(self, a):
        """Evaluate by Horner; `a` may live in an extension of the domain."""
        if not self.coeffs:
            return a - a
        acc = self.coeffs[-1] + (a - a)
        for c in reversed(self.coeffs[:-1]):
            acc = acc * a + c
        return acc

    def shift(self, c) -> "Poly":
        """Substitute t = u + c, returning f(u + c) as a polynomial in u."""
        dom = self.dom
        c = dom.coerce(c)
        out = Poly.zero(dom)
        u_plus_c = Poly(dom, [c, dom.one()])
        for coeff in reversed(self.coeffs):
            out = out * u_plus_c + Poly.constant(dom, coeff)
        return out

    def map_domain(self, dom, convert):
        """Apply the coefficientwise homomorphism `convert` into `dom`."""
        return Poly(dom, [convert(c) for c in self.coeffs])

    # -- presentation ---------------------------------------------------------

    def sort_key(self):
        deg = -1 if self.is_zero() else len(self.coeffs) - 1
        return (deg, tuple(self.dom.sort_key(c) for c in reversed(self.coeffs)))

    def __repr__(self):
        return f"Poly({self.dom!r}, {render(self)!r})"

    def __str__(self):
        return render(self)


# -- int coefficient lists mod m ----------------------------------------------


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _power(x, e: int, mul, one):
    """x^e for e >= 0 by left-to-right square-and-multiply (Knuth, TAOCP 2,
    4.6.3): e.bit_length() - 1 squarings and popcount(e) - 1 products by x,
    none by `one` and no squaring after the last bit."""
    if not e:
        return one
    result = x
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


def _mul_int(a, b):
    """Product of int coefficient lists (low to high), unreduced."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            out[i : i + len(b)] = [o + x * y for o, y in zip(out[i : i + len(b)], b)]
    return out


def _pack(a, m, w):
    """sum (a_i mod m) 2^(wi): the coefficients of any sign, reduced into
    [0, m), in w-bit slots (Kronecker substitution).  Long lists are packed
    by halves, so no shift copies more than half the result."""
    if len(a) > 32:
        h = len(a) // 2
        return _pack(a[h:], m, w) << w * h | _pack(a[:h], m, w)
    x = 0
    for c in reversed(a):
        x = x << w | c % m
    return x


def _unpack(x, n, m, w):
    """Slots 0..n-1 of the packed x, each mod m, trimmed; long runs are
    split in halves as in `_pack`.  No slot may have carried into the next."""
    if n > 32:
        h = n // 2
        low = _unpack(x & ((1 << w * h) - 1), h, m, w)
        high = _unpack(x >> w * h, n - h, m, w)
        return low + [0] * (h - len(low)) + high if high else low
    mask, out = (1 << w) - 1, []
    for _ in range(n):
        out.append((x & mask) % m)
        x >>= w
    while out and not out[-1]:
        out.pop()
    return out


def _mul_mod(a, b, m):
    """Product of int coefficient lists mod m, trimmed: the operands are
    packed into w-bit slots, 2^w > N (m-1)^2 for N = min(len a, len b).
    Slot k of x*y, the sum of a_i b_j over i + j = k, has at most N terms
    of at most (m-1)^2, so it is below 2^w: no slot carries, and slot k
    mod m is coefficient k of a*b mod m."""
    if not a or not b:
        return []
    w = (min(len(a), len(b)) * (m - 1) ** 2).bit_length()
    x = _pack(a, m, w)
    return _unpack(x * (x if b is a else _pack(b, m, w)), len(a) + len(b) - 1, m, w)


def _divide_packed(x, n, b, y, m, w, quotient=None):
    """Schoolbook division mod m of a packed dividend x of n slots by the int
    list b, packed as y by `_pack`, lc(b) a unit mod m: x with the remainder
    in its low deg b slots, each slot congruent to its coefficient; the
    quotient digits in [0, m), high to low, are appended to the list
    `quotient` if given.  Step i reads the top slot v = slot i,
    c = v lc(b)^(-1) mod m, and adds (m - c) y 2^(w(i - deg b)), which makes
    slot i 0 mod m.  Slots only grow, slot j by at most (m-1)^2 at each of
    at most min(steps, len b) steps, so w with 2^w above that plus its start
    keeps them apart."""
    k = len(b) - 1
    inv = pow(b[-1], -1, m) if b[-1] % m != 1 else 1
    mask, wk = (1 << w) - 1, w * k
    for s in range(w * (n - 1), wk - 1, -w):  # s = w i
        c = (x >> s & mask) * inv % m
        if quotient is not None:
            quotient.append(c)
        if c:
            x += (m - c) * y << s - wk
    return x


def _rem_mod(a, b, m, quotient=None):
    """Remainder of int coefficient lists mod m, trimmed, for any signs;
    lc(b) a unit mod m, `quotient` as in `_divide_packed`.  Slots start below
    m, so 2^w > min(steps, len b) (m-1)^2 + m holds every sum."""
    k = len(b) - 1
    if len(a) <= k:
        return _trim([c % m for c in a])
    w = (min(len(a) - k, k + 1) * (m - 1) * (m - 1) + m).bit_length()
    return _unpack(_divide_packed(_pack(a, m, w), len(a), b, _pack(b, m, w), m, w, quotient), k, m, w)


def _divmod_mod(a, b, m):
    """(quotient, remainder) of int coefficient lists mod m, both trimmed."""
    q = []
    r = _rem_mod(a, b, m, q)
    return _trim(q[::-1]), r


def _mulrem_mod(b, p):
    """The step (u, v) -> u*v mod b of a chain of products mod b, for int
    lists u, v of length at most k = deg b, lc(b) a unit mod p: b is packed
    once, at a width w with 2^w > 2k (p-1)^2 + p.  The product's slots are
    below k (p-1)^2 and `_divide_packed` adds at most (p-1)^2 to a slot at
    each of at most k - 1 steps, so it divides the packed product directly
    and only the k remainder slots are unpacked."""
    k = len(b) - 1
    w = (2 * k * (p - 1) * (p - 1) + p).bit_length()
    y = _pack(b, p, w)

    def step(u, v):
        x = _pack(u, p, w)
        x *= x if v is u else _pack(v, p, w)
        return _unpack(_divide_packed(x, len(u) + len(v) - 1, b, y, p, w), k, p, w)

    return step


def _sub_mod(a, b, m):
    """a - b of int coefficient lists mod m, trimmed."""
    return _trim([(x - y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def _deriv_mod(a, m):
    """Formal derivative of an int coefficient list mod m, trimmed."""
    return _trim([i * c % m for i, c in enumerate(a)][1:])


def _monic_mod(a, p):
    """a scaled by the inverse of its leading coefficient mod a prime p."""
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd_mod(a, b, p):
    """Monic gcd of trimmed residue lists mod a prime p ([] iff both are).
    No divisor of the chain is longer than s, the shorter input, so one
    width w, 2^w > s (p-1)^2 + p as in `_rem_mod`, serves every division,
    and each divisor, packed once, is the next step's packed dividend."""
    if len(a) < len(b):
        a, b = b, a
    w = (len(b) * (p - 1) * (p - 1) + p).bit_length()
    x, n = _pack(a, p, w), len(a)
    while b:
        y = _pack(b, p, w)
        a, b = b, _unpack(_divide_packed(x, n, b, y, p, w), len(b) - 1, p, w)
        x, n = y, len(a)
    return _monic_mod(a, p)


def _xgcd_mod(a, b, p):
    """Extended gcd of trimmed residue lists mod a prime p, one cofactor:
    (d, s) with s*a = d (mod b), d monic ([] iff a = b = [], then s = [1]).
    `_cofactor_mod` gives the t of s*a + t*b = d when a caller needs it."""
    r0, r1, s0, s1 = a, b, [1], []
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
    if not r0 or r0[-1] == 1:
        return r0, s0
    inv = pow(r0[-1], -1, p)
    return [c * inv % p for c in r0], [c * inv % p for c in s0]


def _cofactor_mod(d, s, a, b, p):
    """t = (d - s*a)/b mod p ([] if b is), for (d, s) = `_xgcd_mod(a, b, p)`."""
    t, rem = _divmod_mod(_sub_mod(d, _mul_mod(s, a, p), p), b, p) if b else ([], [])
    if rem:
        raise InternalInvariant(f"d - s*a is not a multiple of b mod {p}")
    return t


def _pseudo_divmod(a, b, exact=False):
    """Fraction-free division of int coefficient lists: (q, r, s) with
    s*a = q*b + r and deg r < deg b (q = [] and s = 1 when deg a < deg b).
    A step whose leading coefficient lc(b) does not divide first scales the
    remainder and the quotient so far by the missing factor of lc(b), so
    s = 1 while every step divides (always when lc(b) = 1).  With `exact`,
    such a step returns None instead: trial division over Z."""
    dg = len(b) - 1
    lead = b[-1]
    r = list(a)
    q = [0] * (len(a) - dg)
    s = 1
    for i in range(len(a) - 1, dg - 1, -1):
        c = r[i]
        if not c:
            continue
        if c % lead:
            if exact:
                return None
            m = abs(lead) // _int_gcd(c, lead)
            s *= m
            c *= m
            r[:i] = [x * m for x in r[:i]]
            q[i - dg + 1 :] = [x * m for x in q[i - dg + 1 :]]
        c //= lead
        q[i - dg] = c
        r[i - dg : i] = [x - c * y for x, y in zip(r[i - dg : i], b)]
    return q, _trim(r[:dg]), s


def _positive_primitive(a):
    """A nonzero int list divided by its content, taken positive, so that
    every value keeps its sign."""
    g = 0
    for c in a:
        g = _int_gcd(g, c)
    return a if g == 1 else [c // g for c in a]


def _sturm_ints(a):
    """The signed remainder sequence of (a, a') on int lists, for a trimmed
    int list a: a, a', then -prem(a_(i-1), a_i) while it is nonzero, each
    divided by its positive content.  `_pseudo_divmod` scales by a positive
    integer, so every element is a positive multiple of the signed remainder
    sequence over Q and has its signs everywhere.  No squarefree part is
    taken: the last element is gcd(a, a') up to a nonzero factor."""
    seq = [a, _positive_primitive([i * c for i, c in enumerate(a)][1:])] if len(a) > 1 else [a]
    while len(seq[-1]) > 1:
        r = _pseudo_divmod(seq[-2], seq[-1])[1]
        if not r:
            break
        seq.append(_positive_primitive([-c for c in r]))
    return seq


def _numerators(coeffs):
    """(int numerators, common denominator) of rational coefficients."""
    den = 1
    for c in coeffs:
        if den % c.denominator:
            den = den // _int_gcd(den, c.denominator) * c.denominator
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _from_residues(dom, ints):
    return Poly(dom, dom._view(ints), normalize=False)


def gcd_ext(f: Poly, g: Poly):
    """Extended gcd over a field: returns (d, a, b) with d = a*f + b*g,
    d the monic generator of <f, g> (zero iff f = g = 0); g may be a scalar."""
    dom = f.dom
    r0, r1 = f, f._coerce_operand(g)
    a0, a1 = Poly.one(dom), Poly.zero(dom)
    b0, b1 = Poly.zero(dom), Poly.one(dom)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        a0, a1 = a1, a0 - q * a1
        b0, b1 = b1, b0 - q * b1
    if r0.is_zero():
        return r0, a0, b0
    inv = dom.one() / r0.lc()
    return r0.scale(inv), a0.scale(inv), b0.scale(inv)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over a field (zero iff both inputs are zero); g may be a
    scalar."""
    g = f._coerce_operand(g)
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def squarefree_part(f: Poly) -> Poly:
    """The monic product of the distinct irreducible factors of f: g divided
    by gcd(g, g') for the monic g = f / lc(f) in characteristic 0.  In
    characteristic p that misses the factors whose multiplicity p divides,
    and the finite-field kernel's squarefree part runs instead."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    g = f.monic()
    if g.degree <= 0:
        return Poly.one(g.dom)
    if g.dom.characteristic:
        from .factor import _polys, _squarefree_part

        R = _polys(g.dom)
        return R.wrap(_squarefree_part(R, R.read(g)))
    return g.exact_div(poly_gcd(g, g.derivative()))


def content_primitive(f: Poly):
    """Split a nonzero rational polynomial as f = alpha * F with F a primitive
    integer polynomial whose leading coefficient is positive.

    Returns (alpha, F) with alpha a Fraction and F a low-to-high int list.
    """
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    if f.dom != QQ:
        raise TypeError("content_primitive is defined over QQ")
    ints, den = _numerators(f.coeffs)
    g = 0
    for c in ints:
        g = _int_gcd(g, c)
    if ints[-1] < 0:
        g = -g
    prim = [c // g for c in ints]
    return Fraction(g, den), prim


# -- resultants ---------------------------------------------------------------


def _shift_up(f: Poly, k: int) -> Poly:
    if f.is_zero() or k == 0:
        return f
    zero = f.dom.zero()
    return Poly(f.dom, [zero] * k + list(f.coeffs), normalize=False)


def _pseudo_rem(f: Poly, g: Poly) -> Poly:
    """Pseudo-remainder: remainder of lc(g)^(deg f - deg g + 1) * f by g,
    computed without any coefficient division (valid over a ring)."""
    lead = g.lc()
    dB = g.degree
    r = f
    scalings_left = f.degree - dB + 1
    while not r.is_zero() and r.degree >= dB:
        top = r.lc()
        shift = r.degree - dB
        r = r.scale(lead) - _shift_up(g, shift).scale(top)
        scalings_left -= 1
    if scalings_left > 0:
        r = r.scale(lead**scalings_left)
    return r


def resultant(f: Poly, g: Poly):
    """Resultant of two nonzero polynomials over an exact integral domain,
    via the subresultant polynomial remainder sequence (fraction-free).
    It equals the determinant of the Sylvester matrix."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("resultant of zero polynomial")
    dom = f.dom
    one = dom.one()
    sign = one
    A, B = f, g
    if A.degree < B.degree:
        if (A.degree % 2) and (B.degree % 2):
            sign = -sign
        A, B = B, A
    if B.degree == 0:
        return sign * B.lc() ** A.degree
    g_, h_ = one, one
    while True:
        dA, dB = A.degree, B.degree
        delta = dA - dB
        if (dA % 2) and (dB % 2):
            sign = -sign
        R = _pseudo_rem(A, B)
        A = B
        denom = g_ * h_**delta
        B = Poly(A.dom, [dom.exact_div(c, denom) for c in R.coeffs])
        g_ = A.lc()
        if delta == 0:
            pass  # h unchanged: h^(1-0) g^0 with previous h
        elif delta == 1:
            h_ = g_
        else:
            h_ = dom.exact_div(g_**delta, h_ ** (delta - 1))
        if B.is_zero():
            return dom.zero() if A.degree > 0 else sign * h_
        if B.degree == 0:
            dA = A.degree
            if dA == 0:
                return sign * B.lc()
            res = dom.exact_div(B.lc() ** dA, h_ ** (dA - 1))
            return sign * res


def discriminant(f: Poly):
    """(-1)^(n(n-1)/2) * Res(f, f') / lc(f) for nonconstant f over a field."""
    if f.degree < 1:
        raise ZeroPolynomial("discriminant needs a nonconstant polynomial")
    n = f.degree
    r = resultant(f, f.derivative())
    r = f.dom.exact_div(r, f.lc())
    if (n * (n - 1) // 2) % 2:
        r = -r
    return r


# -- text rendering -----------------------------------------------------------


def render(f: Poly, var: str = "t") -> str:
    """Canonical text form a_n*t^n + ... + a_0 with exact coefficients."""
    return _sum_str(f.coeffs, f.dom.element_str, var, True)


def _sum_str(coeffs, element_str, var, wrap_constant):
    """The sum of the nonzero c_i*var^i, highest power first ("0" if none).
    A coefficient whose text has a space is compound: it goes in
    parentheses, the constant term only when wrap_constant is set, and its
    sign stays inside; a simple negative coefficient is printed as "- "."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        cs = element_str(c)
        compound = " " in cs
        if compound and (i > 0 or wrap_constant):
            cs = f"({cs})"
        negative = cs.startswith("-") and not compound
        if negative:
            cs = cs[1:]
        if i == 0:
            term = cs
        else:
            tp = var if i == 1 else f"{var}^{i}"
            term = tp if cs == "1" else f"{cs}*{tp}"
        if not parts:
            parts.append(("-" if negative else "") + term)
        else:
            parts.append(("- " if negative else "+ ") + term)
    return " ".join(parts) if parts else "0"
