"""Irreducibility certificates and complete factorization.

Three coefficient worlds are covered:

* finite fields (F_p and its finite extensions): squarefree split, then
  distinct-degree splitting via gcd(f, t^(q^k) - t), then deterministic
  equal-degree splitting (trace witnesses b*t^j in characteristic 2, a lazy
  sweep of (u)^((q^d-1)/2) in odd characteristic), then multiplicities by
  division; Ben-Or's test decides irreducibility alone.  Each algorithm is
  written once, against a small polynomial ring picked by the coefficient
  field (`_polys`): `_FpPolys` computes on int residue lists bound to the
  residue kernel of `poly`, one per p (it reads the one residue `c.v[0]` of
  each F_p coefficient), `_TowerPolys` on `Poly` over a finite tower.  Only
  the irreducible factors are wrapped as `Poly`;
* the rationals: Zassenhaus — primitive + squarefree reduction (proved by
  a squarefree reduction mod some p <= MOD_P_SCAN_BOUND not dividing lc;
  only when no such p exists is f divided by gcd(f, f'), the end of its
  integer remainder sequence `poly._sturm_ints`), pick a good small prime
  by the factor count r that its distinct-degree split gives (sum of
  deg(g)/k): the scan stops at the first prime with r <= 4 and otherwise
  looks at 3 primes, or at 10 while the least r is above 8.  Then
  equal-degree split only that prime's pieces, Hensel lift to p^k > 2B for
  B = C(n-1, (n-1)//2) (isqrt(sum c_i^2) + 1), since a rebuilt lc(h)/lc(g) g
  (g a proper factor of h | f) has |coefficient j| <= C(deg g, j) M(h) <=
  C(n-1, j) ||f||_2, and recombine by subset search, where each subset
  first passes the constant-term test (the symmetric residue of lc(f) times
  the product of the factors' constant terms must divide lc(f) f(0)) before
  its product is formed.  Multiplicities come from exact division of the
  primitive input over Z.  The modular stage calls the residue functions
  directly (`poly._xgcd_mod` and `_cofactor_mod` for the Hensel cofactors):
  no Poly or F_p scalar is built between the primitive integer form and the
  printed factors;
* simple extensions of Q presented by a tower: Trager's norm method, pushing
  the problem down to Q through the norm, a resultant.  It runs in the
  primitive element's one-level field Q(gamma) = Q[y]/(m_gamma), not in the
  tower, on kernel tuples: the coefficients go in by `Tower.to_primitive`,
  and only the irreducible factors come back, by `from_primitive`.  The
  norm of g of degree d over a field of degree n is built from Q(gamma)'s
  integer modulus and g's tuples by power sums, with no resultant:
  n*(nd)^2 integer operations for a table of traces, then (nd)^2
  operations mod NORM_PRIME for each shift tried until one is proved
  squarefree, and one exact pass over Q for that shift.

`factor_over_extension(g)` is the one entry point for all three: it
dispatches on the coefficient field g.dom.

Certificates (`IrreducibilityCertificate`) record which rule decided
irreducibility so the verdict can be re-checked independently.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd as _int_gcd, isqrt, lcm

from .errors import (
    Budget,
    ConstantPolynomial,
    DegreeCap,
    InternalInvariant,
    NotPrime,
    SearchExhausted,
    ZeroPolynomial,
)
from .linalg import kernel
from .numbers import QQ, PrimeField, TowerElem, factor_integer, is_prime
from .poly import (
    Poly,
    _cofactor_mod,
    _deriv_mod,
    _divide_packed,
    _divmod_mod,
    _from_residues,
    _gcd_mod,
    _monic_mod,
    _mul_int,
    _mul_mod,
    _mulrem_mod,
    _numerators,
    _pack,
    _positive_primitive,
    _power,
    _pseudo_divmod,
    _rem_mod,
    _sturm_ints,
    _sub_mod,
    _trim,
    _unpack,
    _xgcd_mod,
    content_primitive,
    poly_gcd,
    squarefree_part,
)

FACTOR_DEGREE_CAP = 12
NORM_DEGREE_CAP = 64
NORM_SHIFT_TRIES = 40
EISENSTEIN_SHIFT_BOUND = 5
MOD_P_SCAN_BOUND = 31
RATIONAL_ROOT_BOUND = 10**6  # candidate pairs (u, v) times (degree + 1)
NORM_PRIME = 2**61 - 1

IRREDUCIBLE = "irreducible"
REDUCIBLE = "reducible"


class Factorization:
    """unit * prod(factor^mult) = the factored polynomial; factors are monic
    irreducible and canonically sorted.  Immutable and hashable."""

    __slots__ = ("unit", "factors")

    def __init__(self, unit, factors: tuple):  # factors: of (Poly, int)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("Factorization is immutable")

    def __eq__(self, other):
        if not isinstance(other, Factorization):
            return NotImplemented
        return (self.unit, self.factors) == (other.unit, other.factors)

    def __hash__(self):
        return hash((self.unit, self.factors))

    def expand(self, dom) -> Poly:
        out = Poly.constant(dom, self.unit)
        for f, m in self.factors:
            out = out * f**m
        return out

    def is_irreducible(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1

    def to_json(self):
        return {
            "unit": str(self.unit),
            "factors": [{"poly": str(f), "multiplicity": m} for f, m in self.factors],
        }


def _multiplicities(work, irreducibles, divide, one, wrap):
    """Canonically sorted (wrap(g), multiplicity) pairs: each irreducible g
    is divided out of `work` as often as it goes, and `one` must be left.
    `divide(a, g)` gives (quotient, remainder, ...), or None where an exact
    division over Z fails."""
    pairs = []
    for g in irreducibles:
        mult = 0
        while True:
            div = divide(work, g)
            if div is None or div[1]:
                break
            work = div[0]
            mult += 1
        if mult == 0:
            raise InternalInvariant("squarefree factor does not divide input")
        pairs.append((wrap(g), mult))
    if work != one:
        raise InternalInvariant("factorization did not exhaust input")
    return tuple(sorted(pairs, key=lambda fm: fm[0].sort_key()))


class IrreducibilityCertificate:
    __slots__ = ("verdict", "witness_kind", "witness_data")

    def __init__(self, verdict: str, witness_kind: str, witness_data: dict):
        self.verdict = verdict
        self.witness_kind = witness_kind
        self.witness_data = witness_data

    @property
    def irreducible(self) -> bool:
        return self.verdict == IRREDUCIBLE

    def to_json(self):
        data = {}
        for k, v in self.witness_data.items():
            if isinstance(v, Factorization):
                data[k] = v.to_json()
            elif isinstance(v, Fraction):
                data[k] = str(v)
            else:
                data[k] = v
        return {
            "verdict": self.verdict,
            "witness_kind": self.witness_kind,
            "witness_data": data,
        }


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------


def field_order(dom) -> int:
    """p^n for a finite field of degree n over F_p (0 over Q)."""
    return dom.characteristic ** dom.absolute_degree()


class _FpPolys:
    """F_p[t] on trimmed int residue lists (low to high), with the residue
    kernel of `poly` bound to p.  `_TowerPolys` has the same attributes."""

    def __init__(self, p):
        self.p = self.q = p
        self.n, self.dom, self.one, self.t = 1, PrimeField(p), [1], [0, 1]
        self.mul = lambda a, b: _mul_mod(a, b, p)
        self.rem = lambda a, b: _rem_mod(a, b, p)
        self.mulrem = lambda m: _mulrem_mod(m, p)
        self.divmod = lambda a, b: _divmod_mod(a, b, p)
        self.sub = lambda a, b: _sub_mod(a, b, p)
        self.gcd = lambda a, b: _gcd_mod(a, b, p)
        self.deriv = lambda a: _deriv_mod(a, p)
        self.monic = lambda a: _monic_mod(a, p)

    deg = staticmethod(lambda a: len(a) - 1)
    read = staticmethod(lambda f: [c.v[0] for c in f.coeffs])
    elem, poly = staticmethod(operator.itemgetter(0)), staticmethod(list)

    def deflate(self, a):
        """h with a(t) = h(t^p) = h^p: every residue is its own p-th power."""
        return a[:: self.p]

    def wrap(self, a) -> Poly:
        return _from_residues(self.dom, a)


class _TowerPolys:
    """Polynomials over a finite tower as `Poly`, with the attributes of
    `_FpPolys`: q = p^n for the tower's absolute degree n."""

    def __init__(self, dom):
        self.dom, self.p, self.n = dom, dom.characteristic, dom.absolute_degree()
        self.q, self.one, self.t = self.p**self.n, Poly.one(dom), Poly.t(dom)

    mul, rem, divmod, sub = operator.mul, operator.mod, divmod, operator.sub
    mulrem = staticmethod(lambda m: lambda u, v: u * v % m)
    gcd, deriv, monic = staticmethod(poly_gcd), staticmethod(Poly.derivative), staticmethod(Poly.monic)
    deg = staticmethod(lambda a: a.degree)
    read = wrap = staticmethod(lambda f: f)

    def deflate(self, a):
        """h with a(t) = h(t^p) = h^p, h taking the p-th root c^(q/p) of
        every coefficient c."""
        return Poly(self.dom, [c ** (self.q // self.p) for c in a.coeffs[:: self.p]], normalize=False)

    def elem(self, coords):
        return self.dom.unflatten(coords)

    def poly(self, coeffs) -> Poly:
        return Poly(self.dom, coeffs, normalize=False)


@lru_cache(maxsize=None)  # one ring per prime
def _fp_polys(p):
    return _FpPolys(p)


def _polys(dom):
    """The polynomial ring over a finite field dom, in the form its kernel
    computes on: residue lists over F_p, `Poly` over a finite tower."""
    return _fp_polys(dom.p) if isinstance(dom, PrimeField) else _TowerPolys(dom)


def _powmod(R, b, e, m):
    """b^e mod m in R, every step one product-and-remainder (`R.mulrem`)."""
    return _power(R.rem(b, m), e, R.mulrem(m), R.one)


def _squarefree_part(R, g):
    """The product of the distinct monic irreducible factors of a monic g in
    R.  g / gcd(g, g') misses the factors whose multiplicity p divides, so
    gcd(g, g') is processed recursively; where g' vanishes, g = h(t^p) is
    the p-th power of `R.deflate(g)`."""
    d = R.gcd(g, R.deriv(g))
    if R.deg(d) == 0:
        return g
    if R.deg(d) == R.deg(g):
        return _squarefree_part(R, R.deflate(g))
    w = R.divmod(g, d)[0]  # factors of multiplicity not divisible by p
    rest = _squarefree_part(R, d)  # multiplicity >= 2 or divisible by p
    return R.mul(w, R.divmod(rest, R.gcd(rest, w))[0])


def roots_fp(f: Poly):
    """All roots in the coefficient field (F_p or a finite tower): -g(0) for
    each linear factor g of the squarefree part, from the degree-1 piece of
    the distinct-degree split; the field is never listed."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial has every root")
    R = _polys(f.dom)
    pieces = _ddf(R, _squarefree_part(R, R.monic(R.read(f))))
    return {-R.wrap(g).coeff(0) for prod, k in pieces if k == 1 for g in _edf(R, prod, 1)}


def _ddf(R, f):
    """Distinct-degree split of a monic f of degree >= 1 in R: yields the
    pairs (product of the irreducible factors of degree k, k), by
    gcd(f, t^(q^k) - t), with the powers t^(q^k) mod f built one at a time.
    The products are right for a squarefree f.  For any f the first pair is
    (f, deg f) exactly when f is irreducible (Ben-Or): a reducible f has an
    irreducible factor g of degree k <= n/2, and g divides t^(q^k) - t; an
    irreducible f shares no factor with t^(q^k) - t for k < n.  So `next`
    on the generator is Ben-Or's test, and it stops at the least degree of
    a factor of f."""
    h, k = R.t, 0
    while R.deg(f) > 0:
        k += 1
        if 2 * k > R.deg(f):
            yield f, R.deg(f)
            return
        h = _powmod(R, h, R.q, f)
        g = R.gcd(f, R.sub(h, R.t))
        if R.deg(g) > 0:
            yield g, k
            f = R.divmod(f, g)[0]
            h = R.rem(h, f)


def _witnesses(R, d, bound):
    """The equal-degree witnesses u, built from coordinates (the field is
    never listed).  Two distinct degree-d factors g1, g2 are told apart by
    some u of degree < 2d:
    * for q = 2^n, b * t^j for b in the power-product basis over F_2 and
      1 <= j <= 2d - 1: by CRT onto F_(q^d) x F_(q^d), on which
      Tr(x) + Tr(y) is a nonzero F_2-linear form that vanishes on constants;
    * for odd q, every monic polynomial of degree 1..bound (bound >= 2d - 1),
      canonical order, increasing degree: the u that is a non-square unit
      mod g1 and a square unit mod g2 is not constant.  With
      e = (q^d - 1)/2 and c = lc(u), c^e = chi(c)^d = +-1, so v = u/c has
      v^e = +-u^e mod g1 and g2 with one sign: v^e - 1 still vanishes mod
      exactly one of them."""
    zero, one = R.elem([0] * R.n), R.elem([1] + [0] * (R.n - 1))
    if R.p == 2:
        basis = [R.elem([int(i == k) for i in range(R.n)]) for k in range(R.n)]
        for j in range(1, 2 * d):
            for b in basis:
                yield R.poly([zero] * j + [b])
        return
    for deg in range(1, bound + 1):
        for low in itertools.product(range(R.p), repeat=deg * R.n):
            coeffs = [R.elem(low[i * R.n : (i + 1) * R.n]) for i in range(deg)]
            yield R.poly(coeffs + [one])


def _edf(R, f, d):
    """Complete split of a product f of distinct monic irreducibles of
    degree d in R; deterministic (fixed witness sweep), no randomness.  For
    q = 2^n a witness u splits g by gcd(g, Tr(u)), the trace to F_2 being
    u + u^2 + ... + u^(2^(dn - 1)); for odd q by gcd(g, u^((q^d - 1)/2) - 1)."""
    if R.deg(f) == d:
        return [f]
    witnesses = _witnesses(R, d, R.deg(f) - 1)
    e = (R.q**d - 1) // 2
    pieces, done = [f], []
    while pieces:
        u = next(witnesses, None)
        if u is None:  # mathematically unreachable
            raise InternalInvariant("equal-degree witness sweep exhausted")
        next_pieces = []
        for g in pieces:
            if R.p == 2:
                acc = term = R.rem(u, g)
                mulrem = R.mulrem(g)
                for _ in range(d * R.n - 1):
                    term = mulrem(term, term)
                    acc = R.sub(acc, term)  # + is - in characteristic 2
                h = R.gcd(g, acc)
            else:
                h = R.gcd(g, R.sub(_powmod(R, u, e, g), R.one))
            if 0 < R.deg(h) < R.deg(g):
                next_pieces += [h, R.divmod(g, h)[0]]
            else:
                next_pieces.append(g)
        pieces = [g for g in next_pieces if R.deg(g) > d]
        done.extend(g for g in next_pieces if R.deg(g) == d)
    return done


def factor_ff(f: Poly) -> Factorization:
    """Complete factorization over a finite field (F_p or a finite tower):
    squarefree part, both splits and the multiplicities in the field's ring
    (`_polys`), and only the irreducible factors are wrapped."""
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    unit = f.lc()
    if f.degree == 0:
        return Factorization(unit, ())
    R = _polys(f.dom)
    work = R.monic(R.read(f))
    irreducibles = [g for prod, d in _ddf(R, _squarefree_part(R, work)) for g in _edf(R, prod, d)]
    return Factorization(unit, _multiplicities(work, irreducibles, R.divmod, R.one, R.wrap))


def factor_fp(f: Poly, max_degree: int | None = None) -> Factorization:
    """Complete factorization over a prime field F_p; a degree above
    max_degree (None: no cap) raises DegreeCap before any work."""
    if not isinstance(f.dom, PrimeField):
        raise TypeError("factor_fp expects coefficients in a prime field")
    if max_degree is not None and f.degree > max_degree:
        raise DegreeCap(f"degree {f.degree} exceeds factor cap {max_degree}")
    return factor_ff(f)


def is_irreducible_ff(f: Poly) -> bool:
    """Ben-Or's deterministic test over a finite field (F_p or a finite
    tower): the first pair of the distinct-degree split (`_ddf`)."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial is neither reducible nor irreducible")
    if f.degree == 0:
        raise ConstantPolynomial("constants are neither reducible nor irreducible")
    R = _polys(f.dom)
    return next(_ddf(R, R.monic(R.read(f))))[1] == f.degree


# ---------------------------------------------------------------------------
# integer polynomial helpers (Zassenhaus internals)
# ---------------------------------------------------------------------------


def _z_add(a, b):
    return _trim([x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _z_mod(a, m):
    return _trim([c % m for c in a])


def _z_taylor_shift(a, c):
    """f(t + c) for an int coefficient list (low to high), by repeated
    synthetic division: n(n-1)/2 int multiply-adds."""
    a = list(a)
    if c:
        for i in range(len(a) - 1):
            for j in range(len(a) - 2, i - 1, -1):
                a[j] += c * a[j + 1]
    return a


def _z_sym(a, m):
    out = []
    half = m // 2
    for c in a:
        c %= m
        if c > half:
            c -= m
        out.append(c)
    return _trim(out)


def _hensel_step(m, f, g, h, s, t):
    """One quadratic Hensel step: from f = g h (mod m), s g + t h = 1 (mod m),
    h monic, to g1, h1 with f = g1 h1 (mod m^2), h1 monic: e = f - g h,
    s e = q h + r, g1 = g + t e + q g, h1 = h + r, on operands packed once.
    A packed sum is two products, or a product and the division by h, plus a
    residue; each term adds at most (mm-1)^2 times the length of one of g, h,
    s, t to a slot (`_divide_packed`), a different one each: none reaches 2^w."""
    mm = m * m
    w = ((len(g) + len(h) + len(s) + len(t)) * (mm - 1) * (mm - 1) + mm).bit_length()
    G, H = _pack(g, mm, w), _pack(h, mm, w)
    e = _sub_mod(f, _unpack(G * H, len(g) + len(h) - 1, mm, w), mm)
    E = _pack(e, mm, w)
    q = []
    x = _divide_packed(_pack(s, mm, w) * E, len(s) + len(e) - 1, h, H, mm, w, q)
    n = max(len(t) + len(e), len(q) + len(g))  # slots of t e + q g + g
    g1 = _unpack(_pack(t, mm, w) * E + _pack(q[::-1], mm, w) * G + G, n, mm, w)
    h1 = _unpack(H + (x & ((1 << w * (len(h) - 1)) - 1)), len(h), mm, w)
    return g1, h1


def _bezout_step(m, g1, h1, s, t):
    """Lift s g + t h = 1 (mod m) to s1 g1 + t1 h1 = 1 (mod m^2) for the g1, h1
    of the Hensel step from g, h: b = s g1 + t h1 - 1, s b = c h1 + d,
    s1 = s - d, t1 = t - t b - c g1, packed as in `_hensel_step`."""
    mm = m * m
    w = ((len(g1) + len(h1) + len(s) + len(t)) * (mm - 1) * (mm - 1) + mm).bit_length()
    S, T, G1, H1 = _pack(s, mm, w), _pack(t, mm, w), _pack(g1, mm, w), _pack(h1, mm, w)
    b = _unpack(S * G1 + T * H1 + mm - 1, max(len(s) + len(g1), len(t) + len(h1)), mm, w)
    B = _pack(b, mm, w)
    c = []
    x = _divide_packed(S * B, len(s) + len(b) - 1, h1, H1, mm, w, c)
    s1 = _sub_mod(s, _unpack(x, len(h1) - 1, mm, w), mm)
    n = max(len(t) + len(b), len(c) + len(g1))  # slots of t b + c g1
    t1 = _sub_mod(t, _unpack(T * B + _pack(c[::-1], mm, w) * G1, n, mm, w), mm)
    return s1, t1


def _hensel_lift_pair(p, k, f, g, h):
    """Lift f = g h (mod p) to mod p^k (h monic mod p); the Bezout cofactors
    are lifted for every step but the last."""
    d, s = _xgcd_mod(g, h, p)
    if d != [1]:
        raise InternalInvariant("Hensel pair is not coprime mod p")
    t = _cofactor_mod(d, s, g, h, p)
    m, pk = p, p**k
    while m < pk:
        g, h = _hensel_step(m, f, g, h, s, t)
        if m * m < pk:
            s, t = _bezout_step(m, g, h, s, t)
        m = m * m
    return _z_mod(g, pk), _z_mod(h, pk)


def _hensel_lift_list(p, k, f, factors):
    """Multifactor Hensel lift: monic factors of f mod p -> factors mod p^k.
    f primitive with p not dividing lc(f)."""
    pk = p**k
    r = len(factors)
    if r == 1:
        # lc(f) is invertible mod p, hence mod p^k
        lc_inv = pow(f[-1] % pk, -1, pk)
        return [_z_mod([c * lc_inv for c in f], pk)]
    mid = r // 2
    g0 = [f[-1] % p]
    for fac in factors[:mid]:
        g0 = _mul_mod(g0, fac, p)
    h0 = [1]
    for fac in factors[mid:]:
        h0 = _mul_mod(h0, fac, p)
    g, h = _hensel_lift_pair(p, k, f, g0, h0)
    return _hensel_lift_list(p, k, g, factors[:mid]) + _hensel_lift_list(
        p, k, h, factors[mid:]
    )


def _mignotte_bound(ints):
    """Bound on |coefficient| of every candidate lc(h)/lc(g) g rebuilt by
    recombination, for f = ints of degree n, h | f over Z and g | h proper.
    Coefficient j of g/lc(g) is a symmetric function of its deg g <= n-1
    roots, at most C(deg g, j) times the product of max(1, |root|); with
    |lc h| that is at most M(h) <= M(f) <= ||f||_2 (Landau)."""
    n = len(ints) - 1
    return comb(n - 1, (n - 1) // 2) * (isqrt(sum(c * c for c in ints)) + 1)


def _primes(start=2):
    """The primes >= start, in increasing order."""
    if start <= 2:
        yield 2
    n = max(3, start | 1)
    while True:
        if is_prime(n):
            yield n
        n += 2


def _squarefree_mod(a, p):
    """Whether a trimmed residue list is squarefree mod a prime p."""
    return len(_gcd_mod(a, _deriv_mod(a, p), p)) == 1


def _factor_sqfree_primitive_z(ints, start=None):
    """Irreducible integer factors (each primitive, positive lc) of a
    squarefree primitive integer polynomial of degree >= 1.  The prime search
    begins at `start` when given: a prime not dividing lc, with a squarefree
    reduction not tested again, where no smaller prime is both."""
    n = len(ints) - 1
    if n == 1:
        return [list(ints)]
    # choose a prime: smallest few with good reduction, fewest modular
    # factors, counted from the distinct-degree split alone as sum deg(g)/k
    best = None
    tried, skipped = 0, 1
    for p in _primes(start or 2):
        if ints[-1] % p == 0:
            continue
        fbar = [c % p for c in ints]
        if p != start and not _squarefree_mod(fbar, p):
            # p divides disc(f), and 0 < |disc(f)| <= n^n ||f||_2^(2n-2)
            # (Mahler) if f is squarefree
            skipped *= p
            if skipped > n**n * sum(c * c for c in ints) ** (n - 1):
                raise InternalInvariant("Zassenhaus input is not squarefree")
            continue
        R = _fp_polys(p)
        pieces = list(_ddf(R, R.monic(fbar)))
        count = sum((len(g) - 1) // k for g, k in pieces)
        if count == 1:
            return [list(ints)]  # irreducible mod p => irreducible over Q
        if best is None or count < best[1]:
            best = (p, count, pieces)
        tried += 1
        # Recombination may try about 2^(r-1) subsets of r modular factors,
        # where one more prime costs one distinct-degree split.  Up to r = 4
        # that is at most 10 subsets, cheaper than a split, so the scan stops;
        # past r = 8 the exponential term rules, so it looks at up to 10 primes
        # for a smaller r (the degree-24 norm of t^6 - 2 has 12 factors mod
        # 11, 17 and 23, but 4 mod 61); in between it looks at 3.
        if best[1] <= 4 or tried >= (10 if best[1] > 8 else 3):
            break
    p, _, pieces = best
    parts = [g for prod, k in pieces for g in _edf(_fp_polys(p), prod, k)]
    bound = _mignotte_bound(ints)
    k = 1
    while p**k <= 2 * bound:
        k += 1
    pk = p**k
    modular = _hensel_lift_list(p, k, list(ints), parts)
    modular.sort(key=lambda g: (len(g), g[::-1]))

    def try_combo(f_cur, combo):
        # The candidate for a true factor g is lc(f)/lc(g) * g, whose constant
        # term lc(h) g(0) (f = g h) divides lc(f) f(0) = lc(g) lc(h) g(0) h(0)
        # and is sym(lc(f) prod g_i(0) mod p^k): test it before any product.
        c0 = f_cur[-1]
        for i in combo:
            c0 = c0 * modular[i][0] % pk
        if c0 > pk // 2:
            c0 -= pk
        target = f_cur[-1] * f_cur[0]
        if target % c0 if c0 else target:
            return None
        cand = [f_cur[-1] % pk]
        for i in combo:
            cand = _mul_mod(cand, modular[i], pk)
        cand = _z_sym(cand, pk)
        g = 0
        for c in cand:
            g = _int_gcd(g, c)
        if g == 0 or len(cand) < 2:
            return None
        if cand[-1] < 0:
            g = -g
        cand = [c // g for c in cand]
        # a divisor's constant term divides f's (and is 0 only if f's is)
        if f_cur[0] % cand[0] if cand[0] else f_cur[0]:
            return None
        div = _pseudo_divmod(f_cur, cand, exact=True)
        return None if div is None or div[1] else (cand, div[0])

    found = []
    f_cur = list(ints)
    size = 1
    while modular and 2 * size <= len(modular):
        hit = None
        for combo in itertools.combinations(range(len(modular)), size):
            result = try_combo(f_cur, combo)
            if result is not None:
                hit = (combo, result)
                break
        if hit is None:
            size += 1
            continue
        combo, (cand, quo_ints) = hit
        found.append(cand)
        f_cur = quo_ints
        used = set(combo)
        modular = [m_ for i, m_ in enumerate(modular) if i not in used]
    if len(f_cur) > 1:
        found.append(f_cur)
    return found


def factor_q(f: Poly, max_degree: int = FACTOR_DEGREE_CAP) -> Factorization:
    """Complete factorization over Q (Zassenhaus), exact reconstruction."""
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.dom != QQ:
        raise TypeError("factor_q expects rational coefficients")
    if f.degree > max_degree:
        raise DegreeCap(f"degree {f.degree} exceeds factor cap {max_degree}")
    unit = f.lc()
    if f.degree == 0:
        return Factorization(unit, ())
    _, prim = content_primitive(f)
    # f is squarefree if it is mod some p not dividing lc(f): each factor g
    # keeps its degree mod p (lc(g) divides lc(f)), so a repeated factor g^2
    # would stay a repeated factor of degree >= 1.  Zassenhaus would skip the
    # primes before that p, so its search starts there, and takes p as good.
    small = itertools.takewhile(lambda p: p <= MOD_P_SCAN_BOUND, _primes())
    start = next((p for p in small if prim[-1] % p and _squarefree_mod(_z_mod(prim, p), p)), None)
    sqf = prim
    if start is None:
        # f / gcd(f, f'), with the gcd from the end of the remainder sequence
        g = _sturm_ints(prim)[-1]
        sqf = _pseudo_divmod(prim, g if g[-1] > 0 else [-c for c in g], exact=True)[0]
    raw = _factor_sqfree_primitive_z(sqf, start)
    # each g is primitive with lc > 0, so exact division over Z leaves [1]
    wrap = lambda g: Poly(QQ, g).monic()
    divide = lambda a, g: _pseudo_divmod(a, g, exact=True)
    return Factorization(unit, _multiplicities(prim, raw, divide, [1], wrap))


# ---------------------------------------------------------------------------
# irreducibility certificates over Q
# ---------------------------------------------------------------------------


def _shift_order(bound):
    yield 0
    for c in range(1, bound + 1):
        yield c
        yield -c


def eisenstein(f: Poly, shifts=None):
    """Search for an Eisenstein certificate (p, shift) for f over Q.

    After substituting t -> t + shift in the primitive integer form, some
    prime p must divide every non-leading coefficient, not the leading one,
    and not square-divide the constant term.  Returns None when the search
    finds nothing (which claims nothing about reducibility).
    """
    if f.degree < 1:
        raise ConstantPolynomial("Eisenstein needs degree >= 1")
    if shifts is None:
        shifts = list(_shift_order(EISENSTEIN_SHIFT_BOUND))
    _, prim = content_primitive(f)
    for c in shifts:
        ints = _z_taylor_shift(prim, c)
        g = 0
        for a in ints[:-1]:
            g = _int_gcd(g, a)
        if g <= 1:
            continue
        try:
            candidates = sorted(set(factor_integer(g)))
        except Budget:
            continue
        for p in candidates:
            if ints[-1] % p == 0:
                continue
            if ints[0] % (p * p) == 0:
                continue
            return p, c
    return None


def check_eisenstein(f: Poly, p: int, shift: int) -> bool:
    """Independent re-check of an Eisenstein witness."""
    _, prim = content_primitive(f)
    ints = _z_taylor_shift(prim, shift)
    if ints[-1] % p == 0:
        return False
    if any(a % p for a in ints[:-1]):
        return False
    return ints[0] % (p * p) != 0


def mod_p_certificate(f: Poly, prime_bound: int = MOD_P_SCAN_BOUND):
    """First prime p <= bound with p not dividing lc and irreducible
    reduction mod p; a sound irreducibility certificate over Q."""
    if f.degree < 1:
        raise ConstantPolynomial("mod-p method needs degree >= 1")
    _, prim = content_primitive(f)
    for p in _primes():
        if p > prime_bound:
            return None
        if prim[-1] % p == 0:
            continue
        R = _fp_polys(p)
        if next(_ddf(R, R.monic([c % p for c in prim])))[1] == f.degree:
            return p
    return None


def rational_roots(f: Poly):
    """All rational roots of a nonzero f over Q (ignoring multiplicity),
    by the rational root theorem on the primitive integer form a_0..a_n: a
    candidate u/v is a root iff v^n f(u/v) = sum a_i u^i v^(n-i) is 0,
    evaluated by Horner on ints; a Fraction is built only for a root.
    Raises Budget before the search when the pairs times (degree + 1)
    exceed RATIONAL_ROOT_BOUND."""
    from .numbers import divisors

    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    _, prim = content_primitive(f)
    prim = list(prim)
    roots = set()
    if prim[0] == 0:
        roots.add(Fraction(0))
        while prim and prim[0] == 0:
            prim.pop(0)
    if len(prim) <= 1:
        return roots
    n, us, vs = len(prim) - 1, divisors(abs(prim[0])), divisors(abs(prim[-1]))
    if len(us) * len(vs) * (n + 1) > RATIONAL_ROOT_BOUND:
        raise Budget(f"{len(us)} x {len(vs)} rational root candidates at degree {n}")
    for v in vs:
        scaled = [a * v ** (n - i) for i, a in enumerate(prim)]  # a_i v^(n-i)
        for u in us:
            if _int_gcd(u, v) != 1:
                continue
            for cand in (u, -u):
                acc = 0
                for c in reversed(scaled):
                    acc = acc * cand + c
                if not acc:
                    roots.add(Fraction(cand, v))
    return roots


def is_irreducible_q(f: Poly, max_degree: int = FACTOR_DEGREE_CAP) -> IrreducibilityCertificate:
    """Decide irreducibility over Q, recording which rule fired.

    Stage order: degree-1 rule; rational-root rule (conclusive for degrees
    2 and 3); Eisenstein with shifts; mod-p scan; full factorization.  Up
    to `max_degree` the factorization runs before the scan: a reducible
    primitive f is reducible mod every p not dividing lc(f) (Gauss), so the
    scan runs only for an irreducible f, to find a cheaper witness."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial is neither reducible nor irreducible")
    if f.degree == 0:
        raise ConstantPolynomial("constants are neither reducible nor irreducible")
    if f.degree == 1:
        return IrreducibilityCertificate(IRREDUCIBLE, "low_degree", {"degree": 1})
    try:
        roots = rational_roots(f)
    except Budget:
        roots = None
    if roots:
        r = min(roots)
        return IrreducibilityCertificate(REDUCIBLE, "rational_root", {"root": r})
    if roots is not None and f.degree <= 3:
        return IrreducibilityCertificate(
            IRREDUCIBLE, "low_degree", {"degree": f.degree}
        )
    eis = eisenstein(f)
    if eis is not None:
        p, c = eis
        return IrreducibilityCertificate(
            IRREDUCIBLE, "eisenstein", {"prime": p, "shift": c}
        )
    fact = factor_q(f, max_degree=max_degree) if f.degree <= max_degree else None
    if fact is None or fact.is_irreducible():
        p = mod_p_certificate(f)
        if p is not None:
            return IrreducibilityCertificate(IRREDUCIBLE, "mod_p", {"prime": p})
    if fact is None:
        fact = factor_q(f, max_degree=max_degree)
    verdict = IRREDUCIBLE if fact.is_irreducible() else REDUCIBLE
    return IrreducibilityCertificate(
        verdict, "full_factorization", {"factorization": fact}
    )


def cyclotomic_p(p: int) -> Poly:
    """The p-th cyclotomic polynomial 1 + t + ... + t^(p-1), p prime."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return Poly(QQ, [1] * p)


# ---------------------------------------------------------------------------
# factoring over a simple extension of Q (Trager's norm method)
# ---------------------------------------------------------------------------


_NORM_PRIMES = [NORM_PRIME]


def _norm_primes(den: int):
    """The primes below 2^61 that do not divide den, in decreasing order from
    NORM_PRIME = 2^61 - 1; found lazily by `is_prime` and cached."""
    for i in itertools.count():
        if i == len(_NORM_PRIMES):
            n = _NORM_PRIMES[-1] - 2
            while not is_prime(n):
                n -= 2
            _NORM_PRIMES.append(n)
        if den % _NORM_PRIMES[i]:
            yield _NORM_PRIMES[i]


def _trager_norm(m, reps, shifts):
    """(s, N_s) for the first s of `shifts` whose norm
    N_s = Res_y(mgamma, g(t - s*y)) is squarefree, N_s as a primitive int
    list with positive lc.  mgamma, monic of degree n, is given as K's
    integer modulus m (`Tower._modulus` of K = Q[y]/(mgamma): numerators
    over the last one, md), `reps` are the kernel tuples of the coefficients
    of a monic squarefree g of degree d over K, and nd = n*d.

    N_s is monic, with roots b + s*c for each root c of mgamma and each root
    b of g's conjugate at c, so its power sums are traces of those of g's
    roots (Bostan, Flajolet, Salvy & Schost, JSC 41 (2006)).  Coordinates are
    taken in y' = md*y, md the denominator of mgamma, whose minimal
    polynomial mu is monic over Z; cden is the denominator of g's
    coefficients there.  The roots are scaled by L = md*cden (by md alone
    when that keeps the table T integral) to L*b + (L/md)*s*y', with power
    sums P_r = sum_i C(r, i) ((L/md)*s)^i T[r-i][i], T[a][i] = L^a Tr(y'^i S_a).
    Newton's identities give the power sums S_a in K of g's roots, a <= nd
    (nd*d products in K, each S_a in lowest terms over Z[y']/(mu)), and
    Tr(y'^e), e < n + nd; T costs n*(nd)^2 integer operations.  Each shift
    then costs (nd)^2 operations mod p: the P_r, the scaled N_s by Newton's
    identities, and its gcd with its derivative.  p, the first of
    `_norm_primes`, divides neither md nor cden, so N_s mod p keeps its
    degree and would keep a repeated factor.  Only the accepted s gets N_s
    over Q, by the same identities."""
    n, d, md = len(m) - 1, len(reps) - 1, m[-1]
    nd = n * d
    mu = [c * md ** (n - 1 - k) for k, c in enumerate(m[:-1])] + [1]
    # cs: g's coefficients below t^d in y' (x/D at y^k is x/(D md^k) at y'^k), over cden
    fracs = [[(x, v[-1] * md**k) for k, x in enumerate(v[:-1])] for v in reps[:-1]]
    cden = lcm(*[D // _int_gcd(x, D) for f in fracs for x, D in f])
    cs = [_trim([x * cden // D for x, D in f]) for f in fracs]
    # Newton, for the roots of t^k + c_(k-1) t^(k-1) + ... + c_0:
    # P_a = -sum_(i = 1 .. min(a, k)) c_(k-i) (P_(a-i) if i < a else a)
    q = [n]  # Tr(y'^e)
    for e in range(1, n + nd):
        q.append(-sum(mu[n - i] * (q[e - i] if i < e else e) for i in range(1, min(e, n) + 1)))
    S = [([d], 1)]  # S_a = A_a / D_a, D_a | cden^a
    for a in range(1, nd + 1):
        terms = [(cs[d - i], S[a - i] if i < a else ([a], 1)) for i in range(1, min(a, d) + 1)]
        den = cden * lcm(*(D for _, (_, D) in terms))
        num = []
        for c, (A, D) in terms:
            num = _z_add(num, _mul_int(c, [x * (den // (cden * D)) for x in A]))
        if len(num) > n:
            num = _pseudo_divmod(num, mu)[1]
        g = _int_gcd(den, *num)
        S.append(([-x // g for x in num], den // g))
    T = [[sum(map(operator.mul, A, q[i:])) for i in range(nd + 1 - a)] for a, (A, _) in enumerate(S)]
    # L = md when that makes every L^a Tr(y'^i S_a) an integer: always, when
    # g's coefficients are algebraic integers
    L = md if all(x * md**a % D == 0 for a, (_, D) in enumerate(S) for x in T[a]) else md * cden
    T = [[x * L**a // D for x in row] for a, (row, (_, D)) in enumerate(zip(T, S))]
    V = [[comb(r, i) * T[r - i][i] for i in range(r + 1)] for r in range(1, nd + 1)]

    def scaled_norm(V, powers, div):  # L^nd N_s(u/L), c_k its u^(nd-k) coefficient
        P = [sum(map(operator.mul, row, powers)) for row in V]
        c = [1]  # k c_k = -sum_(i = 1 .. k) c_(k-i) P_i
        for k in range(1, nd + 1):
            c.append(div(-sum(map(operator.mul, reversed(c), P)), k))
        return c[::-1]

    p = next(_norm_primes(md * cden))
    V_p = [[x % p for x in row] for row in V]
    for s in shifts:
        powers = [pow(L // md * s, i, p) for i in range(nd + 1)]
        if _squarefree_mod(scaled_norm(V_p, powers, lambda x, k: x * pow(k, -1, p) % p), p):
            div = lambda x, k: x // k if x % k == 0 else Fraction(x, k)  # ints while they stay so
            c = scaled_norm(V, [(L // md * s) ** i for i in range(nd + 1)], div)
            return s, _positive_primitive(_numerators([x * L**j for j, x in enumerate(c)])[0])
    raise SearchExhausted("no squarefree norm shift found")


def _shift_into(field, h, s: int) -> Poly:
    """h(t + s*y) over field = Q[y]/(m) for h an int list of degree d: the
    coefficient of t^k is a = sum_i h_(k+i) C(k+i, k) s^i y^i, and one
    pseudo-division by the field's integer modulus, r*a = q*m + rem, makes
    it the kernel tuple of rem/r: O(d^2) integer operations, d reductions."""
    d, n = len(h) - 1, field.absolute_degree()
    out = []
    for k in range(d + 1):
        _, rem, r = _pseudo_divmod([h[k + i] * comb(k + i, k) * s**i for i in range(d - k + 1)], field._modulus)
        out.append(TowerElem(field, kernel(rem + [0] * (n - len(rem)), r)))
    return Poly(field, out, normalize=False)


def _split_by_norm(sq: Poly, norm_factors, s: int) -> list:
    """Trager's back end: the monic irreducible factors of the monic
    squarefree sq over K = Q[y]/(m_gamma), one for each irreducible factor h
    (an int list) of its squarefree norm at the shift s, in their order.
    Each h but the last gives gcd(c, h(t + s*y)) for the cofactor c still
    left, which must divide c exactly; the last factor is c itself, so an
    irreducible norm needs no gcd.  Then deg h = [K : Q] deg(factor) for all."""
    K, cof, out = sq.dom, sq, []
    for h in norm_factors[:-1]:
        g = poly_gcd(cof, _shift_into(K, h, s))
        cof, r = divmod(cof, g)
        if r:
            raise InternalInvariant("a gcd with a norm factor does not divide the input")
        out.append(g)
    out.append(cof)
    if [len(h) - 1 for h in norm_factors] != [K.absolute_degree() * g.degree for g in out]:
        raise InternalInvariant("a norm factor's degree is not [K : Q] times its factor's")
    return out


def factor_over_extension(g: Poly) -> Factorization:
    """Complete factorization of g over its coefficient field g.dom, whichever
    field that is: the one factoring entry point.  Over Q it is `factor_q`
    with the cap raised to deg g, and over F_p or a finite tower `factor_ff`.
    Over a tower of characteristic 0, Trager's method runs in the primitive
    element's field K = Q[y]/(m_gamma) (`primitive_field`, reached by
    `to_primitive` and left by `from_primitive`), where a product is one
    integer product and one reduction mod m_gamma: squarefree part,
    norm Res_y(m_gamma, g(t - s*y)), one factor per factor of the norm
    (`_split_by_norm`) and multiplicities.  The norm, of degree nd at
    most NORM_DEGREE_CAP for n = [K : Q] and d = deg g, comes from power sums
    (`_trager_norm`): O(n (nd)^2) integer operations, then O((nd)^2) mod a
    prime per shift s tried, and it is factored as it stands, proved
    squarefree.  Only the irreducible factors are mapped back to the
    tower."""
    if g.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    dom = g.dom
    if dom == QQ:
        return factor_q(g, max_degree=max(FACTOR_DEGREE_CAP, g.degree))
    if dom.characteristic:
        return factor_ff(g)

    unit = g.lc()
    if g.degree == 0:
        return Factorization(unit, ())
    work = g.monic()

    # fast path: rational coefficients + coprime degrees keep f irreducible
    n = dom.absolute_degree()
    rational = dom.try_lower_to_base(work)
    if rational is not None and _int_gcd(work.degree, n) == 1:
        cert = is_irreducible_q(rational, max_degree=max(FACTOR_DEGREE_CAP, work.degree))
        if cert.irreducible:
            return Factorization(unit, ((work, 1),))

    if work.degree * n > NORM_DEGREE_CAP:
        raise DegreeCap(f"norm degree {work.degree * n} exceeds cap {NORM_DEGREE_CAP}")

    K = dom.primitive_field()
    work_k = work.map_domain(K, dom.to_primitive)
    sq = squarefree_part(work_k)
    s, norm = _trager_norm(K._modulus, [c.v for c in sq.coeffs], _shift_order(NORM_SHIFT_TRIES))
    irreducibles = _split_by_norm(sq, _factor_sqfree_primitive_z(norm), s)
    back = lambda f: f.map_domain(dom, dom.from_primitive)
    return Factorization(unit, _multiplicities(work_k, irreducibles, divmod, Poly.one(K), back))


def is_irreducible_over(m: Poly) -> bool:
    """Irreducibility of m over its coefficient field (used to certify
    adjunction steps): the certificate routes over Q and finite fields,
    `factor_over_extension` over a tower of characteristic 0."""
    if m.degree < 1:
        return False
    if m.dom == QQ:
        return is_irreducible_q(m, max_degree=max(FACTOR_DEGREE_CAP, m.degree)).irreducible
    if m.dom.characteristic:
        return is_irreducible_ff(m)
    return factor_over_extension(m).is_irreducible()
