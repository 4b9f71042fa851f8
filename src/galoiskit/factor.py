"""Irreducibility certificates and complete factorization.

Three coefficient worlds are covered:

* finite fields (F_p and its finite extensions): squarefree split, then
  distinct-degree splitting via gcd(f, t^(q^k) - t), then deterministic
  equal-degree splitting (trace witnesses b*t^j in characteristic 2, a lazy
  sweep of (u)^((q^d-1)/2) in odd characteristic), then multiplicities by
  division; Ben-Or's test decides irreducibility alone.  Each algorithm is
  written once, against a small polynomial ring picked by the coefficient
  field (`_polys`): `_FpPolys` computes on int residue lists bound to the
  residue kernel of `poly`, one per p, `_TowerPolys` on `Poly` over a
  finite tower.  Only the irreducible factors are wrapped as `Poly`;
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
  directly (and `poly._xgcd_mod` for the Hensel cofactors): no Poly or
  FpElem is built between the primitive integer form and the printed
  factors;
* simple extensions of Q presented by a tower: Trager's norm method, pushing
  the problem down to Q through a resultant.  It runs in the primitive
  element's one-level field Q(gamma) = Q[y]/(m_gamma), not in the tower:
  only the irreducible factors are mapped back.  The shift is chosen, and
  its norm proved squarefree, mod NORM_PRIME; the norm over Z is rebuilt by
  CRT from that image and images mod further primes below 2^61, up to a
  Goldstein-Graham bound, with no resultant over Q.

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
from math import comb, gcd as _int_gcd, isqrt

from .errors import (
    Budget,
    ConstantPolynomial,
    DegreeCap,
    InternalInvariant,
    NotPrime,
    SearchExhausted,
    ZeroPolynomial,
)
from .numbers import QQ, PrimeField, factor_integer, is_prime
from .poly import (
    Poly,
    _deriv_mod,
    _divmod_mod,
    _from_numerators,
    _from_residues,
    _gcd_mod,
    _monic_mod,
    _mul_mod,
    _numerators,
    _positive_primitive,
    _power,
    _pseudo_divmod,
    _rem_mod,
    _sturm_ints,
    _sub_mod,
    _trim,
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
        self.divmod = lambda a, b: _divmod_mod(a, b, p)
        self.sub = lambda a, b: _sub_mod(a, b, p)
        self.gcd = lambda a, b: _gcd_mod(a, b, p)
        self.deriv = lambda a: _deriv_mod(a, p)
        self.monic = lambda a: _monic_mod(a, p)

    deg = staticmethod(lambda a: len(a) - 1)
    read = staticmethod(lambda f: [c.r for c in f.coeffs])
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
    """b^e mod m in R."""
    return _power(R.rem(b, m), e, lambda u, v: R.rem(R.mul(u, v), m), R.one)


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
                for _ in range(d * R.n - 1):
                    term = R.rem(R.mul(term, term), g)
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
    h monic, to g1, h1 with f = g1 h1 (mod m^2), h1 monic."""
    mm = m * m
    e = _sub_mod(f, _mul_mod(g, h, mm), mm)
    q, r = _divmod_mod(_mul_mod(s, e, mm), h, mm)
    g1 = _z_mod(_z_add(g, _z_add(_mul_mod(t, e, mm), _mul_mod(q, g, mm))), mm)
    h1 = _z_mod(_z_add(h, r), mm)
    return g1, h1


def _bezout_step(m, g1, h1, s, t):
    """Lift s g + t h = 1 (mod m) to s1 g1 + t1 h1 = 1 (mod m^2), for the
    g1, h1 of the Hensel step from g, h."""
    mm = m * m
    b = _sub_mod(_z_add(_mul_mod(s, g1, mm), _mul_mod(t, h1, mm)), [1], mm)
    c, d = _divmod_mod(_mul_mod(s, b, mm), h1, mm)
    s1 = _sub_mod(s, d, mm)
    t1 = _sub_mod(t, _z_add(_mul_mod(t, b, mm), _mul_mod(c, g1, mm)), mm)
    return s1, t1


def _hensel_lift_pair(p, k, f, g, h):
    """Lift f = g h (mod p) to mod p^k (h monic mod p); the Bezout cofactors
    are lifted for every step but the last."""
    d, s, t = _xgcd_mod(g, h, p)
    if d != [1]:
        raise InternalInvariant("Hensel pair is not coprime mod p")
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


def _resultant_mod(a, b, p):
    """Res(a, b) mod p of trimmed residue lists, deg a >= 1, by Euclid:
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, a mod b)."""
    res = 1
    while len(b) > 1:
        r = _rem_mod(a, b, p)
        if not r:
            return 0
        if (len(a) - 1) * (len(b) - 1) % 2:
            res = -res
        res = res * pow(b[-1], len(a) - len(r), p) % p
        a, b = b, r
    return res * pow(b[0], len(a) - 1, p) % p if b else 0


def _norm_mod(mgamma: Poly, reps, s: int, p: int) -> list:
    """The norm Res_y(mgamma, sum_j c_j(y) (t - s*y)^j), c_j the coordinates
    in `reps`, mod a prime p > nd dividing no denominator (n = deg mgamma,
    d = len(reps) - 1), as a residue list: the values at t = 0..nd, each by
    `_resultant_mod`, interpolated (Newton).  O(nd n^2) residue operations."""
    red = lambda f: [c.numerator * pow(c.denominator, -1, p) % p for c in f.coeffs]
    m, cs = red(mgamma), [red(c) for c in reps]
    coef = []
    for a in range((len(m) - 1) * (len(cs) - 1) + 1):
        h = []
        for c in reversed(cs):
            h = _rem_mod(_z_add(_mul_mod(h, [a, -s], p), c), m, p)
        coef.append(_resultant_mod(m, h, p))
    for j in range(1, len(coef)):  # nodes i and i - j differ by j
        inv = pow(j, -1, p)
        for i in range(len(coef) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * inv % p
    out = []
    for i in range(len(coef) - 1, -1, -1):  # out = out * (t - i) + coef[i]
        out = [(lo - i * hi) % p for lo, hi in zip([coef[i]] + out, out + [0])]
    return _trim(out)


def _is_prime_mr(n: int) -> bool:
    """Miller-Rabin for odd n > 37 with the twelve prime bases up to 37,
    deterministic below 3.18 * 10^23, the least strong pseudoprime to all of
    them (Sorenson & Webster, Math. Comp. 86 (2017))."""
    d, r = n - 1, 0
    while not d & 1:
        d, r = d >> 1, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


_NORM_PRIMES = [NORM_PRIME]


def _norm_primes(den: int):
    """The primes below 2^61 that do not divide den, in decreasing order from
    NORM_PRIME = 2^61 - 1; found lazily by `_is_prime_mr` and cached."""
    for i in itertools.count():
        if i == len(_NORM_PRIMES):
            n = _NORM_PRIMES[-1] - 2
            while not _is_prime_mr(n):
                n -= 2
            _NORM_PRIMES.append(n)
        if den % _NORM_PRIMES[i]:
            yield _NORM_PRIMES[i]


def _squarefree_shift(mgamma: Poly, reps, tries: int):
    """(s, N_s mod p) for the first s in `_shift_order(tries)` with N_s
    squarefree, proved mod p: N_s mod p keeps the degree nd and a nonzero
    discriminant, and a repeated factor over Q survives a reduction that
    keeps the degree.  p is the first of `_norm_primes` dividing no
    denominator of mgamma or `reps` (NORM_PRIME unless it divides one), and
    the image is the first one `_norm_by_crt` uses.  Skipping an s for an
    unlucky p changes no factor."""
    nd = mgamma.degree * (len(reps) - 1)
    den = _numerators([c for f in (mgamma, *reps) for c in f.coeffs])[1]
    p = next(_norm_primes(den))
    for s in _shift_order(tries):
        nbar = _norm_mod(mgamma, reps, s, p)
        if len(nbar) == nd + 1 and _resultant_mod(nbar, _deriv_mod(nbar, p), p):
            return s, nbar
    raise SearchExhausted("no squarefree norm shift found")


def _norm_by_crt(mgamma: Poly, reps, s: int, image) -> list:
    """The norm N_s = Res_y(mgamma, G), G = sum_j c_j(y) (t - s*y)^j for the
    coordinates c_j in `reps`, as a primitive int list with positive lc: by
    CRT of its images mod `_norm_primes`, the first of them `image` (from
    `_squarefree_shift`).  Each image is scaled by md^e * cden^n (md and
    cden the denominators of mgamma and of `reps`, n = deg mgamma,
    e = n - 1 + d), which makes it the image of the determinant of the
    integer Sylvester matrix of md*mgamma and cden*G, taken of degree e in y.
    Images are added until their product exceeds 2B, for the Goldstein-Graham
    bound B = ||md*mgamma||_2^e * (sum_k ||G_k||_1^2)^(n/2) on its
    coefficients, G_k the y^k coefficient of cden*G (bounded termwise)."""
    m_int, md = _numerators(mgamma.coeffs)
    nums, cden = _numerators([c for f in reps for c in f.coeffs])
    n, d = len(m_int) - 1, len(reps) - 1
    e, nd = n - 1 + d, n * d
    g1 = [0] * (e + 1)  # termwise bounds on ||G_k||_1
    for j, f in enumerate(reps):
        for k, c in enumerate(nums[: len(f.coeffs)]):
            for i in range(j + 1):
                g1[k + i] += abs(c) * comb(j, i) * abs(s) ** i
        nums = nums[len(f.coeffs) :]
    bound_sq = sum(c * c for c in m_int) ** e * sum(c * c for c in g1) ** n  # B^2
    scale, crt, modulus = md**e * cden**n, [0] * (nd + 1), 1
    for p in _norm_primes(md * cden):
        if modulus > 1:
            image = _norm_mod(mgamma, reps, s, p)
        step, image = pow(modulus, -1, p) * modulus, image + [0] * (nd + 1 - len(image))
        crt = [r + (c * scale - r) * step % (p * modulus) for r, c in zip(crt, image)]
        modulus *= p
        if modulus * modulus > 4 * bound_sq:
            break
    half = modulus // 2
    out = _positive_primitive([c - modulus if c > half else c for c in crt])
    return out if out[-1] > 0 else [-c for c in out]


def _shift_into(field, h: Poly, s: int) -> Poly:
    """h(t + s*y) over field = Q[y]/(m) for h over Q of degree d: the
    coefficient of t^k is sum_i h_(k+i) C(k+i, k) s^i y^i reduced mod m, so
    O(d^2) integer operations and d reductions."""
    nums, den = _numerators(h.coeffs)
    d = len(nums) - 1
    out = []
    for k in range(d + 1):
        y_poly = _from_numerators(
            _trim([nums[k + i] * comb(k + i, k) * s**i for i in range(d - k + 1)]), den
        )
        out.append(field._from_poly(y_poly % field.minpoly))
    return Poly(field, out, normalize=False)


def factor_over_extension(g: Poly) -> Factorization:
    """Complete factorization of g over its coefficient field g.dom, whichever
    field that is: the one factoring entry point.  Over Q it is `factor_q`
    with the cap raised to deg g, and over F_p or a finite tower `factor_ff`.
    Over a tower of characteristic 0, Trager's method runs in the primitive
    element's field K = Q[y]/(m_gamma) (`primitive_field`), where a product
    is one rational product and one reduction mod m_gamma: squarefree part,
    norm Res_y(m_gamma, g(t - s*y)), shifts h(t + s*y) of its factors h,
    gcds, reassembly check and multiplicities.  s is chosen mod a prime
    (`_squarefree_shift`); the norm, of degree at most NORM_DEGREE_CAP, is
    rebuilt over Z from that image by CRT (`_norm_by_crt`) and factored as it
    stands, proved squarefree.  Only the irreducible factors are mapped back
    to the tower."""
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
    mgamma = K.minpoly
    work_k = work.map_domain(K, lambda c: K._from_poly(dom.express_in_primitive(c)))
    sq = squarefree_part(work_k)
    reps = [Poly(QQ, c.coeffs) for c in sq.coeffs]

    s, image = _squarefree_shift(mgamma, reps, NORM_SHIFT_TRIES)
    irreducibles = []
    for h in _factor_sqfree_primitive_z(_norm_by_crt(mgamma, reps, s, image)):
        cand = poly_gcd(sq, _shift_into(K, Poly(QQ, h), s))
        if cand.degree > 0:
            irreducibles.append(cand)
    prod = Poly.one(K)
    for gi in irreducibles:
        prod = prod * gi
    if prod != sq:
        raise InternalInvariant("norm factorization did not reassemble input")
    back = lambda f: f.map_domain(dom, lambda c: dom.eval_primitive_poly(Poly(QQ, c.coeffs)))
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
