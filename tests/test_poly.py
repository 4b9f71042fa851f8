"""Polynomial ring layer: division, gcd, derivative, resultants, rendering."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, gcd

import pytest

from galoiskit.errors import DivisionByZeroPoly, ZeroPolynomial
from galoiskit.numbers import QQ, PrimeField, TowerElem
from galoiskit.poly import (
    NEG_INFINITY,
    Poly,
    _cofactor_mod,
    _divmod_mod,
    _gcd_mod,
    _monic_mod,
    _mul_mod,
    _mulrem_mod,
    _pseudo_divmod,
    _rem_mod,
    _xgcd_mod,
    content_primitive,
    discriminant,
    gcd_ext,
    poly_gcd,
    render,
    resultant,
    squarefree_part,
)
from galoiskit.tower import adjoin_root

F2 = PrimeField(2)
F3 = PrimeField(3)
F7 = PrimeField(7)


class PolyRing:
    """The ring R[t] as a coefficient domain, for bivariate resultant work:
    elements are Poly values over `base`; an integral domain whose `/` is
    exact division, not a field.  The subresultant norm below runs over it."""

    def __init__(self, base):
        self.base = base
        self.characteristic = base.characteristic

    def zero(self):
        return Poly.zero(self.base)

    def one(self):
        return Poly.one(self.base)

    def from_int(self, n):
        return Poly(self.base, [self.base.from_int(n)])

    def coerce(self, x):
        if isinstance(x, Poly) and x.dom == self.base:
            return x
        return Poly(self.base, [self.base.coerce(x)])

    def sort_key(self, x):
        return x.sort_key()

    def element_str(self, x):
        return f"({render(x)})"

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.base == self.base

    def __hash__(self):
        return hash(("PolyRing", self.base))


def _norm_resultant(mgamma, g_reps, s):
    """The oracle for the Trager norm: Res_x(mgamma(x), sum_j c_j(x) (t - s x)^j)
    as a polynomial in t, by the subresultant PRS over PolyRing(QQ)."""
    R = PolyRing(QQ)
    acc = Poly.zero(R)
    for j, cj in enumerate(g_reps):
        if cj.is_zero():
            continue
        # (t - s x)^j expanded in x: the coefficient of x^k is C(j,k)(-s)^k t^(j-k)
        binom_x = Poly(R, [Poly(QQ, [Fraction(0)] * (j - k) + [Fraction(comb(j, k) * (-s) ** k)]) for k in range(j + 1)])
        acc = acc + Poly(R, [Poly(QQ, [c]) for c in cj.coeffs]) * binom_x
    return resultant(Poly(R, [Poly(QQ, [c]) for c in mgamma.coeffs]), acc)


def _poly_form(modulus, reps):
    """The inputs of `factor._trager_norm` as the oracles take them: m_gamma
    from K's integer modulus (numerators over the last one), and g's
    coefficients, kernel tuples over K, as polynomials over Q in y."""
    return Poly(QQ, [Fraction(c, modulus[-1]) for c in modulus]), [Poly(QQ, QQ._view(v)) for v in reps]


def _primitive_reps(T, coeffs):
    """(K's integer modulus, the coefficients' kernel tuples over K) for
    K = T.primitive_field(): `_trager_norm`'s inputs for a polynomial over T."""
    return T.primitive_field()._modulus, [T.to_primitive(c).v for c in coeffs]


def _compose(f, inner):
    """f(inner), by Horner."""
    out = Poly.zero(f.dom)
    for coeff in reversed(f.coeffs):
        out = out * inner + Poly.constant(f.dom, coeff)
    return out


def q(coeffs):
    return Poly(QQ, coeffs)


def rand_poly(rng, dom, maxdeg, lo=-6, hi=6):
    deg = rng.randint(0, maxdeg)
    coeffs = [dom.from_int(rng.randint(lo, hi)) for _ in range(deg + 1)]
    return Poly(dom, coeffs)


def test_degree_sentinel():
    assert q([]).degree is NEG_INFINITY
    assert NEG_INFINITY < -1000
    assert NEG_INFINITY + 5 is NEG_INFINITY
    assert q([1]).degree == 0
    assert q([0, 0, 1]).degree == 2
    assert not (NEG_INFINITY < NEG_INFINITY)


def test_degree_multiplicative_random():
    rng = random.Random(5)
    for dom in (QQ, F2, F7):
        for _ in range(60):
            f = rand_poly(rng, dom, 5)
            g = rand_poly(rng, dom, 5)
            assert (f * g).degree == f.degree + g.degree


def test_divmod_examples():
    # remainder theorem: t^3 - 2 by t - a has remainder a^3 - 2
    for a in [Fraction(2), Fraction(-1, 2), Fraction(5, 3)]:
        f = q([-2, 0, 0, 1])
        g = q([-a, 1])
        _, r = divmod(f, g)
        assert r == q([a**3 - 2])
    # (t^5 - 1) / (t - 1) = 1 + t + t^2 + t^3 + t^4 exactly
    qq, r = divmod(q([-1, 0, 0, 0, 0, 1]), q([-1, 1]))
    assert r.is_zero()
    assert qq == q([1, 1, 1, 1, 1])
    # zero dividend
    qq, r = divmod(q([]), q([0, 0, 1]))
    assert qq.is_zero() and r.is_zero()


def test_divmod_roundtrip_random():
    rng = random.Random(9)
    for dom in (QQ, F3):
        for _ in range(80):
            f = rand_poly(rng, dom, 7)
            g = rand_poly(rng, dom, 4)
            if g.is_zero():
                continue
            quo, rem = divmod(f, g)
            assert quo * g + rem == f
            assert rem.degree < g.degree


def _sqrt2_sqrt3_tower():
    T1, a = adjoin_root(QQ, q([-2, 0, 1]), "a")
    T2, b = adjoin_root(T1, Poly(T1, [-3, 0, 1]), "b")
    return T2, [T2.one(), T2.coerce(a), b, T2.coerce(a) * b]


def _rand_elem(rng, dom, basis):
    if basis is None:
        return dom.from_int(rng.randint(-6, 6))
    acc = dom.zero()
    for e in basis:
        acc = acc + e * dom.from_int(rng.randint(-3, 3))
    return acc


def test_divmod_non_monic_and_monic_divisors():
    # over QQ, F_7 and the degree-4 tower Q(sqrt2, sqrt3): q*g + r == f with
    # deg r < deg g for a non-monic divisor g, and the monic divisor g/lc(g)
    # gives the quotient lc(g)*q and the same remainder
    rng = random.Random(4)
    T4, basis4 = _sqrt2_sqrt3_tower()
    for dom, basis in ((QQ, None), (F7, None), (T4, basis4)):
        checked = 0
        while checked < 12:
            f = Poly(dom, [_rand_elem(rng, dom, basis) for _ in range(rng.randint(0, 7))])
            g = Poly(dom, [_rand_elem(rng, dom, basis) for _ in range(rng.randint(1, 4))])
            if g.is_zero() or g.lc() == dom.one():
                continue
            quo, rem = divmod(f, g)
            assert quo * g + rem == f
            assert rem.degree < g.degree
            lc = g.lc()
            monic_quo, monic_rem = divmod(f, g.monic())
            assert g.monic().lc() == dom.one()
            assert monic_quo == quo.scale(lc)
            assert monic_rem == rem
            checked += 1


def test_divmod_by_zero():
    with pytest.raises(DivisionByZeroPoly):
        divmod(q([1, 1]), q([]))


def test_gcd_ext():
    # coprime: no common root anywhere, so the gcd is 1
    f, g = q([-2, 0, 1]), q([-3, 0, 1])
    d, a, b = gcd_ext(f, g)
    assert d == q([1])
    assert a * f + b * g == d
    # one argument zero: ideal generated by the other, made monic
    f = q([2, 4])
    d, a, b = gcd_ext(f, q([]))
    assert d == q([Fraction(1, 2), 1])
    assert a * f + b * q([]) == d
    # shared factor
    d, _, _ = gcd_ext(q([-1, 0, 1]), q([-1, 1]))
    assert d == q([-1, 1])
    # both zero
    d, _, _ = gcd_ext(q([]), q([]))
    assert d.is_zero()


def test_gcd_ext_random_bezout():
    rng = random.Random(13)
    for dom in (QQ, F7):
        for _ in range(60):
            f = rand_poly(rng, dom, 5)
            g = rand_poly(rng, dom, 5)
            d, a, b = gcd_ext(f, g)
            assert a * f + b * g == d
            if not f.is_zero():
                assert (f % d).is_zero() if not d.is_zero() else f.is_zero()


# -- F_p arithmetic, against QQ reduced mod p and the residue kernels ---------

# 1031 is past the shared residue table, so its coefficients are constructed
KERNEL_PRIMES = (2, 3, 5, 7, 13, 31, 1031)


def _int_poly(rng, maxdeg, height=40):
    return q([rng.randint(-height, height) for _ in range(rng.randint(0, maxdeg) + 1)])


def _unit_mod(c, m):
    return gcd(c.v[0], m) == 1 and gcd(c.v[1], m) == 1


def _residue(c, m):
    return c.v[0] * pow(c.v[1], -1, m) % m


def _residues(f, m):
    out = [_residue(c, m) for c in f.coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def _euclid_reduces(f, g, p):
    """Every divisor of the remainder sequence of f, g over QQ, and the last
    nonzero remainder, has a leading coefficient that is a unit mod p; then
    reduction mod p commutes with every step of gcd_ext."""
    while not g.is_zero():
        if not _unit_mod(g.lc(), p):
            return False
        f, g = g, f % g
    return f.is_zero() or _unit_mod(f.lc(), p)


def _kernel_cases(rng):
    """Integer polynomial pairs of degree 0-12: random ones, ones with a common
    factor, the zero polynomial on either side, constant divisors, and
    divisors of higher degree than the dividend."""
    zero = q([])
    for _ in range(25):
        yield _int_poly(rng, 12), _int_poly(rng, 12)
    for _ in range(10):
        common = _int_poly(rng, 4)
        yield _int_poly(rng, 8) * common, _int_poly(rng, 8) * common
    for _ in range(4):
        yield zero, _int_poly(rng, 12)
        yield _int_poly(rng, 12), zero
        yield _int_poly(rng, 12), q([rng.randint(1, 40)])
        yield _int_poly(rng, 4), q([rng.randint(-9, 9) for _ in range(9)] + [rng.randint(2, 9)])
    yield zero, zero


def test_fp_arithmetic_matches_rationals_reduced_mod_p():
    rng = random.Random(71)
    counts = {"divmod": 0, "non_monic": 0, "gcd_ext": 0}
    for p in KERNEL_PRIMES:
        F = PrimeField(p)
        for f, g in _kernel_cases(rng):
            fp, gp = Poly(F, list(f.coeffs)), Poly(F, list(g.coeffs))
            assert fp * gp == Poly(F, list((f * g).coeffs))
            if not g.is_zero() and _unit_mod(g.lc(), p):
                quo, rem = divmod(f, g)
                assert divmod(fp, gp) == (Poly(F, list(quo.coeffs)), Poly(F, list(rem.coeffs)))
                assert fp % gp == Poly(F, list(rem.coeffs))
                counts["divmod"] += 1
                counts["non_monic"] += _residue(g.lc(), p) != 1
            if _euclid_reduces(f, g, p):
                expected = tuple(Poly(F, list(x.coeffs)) for x in gcd_ext(f, g))
                assert gcd_ext(fp, gp) == expected
                counts["gcd_ext"] += 1
    # the comparisons are not vacuous
    assert counts["divmod"] >= 150 and counts["non_monic"] >= 100 and counts["gcd_ext"] >= 60, counts


def test_int_residue_kernel_mod_prime_powers():
    # the same int-list kernel serves Hensel lifting mod p^k
    rng = random.Random(72)
    for m in (4, 9, 125, 31**3, 2**40):
        for _ in range(30):
            f = _int_poly(rng, 12, height=10**6)
            g = _int_poly(rng, 8, height=10**6)
            if g.is_zero() or not _unit_mod(g.lc(), m):
                g = g + q([0] * len(g.coeffs) + [1])  # a monic divisor
            a = [c.v[0] for c in f.coeffs]
            b = [c.v[0] for c in g.coeffs]
            assert _mul_mod(a, b, m) == _residues(f * g, m)
            quo, rem = divmod(f, g)
            assert _divmod_mod(a, b, m) == (_residues(quo, m), _residues(rem, m))


def _schoolbook_mul_mod(a, b, m):
    """The product before packing: every a_i b_j added into coefficient
    i + j, each coefficient reduced once at the end."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    out = [c % m for c in out]
    while out and not out[-1]:
        out.pop()
    return out


def test_packed_mul_mod_matches_the_schoolbook_product():
    # every length 0-65 against a random one and itself; m = 2, small primes
    # and prime powers up to 2^200; residues, and signed unreduced ints
    rng = random.Random(29)
    moduli = (2, 3, 7, 31, 2**61 - 1, 3**20, 7**71, 2**200)
    for m in moduli:
        for la in range(66):
            for lb in (la, rng.randrange(66)):
                for lo, hi in ((0, m - 1), (-3 * m, 3 * m)):
                    a = [rng.randint(lo, hi) for _ in range(la)]
                    b = [rng.randint(lo, hi) for _ in range(lb)]
                    assert _mul_mod(a, b, m) == _schoolbook_mul_mod(a, b, m), (m, a, b)
        # the tight case: slot k of the packed product peaks at
        # min(len a, len b) (m-1)^2, reached when every coefficient is m-1
        for la, lb in ((65, 65), (65, 64), (1, 65), (2, 2)):
            for a, b in (([m - 1] * la, [m - 1] * lb), ([-1] * la, [m - 1] * lb)):
                assert _mul_mod(a, b, m) == _schoolbook_mul_mod(a, b, m), (m, la, lb)


def _list_divmod_mod(a, b, m):
    """The list schoolbook division the packed one replaced: one list update
    of the running remainder per quotient digit; (quotient, remainder)
    trimmed."""
    dg = len(b) - 1
    if len(a) <= dg:
        return [], _trim_list([c % m for c in a])
    inv = pow(b[-1], -1, m) if b[-1] % m != 1 else 1
    r = list(a)
    q = [0] * (len(a) - dg)
    for i in range(len(a) - 1, dg - 1, -1):
        c = r[i] * inv % m
        if c:
            q[i - dg] = c
            r[i - dg : i] = [x - c * y for x, y in zip(r[i - dg : i], b)]
    return _trim_list(q), _trim_list([c % m for c in r[:dg]])


def _list_rem_mod(a, b, m):
    """`_list_divmod_mod` without building the quotient."""
    dg = len(b) - 1
    inv = pow(b[-1], -1, m) if b[-1] % m != 1 else 1
    r = list(a)
    for i in range(len(a) - 1, dg - 1, -1):
        c = r[i] * inv % m
        if c:
            r[i - dg : i] = [x - c * y for x, y in zip(r[i - dg : i], b)]
    return _trim_list([c % m for c in r[:dg]])


def _trim_list(a):
    while a and not a[-1]:
        a.pop()
    return a


def _divisor(rng, length, m, lo, hi):
    """A random int list of the given length whose leading coefficient is a
    unit mod m, 1 mod m a quarter of the time."""
    b = [rng.randint(lo, hi) for _ in range(length)]
    while gcd(b[-1], m) != 1:
        b[-1] = rng.randint(lo, hi)
    if rng.random() < 0.25:
        b[-1] = 1 + m * rng.randint(lo // m - 1, hi // m)
    return b


def _check_division(a, b, m):
    expected = _list_divmod_mod(a, b, m)
    assert _divmod_mod(a, b, m) == expected, (m, a, b)
    assert _rem_mod(a, b, m) == _list_rem_mod(a, b, m) == expected[1], (m, a, b)


def test_packed_division_matches_the_list_schoolbook():
    # every dividend length 0-40 by every divisor length 1-12, mostly
    # non-monic, for m = 2, small primes and prime powers up to the size of
    # the Hensel moduli; residues, and signed unreduced ints
    rng = random.Random(31)
    moduli = (2, 3, 4, 9, 7**3, 2**61 - 1, 3**40, 7**71, 2**200)
    for m in moduli:
        for la in range(41):
            for lb in range(1, 13):
                for lo, hi in ((0, m - 1), (-3 * m, 3 * m)):
                    a = [rng.randint(lo, hi) for _ in range(la)]
                    _check_division(a, _divisor(rng, lb, m, lo, hi), m)


def test_packed_division_at_degrees_up_to_3000():
    # dividend degrees 0-3000 by divisors of every size up to the dividend's
    # for p = 2, 3 and the 61-bit prime, signed and unreduced
    rng = random.Random(37)
    for m in (2, 3, 2**61 - 1):
        for la in (0, 1, 2, 3, 65, 257, 1000, 2049, 3001):
            for lb in sorted({1, 2, max(1, la // 2), max(1, la - 1), la + 1}):
                a = [rng.randint(-2 * m, 2 * m) for _ in range(la)]
                _check_division(a, _divisor(rng, lb, m, -2 * m, 2 * m), m)


def test_packed_division_at_its_slot_bound():
    # b = (m-1)(1 + t + ... + t^k) and a = q b + r with every quotient digit 1:
    # each step adds (m-1)^2 to every slot it touches, so the slots reach
    # their bound, min(steps, len b) (m-1)^2 plus a residue
    for m in (2, 3, 7, 2**61 - 1, 3**40):
        for k in range(70):
            for steps in {1, k, k + 1, k + 2, 2 * k + 3} - {0}:
                b, quo, rem = [m - 1] * (k + 1), [1] * steps, [m - 1] * k
                a = [(x + y) % m for x, y in zip_longest(_schoolbook_mul_mod(quo, b, m), rem, fillvalue=0)]
                assert _divmod_mod(a, b, m) == (quo, _trim_list([c % m for c in rem])), (m, k, steps)
                assert _rem_mod(a, b, m) == _trim_list([c % m for c in rem]), (m, k, steps)


# Chains of products and Euclid's loop keep their operands packed; the loops
# they replaced, one `_mul_mod` or `_rem_mod` per step, are the oracles.
CHAIN_PRIMES = (2, 3, 13, 2**61 - 1)


def _mul_then_rem(u, v, b, p):
    """A step of a product chain mod b as two kernels: the product unpacked,
    then packed again at its own width for the remainder."""
    return _rem_mod(_mul_mod(u, v, p), b, p)


def _euclid_gcd_mod(a, b, p):
    """Euclid's loop with one `_rem_mod`, and so one packing of each
    operand, per step."""
    while b:
        a, b = b, _rem_mod(a, b, p)
    return _monic_mod(a, p)


def _residue_list(rng, length, p):
    """A trimmed random residue list of the given length."""
    return [rng.randrange(p) for _ in range(length - 1)] + [rng.randrange(1, p)] if length else []


def test_mulrem_matches_the_product_then_the_remainder():
    # every modulus degree 0-40, monic or not, by operands of every length
    # up to it, both orders and the square; residues, and signed unreduced
    # ints; then the slot bound, where every coefficient is p - 1
    rng = random.Random(43)
    for p in CHAIN_PRIMES:
        for k in range(41):
            b = _divisor(rng, k + 1, p, 0, p - 1)
            step = _mulrem_mod(b, p)
            for la in range(k + 1):
                for lo, hi in ((0, p - 1), (-2 * p, 2 * p)):
                    u = [rng.randint(lo, hi) for _ in range(la)]
                    v = [rng.randint(lo, hi) for _ in range(rng.randint(0, k))]
                    for x, y in ((u, v), (v, u), (u, u)):
                        assert step(x, y) == _mul_then_rem(x, y, b, p), (p, b, x, y)
            top = [p - 1] * k
            for b in ([p - 1] * (k + 1), [1] * (k + 1), top + [1]):
                step = _mulrem_mod(b, p)
                for x, y in ((top, top), (top, top[: k // 2]), (top[: k // 2], top), ([1] * k, top)):
                    assert step(x, y) == _mul_then_rem(x, y, b, p), (p, k, b, x, y)


def test_packed_euclid_matches_the_remainder_loop():
    # every pair of lengths 0-40, both orders: random residue lists, the
    # slot bound (every coefficient p - 1), and for a quarter of the pairs
    # lists with a common factor (long chains, nontrivial gcds)
    rng = random.Random(47)
    nontrivial = 0
    for p in CHAIN_PRIMES:
        for la in range(41):
            for lb in range(la + 1):
                a, b = _residue_list(rng, la, p), _residue_list(rng, lb, p)
                cases = [(a, b), ([p - 1] * la, [p - 1] * lb)]
                if lb > 1 and rng.random() < 0.25:
                    common = _residue_list(rng, rng.randint(2, lb), p)
                    cases.append((_mul_mod(a, common, p), _mul_mod(b[: lb - len(common) + 1] or [1], common, p)))
                for x, y in cases:
                    for x, y in ((x, y), (y, x)):
                        got = _gcd_mod(x, y, p)
                        assert got == _euclid_gcd_mod(x, y, p), (p, x, y)
                        nontrivial += len(got) > 1
        # a = quo*b + rem with every quotient digit 1 and b = (p-1)(1 + ... +
        # t^k): the first division brings its slots to their bound,
        # min(steps, len b) (p-1)^2 plus a residue
        for lb in range(1, 21):
            for steps in range(1, 42 - lb):
                b, rem = [p - 1] * lb, [p - 1] * (lb - 1)
                a = _trim_list([(x + y) % p for x, y in zip_longest(_schoolbook_mul_mod([1] * steps, b, p), rem, fillvalue=0)])
                for x, y in ((a, b), (b, a)):
                    assert _gcd_mod(x, y, p) == _euclid_gcd_mod(x, y, p), (p, x, y)
    assert nontrivial >= 500, nontrivial


def _read(f):
    """The residue list of a polynomial over F_p, as `factor` reads it."""
    return [c.v[0] for c in f.coeffs]


def test_fp_arithmetic_matches_the_residue_kernels():
    # `Poly` over F_p computes through the field's element operators; the
    # packed residue kernels that `factor` calls directly are its oracle
    rng = random.Random(73)
    counts = Counter()
    for p in KERNEL_PRIMES:
        F = PrimeField(p)
        for f, g in _kernel_cases(rng):
            fp, gp = Poly(F, list(f.coeffs)), Poly(F, list(g.coeffs))
            for a, b in ((fp, gp), (gp, fp)):
                ra, rb = _read(a), _read(b)
                assert a * b == Poly(F, _mul_mod(ra, rb, p)), (p, a, b)
                got = poly_gcd(a, b)
                assert got == Poly(F, _gcd_mod(ra, rb, p)), (p, a, b)
                assert got.dom == F and all(type(c) is TowerElem and c.tower == F for c in got.coeffs)
                d, s = _xgcd_mod(ra, rb, p)
                expected = tuple(Poly(F, x) for x in (d, s, _cofactor_mod(d, s, ra, rb, p)))
                assert gcd_ext(a, b) == expected, (p, a, b)
                counts["zero"] += a.is_zero() or b.is_zero()
                counts["constant"] += a.degree == 0 or b.degree == 0
                counts["non_monic"] += not a.is_zero() and not a.is_monic()
                counts["nontrivial"] += got.degree >= 1
                if b.is_zero():
                    continue
                quo, rem = _divmod_mod(ra, rb, p)
                assert divmod(a, b) == (Poly(F, quo), Poly(F, rem)), (p, a, b)
                assert a % b == Poly(F, _rem_mod(ra, rb, p)), (p, a, b)
                counts["divmod"] += 1
                counts["quotient"] += a.degree > b.degree >= 1
    # the comparisons are not vacuous
    assert min(counts.values()) >= 40, counts
    assert poly_gcd(Poly.zero(F7), Poly.zero(F7)) == Poly.zero(F7)
    with pytest.raises(ValueError):
        poly_gcd(Poly(PrimeField(5), [1, 2, 1]), Poly(F7, [3, 1]))


def test_qq_division_matches_the_pseudo_division_kernel():
    # s*A = Q*B + R on the numerators of a = A/da and b = B/db, so
    # a = (Q*db / (s*da)) * b + R / (s*da)
    rng = random.Random(83)
    counts = Counter()
    for f, g in _qq_kernel_cases(rng):
        if g.is_zero():
            continue
        (*na, da), (*nb, db) = QQ._concat(f.coeffs), QQ._concat(g.coeffs)
        quo, rem, s = _pseudo_divmod(na, nb)
        expected = q([Fraction(c * db, s * da) for c in quo]), q([Fraction(c, s * da) for c in rem])
        assert divmod(f, g) == expected, (f, g)
        assert f % g == expected[1], (f, g)
        counts["divmod"] += 1
        counts["scaled"] += s != 1
        counts["rational"] += da != 1 or db != 1
        counts["lower_dividend"] += f.degree < g.degree
        counts["exact"] += not rem and not f.is_zero()
    # the comparisons are not vacuous
    floors = {"divmod": 140, "scaled": 60, "rational": 120, "lower_dividend": 10, "exact": 20}
    assert all(counts[k] >= v for k, v in floors.items()), counts


def test_gcd_with_a_scalar_operand():
    # a scalar second operand is the constant polynomial, over every field;
    # a polynomial over another field is refused
    T, a = adjoin_root(QQ, q([-2, 0, 1]), "a")
    for dom, f in (
        (QQ, q([Fraction(3, 2), 0, -2])),
        (F7, Poly(F7, [3, 5, 2])),
        (T, Poly(T, [a, T.one(), a + T.one()])),
    ):
        for poly in (f, Poly.zero(dom)):
            three = Poly.constant(dom, 3)
            assert poly_gcd(poly, 3) == Poly.one(dom)
            d, u, v = gcd_ext(poly, 3)
            assert d == Poly.one(dom) and u * poly + v * three == d
            assert poly_gcd(poly, 0) == poly.monic()
            d, u, v = gcd_ext(poly, 0)
            assert d == poly.monic() and u * poly == d and v.is_zero()
        other = Poly(F7 if dom is QQ else QQ, [1, 1])
        for op in (poly_gcd, gcd_ext):
            with pytest.raises(ValueError, match="different domains"):
                op(f, other)


def test_xgcd_mod_bezout():
    # s*a + t*b = d with d monic and dividing both, on residue lists, t from
    # `_cofactor_mod`: coprime, equal, multiples of a common factor and zero
    # inputs
    rng = random.Random(79)
    counts = Counter()
    for p in (2, 3, 5, 7, 13, 1031):
        F = PrimeField(p)

        def rand(lo, hi):
            return Poly(F, [rng.randrange(p) for _ in range(rng.randint(lo, hi))])

        for _ in range(30):
            common = rand(1, 3).monic()
            f, g = rand(0, 5) * common, rand(0, 5) * common
            kind = rng.choice(["coprime", "equal", "common", "zero"])
            if kind == "coprime":
                g = Poly.one(F) + f * rand(0, 3)
            elif kind == "equal":
                g = f
            elif kind == "zero":
                f = Poly.zero(F)
            a, b = [c.v[0] for c in f.coeffs], [c.v[0] for c in g.coeffs]
            d, s = _xgcd_mod(a, b, p)
            t = _cofactor_mod(d, s, a, b, p)
            D, S, T = Poly(F, d), Poly(F, s), Poly(F, t)
            assert S * f + T * g == D, (p, f, g)
            if f.is_zero() and g.is_zero():
                assert d == []
                continue
            assert d[-1] == 1 and (f % D).is_zero() and (g % D).is_zero(), (p, f, g)
            assert D == poly_gcd(f, g)
            counts[kind] += 1
            counts["nontrivial"] += len(d) > 1
    assert min(counts.values()) >= 20, counts
    assert _xgcd_mod([], [], 7) == ([], [1]) and _cofactor_mod([], [1], [], [], 7) == []


def test_mixed_prime_fields_raise():
    f, g = Poly(PrimeField(5), [1, 2, 1]), Poly(PrimeField(7), [3, 1])
    for op in (lambda: f * g, lambda: divmod(f, g), lambda: f % g, lambda: g % f, lambda: gcd_ext(f, g)):
        with pytest.raises(ValueError):
            op()


def test_derivative():
    assert q([3, -6, 0, 0, 0, 1]).derivative() == q([-6, 0, 0, 0, 5])
    assert q([7]).derivative().is_zero()
    # t^p over F_p has zero derivative
    for p in (2, 3, 5):
        F = PrimeField(p)
        tp = Poly(F, [0] * p + [1])
        assert tp.derivative().is_zero()


def test_derivative_product_rule_random():
    rng = random.Random(17)
    for dom in (QQ, F3):
        for _ in range(60):
            f = rand_poly(rng, dom, 5)
            g = rand_poly(rng, dom, 5)
            assert (f * g).derivative() == f * g.derivative() + f.derivative() * g


def test_squarefree_part():
    f = q([1, 0, 1]) * q([1, 0, 1]) * q([-2, 1])
    s = squarefree_part(f)
    assert s == (q([1, 0, 1]) * q([-2, 1])).monic()
    # char p deflation: (t + 1)^2 over F_2 is t^2 + 1
    g = Poly(F2, [1, 0, 1])
    assert squarefree_part(g) == Poly(F2, [1, 1])


def test_shift():
    # cyclotomic Phi_5 shifted by 1: 5 + 10 t + 10 t^2 + 5 t^3 + t^4
    phi5 = q([1, 1, 1, 1, 1])
    assert phi5.shift(1) == q([5, 10, 10, 5, 1])
    f = q([3, -1, 2, 7])
    assert f.shift(0) == f
    assert f.shift(Fraction(3, 2)).shift(Fraction(-3, 2)) == f
    assert q([0, 0, 1]).shift(1) == q([1, 2, 1])


def test_eval():
    f = Poly(F7, [9, 14, 0, -8])
    assert f.eval(F7.from_int(1)) == F7.from_int(1)
    assert q([5, 1, 2]).eval(Fraction(0)) == Fraction(5)
    rng = random.Random(23)
    for _ in range(40):
        f = rand_poly(rng, QQ, 5)
        g = rand_poly(rng, QQ, 5)
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert (f * g).eval(a) == f.eval(a) * g.eval(a)
        assert (f + g).eval(a) == f.eval(a) + g.eval(a)


def test_content_primitive():
    f = q([Fraction(1, 3), 0, 0, 1, Fraction(-5, 3), Fraction(2, 9)])
    alpha, prim = content_primitive(f)
    assert alpha == Fraction(1, 9)
    assert prim == [3, 0, 0, 9, -15, 2]
    alpha, prim = content_primitive(q([15, 6, 30]))
    assert alpha == 3
    assert prim == [5, 2, 10]
    alpha, prim = content_primitive(q([-2, 1]))
    assert alpha == 1
    assert prim == [-2, 1]
    # sign convention: positive leading coefficient of the primitive part
    alpha, prim = content_primitive(q([2, -4]))
    assert alpha == -2 and prim == [-1, 2]


def is_primitive(ints):
    from math import gcd

    g = 0
    for c in ints:
        g = gcd(g, c)
    return g == 1


def test_gauss_primitive_products_random():
    rng = random.Random(29)
    for _ in range(60):
        f = rand_poly(rng, QQ, 4, -9, 9)
        g = rand_poly(rng, QQ, 4, -9, 9)
        if f.is_zero() or g.is_zero():
            continue
        _, fp = content_primitive(f)
        _, gp = content_primitive(g)
        prod = Poly(QQ, fp) * Poly(QQ, gp)
        _, pp = content_primitive(prod)
        assert is_primitive([int(c) for c in pp])
        assert [abs(c) for c in pp] == [abs(c.v[0]) for c in prod.coeffs]


def test_resultant_examples():
    # Res(t^2-2, t^2-3): evaluating t^2-3 at both square roots of 2 gives
    # (2-3)*(2-3) = 1
    assert resultant(q([-2, 0, 1]), q([-3, 0, 1])) == 1
    assert resultant(q([4, 2, 0, 1]), q([1])) == 1
    # Res(t - a, g) = g(a)
    g = q([2, -3, 0, 5])
    for a in [Fraction(0), Fraction(2), Fraction(-7, 2)]:
        assert resultant(q([-a, 1]), g) == g.eval(a)
    with pytest.raises(ZeroPolynomial):
        resultant(q([]), q([1]))


def sylvester_matrix(f: Poly, g: Poly):
    """The (m+n) x (m+n) Sylvester matrix of f (degree n) and g (degree m)."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("Sylvester matrix of zero polynomial")
    dom = f.dom
    n, m = f.degree, g.degree
    size = n + m
    zero = dom.zero()
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(m):
        rows.append([zero] * i + fc + [zero] * (size - i - len(fc)))
    for i in range(n):
        rows.append([zero] * i + gc + [zero] * (size - i - len(gc)))
    return rows


def sylvester_resultant(f: Poly, g: Poly):
    """Resultant as a division-free determinant of the Sylvester matrix.

    Expansion over column subsets is exponential but division-free, so it
    works over any commutative ring: the oracle for `resultant`.
    """
    rows = sylvester_matrix(f, g)
    dom = f.dom
    n = len(rows)
    if n == 0:
        return dom.one()

    @lru_cache(maxsize=None)
    def minor(row, cols):
        if row == n:
            return dom.one()
        total = dom.zero()
        sign = 1
        for idx, col in enumerate(cols):
            a = rows[row][col]
            if a:
                rest = cols[:idx] + cols[idx + 1 :]
                term = a * minor(row + 1, rest)
                total = total + term if sign > 0 else total - term
            sign = -sign
        return total

    return minor(0, tuple(range(n)))


def test_resultant_matches_sylvester_oracle():
    rng = random.Random(31)
    for dom in (QQ, F7):
        for _ in range(40):
            f = rand_poly(rng, dom, 4, -4, 4)
            g = rand_poly(rng, dom, 3, -4, 4)
            if f.is_zero() or g.is_zero():
                continue
            assert resultant(f, g) == sylvester_resultant(f, g)


def test_resultant_multiplicative_random():
    rng = random.Random(37)
    for _ in range(30):
        f = rand_poly(rng, QQ, 3, -3, 3)
        g = rand_poly(rng, QQ, 2, -3, 3)
        h = rand_poly(rng, QQ, 2, -3, 3)
        if f.is_zero() or g.is_zero() or h.is_zero():
            continue
        assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)


def test_resultant_over_poly_ring():
    # resultant in x of polys whose coefficients live in QQ[t]
    R = PolyRing(QQ)
    x2 = Poly(R, [q([-2]), q([]), q([1])])  # x^2 - 2
    # x^2 - 2tx + (t^2 - 2)  ==  (t - x)^2 - 2
    h = Poly(R, [q([-2, 0, 1]), q([0, -2]), q([1])])
    res = resultant(x2, h)
    # roots x = +-sqrt(2): product ((t - r)^2 - 2) = t^4 - 8t^2 + 4... direct:
    # (t^2 - 2sqrt2 t + 0)(t^2 + 2sqrt2 t) ... check against oracle instead
    assert res == sylvester_resultant(x2, h)
    assert res == q([0, 0, -8, 0, 1])  # t^2(t^2 - 8)


def test_discriminant():
    # disc(t^2 + bt + c) = b^2 - 4c
    for b, c in [(3, 1), (0, -2), (5, 7)]:
        assert discriminant(q([c, b, 1])) == b * b - 4 * c
    # disc(t^3 + pt + q) = -4p^3 - 27q^2
    for p3, q3 in [(-2, 1), (1, 1), (0, -2)]:
        assert discriminant(q([q3, p3, 0, 1])) == -4 * p3**3 - 27 * q3**2


def test_render():
    assert render(q([-2, 0, 0, 0, 1])) == "t^4 - 2"
    assert render(q([1, Fraction(1, 2)])) == "1/2*t + 1"
    assert render(q([])) == "0"
    assert render(q([0, -1])) == "-t"
    assert render(Poly(F3, [1, 0, 1])) == "t^2 + 1"


def test_monic_and_pow():
    f = q([2, 4])
    assert f.monic() == q([Fraction(1, 2), 1])
    assert q([1, 1]) ** 3 == q([1, 3, 3, 1])
    assert q([1, 1]) ** 0 == q([1])


# -- Q[t] against the Fraction schoolbook -------------------------------------
# The Fraction schoolbook `*` and `divmod`, written out apart from `Poly`, as
# the oracle for it over QQ.


def _trimmed(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _schoolbook_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trimmed(out)


def _schoolbook_divmod(a, b):
    dg = len(b) - 1
    if len(a) - 1 < dg:
        return [], list(a)
    r = list(a)
    quo = [Fraction(0)] * (len(a) - dg)
    for i in range(len(a) - 1, dg - 1, -1):
        c = r[i] / b[-1]
        quo[i - dg] = c
        for j, y in enumerate(b):
            r[i - dg + j] = r[i - dg + j] - c * y
    return _trimmed(quo), _trimmed(r[:dg])


def _rational(rng, height):
    """An integer half the time, otherwise a fraction with a small or a
    large denominator; either sign."""
    num = rng.randint(-height, height)
    if rng.random() < 0.5:
        return Fraction(num)
    return Fraction(num, rng.choice([2, 3, 4, 6, 7, 12, 35, 10**9 + 7]))


def _rational_poly(rng, deg, height=30):
    coeffs = [_rational(rng, height) for _ in range(deg + 1)]
    if deg >= 0 and not coeffs[-1]:
        coeffs[-1] = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 5]))
    return q(coeffs)


def _qq_kernel_cases(rng):
    """Pairs (f, g) over QQ: random rational ones, integer ones with a
    monic, a negative or a rational leading coefficient on g, exact
    multiples, zero and constant operands, and dividends of lower degree
    than the divisor."""
    zero = q([])
    for _ in range(60):
        yield _rational_poly(rng, rng.randint(0, 10)), _rational_poly(rng, rng.randint(0, 6))
    for lead in (1, -1, -3, 7, Fraction(2, 3), Fraction(-5, 4)):
        for _ in range(8):
            g = q([rng.randint(-20, 20) for _ in range(rng.randint(1, 5))] + [lead])
            yield _rational_poly(rng, rng.randint(0, 10), height=10**12), g
    for _ in range(15):
        g = _rational_poly(rng, rng.randint(1, 4))
        yield _rational_poly(rng, rng.randint(0, 6)) * g, g
    for _ in range(6):
        f = _rational_poly(rng, rng.randint(0, 8))
        yield zero, f
        yield f, zero
        yield f, q([_rational(rng, 9) or Fraction(-1, 3)])
        yield q([_rational(rng, 9)]), f
        yield _rational_poly(rng, rng.randint(0, 3)), _rational_poly(rng, rng.randint(4, 7))
    yield zero, zero


def test_qq_arithmetic_matches_fraction_schoolbook():
    rng = random.Random(81)
    counts = Counter()
    for f, g in _qq_kernel_cases(rng):
        prod = f * g
        assert list(prod.coeffs) == _schoolbook_mul(list(f.coeffs), list(g.coeffs))
        assert all(type(c) is TowerElem and c.tower is QQ for c in prod.coeffs)
        if g.is_zero():
            with pytest.raises(DivisionByZeroPoly):
                divmod(f, g)
            continue
        quo, rem = divmod(f, g)
        expected = _schoolbook_divmod(list(f.coeffs), list(g.coeffs))
        assert (list(quo.coeffs), list(rem.coeffs)) == expected
        assert all(type(c) is TowerElem and c.tower is QQ for c in quo.coeffs + rem.coeffs)
        assert f % g == rem and f // g == quo
        lc = g.lc()
        counts["divmod"] += 1
        counts["non_monic"] += lc != 1
        counts["negative_lc"] += lc < 0
        counts["rational_lc"] += lc.v[1] != 1
        counts["rational"] += any(c.v[1] != 1 for c in f.coeffs + g.coeffs)
        counts["constant_divisor"] += g.degree == 0
        counts["lower_dividend"] += f.degree < g.degree
        counts["exact"] += rem.is_zero() and not f.is_zero()
        counts["monic_integer"] += lc == 1 and all(c.v[1] == 1 for c in g.coeffs)
    # the comparisons are not vacuous
    floors = {
        "divmod": 140, "non_monic": 120, "negative_lc": 30, "rational_lc": 30,
        "rational": 120, "constant_divisor": 6, "lower_dividend": 10, "exact": 20,
        "monic_integer": 8,
    }
    assert all(counts[k] >= v for k, v in floors.items()), counts


def _trager_norm_cases():
    """(K's integer modulus, kernel tuples of g's coefficients over K) for a
    few towers over Q, K their primitive field; one m_gamma is rational."""
    T3, a = adjoin_root(QQ, q([-2, 0, 0, 1]), "a")
    yield _primitive_reps(T3, (a * a, a, T3.one()))
    yield _primitive_reps(T3, [T3.from_int(c) for c in (-2, 0, 0, 1)])
    T4, basis = _sqrt2_sqrt3_tower()
    yield _primitive_reps(T4, (-basis[2], basis[1], T4.one()))  # t^2 + sqrt2*t - sqrt3
    Th, h = adjoin_root(QQ, q([Fraction(-1, 2), 0, 1]), "h")  # h^2 = 1/2
    yield _primitive_reps(Th, (h * Fraction(1, 3), Th.one() * 2, Th.one()))


def test_norm_resultant_matches_sylvester_oracle():
    R = PolyRing(QQ)
    checked = 0
    for case in _trager_norm_cases():
        mgamma, reps = _poly_form(*case)
        for s in (0, 1, -1, 2):
            acc = Poly.zero(R)
            for j, cj in enumerate(reps):
                binom_x = Poly(R, [q([0] * (j - k) + [comb(j, k) * (-s) ** k]) for k in range(j + 1)])
                acc = acc + Poly(R, [q([c]) for c in cj.coeffs]) * binom_x
            m_x = Poly(R, [q([c]) for c in mgamma.coeffs])
            norm = _norm_resultant(mgamma, reps, s)
            assert norm == resultant(m_x, acc) == sylvester_resultant(m_x, acc)
            assert norm.degree == mgamma.degree * (len(reps) - 1)
            checked += 1
    assert checked == 16
