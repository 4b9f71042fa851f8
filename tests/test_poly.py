"""Polynomial ring layer: division, gcd, derivative, resultants, rendering."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from galoiskit.errors import DivisionByZeroPoly, ZeroPolynomial
from galoiskit.numbers import QQ, FpElem, PrimeField
from galoiskit.poly import (
    NEG_INFINITY,
    Poly,
    PolyRing,
    _divmod_mod,
    _mul_mod,
    _xgcd_mod,
    content_primitive,
    discriminant,
    gcd_ext,
    poly_gcd,
    render,
    resultant,
    squarefree_part,
    sylvester_resultant,
)
from galoiskit.tower import adjoin_root

F2 = PrimeField(2)
F3 = PrimeField(3)
F7 = PrimeField(7)


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


# -- F_p arithmetic on int residues, against QQ reduced mod p -----------------

# 1031 is past the shared residue table, so its coefficients are constructed
KERNEL_PRIMES = (2, 3, 5, 7, 13, 31, 1031)


def _int_poly(rng, maxdeg, height=40):
    return q([rng.randint(-height, height) for _ in range(rng.randint(0, maxdeg) + 1)])


def _unit_mod(c, m):
    return gcd(c.numerator, m) == 1 and gcd(c.denominator, m) == 1


def _residue(c, m):
    return c.numerator * pow(c.denominator, -1, m) % m


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
                counts["non_monic"] += g.lc() % p != 1
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
            a = [int(c) for c in f.coeffs]
            b = [int(c) for c in g.coeffs]
            assert _mul_mod(a, b, m) == _residues(f * g, m)
            quo, rem = divmod(f, g)
            assert _divmod_mod(a, b, m) == (_residues(quo, m), _residues(rem, m))


def _euclid_gcd(f, g):
    """The plain Euclid loop on `Poly` remainders: the monic gcd oracle."""
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def test_fp_gcd_matches_euclid_loop():
    rng = random.Random(73)
    counts = {"zero": 0, "constant": 0, "non_monic": 0, "nontrivial": 0}
    for p in KERNEL_PRIMES:
        F = PrimeField(p)
        for f, g in _kernel_cases(rng):
            fp, gp = Poly(F, list(f.coeffs)), Poly(F, list(g.coeffs))
            for a, b in ((fp, gp), (gp, fp)):
                got = poly_gcd(a, b)
                assert got == _euclid_gcd(a, b), (p, a, b)
                assert got.dom == F and all(type(c) is FpElem for c in got.coeffs)
                assert got.is_zero() or got.is_monic()
                counts["zero"] += a.is_zero() or b.is_zero()
                counts["constant"] += a.degree == 0 or b.degree == 0
                counts["non_monic"] += not a.is_zero() and not a.is_monic()
                counts["nontrivial"] += got.degree >= 1
    # the comparisons are not vacuous
    assert min(counts.values()) >= 40, counts
    assert poly_gcd(Poly.zero(F7), Poly.zero(F7)) == Poly.zero(F7)
    with pytest.raises(ValueError):
        poly_gcd(Poly(PrimeField(5), [1, 2, 1]), Poly(F7, [3, 1]))


def test_xgcd_mod_bezout():
    # s*a + t*b = d with d monic and dividing both, on residue lists:
    # coprime, equal, multiples of a common factor and zero inputs
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
            a, b = [c.r for c in f.coeffs], [c.r for c in g.coeffs]
            d, s, t = _xgcd_mod(a, b, p)
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
    assert _xgcd_mod([], [], 7) == ([], [1], [])


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
        assert [abs(c) for c in pp] == [abs(int(c)) for c in prod.coeffs]


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


# -- Q[t] on integer numerators -----------------------------------------------
# The Fraction schoolbook `*` and `divmod` that Poly ran over QQ before the
# integer-numerator kernel, kept as the oracle for it.


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
        assert all(type(c) is Fraction for c in prod.coeffs)
        if g.is_zero():
            with pytest.raises(DivisionByZeroPoly):
                divmod(f, g)
            continue
        quo, rem = divmod(f, g)
        expected = _schoolbook_divmod(list(f.coeffs), list(g.coeffs))
        assert (list(quo.coeffs), list(rem.coeffs)) == expected
        assert all(type(c) is Fraction for c in quo.coeffs + rem.coeffs)
        assert f % g == rem and f // g == quo
        lc = g.lc()
        counts["divmod"] += 1
        counts["non_monic"] += lc != 1
        counts["negative_lc"] += lc < 0
        counts["rational_lc"] += lc.denominator != 1
        counts["rational"] += any(c.denominator != 1 for c in f.coeffs + g.coeffs)
        counts["constant_divisor"] += g.degree == 0
        counts["lower_dividend"] += f.degree < g.degree
        counts["exact"] += rem.is_zero() and not f.is_zero()
        counts["monic_integer"] += lc == 1 and all(c.denominator == 1 for c in g.coeffs)
    # the comparisons are not vacuous
    floors = {
        "divmod": 140, "non_monic": 120, "negative_lc": 30, "rational_lc": 30,
        "rational": 120, "constant_divisor": 6, "lower_dividend": 10, "exact": 20,
        "monic_integer": 8,
    }
    assert all(counts[k] >= v for k, v in floors.items()), counts


def _trager_norm_cases():
    """(mgamma, reps of g's coefficients in gamma) for a few towers over Q,
    one of them with a rational minimal polynomial."""
    T3, a = adjoin_root(QQ, q([-2, 0, 0, 1]), "a")
    yield T3.primitive_element()[1], [T3.express_in_primitive(c) for c in (a * a, a, T3.one())]
    yield T3.primitive_element()[1], [T3.express_in_primitive(T3.from_int(c)) for c in (-2, 0, 0, 1)]
    T4, basis = _sqrt2_sqrt3_tower()
    g4 = [-basis[2], basis[1], T4.one()]  # t^2 + sqrt2*t - sqrt3
    yield T4.primitive_element()[1], [T4.express_in_primitive(c) for c in g4]
    Th, h = adjoin_root(QQ, q([Fraction(-1, 2), 0, 1]), "h")  # h^2 = 1/2
    yield Th.primitive_element()[1], [Th.express_in_primitive(c) for c in (h * Fraction(1, 3), Th.one() * 2, Th.one())]


def test_norm_resultant_matches_sylvester_oracle():
    from math import comb

    from galoiskit.factor import _norm_resultant

    R = PolyRing(QQ)
    checked = 0
    for mgamma, reps in _trager_norm_cases():
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
