"""Scalar layer: rationals, F_p arithmetic, primes."""

import math
import operator
import random
from fractions import Fraction

import pytest

from galoiskit.errors import Budget, ZeroInverse
from galoiskit.numbers import (
    TRIAL_DIVISION_CAP,
    PrimeField,
    QQ,
    TowerElem,
    divisors,
    factor_integer,
    is_fermat_prime,
    is_prime,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def exhaustive_inverse(a, p):
    # independent oracle: scan all residues
    for b in range(p):
        if (a * b) % p == 1:
            return b
    return None


def test_fp_inv_examples():
    F7 = PrimeField(7)
    assert F7.from_int(3).inv() == F7.from_int(exhaustive_inverse(3, 7))
    assert F7.from_int(3).inv().v == (5,)
    for p in [2, 3, 5, 97]:
        assert PrimeField(p).one().inv() == PrimeField(p).one()
    assert PrimeField(3).from_int(2).inv() == PrimeField(3).from_int(2)


def test_fp_inv_matches_exhaustive_search():
    for p in SMALL_PRIMES:
        F = PrimeField(p)
        for a in range(1, p):
            assert F.from_int(a).inv().v == (exhaustive_inverse(a, p),)


def test_fp_inv_zero_raises():
    with pytest.raises(ZeroInverse):
        PrimeField(5).zero().inv()


def test_field_axioms_random_fp():
    rng = random.Random(7)
    for p in [2, 3, 5, 13, 97]:
        F = PrimeField(p)
        for _ in range(50):
            a, b, c = (F.from_int(rng.randrange(p)) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == F.zero()
            if a:
                assert a * a.inv() == F.one()


def test_field_axioms_random_rationals():
    rng = random.Random(11)
    for _ in range(100):
        a, b, c = (Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a != 0:
            assert a * (1 / a) == 1


def test_prime_divides_binomials():
    # p | C(p, i) for all primes p <= 50 and 0 < i < p
    for p in [q for q in SMALL_PRIMES if q <= 50]:
        for i in range(1, p):
            assert math.comb(p, i) % p == 0


def test_is_prime():
    assert is_prime(65537)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2)
    assert not is_prime(65536)
    sieve = [True] * 1000
    sieve[0] = sieve[1] = False
    for i in range(2, 1000):
        if sieve[i]:
            for j in range(2 * i, 1000, i):
                sieve[j] = False
    for n in range(1000):
        assert is_prime(n) == sieve[n]


def test_factor_integer():
    assert factor_integer(60) == [2, 2, 3, 5]
    assert factor_integer(1) == []
    assert factor_integer(97) == [97]
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 10**6)
        fs = factor_integer(n)
        prod = 1
        for f in fs:
            assert is_prime(f)
            prod *= f
        assert prod == n


def test_trial_division_cap():
    # factorization stops at the cap; primality is proved by strong tests
    # up to STRONG_TEST_BOUND and refused from there on
    assert not is_prime(10**13)
    assert is_prime(2**61 - 1)
    with pytest.raises(Budget):
        is_prime(10**24)
    with pytest.raises(Budget):
        factor_integer(10**13)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(97) == [1, 97]


def test_divisors_match_brute_force():
    for n in range(1, 2001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_divisors_are_capped():
    with pytest.raises(Budget):
        divisors(TRIAL_DIVISION_CAP + 1)


def test_is_fermat_prime():
    assert is_fermat_prime(17)
    assert is_fermat_prime(257)
    assert is_fermat_prime(65537)
    assert not is_fermat_prime(7)
    known = {3, 5, 17, 257, 65537}
    for q in range(2, 300):
        assert is_fermat_prime(q) == (q in known)


def test_qq_coerce():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.coerce(Fraction(2, 4)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        QQ.coerce("x")


def test_fp_coerce_fraction():
    F = PrimeField(7)
    assert F.coerce(Fraction(1, 2)) == F.from_int(4)  # 2*4 = 8 = 1 mod 7
    with pytest.raises(ZeroInverse):
        F.coerce(Fraction(1, 7))


def _oracle_rationals(rng):
    """0, +-1, integers and fractions with small or 100-digit numerators and
    denominators, seeded."""
    yield from (Fraction(0), Fraction(1), Fraction(-1), Fraction(12), Fraction(-3, 4))
    for _ in range(50):
        top = rng.choice((9, 9, 10**100))
        yield Fraction(rng.randint(-top, top), rng.choice((1, rng.randint(1, top))))


def _kernel_form(x, want):
    """x is the rational scalar of the Fraction want: (n, D) in lowest terms, D > 0."""
    return type(x) is TowerElem and x.tower is QQ and x.v == (want.numerator, want.denominator)


def test_q_scalars_match_the_fraction_oracle():
    # every operation of a Q scalar, with a scalar, an int or a Fraction on
    # either side, gives the Fraction oracle's value in kernel form, and it
    # compares, prints and hashes as that Fraction (an integer as its int)
    rng = random.Random(46)
    xs = list(_oracle_rationals(rng))
    assert any(x.denominator == 1 for x in xs) and any(abs(x.numerator) > 10**90 for x in xs)
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    for a in xs:
        qa = QQ.coerce(a)
        assert _kernel_form(qa, a) and str(qa) == str(a) and hash(qa) == hash(a)
        assert a.denominator != 1 or hash(qa) == hash(a.numerator)
        assert _kernel_form(-qa, -a) and bool(qa) == bool(a)
        for e in (-3, -1, 0, 1, 2, 5):
            if a or e >= 0:
                assert _kernel_form(qa**e, a**e)
        for b in rng.sample(xs, 12) + [Fraction(0), a]:
            qb = QQ.coerce(b)
            sides = [(qa, qb), (qa, b), (a, qb)]
            if b.denominator == 1:
                sides.append((qa, b.numerator))
            if a.denominator == 1:
                sides.append((a.numerator, qb))
            for x, y in sides:
                for op in ops:
                    if op is operator.truediv and not b:
                        with pytest.raises(ZeroDivisionError):
                            op(x, y)
                    else:
                        assert _kernel_form(op(x, y), op(a, b)), (op, x, y)
                assert (x == y) == (y == x) == (a == b)
                assert (x < y) == (y > x) == (a < b)
                assert (x > y) == (y < x) == (a > b)
    assert sorted(map(QQ.coerce, xs)) == sorted(xs)
    with pytest.raises(ZeroInverse):
        QQ.zero().inv()
