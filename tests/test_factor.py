"""Factorization layer: finite fields, Q (Zassenhaus), extensions (Trager)."""

import functools
import itertools
import math
import operator
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from galoiskit.errors import (
    Budget,
    ConstantPolynomial,
    DegreeCap,
    InternalInvariant,
    NotPrime,
    SearchExhausted,
    ZeroPolynomial,
)
from galoiskit.numbers import QQ, PrimeField, TowerElem, divisors
from galoiskit.poly import (
    Poly,
    _cofactor_mod,
    _deriv_mod,
    _mul_mod,
    _power,
    _rem_mod,
    _sub_mod,
    _trim,
    _xgcd_mod,
    content_primitive,
    poly_gcd,
)
from galoiskit.factor import (
    NORM_PRIME,
    NORM_SHIFT_TRIES,
    RATIONAL_ROOT_BOUND,
    _bezout_step,
    _ddf,
    _factor_sqfree_primitive_z,
    _fp_polys,
    _hensel_step,
    _norm_primes,
    _polys,
    _powmod,
    _shift_into,
    _shift_order,
    _split_by_norm,
    _trager_norm,
    _z_add,
    _z_mod,
    check_eisenstein,
    cyclotomic_p,
    eisenstein,
    factor_ff,
    factor_fp,
    factor_over_extension,
    factor_q,
    is_irreducible_ff,
    is_irreducible_q,
    mod_p_certificate,
    rational_roots,
    roots_fp,
)
from galoiskit.tower import adjoin_root
from test_poly import _compose, _list_divmod_mod, _norm_resultant, _poly_form, _primitive_reps, _trager_norm_cases
from test_tower import LADDER, _tower_elements

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def q(coeffs):
    return Poly(QQ, coeffs)


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------


def test_factor_fp_examples():
    # 1 + t + ... + t^(p-1) over F_p is divisible by t - 1
    for p in (3, 5, 7):
        F = PrimeField(p)
        fact = factor_fp(Poly(F, [1] * p))
        t_minus_1 = Poly(F, [-1, 1])
        assert any(g == t_minus_1 for g, _ in fact.factors)
        assert fact.expand(F) == Poly(F, [1] * p)
    assert factor_fp(Poly(F2, [1, 1, 1])).is_irreducible()
    fact = factor_fp(Poly(F3, [0, -1, 0, 1]))
    assert sorted(str(g) for g, _ in fact.factors) == ["t", "t + 1", "t + 2"]


def test_factor_fp_roundtrip_random():
    rng = random.Random(7)
    for p in (2, 3, 5, 7):
        F = PrimeField(p)
        for _ in range(25):
            deg = rng.randint(1, 8)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            f = Poly(F, coeffs)
            fact = factor_fp(f)
            assert fact.expand(F) == f
            for g, _ in fact.factors:
                assert g.is_monic()
                assert is_irreducible_ff(g)


def test_factor_fp_uniqueness_roundtrip():
    rng = random.Random(11)
    for _ in range(15):
        F = PrimeField(5)
        f = Poly(F, [rng.randrange(5) for _ in range(6)] + [1])
        first = factor_fp(f)
        again = factor_fp(first.expand(F))
        assert first.factors == again.factors
        assert first.unit == again.unit


def _trial_division_factors(f):
    """Oracle over F_p: the monic irreducible factors of f, with repeats, as
    sorted strings, by dividing by every monic polynomial of degree <=
    deg/2 in increasing degree."""
    F = f.dom
    p = F.p
    out = []
    work = f.monic()
    d = 1
    while 2 * d <= work.degree:
        progressed = False
        for high_to_low in itertools.product(range(p), repeat=d):
            cand = Poly(F, [F.from_int(c) for c in reversed(high_to_low)] + [F.one()])
            quo, rem = divmod(work, cand)
            if rem.is_zero():
                out.append(cand)
                work = quo
                progressed = True
                break
        if not progressed:
            d += 1
    if work.degree > 0:
        out.append(work)
    return sorted(str(g) for g in out)


def _factor_fp_strings(f):
    mine = []
    for g, m in factor_fp(f).factors:
        mine.extend([str(g)] * m)
    return sorted(mine)


def test_factor_fp_matches_trial_division_oracle():
    rng = random.Random(13)
    for p in (2, 3):
        F = PrimeField(p)
        for _ in range(20):
            f = Poly(F, [rng.randrange(p) for _ in range(5)] + [1])
            assert _factor_fp_strings(f) == _trial_division_factors(f)


@pytest.mark.slow
def test_factor_fp_every_small_monic_matches_trial_division():
    # every monic polynomial of degree <= 8 over F_2, <= 5 over F_3 and
    # <= 4 over F_5: squarefree parts, DDF and EDF on residues
    for p, top in ((2, 8), (3, 5), (5, 4)):
        F = PrimeField(p)
        for deg in range(top + 1):
            for low in itertools.product(range(p), repeat=deg):
                f = Poly(F, list(low) + [1])
                assert _factor_fp_strings(f) == _trial_division_factors(f), f


def test_powmod_matches_repeated_multiplication():
    # e in {0, 1, p, p^d}; t^(p^d) is read as d p-th powers, each by p
    # products, so p = 1031 stays cheap
    def power(b, e, f):
        out = Poly.one(b.dom)
        for _ in range(e):
            out = out * b % f
        return out

    rng = random.Random(29)
    for p in (2, 3, 5, 7, 13, 31, 1031):
        F = PrimeField(p)
        R = _polys(F)
        powmod = lambda b, e, f: R.wrap(_powmod(R, R.read(b), e, R.read(f)))
        for _ in range(4):
            d = rng.randint(1, 5)
            f = Poly(F, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])
            b = Poly(F, [rng.randrange(p) for _ in range(rng.randint(0, 2 * d + 2))])
            assert powmod(b, 0, f) == Poly.one(F)
            assert powmod(b, 1, f) == b % f
            assert powmod(b, p, f) == power(b, p, f)
            want = b % f
            for _ in range(d):
                want = power(want, p, f)
            got = powmod(b, p**d, f)
            assert got == want and all(c.tower == F for c in got.coeffs)


def _powmod_by_product_then_remainder(R, b, e, m):
    """`_powmod` with its step as two ring operations, a product and then a
    remainder, each packing its own operands."""
    return _power(R.rem(b, m), e, lambda u, v: R.rem(R.mul(u, v), m), R.one)


def test_powmod_matches_the_product_then_remainder_loop():
    # moduli of degree 1-40, monic or not, bases of length 0-80 and
    # exponents 0-2^64, over F_p at the slot bound too (every coefficient
    # p - 1); then over F_4 and F_9, whose rings multiply `Poly`s
    rng = random.Random(41)
    for p in (2, 3, 13, 2**61 - 1):
        R = _fp_polys(p)
        for k in range(1, 41):
            m = [rng.randrange(p) for _ in range(k)] + [rng.choice([1, rng.randrange(1, p)])]
            b = [rng.randrange(p) for _ in range(rng.randint(0, 2 * k))]
            for e in (0, 1, 2, p, rng.randrange(2**64)):
                assert _powmod(R, b, e, m) == _powmod_by_product_then_remainder(R, b, e, m), (p, m, b, e)
            top = [p - 1] * (k + 1)
            assert _powmod(R, top, p, top) == _powmod_by_product_then_remainder(R, top, p, top), (p, k)
            assert _powmod(R, top[:k], 3, top) == _powmod_by_product_then_remainder(R, top[:k], 3, top), (p, k)
    for F in (adjoin_root(F2, Poly(F2, [1, 1, 1]), "a")[0], adjoin_root(F3, Poly(F3, [1, 0, 1]), "i")[0]):
        R = _polys(F)
        elems = _tower_elements(F)
        for k in range(1, 7):
            m = Poly(F, [rng.choice(elems) for _ in range(k)] + [rng.choice(elems[1:])])
            b = Poly(F, [rng.choice(elems) for _ in range(rng.randint(0, 2 * k))])
            for e in (0, 1, 5, R.q**k):
                assert _powmod(R, b, e, m) == _powmod_by_product_then_remainder(R, b, e, m), (F, m, b, e)


def test_ddf_pattern_counts_the_modular_factors():
    # sum of deg(g)/k over the distinct-degree pieces of f mod p is the
    # number of irreducible factors of f mod p, for every good prime
    rng = random.Random(31)
    checked = 0
    for _ in range(40):
        f = q([1])
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 4)
            f = f * q([rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 4)])
        ints = [c.v[0] for c in f.coeffs]
        if poly_gcd(f, f.derivative()).degree != 0:
            continue
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            if ints[-1] % p == 0:
                continue
            fbar = Poly(PrimeField(p), ints)
            if poly_gcd(fbar, fbar.derivative()).degree != 0:
                continue
            R = _polys(fbar.dom)
            pieces = [(R.wrap(g), k) for g, k in _ddf(R, R.read(fbar.monic()))]
            assert sum(g.degree // k for g, k in pieces) == len(factor_ff(fbar).factors)
            assert all(g.degree % k == 0 for g, k in pieces)
            checked += 1
    assert checked >= 150, checked


def _squarefree_factor_degrees(f):
    """factor_ff(f), checked by re-multiplication and Ben-Or's test; returns
    how many factors of each degree it found."""
    fact = factor_ff(f)
    assert fact.expand(f.dom) == f
    for g, m in fact.factors:
        assert m == 1 and g.is_monic() and is_irreducible_ff(g)
    return Counter(g.degree for g, _ in fact.factors)


def test_edf_splits_t_power_q_minus_t():
    # t^(q^k) - t is the product of every monic irreducible over F_q of
    # degree dividing k, so every equal-degree piece has many factors
    def t_pow_minus_t(dom, n):
        return Poly(dom, [0, -1] + [0] * (n - 2) + [1])

    assert _squarefree_factor_degrees(t_pow_minus_t(F2, 64)) == {1: 2, 2: 1, 3: 2, 6: 9}
    assert _squarefree_factor_degrees(t_pow_minus_t(F3, 81)) == {1: 3, 2: 3, 4: 18}
    F4, _ = adjoin_root(F2, Poly(F2, [1, 1, 1]), "a")
    assert _squarefree_factor_degrees(t_pow_minus_t(F4, 64)) == {1: 4, 3: 20}


def test_edf_gf4_every_squarefree_quartic():
    # over F_4 a witness t alone cannot separate roots of equal trace; the
    # basis multiples b * t^j must split every squarefree monic quartic
    F4, _ = adjoin_root(F2, Poly(F2, [1, 1, 1]), "a")
    elems = _tower_elements(F4)
    for low in itertools.product(elems, repeat=4):
        f = Poly(F4, list(low) + [F4.one()])
        if poly_gcd(f, f.derivative()).degree:
            continue
        degrees = _squarefree_factor_degrees(f)
        assert sum(d * k for d, k in degrees.items()) == 4


def test_roots_fp():
    assert roots_fp(Poly(F7, [-2, 0, 0, 1])) == set()  # t^3 = 2 has no root mod 7
    assert roots_fp(Poly(F3, [-2, 0, 1])) == set()  # 2 is not a square mod 3
    for p in (2, 3, 5):
        F = PrimeField(p)
        f = Poly(F, [0, -1] + [0] * (p - 2) + [1])  # t^p - t
        assert roots_fp(f) == set(F.elements())
    with pytest.raises(ZeroPolynomial):
        roots_fp(Poly(F3, []))


def test_roots_fp_match_exhaustive_evaluation():
    # oracle: evaluate at every element of the coefficient field; seeded
    # products of linear factors with multiplicities (p-th powers included)
    # times a random cofactor, so some inputs repeat roots and some have none
    rng = random.Random(31)
    F4, _ = adjoin_root(F2, Poly(F2, [1, 1, 1]), "a")
    F9, _ = adjoin_root(F3, Poly(F3, [1, 0, 1]), "s")
    fields = [PrimeField(p) for p in (2, 3, 5, 7, 13)] + [F4, F9]
    for F in fields:
        elems = F.elements() if isinstance(F, PrimeField) else _tower_elements(F)
        seen_repeated = seen_rootless = False
        for _ in range(40):
            f = Poly(F, [rng.choice(elems) for _ in range(rng.randint(0, 4))] + [F.one()])
            for _ in range(rng.randint(0, 3)):
                f = f * Poly(F, [-rng.choice(elems), F.one()]) ** rng.choice((1, 2, F.characteristic))
            if rng.random() < 0.3:
                f = f * rng.choice(elems[1:])  # roots do not need a monic input
            oracle = {a for a in elems if not f.eval(a)}
            assert roots_fp(f) == oracle
            seen_rootless |= not oracle
            seen_repeated |= any(not f.derivative().eval(a) for a in oracle)
        assert seen_repeated and seen_rootless, F


def test_distinct_roots_vs_linear_factors_fp():
    rng = random.Random(17)
    for _ in range(30):
        F = PrimeField(5)
        f = Poly(F, [rng.randrange(5) for _ in range(5)] + [1])
        d = poly_gcd(f, f.derivative())
        if d.degree != 0:
            continue  # squarefree only
        fact = factor_fp(f)
        linear = sum(m for g, m in fact.factors if g.degree == 1)
        assert linear == len(roots_fp(f))


def test_prime_field_and_degree_one_tower_rings_agree():
    # every monic polynomial of degree <= 6 over F_2, <= 4 over F_3 and <= 3
    # over F_5, on residue lists over F_p and on Poly over Tower(F_p, t)
    for p, top in ((2, 6), (3, 4), (5, 3)):
        F = PrimeField(p)
        T, _ = adjoin_root(F, Poly.t(F), "s")
        down = lambda g: g.map_domain(F, lambda c: T.flatten(c)[0])
        for deg in range(top + 1):
            for low in itertools.product(range(p), repeat=deg):
                f = Poly(F, list(low) + [1])
                ft = f.map_domain(T, T.coerce)
                fact, fact_t = factor_ff(f), factor_ff(ft)
                assert fact.unit == T.flatten(fact_t.unit)[0], f
                assert fact.factors == tuple((down(g), m) for g, m in fact_t.factors), f
                assert roots_fp(f) == {T.flatten(r)[0] for r in roots_fp(ft)}, f
                if deg:
                    assert is_irreducible_ff(f) == is_irreducible_ff(ft), f
                else:
                    for g in (f, ft):
                        with pytest.raises(ConstantPolynomial):
                            is_irreducible_ff(g)


def test_ben_or_matches_trial_division():
    # every monic polynomial of degree 1..6 over F_2 and F_3 and 1..4 over
    # F_5: irreducible iff no monic polynomial of degree <= n/2 divides it
    for p, top in ((2, 6), (3, 6), (5, 4)):
        F = PrimeField(p)
        divisors = [
            Poly(F, list(low) + [1])
            for d in range(1, top // 2 + 1)
            for low in itertools.product(range(p), repeat=d)
        ]
        for deg in range(1, top + 1):
            for low in itertools.product(range(p), repeat=deg):
                f = Poly(F, list(low) + [1])
                by_trial = not any(
                    (f % g).is_zero() for g in divisors if 2 * g.degree <= deg
                )
                assert is_irreducible_ff(f) == by_trial, f


def test_gf_3_9_takes_few_powers(monkeypatch, capsys):
    # find_irreducible(3, 9) tries 65 candidates; Rabin's test, which builds
    # all nine powers t^(3^k) mod f first, takes 585 powers for them.  Ben-Or's
    # stops at the least degree of a factor: at most half that
    import galoiskit.factor as factor_mod
    from galoiskit.cli import dispatch

    calls = []
    monkeypatch.setattr(factor_mod, "_powmod", lambda *a: calls.append(1) or _powmod(*a))
    assert dispatch(["gf", "3", "9"]) == 0
    assert "t^9 + 2*t^3 + t^2 + 1" in capsys.readouterr().out
    assert 0 < len(calls) <= 292


def test_ben_or_takes_only_the_first_pair_of_the_split(monkeypatch):
    # on (t + 1) g with deg g = 10 the first power, t^7 mod f, already finds
    # the linear factor; splitting the rest would take four more powers
    import galoiskit.factor as factor_mod

    calls = []
    monkeypatch.setattr(factor_mod, "_powmod", lambda *a: calls.append(1) or _powmod(*a))
    g = Poly(F7, [3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1])
    assert not is_irreducible_ff(Poly(F7, [1, 1]) * g)
    assert len(calls) == 1


def test_ben_or_over_fp_builds_no_poly(monkeypatch):
    built = []
    init = Poly.__init__
    monkeypatch.setattr(Poly, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    for p, coeffs, want in ((7, [9, 14, 0, -8], True), (3, [9, 14, 0, -8], False), (2, [1, 0, 1, 0, 0, 1], True)):
        f = Poly(PrimeField(p), coeffs)
        built.clear()
        assert is_irreducible_ff(f) == want
        assert not built
    for coeffs, want in (([9, 14, 0, -8], 7), ([-1, -1, 0, 0, 0, 1], 3), ([2, 0, 3, 0, 1], None)):
        f = q(coeffs)
        built.clear()
        assert mod_p_certificate(f) == want
        assert not built


# ---------------------------------------------------------------------------
# certificates over Q
# ---------------------------------------------------------------------------


def test_eisenstein_certificates():
    assert eisenstein(q([3, 0, 0, 9, -15, 2]), shifts=[0]) == (3, 0)
    assert eisenstein(q([3, -6, 0, 0, 0, 1]), shifts=[0]) == (3, 0)
    assert eisenstein(cyclotomic_p(5), shifts=[0, 1]) == (5, 1)
    assert eisenstein(q([1, 1]), shifts=[0]) is None  # no prime divides a_0 = 1
    for f, (p, c) in [
        (q([3, 0, 0, 9, -15, 2]), (3, 0)),
        (cyclotomic_p(5), (5, 1)),
        (cyclotomic_p(7), (7, 1)),
    ]:
        assert check_eisenstein(f, p, c)
    assert not check_eisenstein(q([3, 0, 0, 9, -15, 2]), 2, 0)


def test_mod_p_certificate():
    f = q([9, 14, 0, -8])
    assert mod_p_certificate(f) == 7
    # independent re-check of the witness: p does not divide lc, reduction irreducible
    assert is_irreducible_ff(Poly(F7, [9, 14, 0, -8]))
    # p = 3 is rejected: the reduction factors
    assert not is_irreducible_ff(Poly(F3, [9, 14, 0, -8]))
    # p | lc is rejected: 6t^2 + t with p = 2 must not certify
    assert mod_p_certificate(q([0, 1, 6]), prime_bound=2) is None


def _divisors_by_trial(n):
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def _fraction_roots(f):
    """Oracle: the rational roots of f over Q by the definition, f(r) == 0 in
    Fractions, over every +-u/v with u dividing the lowest nonzero and v the
    leading coefficient of f's integer form (and 0 when f(0) == 0)."""
    den = math.lcm(*(c.v[1] for c in f.coeffs))
    ints = [(c * den).v[0] for c in f.coeffs]
    low = next(c for c in ints if c)
    roots = {Fraction(0)} if not ints[0] else set()
    for u in _divisors_by_trial(low):
        for v in _divisors_by_trial(ints[-1]):
            roots.update(r for r in (Fraction(u, v), Fraction(-u, v)) if not f.eval(r))
    return roots


def test_rational_roots_match_fraction_evaluation():
    # non-monic leading coefficients, root 0, repeated, negative and
    # rational roots, times a factor with no rational root half the time
    rng = random.Random(41)
    for _ in range(120):
        lead = rng.choice([1, 2, 3, -5, 6])
        built = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            built.append(built[0])  # repeated root
        f = q([lead])
        for r in built:
            f = f * q([-r, 1])
        if rng.random() < 0.5:
            f = f * q([rng.choice([2, 3, 5]), 0, rng.choice([1, 7])])  # no rational root
        got = rational_roots(f)
        assert got == _fraction_roots(f), f
        assert got == set(built)


def test_rational_root_search_is_bounded():
    # 500 and 504 divisors: 500 * 500 pairs at degree 3 is the bound itself
    a, b = 2**4 * 3**4 * 5**4 * 7 * 11, 2**6 * 3**2 * 5**2 * 7 * 11 * 13
    assert (len(divisors(a)), len(divisors(b))) == (500, 504)
    assert 500 * 500 * (3 + 1) == RATIONAL_ROOT_BOUND
    assert rational_roots(q([a, 1, 0, a])) == set()
    with pytest.raises(Budget):
        rational_roots(q([a, 1, 0, b]))
    with pytest.raises(Budget):  # the constant term is past the trial-division cap
        rational_roots(q([10**30, 3, 0, 0, 1]))


def test_rational_roots():
    assert rational_roots(q([-2, 1])) == {Fraction(2)}
    assert rational_roots(q([0, 0, 1])) == {Fraction(0)}
    assert rational_roots(q([-1, 0, 2])) == set()  # 2t^2 = 1 has no rational root
    assert rational_roots(q([1, 2]) * q([-3, 1])) == {Fraction(-1, 2), Fraction(3)}


def test_is_irreducible_q_stages():
    assert is_irreducible_q(q([-10, 0, 0, 1])).irreducible  # cubic, no root
    assert is_irreducible_q(q([-10, 0, 0, 1])).witness_kind == "low_degree"
    cert = is_irreducible_q(q([1, 0, 1]) * q([1, 0, 1]))
    assert not cert.irreducible
    assert cert.witness_kind == "full_factorization"
    assert is_irreducible_q(q([-5, 1])).witness_kind == "low_degree"
    cert = is_irreducible_q(q([1, 1, 1, 1, 1]))  # Phi_5: Eisenstein after shift
    assert cert.irreducible and cert.witness_kind == "eisenstein"
    assert cert.witness_data == {"prime": 5, "shift": 1}
    cert = is_irreducible_q(q([-2, 1]) * q([-3, 0, 0, 0, 1]))
    assert not cert.irreducible and cert.witness_kind == "rational_root"
    assert cert.witness_data["root"] == 2
    with pytest.raises(ZeroPolynomial):
        is_irreducible_q(q([]))
    with pytest.raises(ConstantPolynomial):
        is_irreducible_q(q([5]))


def test_is_irreducible_q_reducible_skips_the_mod_p_scan(monkeypatch):
    # a reducible f with no rational root and no Eisenstein witness is
    # reducible mod every good prime (Gauss), so the scan cannot succeed;
    # the factorization decides at once
    import galoiskit.factor as factor_mod

    def no_scan(*args, **kwargs):
        raise AssertionError("mod-p witness sought for a reducible input")

    monkeypatch.setattr(factor_mod, "_irreducible_prime", no_scan)
    for f in (q([-2, 0, 0, 1]) * q([3, 3, 0, 0, 1]), q([1, 0, 1]) * q([-2, 0, 1]), q([5, 0, 1]) ** 2):
        cert = is_irreducible_q(f)
        assert cert.verdict == "reducible" and cert.witness_kind == "full_factorization"
        assert cert.witness_data["factorization"] == factor_q(f)


def test_is_irreducible_q_witness_order():
    # irreducible: the scan's witness as before; no witness below the bound
    # (t^4 - 10t^2 + 1 splits mod every prime): the full factorization
    cert = is_irreducible_q(q([-1, -1, 0, 0, 0, 1]))
    assert cert.witness_kind == "mod_p" and cert.witness_data == {"prime": 3}
    cert = is_irreducible_q(q([1, 0, -10, 0, 1]))
    assert cert.irreducible and cert.witness_kind == "full_factorization"
    # above max_degree the scan still runs first, so no DegreeCap
    cert = is_irreducible_q(q([-1, -1, 0, 0, 0, 1]), max_degree=4)
    assert cert.witness_kind == "mod_p" and cert.witness_data == {"prime": 3}
    with pytest.raises(DegreeCap):
        is_irreducible_q(q([1, 0, -10, 0, 1]), max_degree=3)


def _shifted_primitive(f, c):
    from galoiskit.poly import content_primitive

    _, prim = content_primitive(f)
    return [x.v[0] for x in Poly(QQ, prim).shift(c).coeffs]


def test_eisenstein_matches_shift_oracle():
    # the Eisenstein search and re-check against the primitive form shifted
    # by Poly.shift over QQ, on random rational inputs and every shift
    rng = random.Random(61)
    found = 0
    for _ in range(60):
        deg = rng.randint(1, 7)
        f = q([Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3])) for _ in range(deg)] + [rng.choice([1, 2, -3])])
        for c in range(-5, 6):
            ints = _shifted_primitive(f, c)
            for p in (2, 3, 5, 7):
                want = ints[-1] % p != 0 and all(a % p == 0 for a in ints[:-1]) and ints[0] % (p * p) != 0
                assert check_eisenstein(f, p, c) == want
            hit = eisenstein(f, shifts=[c])
            if hit is not None:
                p, shift = hit
                assert shift == c and check_eisenstein(f, p, c)
                found += 1
    assert found >= 20, found


def test_factorizations_are_immutable_hashable_values():
    a, b = factor_q(q([-1, 0, 1])), factor_q(q([-1, 0, 1]))
    assert a == b and hash(a) == hash(b) and a != factor_q(q([1, 0, 1]))
    with pytest.raises(AttributeError):
        a.unit = 2


def test_factor_q_non_monic_recombination():
    # integer recombination with leading coefficients and constant terms that
    # make many candidate subsets fail the constant-term or the first
    # long-division test
    rng = random.Random(67)
    pieces = [q([-2, 0, 0, 3]), q([5, 0, -7]), q([1, 6]), q([-3, 4]), q([2, 1, 0, 9]), q([7, 0, 0, 0, 2]), q([-1, 0, 5])]
    for _ in range(12):
        chosen = rng.sample(pieces, rng.randint(2, 4))
        f = q([Fraction(rng.choice([-3, 1, 5]), rng.choice([1, 4]))])
        for g in chosen:
            f = f * g
        if f.degree > 12:
            continue
        fact = factor_q(f)
        assert fact.expand(QQ) == f
        assert sorted(str(g) for g, _ in fact.factors) == sorted(str(g.monic()) for g in chosen)


def test_factor_q_recombination_with_zero_constant_term():
    # f(0) = 0 passes every constant-term test, so long division decides;
    # non-monic factors make lc(f) f(0), not f(0), the right target
    cases = [
        [q([0, 1]), q([-2, 0, 3]), q([5, 2])],
        [q([0, 1]), q([0, 1]), q([1, 0, 0, 2]), q([-3, 7])],
        [q([0, 4]), q([1, 1, 0, 3]), q([2, 0, 0, 0, 5]), q([-1, 2])],
        [q([-2, 0, 0, 3]), q([5, 0, -7]), q([6, 1]), q([-3, 4])],
    ]
    for chosen in cases:
        f = q([Fraction(-5, 4)])
        for g in chosen:
            f = f * g
        fact = factor_q(f)
        assert fact.expand(QQ) == f
        want = Counter(str(g.monic()) for g in chosen)
        assert Counter({str(g): m for g, m in fact.factors}) == want


def _swinnerton_dyer(primes):
    """The product of t - (+-sqrt p1 +- ... +- sqrt pk) over all signs: f(t)
    times f with sqrt p negated is A^2 - p B^2 for f(t + sqrt p) = A + sqrt p B."""
    f = q([0, 1])
    for p in primes:
        a, b = [0] * (f.degree + 1), [0] * (f.degree + 1)
        for j, c in enumerate(f.coeffs):
            for i in range(j + 1):
                (b if i % 2 else a)[j - i] += c * math.comb(j, i) * p ** (i // 2)
        f = q(a) * q(a) - q(b) * q(b) * p
    return f


def test_factor_q_swinnerton_dyer_recombination_is_bounded(monkeypatch):
    import sys
    import galoiskit.factor as factor_mod

    # irreducible of degree 32, with factors of degree <= 2 mod every prime:
    # 16 or more modular factors, and every subset of up to half of them
    # tried; products formed inside try_combo are counted, not timed
    real, products = factor_mod._mul_mod, []

    def counting(a, b, m):
        if sys._getframe(1).f_code.co_name == "try_combo":
            products.append(m)
        return real(a, b, m)

    monkeypatch.setattr(factor_mod, "_mul_mod", counting)
    real_ddf, scanned = factor_mod._ddf, []
    monkeypatch.setattr(factor_mod, "_ddf", lambda R, f: scanned.append(R.p) or real_ddf(R, f))
    f = _swinnerton_dyer([2, 3, 5, 7, 11])
    assert f.degree == 32
    fact = factor_q(f, max_degree=32)
    assert fact.is_irreducible() and fact.factors[0][0] == f
    # 2,048 here; forming every subset's product first took 262,144
    assert 0 < len(products) <= 4096
    # more than 8 modular factors at every prime: the scan looks at 10 primes;
    # at most 4 at the first good prime: it stops there
    assert len(scanned) == 10
    scanned.clear()
    assert factor_q(_swinnerton_dyer([2, 3]), max_degree=4).is_irreducible()
    assert len(scanned) == 1


def test_factor_q_examples():
    fact = factor_q(q([-5, 0, -4, 0, 1]))
    assert {str(g) for g, _ in fact.factors} == {"t^2 + 1", "t^2 - 5"}
    fact = factor_q(q([-1, 0, 0, 0, 0, 1]))
    assert {str(g) for g, _ in fact.factors} == {"t - 1", "t^4 + t^3 + t^2 + t + 1"}
    f = q([-10, 0, 0, 1])
    fact = factor_q(f)
    assert fact.is_irreducible() and fact.factors[0][0] == f


def test_factor_q_unit_and_multiplicity():
    f = q([Fraction(1, 2)]) * q([-1, 1]) ** 2 * q([1, 0, 1])
    fact = factor_q(f)
    assert fact.unit == Fraction(1, 2)
    assert fact.expand(QQ) == f
    mults = {str(g): m for g, m in fact.factors}
    assert mults == {"t - 1": 2, "t^2 + 1": 1}


def test_factor_q_proves_squarefree_mod_p_or_falls_back(monkeypatch):
    import galoiskit.factor as factor_mod

    # the fallback takes gcd(f, f') from the end of f's remainder sequence
    calls = []
    real = factor_mod._sturm_ints
    monkeypatch.setattr(factor_mod, "_sturm_ints", lambda f: calls.append(f) or real(f))

    def factors(f):
        calls.clear()
        fact = factor_q(f, max_degree=22)
        assert fact.expand(QQ) == f
        return {str(g): m for g, m in fact.factors}, len(calls)

    # squarefree mod 7 (not mod 2, 3 or 5): no rational squarefree part
    assert factors(q([-30, 0, 1]) * q([-2, 0, 0, 1])) == ({"t^2 - 30": 1, "t^3 - 2": 1}, 0)
    # (2t + 1)^2 is 1 mod 2, squarefree, but 2 divides lc: no proof there,
    # and none mod any odd p either
    assert factors(q([1, 4, 4])) == ({"t + 1/2": 2}, 1)
    # t^2 - p is t^2 mod p: not squarefree mod any prime <= 31
    f = q([1])
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        f = f * q([-p, 0, 1])
    got, n_calls = factors(f)
    assert n_calls == 1 and len(got) == 11 and set(got.values()) == {1}


# the rational `factor` inputs of the CLI's golden --json bytes
_GOLDEN_FACTOR_INPUTS = [
    "(t^3-2)*(t^4+3*t+3)*(t^2+1)^2",
    "(1/2*t+1/3)*(t^2-2/5)",
    "(1/2*t+1/3)*(3/4*t^2-2/5)^2",
    "t^4-10*t^2+1",
    "t^8-40*t^6+352*t^4-960*t^2+576",
    "(t^2+1)^2*(t^3-2)*(2*t-3)",
    "(t^2-30)*(t^3-2)",
    "(t^2-2)*(t^2-3)*(t^2-5)*(t^2-7)*(t^2-11)*(t^2-13)*(t^2-17)*(t^2-19)*(t^2-23)*(t^2-29)*(t^2-31)",
    "(t-1)^2*(t^2+t+1)^3*(3*t^2+2)",
]


def test_zassenhaus_from_the_scan_prime_chooses_the_same_prime(monkeypatch):
    # factor_q hands Zassenhaus its scan from the prime that proved f
    # squarefree; from a new scan instead, it must try the same primes (every
    # smaller one is skipped) and so choose the same one and factor the same
    import galoiskit.factor as factor_mod
    from galoiskit.cli import parse_poly

    real_z, real_ddf = factor_mod._factor_sqfree_primitive_z, factor_mod._ddf
    calls, tried = [], []

    def recorded(ints, scan=None):
        head = None if scan is None else next(scan)
        calls.append((list(ints), head and head[0]))
        return real_z(ints, None if scan is None else itertools.chain([head], scan))

    monkeypatch.setattr(factor_mod, "_factor_sqfree_primitive_z", recorded)
    for src in _GOLDEN_FACTOR_INPUTS:
        factor_q(parse_poly(src), max_degree=22)
    assert len(calls) == len(_GOLDEN_FACTOR_INPUTS)
    assert sum((start or 2) > 2 for _, start in calls) >= 2
    monkeypatch.setattr(factor_mod, "_ddf", lambda R, f: tried.append(R.p) or real_ddf(R, f))
    for ints, start in calls:
        tried.clear()
        got = real_z(ints, itertools.dropwhile(lambda e: e[0] < (start or 2), factor_mod._reductions(ints)))
        from_start = list(tried)
        tried.clear()
        assert real_z(ints) == got
        assert tried == from_start


def test_factor_q_tests_its_start_prime_once(monkeypatch):
    # one scan of reductions serves the squarefree proof, Zassenhaus and the
    # mod-p witness: within one factor_q or is_irreducible_q call no prime has
    # its squarefree test or its distinct-degree split run twice on the same
    # integer polynomial
    import galoiskit.factor as factor_mod
    from galoiskit.cli import parse_poly

    real_sqf, real_ddf, tested, split = factor_mod._squarefree_mod, factor_mod._ddf, [], []
    monkeypatch.setattr(factor_mod, "_squarefree_mod", lambda a, p: tested.append((p, tuple(a))) or real_sqf(a, p))
    monkeypatch.setattr(factor_mod, "_ddf", lambda R, f: split.append((R.p, tuple(f))) or real_ddf(R, f))
    small = [p for p in range(2, factor_mod.MOD_P_SCAN_BOUND + 1) if all(p % d for d in range(2, p))]
    starts, witnesses = [], {}
    extra = ["(t^3+t+1)*(t^2+t-1)", "6*t^5+10*t^2-15", "(t^2-30)*(t^3-2)*(t+7)"]
    for src in _GOLDEN_FACTOR_INPUTS + extra:
        f = parse_poly(src)
        ints = content_primitive(f)[1]
        tested.clear()
        split.clear()
        factor_q(f, max_degree=22)
        assert len(tested) == len(set(tested)) and len(split) == len(set(split)), (src, tested, split)
        start = next((p for p in small if ints[-1] % p and real_sqf([c % p for c in ints], p)), None)
        if start is None:
            continue  # not squarefree mod p <= 31: f / gcd(f, f') is scanned
        assert [p for p, _ in tested].count(start) == 1, (src, tested)
        starts.append(start)
    assert len(starts) == 7 and {2, 7} <= set(starts)  # the first prime, and one after skipped primes
    # irreducible inputs of the verdicts shape (no rational root, no
    # Eisenstein shift): t^5 - t - 1 splits mod 2, Zassenhaus's first good
    # prime, so the witness 3 comes from the rest of the scan; t^4 - 10t^2 + 1
    # splits mod every prime; the rest are proved at their first good prime;
    # two reducible ones are decided by the factorization alone
    for src, witness in (("t^5-t-1", 3), ("t^4-10*t^2+1", None), ("t^6+t+3", 2), ("t^4+t+1", 2),
                         ("(t^2+t+1)*(t^3+t+1)", None), ("(t^2+1)^2*(t^2+3)", None)):
        tested.clear()
        split.clear()
        cert = is_irreducible_q(parse_poly(src))
        assert len(tested) == len(set(tested)) and len(split) == len(set(split)), (src, tested, split)
        assert cert.witness_data.get("prime") == witness, (src, cert.to_json())
        witnesses[src] = {p for p, _ in split}
    assert 2 in witnesses["t^5-t-1"] and max(witnesses["t^4-10*t^2+1"]) <= factor_mod.MOD_P_SCAN_BOUND


def test_mignotte_bound_hand_values():
    from galoiskit.factor import _mignotte_bound

    # C(n-1, floor((n-1)/2)) (isqrt(sum c_i^2) + 1)
    assert _mignotte_bound([6, 0, -5, 0, 1]) == 3 * (7 + 1)  # sum c_i^2 = 62
    assert _mignotte_bound([4, 0, 0, 0, 0, 3]) == 6 * (5 + 1)  # 3t^5 + 4
    assert _mignotte_bound([-2, 1]) == 1 * (2 + 1)


def _list_hensel_step(m, f, g, h, s, t):
    """The Hensel step before packing: each product its own `_mul_mod`, the
    division by h the list schoolbook, sums and reductions on lists."""
    mm = m * m
    e = _sub_mod(f, _mul_mod(g, h, mm), mm)
    quo, r = _list_divmod_mod(_mul_mod(s, e, mm), h, mm)
    g1 = _z_mod(_z_add(g, _z_add(_mul_mod(t, e, mm), _mul_mod(quo, g, mm))), mm)
    return g1, _z_mod(_z_add(h, r), mm)


def _list_bezout_step(m, g1, h1, s, t):
    """The Bezout step before packing, in the same list form."""
    mm = m * m
    b = _sub_mod(_z_add(_mul_mod(s, g1, mm), _mul_mod(t, h1, mm)), [1], mm)
    c, d = _list_divmod_mod(_mul_mod(s, b, mm), h1, mm)
    return _sub_mod(s, d, mm), _sub_mod(t, _z_add(_mul_mod(t, b, mm), _mul_mod(c, g1, mm)), mm)


def test_packed_lifting_steps_match_the_list_form():
    # random coprime g (any unit lc) and monic h mod p, f = g h + p * noise
    # (noise 0 a quarter of the time), lifted four quadratic steps: p^16
    rng = random.Random(41)
    for p in (2, 3, 5, 7, 31, 1031):
        lifted = 0
        while lifted < 40:
            g = [rng.randrange(p) for _ in range(rng.randint(0, 6))] + [rng.randrange(1, p)]
            h = [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1]
            d, s = _xgcd_mod(g, h, p)
            if d != [1]:
                continue
            t = _cofactor_mod(d, s, g, h, p)
            height = rng.choice((0, 1, p, 10**30))
            f = [c + p * rng.randint(-height, height) for c in _mul_mod(g, h, p)]
            m = p
            for _ in range(4):
                mm = m * m
                g1, h1 = _hensel_step(m, f, g, h, s, t)
                assert (g1, h1) == _list_hensel_step(m, f, g, h, s, t), (m, f, g, h, s, t)
                assert _sub_mod(f, _mul_mod(g1, h1, mm), mm) == [] and len(h1) == len(h) and h1[-1] == 1
                s1, t1 = _bezout_step(m, g1, h1, s, t)
                assert (s1, t1) == _list_bezout_step(m, g1, h1, s, t), (m, g1, h1, s, t)
                assert _sub_mod(_z_add(_mul_mod(s1, g1, mm), _mul_mod(t1, h1, mm)), [1], mm) == []
                g, h, s, t, m = g1, h1, s1, t1, mm
            lifted += 1


def _lifts_at_top_level(monkeypatch):
    """Record (p, k, f) for every multifactor Hensel lift that Zassenhaus
    starts (not its recursive halves)."""
    import sys
    import galoiskit.factor as factor_mod

    real, lifts = factor_mod._hensel_lift_list, []

    def recorded(p, k, f, factors):
        if sys._getframe(1).f_code.co_name == "_factor_sqfree_primitive_z":
            lifts.append((p, k, list(f)))
        return real(p, k, f, factors)

    monkeypatch.setattr(factor_mod, "_hensel_lift_list", recorded)
    return lifts


def _assert_precision_covers(pk, f, factors):
    """p^k > 2 |coefficient| of lc(f)/lc(g) g for every product g of a
    nonempty proper subset of the exact factors of f."""
    assert _mul_all(factors) == f
    for size in range(1, len(factors)):
        for combo in itertools.combinations(factors, size):
            g = _mul_all(combo)
            scale, rem = divmod(f[-1], g[-1])
            assert rem == 0
            assert pk > 2 * max(abs(scale * c) for c in g), (pk, f, combo)


def _mul_all(polys):
    out = [1]
    for g in polys:
        out = [c.v[0] for c in (q(out) * q(g)).coeffs]
    return out


def test_lift_precision_bounds_every_true_factor(monkeypatch):
    # products of 2-4 random integer polynomials, each irreducible by its
    # reduction mod a small prime (Ben-Or over F_p, not Zassenhaus), so the
    # exact factors are known; the lift must recover every subset product
    rng = random.Random(29)
    lifts = _lifts_at_top_level(monkeypatch)
    checked = 0
    while checked < 300:
        factors = []
        for _ in range(rng.randint(2, 4)):
            d = rng.randint(1, 4)
            height = rng.choice((3, 30, 1000))
            g = [rng.randint(-height, height) for _ in range(d)] + [rng.randint(1, height)]
            if math.gcd(*g) != 1 or g in factors:
                continue
            if not any(
                g[-1] % p and is_irreducible_ff(Poly(PrimeField(p), [c % p for c in g]))
                for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
            ):
                continue
            factors.append(g)
        f = _mul_all(factors)
        if len(factors) < 2 or len(f) > 13:
            continue
        lifts.clear()
        assert factor_q(q(f)).expand(QQ) == q(f)
        ((p, k, lifted),) = lifts
        assert lifted == f
        _assert_precision_covers(p**k, f, factors)
        checked += 1


def test_lift_precision_bounds_the_ladder_norm_factors(monkeypatch):
    # every multifactor lift of the Trager norms that splitting the seven
    # ladder polynomials factors, against the norm's exact factors
    import galoiskit.factor as factor_mod
    from galoiskit.cli import parse_poly
    from galoiskit.splitting import splitting_field_q

    lifts = _lifts_at_top_level(monkeypatch)
    real, answers = factor_mod._factor_sqfree_primitive_z, {}

    def recorded(ints, start=None):
        answers[tuple(ints)] = out = real(ints, start)
        return out

    monkeypatch.setattr(factor_mod, "_factor_sqfree_primitive_z", recorded)
    for f in ("t^3-2", "t^4-2", "(t^2-2)*(t^2-3)*(t^2-5)", "t^5-5*t+12", "t^6-2", "t^5-2", "t^4-t-1"):
        splitting_field_q(parse_poly(f))
    assert len(lifts) >= 7 and max(len(f) - 1 for _, _, f in lifts) >= 24
    for p, k, f in list(lifts):
        factors = answers[tuple(f)]
        assert all(is_irreducible_q(q(g), max_degree=len(g)).irreducible for g in factors)
        _assert_precision_covers(p**k, f, factors)


def test_factor_q_degree_cap():
    with pytest.raises(DegreeCap):
        factor_q(q([1] * 14))


def test_factor_q_big_and_roundtrip_random():
    rng = random.Random(23)
    for _ in range(25):
        nfac = rng.randint(1, 3)
        f = q([1])
        for _ in range(nfac):
            deg = rng.randint(1, 3)
            f = f * q([rng.randint(-4, 4) for _ in range(deg)] + [rng.randint(1, 3)])
        fact = factor_q(f)
        assert fact.expand(QQ) == f
        refact = factor_q(fact.expand(QQ))
        assert refact.factors == fact.factors
        for g, _ in fact.factors:
            assert is_irreducible_q(g).irreducible


def _oracle_factor_capped(ints):
    """Independent small-degree oracle: strip rational roots by divisor-pair
    search, then try every integer quadratic factor shape with leading and
    constant coefficients dividing those of the input and the middle one
    inside a Mignotte-style bound.  Complete for degree <= 4 inputs."""
    from math import isqrt
    from galoiskit.poly import content_primitive

    def divs(n):
        return _divisors_by_trial(n) or [1]

    work = Poly(QQ, ints).monic()
    factors = []
    # linear stage: rational root theorem is a complete linear-factor oracle
    while work.degree >= 1:
        roots = _fraction_roots(work)
        if not roots:
            break
        r = min(roots)
        factors.append(Poly(QQ, [-r, 1]))
        work = work.exact_div(Poly(QQ, [-r, 1]))
    # quadratic stage (a rootless quartic either splits 2+2 or is irreducible)
    if work.degree == 4:
        _, prim = content_primitive(work)
        l2 = isqrt(sum(c * c for c in prim)) + 1
        bound = 4 * l2 * max(divs(prim[-1]))
        done = False
        for b2 in divs(prim[-1]):
            if done:
                break
            for b0 in divs(prim[0]) + [-d for d in divs(prim[0])]:
                if done:
                    break
                for b1 in range(-bound, bound + 1):
                    g = Poly(QQ, [b0, b1, b2]).monic()
                    quo, rem = divmod(work, g)
                    if rem.is_zero():
                        factors.append(g)
                        factors.append(quo)
                        done = True
                        break
        if not done:
            factors.append(work)
    elif work.degree >= 1:
        factors.append(work)
    return sorted(str(g) for g in factors)


@pytest.mark.parametrize("seed", range(4))
def test_factor_q_against_shape_oracle_sample(seed):
    rng = random.Random(100 + seed)
    for _ in range(30):
        deg = rng.randint(2, 4)
        ints = [rng.randint(-3, 3) for _ in range(deg)] + [rng.choice([1, 2, 3])]
        if all(c == 0 for c in ints[:-1]):
            ints[0] = 1
        mine = []
        for g, m in factor_q(Poly(QQ, ints)).factors:
            mine.extend([str(g)] * m)
        assert sorted(mine) == _oracle_factor_capped(ints)


@pytest.mark.slow
def test_factor_q_against_shape_oracle_full_sweep():
    # every polynomial of degree <= 4 with coefficients in {-3..3}
    # (positive leading coefficient wlog: factorizations match up to unit)
    for deg in (1, 2, 3, 4):
        for ints in itertools.product(range(-3, 4), repeat=deg + 1):
            if ints[-1] <= 0:
                continue
            mine = []
            for g, m in factor_q(Poly(QQ, list(ints))).factors:
                mine.extend([str(g)] * m)
            assert sorted(mine) == _oracle_factor_capped(list(ints))


def test_cyclotomic_p():
    assert cyclotomic_p(5) == q([1, 1, 1, 1, 1])
    assert cyclotomic_p(2) == q([1, 1])
    assert cyclotomic_p(7).degree == 6
    for p in (2, 3, 5, 7, 11, 13):
        assert is_irreducible_q(cyclotomic_p(p)).irreducible
    with pytest.raises(NotPrime):
        cyclotomic_p(6)


# ---------------------------------------------------------------------------
# factoring over extensions
# ---------------------------------------------------------------------------


def test_factor_over_extension_cbrt2():
    T, xi = adjoin_root(QQ, q([-2, 0, 0, 1]), "x")
    fact = factor_over_extension(Poly(T, [-2, 0, 0, 1]))
    degs = sorted(g.degree for g, _ in fact.factors)
    assert degs == [1, 2]
    linear = [g for g, _ in fact.factors if g.degree == 1][0]
    assert -linear.coeff(0) == xi


def test_factor_over_extension_sqrt2():
    T, r2 = adjoin_root(QQ, q([-2, 0, 1]), "s")
    fact = factor_over_extension(Poly(T, [-2, 0, 1]))
    assert sorted(g.degree for g, _ in fact.factors) == [1, 1]
    roots = {-g.coeff(0) for g, _ in fact.factors}
    assert roots == {r2, -r2}


def test_factor_over_extension_f4():
    T, alpha = adjoin_root(F2, Poly(F2, [1, 1, 1]), "a")
    fact = factor_over_extension(Poly(T, [1, 1, 1]))
    roots = {-g.coeff(0) for g, _ in fact.factors}
    assert roots == {alpha, alpha + 1}


def test_factor_over_extension_soundness_random():
    rng = random.Random(31)
    T, r2 = adjoin_root(QQ, q([-2, 0, 1]), "s")
    for _ in range(10):
        f = Poly(T, [T.from_int(rng.randint(-3, 3)) for _ in range(3)] + [T.one()])
        fact = factor_over_extension(f)
        assert fact.expand(T) == f
        for g, _ in fact.factors:
            assert g.is_monic()


def _tower_trager_oracle(g, T):
    """Trager's method over the tower T itself, the oracle for the route
    through Q(gamma): squarefree part, shift h(t + s*gamma) by `Poly.shift`,
    gcds and multiplicities all over T.  Returns (Counter of (factor,
    multiplicity), the norm shift s)."""
    from galoiskit.poly import squarefree_part

    work = g.monic()
    sq = squarefree_part(work)
    gamma, _ = T.primitive_element()
    mgamma, reps = _poly_form(*_primitive_reps(T, sq.coeffs))
    for s in _shift_order(40):
        norm = _norm_resultant(mgamma, reps, s)
        if norm.degree == sq.degree * mgamma.degree and not poly_gcd(norm, norm.derivative()).degree:
            break
    out = Counter()
    for h, _ in factor_q(norm, max_degree=norm.degree).factors:
        cand = poly_gcd(sq, h.map_domain(T, T.coerce).shift(gamma * T.from_int(s)))
        if cand.degree > 0:
            mult, rest = 0, work
            while True:
                quo, rem = divmod(rest, cand)
                if rem:
                    break
                mult, rest = mult + 1, quo
            out[cand, mult] += 1
    return out, s


@functools.lru_cache(maxsize=None)
def _trager_towers():
    """(tower, its generators, rational polynomials that need a nonzero norm
    shift there) for the towers the Q(gamma) route is checked on."""
    from galoiskit.splitting import splitting_field_q

    A, a = adjoin_root(QQ, q([-2, 0, 1]), "a")
    AB, b = adjoin_root(A, Poly(A, [-3, 0, 1]), "b")
    C, c = adjoin_root(QQ, q([-2, 0, 0, 1]), "c")
    CW, w = adjoin_root(C, Poly(C, [1, 1, 1]), "w")
    D5 = splitting_field_q(q([12, -5, 0, 0, 0, 1])).field
    assert D5.absolute_degree() == 10
    towers = [
        (AB, [AB.coerce(a), b], [q([-3, 0, 1]), q([-6, 0, 1]) * q([1, 1])]),
        (CW, [CW.coerce(c), w], [q([-2, 0, 0, 1]), q([1, 1, 1])]),
        (D5, D5.generators(), [q([10, 0, 1])]),  # splits: Q(sqrt(-10)) is inside
    ]
    for m in (q([-2, 0, 1]), q([1, 1, 1, 1, 1]), q([Fraction(-1, 2), 0, 1])):
        T, x = adjoin_root(QQ, m, "x")
        towers.append((T, [x], [m, m * m * q([1, 1]), _compose(m, q([1, 2]))]))
    return towers


def test_factor_over_extension_matches_the_tower_route():
    """Q(gamma) and the tower route give the same factors and multiplicities,
    on rational inputs whose norm needs a shift s != 0 (so a wrong sign of s
    is seen) and on seeded inputs with tower coefficients."""
    rng = random.Random(12)
    shifts = set()
    for T, gens, rational in _trager_towers():
        n = T.absolute_degree()

        def elem():
            x = T.from_int(rng.randint(-2, 2))
            for g in gens:
                x = x + g * T.from_int(rng.randint(-2, 2))
            return x

        inputs = [f.map_domain(T, T.coerce) for f in rational]
        for _ in range(1 if n > 6 else 2):
            lin = Poly(T, [elem(), T.one()])
            inputs.append(lin * Poly(T, [elem(), T.one()]))
            if n <= 6:
                inputs.append(lin * lin * Poly(T, [elem(), elem(), T.one()]))
        for g in inputs:
            fact = factor_over_extension(g)
            expected, s = _tower_trager_oracle(g, T)
            shifts.add(s)
            assert Counter(fact.factors) == expected
            assert fact.expand(T) == g
    assert shifts - {0}


def test_primitive_maps_are_inverse():
    rng = random.Random(13)
    for T, gens, _ in _trager_towers():
        K, n = T.primitive_field(), T.absolute_degree()
        assert K.lower == T.base and K.minpoly == T.primitive_element()[1]
        for _ in range(6):
            x = T.unflatten([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)])
            rep = T.to_primitive(x)
            assert len(K.flatten(rep)) == n and T.from_primitive(rep) == x
        # a polynomial of degree >= n is reduced mod m_gamma in K first
        gamma, mgamma = T.primitive_element()
        f = q([rng.randint(-3, 3) for _ in range(n + 3)])
        assert T.from_primitive(f.map_domain(K, K.coerce).eval(K.generator())) == f.map_domain(T, T.coerce).eval(gamma)


def _mod(c, p):
    return c.v[0] * pow(c.v[1], -1, p) % p


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


def _norm_mod(mgamma, reps, s, p):
    """The shift oracle: the norm Res_y(mgamma, sum_j c_j(y) (t - s*y)^j),
    c_j the coordinates in `reps`, mod a prime p > nd dividing no denominator
    (n = deg mgamma, d = len(reps) - 1), as a residue list: the values at
    t = 0..nd, each by `_resultant_mod`, interpolated (Newton)."""
    red = lambda f: [_mod(c, p) for c in f.coeffs]
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


def _oracle_accepts(image, nd, p):
    """The shift predicate on an oracle image: degree nd and a nonzero
    discriminant mod p."""
    return len(image) == nd + 1 and _resultant_mod(image, _deriv_mod(image, p), p) != 0


def _oracle_shift(mgamma, reps, tries=NORM_SHIFT_TRIES):
    """(s, image, p) for the first s of `_shift_order(tries)` whose
    `_norm_mod` image mod p, the first norm prime dividing no denominator,
    passes `_oracle_accepts`; None if there is none."""
    nd = mgamma.degree * (len(reps) - 1)
    p = next(_norm_primes(math.lcm(*(c.v[1] for f in (mgamma, *reps) for c in f.coeffs))))
    for s in _shift_order(tries):
        image = _norm_mod(mgamma, reps, s, p)
        if _oracle_accepts(image, nd, p):
            return s, image, p
    return None


def _oracle_norm(mgamma, reps, s):
    return content_primitive(_norm_resultant(mgamma, reps, s))[1]


def _check_against_the_oracles(modulus, reps):
    """`_trager_norm` over the shifts `factor_over_extension` tries: the
    accepted shift is the oracle's, and the integer norm is the
    subresultant's, whose image mod p is the oracle's image."""
    s, norm = _trager_norm(modulus, reps, _shift_order(NORM_SHIFT_TRIES))
    mgamma, polys = _poly_form(modulus, reps)
    oracle_s, image, p = _oracle_shift(mgamma, polys)
    assert s == oracle_s and norm == _oracle_norm(mgamma, polys, s)
    assert [c * pow(norm[-1], -1, p) % p for c in norm] == image
    return s, norm


def test_norm_mod_is_the_exact_norm_mod_p():
    """The shift oracle, on coordinates with denominators (and an m_gamma
    with one), for shifts of both signs."""
    rng = random.Random(15)
    dens = set()
    # towers built without certificates, so that no factoring runs first
    A, _ = adjoin_root(QQ, q([-2, 0, 1]), "a", certify=False)
    C, _ = adjoin_root(QQ, q([-2, 0, 0, 1]), "c", certify=False)
    towers = [
        adjoin_root(A, Poly(A, [-3, 0, 1]), "b", certify=False)[0],
        adjoin_root(C, Poly(C, [1, 1, 1]), "w", certify=False)[0],
        adjoin_root(QQ, q([Fraction(-1, 2), 0, 1]), "x", certify=False)[0],
    ]
    for T in towers:
        n = T.absolute_degree()
        elem = lambda: T.unflatten([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)])
        for g in (Poly(T, [elem(), elem(), T.one()]), Poly(T, [elem(), T.one()]) ** 2):
            mgamma, reps = _poly_form(*_primitive_reps(T, g.coeffs))
            dens |= {c.v[1] for r in reps + [mgamma] for c in r.coeffs}
            for s in range(-3, 4):
                exact = _norm_resultant(mgamma, reps, s)
                for p in (NORM_PRIME, 1000003):
                    assert _norm_mod(mgamma, reps, s, p) == [_mod(c, p) for c in exact.coeffs]
    assert dens - {1}


def test_a_norm_whose_degree_drops_mod_p_proves_nothing():
    # over Q itself (m = y), the norm of g is g for every shift.  For
    # P = NORM_PRIME the integer form (P*t + 1)^2 (t - 2) of the monic
    # g = (t + 1/P)^2 (t - 2) drops to the squarefree t - 2 mod P; P divides
    # a denominator, so it is not used, and no shift is accepted
    P = NORM_PRIME
    g = q([Fraction(1, P), 1]) ** 2 * q([-2, 1])
    assert _norm_mod(q([0, 1]), [q([c * P * P]) for c in g.coeffs], 0, P) == [P - 2, 1]
    reps = [QQ._concat([c]) for c in g.coeffs]
    with pytest.raises(SearchExhausted):
        _trager_norm([0, 1], reps, _shift_order(3))
    assert _oracle_shift(*_poly_form([0, 1], reps), 3) is None
    g = q([3, 1]) * q([-2, 1])
    # the accepted shift, with the norm over Z
    assert _trager_norm([0, 1], [QQ._concat([c]) for c in g.coeffs], _shift_order(3)) == (0, [-6, 1, 1])


def _rational_norm_cases():
    """(K's integer modulus, kernel tuples of g's coefficients) for two
    rational minimal polynomials m_gamma, t^2 - 1/2 and t^3 - 2/5 t^2 + 1/3,
    with tuples whose denominators include 2, 3 and 5; and over Q itself
    (m = y) for t^2 - t + 1/2, whose power sums up to nd = 2 are integers
    though its coefficients are not."""
    for m in (q([Fraction(-1, 2), 0, 1]), q([Fraction(1, 3), 0, Fraction(-2, 5), 1])):
        T, x = adjoin_root(QQ, m, "x", certify=False)
        yield _primitive_reps(T, [x * Fraction(1, 3) + Fraction(2, 7), x * x * Fraction(-5, 4), T.one() * 3, T.one()])
    yield [0, 1], [(1, 2), (-1, 1), (1, 1)]


def test_trager_norm_matches_the_subresultant_oracle():
    """On the 16 norms of `_trager_norm_cases` (one m_gamma is t^2 - 1/2) and
    on rational minimal polynomials with reps that have denominators, for
    shifts of both signs: a shift tried alone is accepted exactly when the
    oracle accepts it, with the subresultant's norm; and the search over
    `_shift_order` accepts the oracle's shift."""
    cases = list(_trager_norm_cases()) + list(_rational_norm_cases())
    verdicts, dens = Counter(), set()
    for modulus, kernel_reps in cases:
        mgamma, reps = _poly_form(modulus, kernel_reps)
        nd = mgamma.degree * (len(reps) - 1)
        dens |= {c.v[1] for f in (mgamma, *reps) for c in f.coeffs}
        oracle_p = _oracle_shift(mgamma, reps)[2]
        for s in (0, 1, -1, 2, -2, 3):
            accepted = _oracle_accepts(_norm_mod(mgamma, reps, s, oracle_p), nd, oracle_p)
            verdicts[accepted] += 1
            if accepted:
                assert _trager_norm(modulus, kernel_reps, [s]) == (s, _oracle_norm(mgamma, reps, s))
            else:
                with pytest.raises(SearchExhausted):
                    _trager_norm(modulus, kernel_reps, [s])
        _check_against_the_oracles(modulus, kernel_reps)
    assert verdicts[True] >= 16 and verdicts[False] and {2, 3, 5} <= dens


def test_trager_norm_is_exact_beyond_the_norm_primes():
    """Coefficients above the product of the first two norm primes come out
    exact: over Q itself (m = y) the norm of t^2 + C is t^2 + C, and over
    Q(sqrt 2) the norm of t^2 + C sqrt 2 is t^4 - 2 C^2, with C just above
    half the product, where two CRT images would have rebuilt C minus it."""
    p1, p2 = itertools.islice(_norm_primes(1), 2)
    C = p1 * p2 // 2 + 1
    reps = [(C, 1), (0, 1), (1, 1)]
    assert _trager_norm([0, 1], reps, _shift_order(3)) == (0, [C, 0, 1]) == (0, _oracle_norm(*_poly_form([0, 1], reps), 0))
    A, a = adjoin_root(QQ, q([-2, 0, 1]), "a", certify=False)
    modulus, reps = _primitive_reps(A, (a * C, A.zero(), A.one()))
    expected = _oracle_norm(*_poly_form(modulus, reps), 0)
    assert expected == [-2 * C * C, 0, 0, 0, 1]
    assert _check_against_the_oracles(modulus, reps) == (0, expected)


def test_norm_primes_are_the_primes_below_2_61():
    """`_norm_primes` skips exactly the composites below NORM_PRIME (each has
    a small factor or fails a Fermat test) and the primes dividing den; the
    primality test it runs, `is_prime`, agrees with trial division on small
    odd numbers and rejects strong pseudoprimes to many bases."""
    from galoiskit.numbers import factor_integer, is_prime

    primes = list(itertools.islice(_norm_primes(1), 6))
    assert primes[0] == NORM_PRIME and primes == sorted(primes, reverse=True)
    small = [p for p in range(3, 200) if is_prime(p)]
    for n in range(primes[-1], NORM_PRIME + 1, 2):
        composite = any(n % p == 0 for p in small) or any(pow(a, n - 1, n) != 1 for a in (2, 3, 5))
        assert composite != (n in primes)
    assert list(itertools.islice(_norm_primes(primes[1] * primes[3]), 4)) == [primes[0], primes[2], primes[4], primes[5]]
    assert all(is_prime(n) == (factor_integer(n) == [n]) for n in range(39, 20000))
    # strong pseudoprimes to the prime bases up to 7 and up to 23
    for n in (3215031751, 3825123056546413051):
        assert not is_prime(n)


def test_trager_norm_matches_the_oracle_on_the_ladder(monkeypatch):
    """Every norm that splitting the seven ladder polynomials factors when no
    remainder is proved irreducible by its reductions: the accepted shift is
    the first whose oracle image mod the first norm prime is squarefree of
    degree nd, and the integer norm is the subresultant's."""
    import galoiskit.factor as factor_mod
    from galoiskit.cli import parse_poly
    from galoiskit.splitting import splitting_field_q

    seen = []

    def checked(modulus, reps, shifts):
        out = _trager_norm(modulus, reps, shifts)
        assert out == _check_against_the_oracles(modulus, reps)
        seen.append(len(out[1]) - 1)
        return out

    monkeypatch.setattr(factor_mod, "_trager_norm", checked)
    monkeypatch.setattr(factor_mod, "_irreducible_by_reduction", lambda field, reps: False)  # a norm every time
    for f in LADDER:
        splitting_field_q(parse_poly(f))
    assert len(seen) >= 7 and max(seen) >= 24


def test_factor_over_extension_computes_one_exact_norm(monkeypatch):
    """No subresultant runs, and a factorization that needs a norm builds
    one: a single `_trager_norm` call, which tries the shifts in
    `_shift_order` and stops at the first the oracle accepts."""
    import galoiskit.factor as factor_mod
    import galoiskit.poly as poly_mod

    def no_subresultant(*args):
        raise AssertionError("the subresultant PRS ran")

    monkeypatch.setattr(poly_mod, "resultant", no_subresultant)
    assert not hasattr(factor_mod, "resultant")
    calls, runs = [], []

    def recorded(modulus, reps, shifts):
        tried = []
        out = _trager_norm(modulus, reps, (tried.append(s) or s for s in shifts))
        calls.append((_poly_form(modulus, reps), tried, out))
        return out

    monkeypatch.setattr(factor_mod, "_trager_norm", recorded)
    for T, _, rational in _trager_towers():
        for f in rational:
            calls.clear()
            g = f.map_domain(T, T.coerce)
            assert factor_over_extension(g).expand(T) == g
            assert len(calls) <= 1  # or decided without a norm
            runs += calls
    monkeypatch.undo()
    shifts = []
    for (mgamma, reps), tried, (s, norm) in runs:
        assert tried == list(itertools.islice(_shift_order(NORM_SHIFT_TRIES), len(tried)))
        assert tried[-1] == s == _oracle_shift(mgamma, reps)[0]
        assert norm == _oracle_norm(mgamma, reps, s)
        shifts.append(s)
    assert set(shifts) - {0}  # inputs whose first shifts are refused


def _all_gcd_split(sq, norm_factors, s):
    """Trager's back end as it ran before exact division: gcd(sq, h(t + s*y))
    for every factor h of the norm, kept when not constant, and the product
    of those checked against sq.  The oracle for `_split_by_norm`."""
    K = sq.dom
    out = [poly_gcd(sq, _shift_into(K, h, s)) for h in norm_factors]
    out = [g for g in out if g.degree > 0]
    prod = Poly.one(K)
    for g in out:
        prod = prod * g
    assert prod == sq
    return out


@functools.lru_cache(maxsize=None)
def _ladder_norm_splits():
    """(sq, norm factors, shift) of every `_split_by_norm` call while the
    ladder splits with no remainder proved irreducible by its reductions:
    norms with one, two and three factors among them."""
    import galoiskit.factor as factor_mod
    from galoiskit.cli import parse_poly
    from galoiskit.splitting import splitting_field_q

    calls, real, proof = [], factor_mod._split_by_norm, factor_mod._irreducible_by_reduction

    def recorded(sq, norm_factors, s):
        calls.append((sq, norm_factors, s))
        return real(sq, norm_factors, s)

    factor_mod._split_by_norm = recorded
    factor_mod._irreducible_by_reduction = lambda field, reps: False
    try:
        for f in LADDER:
            splitting_field_q(parse_poly(f))
    finally:
        factor_mod._split_by_norm, factor_mod._irreducible_by_reduction = real, proof
    return calls


def test_norm_split_matches_the_all_gcd_oracle(monkeypatch):
    import galoiskit.factor as factor_mod

    gcds = []
    monkeypatch.setattr(factor_mod, "poly_gcd", lambda f, g: gcds.append(1) or poly_gcd(f, g))
    counts = Counter()
    for sq, norm_factors, s in _ladder_norm_splits():
        gcds.clear()
        assert _split_by_norm(sq, norm_factors, s) == _all_gcd_split(sq, norm_factors, s)
        assert len(gcds) == len(norm_factors) - 1  # none for an irreducible norm
        counts[len(norm_factors)] += 1
    assert set(counts) == {1, 2, 3}


def test_shift_into_matches_the_poly_shift():
    """`_shift_into(K, h, s)` is h mapped into K = Q[y]/(m_gamma) and shifted
    by `Poly.shift(s*y)`, for s in -3..3: on the norm factors of the
    ladder's splits, and on the factors of the norms over the m_gamma of
    `_rational_norm_cases` with denominators (t^2 - 1/2 and
    t^3 - 2/5 t^2 + 1/3), where the reduction's scale is not 1."""
    cases = [(sq.dom, norm_factors) for sq, norm_factors, _ in _ladder_norm_splits()]
    for modulus, reps in list(_rational_norm_cases())[:2]:
        K = adjoin_root(QQ, _poly_form(modulus, reps)[0], "y", certify=False)[0]
        norm = _trager_norm(modulus, reps, _shift_order(NORM_SHIFT_TRIES))[1]
        cases.append((K, _factor_sqfree_primitive_z(norm)))
    dens = set()
    for K, norm_factors in cases:
        for h in norm_factors:
            for s in range(-3, 4):
                shifted = _shift_into(K, h, s)
                assert shifted == q(h).map_domain(K, K.coerce).shift(K.generator() * s)
                dens |= {c.v[-1] for c in shifted.coeffs}
    assert {1, 2, 5, 25} <= dens  # 2 over t^2 - 1/2, powers of 5 over the cubic


def test_a_wrong_cofactor_fails_the_norm_split_checks(monkeypatch):
    import galoiskit.factor as factor_mod

    # one more linear factor: the last cofactor is a degree too high, which
    # only the degree check sees
    sq, norm_factors, s = next(c for c in _ladder_norm_splits() if len(c[1]) == 3)
    K = sq.dom
    with pytest.raises(InternalInvariant):
        _split_by_norm(sq * Poly(K, [K.one(), K.one()]), norm_factors, s)
    # with two norm factors, a first factor of the right degree that does not
    # divide leaves a cofactor of the right degree: only the division sees it
    # (t^5 - 5t + 12 over the field of one root; in the C2^3 split of
    # (t^2 - 2)(t^2 - 3), the planted t^2 - 3 + 1 is the other factor)
    sq, norm_factors, s = next(c for c in _ladder_norm_splits() if len(c[1]) == 2 and c[0].dom.absolute_degree() == 5)
    monkeypatch.setattr(factor_mod, "poly_gcd", lambda f, g: poly_gcd(f, g) + 1)
    with pytest.raises(InternalInvariant):
        _split_by_norm(sq, norm_factors, s)


# Trager norms built while splitting each ladder polynomial: every other
# remainder is proved irreducible by its reductions at degree-one primes.
LADDER_NORMS = (0, 0, 0, 2, 1, 0, 0)


def _counting_proofs(monkeypatch):
    """Counters of the `factor_over_extension` calls over a number field
    decided by reduction and of the Trager norms built."""
    import galoiskit.factor as factor_mod

    counts, proof, norm = Counter(), factor_mod._irreducible_by_reduction, factor_mod._trager_norm

    def counted_proof(field, reps):
        out = proof(field, reps)
        if out:
            counts["reduction"] += 1
        return out

    def counted_norm(*args):
        counts["norm"] += 1
        return norm(*args)

    monkeypatch.setattr(factor_mod, "_irreducible_by_reduction", counted_proof)
    monkeypatch.setattr(factor_mod, "_trager_norm", counted_norm)
    return counts


def test_the_ladder_builds_only_the_pinned_trager_norms(monkeypatch):
    from galoiskit.cli import parse_poly
    from galoiskit.splitting import splitting_field_q

    counts = _counting_proofs(monkeypatch)
    norms = []
    for f in LADDER:
        counts.clear()
        splitting_field_q(parse_poly(f))
        norms.append(counts["norm"])
        assert counts["reduction"] > 0 or counts["norm"] > 0
    assert tuple(norms) == LADDER_NORMS


def _over(m, g):
    """g (rational coefficients, low to high) over Q[y]/(m)."""
    K = adjoin_root(QQ, q(m), "y")[0]
    return K, Poly(K, [K.coerce(QQ.coerce(c)) for c in g])


def test_reduction_skips_a_double_root_of_the_field_polynomial(monkeypatch):
    """t^2 + t + 1 has two roots in Q(sqrt(-3)) = Q[y]/(y^2 + 3).  Mod 2,
    y^2 + 3 = (y + 1)^2 and t^2 + t + 1 is irreducible, so a scan that read
    the double root y = 1 would prove a false irreducibility."""
    counts = _counting_proofs(monkeypatch)
    K, g = _over([3, 0, 1], [1, 1, 1])
    fact = factor_over_extension(g)
    assert [f.degree for f, _ in fact.factors] == [1, 1] and fact.expand(K) == g
    assert counts == {"norm": 1}


def test_reduction_skips_the_primes_of_a_denominator(monkeypatch):
    """t^2 + 1/25 = (t - i/5)(t + i/5) over Q(i) = Q[y]/(y^2 + 1); 5 divides
    the denominator, and y^2 + 1 = (y - 2)(y + 2) mod 5."""
    counts = _counting_proofs(monkeypatch)
    K, g = _over([1, 0, 1], [Fraction(1, 25), 0, 1])
    fact = factor_over_extension(g)
    y5 = K.generator() / K.from_int(5)
    assert fact.factors == ((Poly(K, [-y5, K.one()]), 1), (Poly(K, [y5, K.one()]), 1))
    assert counts == {"norm": 1}


def test_reduction_skips_a_reduction_that_is_not_squarefree(monkeypatch):
    """(t^2 + 2t + 6)(t^2 + 2t + 16) over Q(i) = Q[y]/(y^2 + 1) is (t + 1)^4
    at both primes over 5, where the distinct-degree split of a square
    reads the degrees (1, 3), and (2, 2) at the first prime over 13; a scan
    that read the reductions over 5 would prove a false irreducibility."""
    counts = _counting_proofs(monkeypatch)
    K, g = _over([1, 0, 1], [96, 44, 26, 4, 1])
    fact = factor_over_extension(g)
    assert fact.factors == ((Poly(K, [6, 2, 1]), 1), (Poly(K, [16, 2, 1]), 1))
    assert counts == {"norm": 1}


def test_reduction_intersects_the_factor_degrees(monkeypatch):
    """t^4 + 8t + 12 has group A4 on its roots, also over Q(sqrt(2)) (A4
    has no subgroup of index 2), so no reduction is irreducible: the degree
    patterns (1, 3) and (2, 2) at two degree-one primes prove it, with no
    norm."""
    counts = _counting_proofs(monkeypatch)
    K, g = _over([-2, 0, 1], [12, 8, 0, 0, 1])
    assert factor_over_extension(g).factors == ((g, 1),)
    assert counts == {"reduction": 1}


def _sweep_fields():
    """Quadratic, cubic and two-level fields, one with a denominator in its
    minimal polynomial, each with its generators."""
    fields = []
    for m in ([-2, 0, 1], [1, 0, 1], [Fraction(-1, 3), 0, 1], [-2, 0, 0, 1], [-1, -1, 0, 1]):
        K, y = adjoin_root(QQ, q(m), "y")
        fields.append((K, [y]))
    A, a = adjoin_root(QQ, q([-2, 0, 1]), "a")
    AB, b = adjoin_root(A, Poly(A, [-3, 0, 1]), "b")
    C, c = adjoin_root(QQ, q([-2, 0, 0, 1]), "c")
    CW, w = adjoin_root(C, Poly(C, [1, 1, 1]), "w")
    return fields + [(AB, [AB.coerce(a), b]), (CW, [CW.coerce(c), w])]


def test_reduction_agrees_with_forced_trager(monkeypatch):
    """On seeded products of one to three monic factors of degree 1 to 3
    over each of `_sweep_fields`, some with denominators or repeated,
    `factor_over_extension` equals Trager's method with the reductions
    switched off; and each g the reductions prove irreducible is one
    factor, multiplicity 1, by Trager."""
    import galoiskit.factor as factor_mod

    proof, proved = factor_mod._irreducible_by_reduction, []

    def recorded(field, reps):
        out = proof(field, reps)
        if out:
            proved.append(Poly(field, [TowerElem(field, v) for v in reps]))
        return out

    def trager(g):
        monkeypatch.setattr(factor_mod, "_irreducible_by_reduction", lambda field, reps: False)
        out = factor_over_extension(g)
        monkeypatch.setattr(factor_mod, "_irreducible_by_reduction", recorded)
        return out

    monkeypatch.setattr(factor_mod, "_irreducible_by_reduction", recorded)
    rng = random.Random(53)
    for K, gens in _sweep_fields():

        def elem():
            x = K.coerce(QQ.coerce(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2, 5)))))
            for g in gens:
                x = x + g * K.from_int(rng.randint(-2, 2))
            return x

        for _ in range(8):
            factors = [Poly(K, [elem() for _ in range(rng.randint(1, 3))] + [K.one()]) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.2:
                factors.append(factors[0])
            for g in factors[:1] + [functools.reduce(operator.mul, factors)]:
                if g.degree * K.absolute_degree() <= 64:
                    assert factor_over_extension(g) == trager(g)
    assert len(proved) >= 40 and {g.degree for g in proved} == {1, 2, 3}
    for g in proved:
        assert trager(g).factors == ((g, 1),)


# Each mutant drops one term of a Newton recurrence (Tr(y'^e) from m_gamma,
# the power sums S_a from g, the norm's coefficients from its power sums),
# reads the trace table one index off, or divides by k in Z where the
# norm's coefficients are not integers.
_NORM_MUTANTS = (
    ("q[e - i] if i < e else e", "q[e - i] if i < e else 0"),
    ("for i in range(1, min(e, n) + 1)", "for i in range(1, min(e, n))"),
    ("S[a - i] if i < a else ([a], 1)", "S[a - i] if i < a else ([], 1)"),
    ("for i in range(1, min(a, d) + 1)", "for i in range(2, min(a, d) + 1)"),
    ("map(operator.mul, reversed(c), P)", "map(operator.mul, reversed(c[1:]), P)"),
    ("q[i:]", "q[i + 1 :]"),
    ("x // k if type(x) is int and x % k == 0 else QQ.coerce(x) / k", "x // k"),
)


@functools.lru_cache(maxsize=None)
def _mutation_cases():
    """(K's integer modulus, reps, the oracles' shift and norm) for
    `_trager_norm_cases` and `_rational_norm_cases`."""
    out = []
    for modulus, reps in list(_trager_norm_cases()) + list(_rational_norm_cases()):
        s = _oracle_shift(*_poly_form(modulus, reps))[0]
        out.append((modulus, reps, (s, _oracle_norm(*_poly_form(modulus, reps), s))))
    return out


def _agrees_on_every_case(norm_fn):
    for modulus, reps, expected in _mutation_cases():
        try:
            if norm_fn(modulus, reps, _shift_order(NORM_SHIFT_TRIES)) != expected:
                return False
        except Exception:
            return False
    return True


@pytest.mark.parametrize("old, new", [(None, None), *_NORM_MUTANTS])
def test_a_trager_norm_mutant_fails_the_oracles(old, new):
    """The source of `_trager_norm`, recompiled with one mutation, disagrees
    with the oracles on some case; unmutated, it agrees on all."""
    import inspect

    import galoiskit.factor as factor_mod

    source = inspect.getsource(factor_mod._trager_norm)
    if old is not None:
        assert source.count(old) == 1
        source = source.replace(old, new)
    namespace = dict(vars(factor_mod))
    exec(source, namespace)
    assert _agrees_on_every_case(namespace["_trager_norm"]) == (old is None)


def test_reductions_scan_the_primes_not_dividing_lc_in_order():
    # each prime not dividing lc(f), in order; None exactly where f mod p is
    # not squarefree (a gcd with the derivative in Poly over F_p), else
    # Ben-Or's first pair and the rest of the split, which multiply to the
    # monic reduction; on an f that is not squarefree the scan ends (Mahler)
    # after yielding only Nones
    from galoiskit.factor import _reductions

    squarefree = [[-1, -1, 0, 0, 0, 1], [-15, 0, 10, 0, 0, 6], [7, 1, 0, 0, 30], [30, 0, -31, 0, 10, 0, -1]]
    for ints in squarefree:
        scan = list(itertools.islice(_reductions(ints), 14))
        primes = [p for p in range(2, 200) if all(p % d for d in range(2, p)) and ints[-1] % p]
        assert [p for p, _, _ in scan] == primes[:14]
        for p, first, rest in scan:
            g = Poly(PrimeField(p), ints)
            assert (first is None) == (poly_gcd(g, g.derivative()).degree > 0), (ints, p)
            if first is not None:
                pieces = [first, *rest]
                assert functools.reduce(lambda a, b: a * b, (Poly(PrimeField(p), h) for h, _ in pieces)) == g.monic()
                assert (first[1] == len(ints) - 1) == is_irreducible_ff(g)
        assert sum(first is not None for _, first, _ in scan) >= 3
    for f in (q([1, 2, 1]), q([-7, 6]) * q([1, 0, 3]) ** 2, q([-2, 0, 0, 1]) ** 2 * q([5, 1])):
        ints = [QQ.coerce(c).v[0] for c in f.coeffs]
        scan = list(itertools.islice(_reductions(ints), 500))
        assert len(scan) < 500 and all(first is None for _, first, _ in scan), ints
        assert all(ints[-1] % p for p, _, _ in scan)


def test_zassenhaus_stage_rejects_an_input_that_is_not_squarefree():
    # every skipped prime divides the discriminant, which is bounded by
    # n^n ||f||_2^(2n-2) unless it is 0, so the prime loop gives up
    cases = [
        [1, 2, 1],  # (t + 1)^2
        (q([-2, 0, 0, 1]) ** 2 * q([5, 1])).coeffs,
        (q([1, 0, 3]) * q([1, 0, 3]) * q([-7, 6])).coeffs,  # lc 18
    ]
    for f in cases:
        ints = [QQ.coerce(c).v[0] for c in f]
        t0 = time.monotonic()
        with pytest.raises(InternalInvariant):
            _factor_sqfree_primitive_z(ints)
        assert time.monotonic() - t0 < 1.0


def test_factor_over_extension_over_q_is_uncapped():
    # one entry point for every field: over Q the cap is raised to deg g
    g = q([-2, 0, 1]) ** 33
    fact = factor_over_extension(g)
    assert fact.factors == ((q([-2, 0, 1]), 33),)
    with pytest.raises(DegreeCap):
        factor_q(g)


def test_factorization_soundness_everywhere():
    # unit * product(factors^mult) == input, exactly, over every field
    cases = [
        (QQ, q([6, -5, 1]) * q([Fraction(1, 3), 1])),
        (F5, Poly(F5, [2, 0, 1, 3])),
    ]
    for dom, f in cases:
        fact = factor_q(f) if dom == QQ else factor_fp(f)
        assert fact.expand(dom) == f
