"""Splitting-field construction: degrees, roots, invariants."""

import random
from math import lcm

import pytest

from galoiskit.errors import DegreeCap, ZeroPolynomial
from galoiskit.numbers import QQ, PrimeField
from galoiskit.poly import Poly
from galoiskit.splitting import (
    SplittingField,
    splitting_field_fp,
    splitting_field_q,
    verify_splits,
)
from galoiskit.factor import factor_q, factor_fp
from galoiskit.tower import Tower, adjoin_root, min_poly
from test_tower import _tower_elements

F2 = PrimeField(2)
F3 = PrimeField(3)
F7 = PrimeField(7)


def q(coeffs):
    return Poly(QQ, coeffs)


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_cbrt2():
    sf = splitting_field_q(q([-2, 0, 0, 1]))
    assert sf.degree() == 6
    assert len(sf.roots) == 3
    assert verify_splits(sf)


def test_t4_minus_2():
    sf = splitting_field_q(q([-2, 0, 0, 0, 1]))
    assert sf.degree() == 8
    assert len(sf.roots) == 4
    assert verify_splits(sf)


def test_already_split():
    sf = splitting_field_q(q([2, -3, 1]))
    assert sf.degree() == 1
    assert sorted(sf.roots) == [1, 2]
    assert verify_splits(sf)


def test_phi5():
    sf = splitting_field_q(q([1, 1, 1, 1, 1]))
    assert sf.degree() == 4
    assert len(sf.roots) == 4
    assert verify_splits(sf)


def test_double_root():
    sf = splitting_field_q(q([0, 0, 1]))
    assert sf.roots == [0]
    assert sf.multiplicities == [2]
    assert verify_splits(sf)


def test_zero_poly_rejected():
    with pytest.raises(ZeroPolynomial):
        splitting_field_q(q([]))


def test_degree_cap():
    with pytest.raises(DegreeCap):
        splitting_field_q(q([3, -6, 0, 0, 0, 1]), max_degree=24)


def test_fp_examples():
    sf = splitting_field_fp(Poly(F2, [1, 1, 1]))
    assert sf.degree() == 2 and len(sf.roots) == 2
    assert verify_splits(sf)

    sf = splitting_field_fp(Poly(F3, [0, -1] + [0] * 7 + [1]))  # t^9 - t
    assert sf.degree() == 2
    assert len(sf.roots) == 9
    assert verify_splits(sf)

    sf = splitting_field_fp(Poly(F7, [-2, 0, 1]))  # 3^2 = 2 mod 7
    assert sf.degree() == 1
    assert {r.r for r in sf.roots} == {3, 4}
    assert verify_splits(sf)


def test_fp_degree_is_lcm_of_factor_degrees():
    rng = random.Random(3)
    for p, tries in ((2, 10), (3, 8), (5, 4)):
        F = PrimeField(p)
        for _ in range(tries):
            f = Poly(F, [rng.randrange(p) for _ in range(6)] + [1])
            sf = splitting_field_fp(f)
            degs = [g.degree for g, _ in factor_fp(f).factors]
            assert sf.degree() == lcm(*degs)
            assert verify_splits(sf)


@pytest.mark.parametrize("exponents", [(13, 4, 3, 1, 0), (17, 3, 0)])
def test_fp_prime_degree_irreducible_splits(exponents):
    # an irreducible of prime degree n over F_2 splits in F_(2^n): its roots
    # are the Frobenius orbit of the adjoined one, in a field of 2^13 / 2^17
    # elements that must not be scanned
    n = exponents[0]
    f = Poly(F2, [1 if i in exponents else 0 for i in range(n + 1)])
    sf = splitting_field_fp(f)
    assert sf.degree() == n
    assert len(sf.roots) == n
    assert verify_splits(sf)


def test_fp_quadratic_times_sextic():
    # the sextic splits into two cubics over F_4, then the second cubic
    # into three linear factors over F_64
    f = Poly(F2, [1, 1, 1]) * Poly(F2, [1, 1, 1, 0, 1, 0, 1])
    sf = splitting_field_fp(f)
    assert sf.degree() == 6
    assert len(sf.roots) == 8
    assert verify_splits(sf)


def test_fp_roots_match_exhaustive_evaluation():
    # oracle: evaluate over every element of the final field
    for coeffs, p in [([1, 1, 1], 2), ([-2, 0, 1], 3), ([1, 0, 1, 1], 2)]:
        F = PrimeField(p)
        sf = splitting_field_fp(Poly(F, coeffs))
        field = sf.field
        lifted = (
            sf.source.map_domain(field, field.coerce)
            if isinstance(field, Tower)
            else sf.source
        )
        elems = _tower_elements(field) if isinstance(field, Tower) else field.elements()
        oracle_roots = {e for e in elems if not lifted.eval(e)}
        assert set(sf.roots) == oracle_roots


def test_verify_splits_rejects_non_minimal_tower():
    # hand-built tower with a spurious sqrt5 level on top of SF(t^2 - 2)
    T1, r2 = adjoin_root(QQ, q([-2, 0, 1]), "a")
    T2, _ = adjoin_root(T1, Poly(T1, [-5, 0, 1]), "b")
    fake = SplittingField(
        T2,
        [T2.coerce(r2), -T2.coerce(r2)],
        [1, 1],
        q([-2, 0, 1]),
        QQ.one(),
    )
    assert not verify_splits(fake)


def test_degree_divides_factorial_and_multiple_of_degree():
    cases = [
        q([-2, 0, 0, 1]),
        q([-2, 0, 0, 0, 1]),
        q([1, 1, 1, 1, 1]),
        q([-2, 0, 1]),
        q([2, 0, 1]),
        q([1, 0, 1]) * q([-2, 0, 1]),
    ]
    for f in cases:
        sf = splitting_field_q(f)
        n = sf.degree()
        assert _factorial(f.degree) % n == 0
        cert_irr = factor_q(f).is_irreducible()
        if cert_irr:
            assert n % f.degree == 0


def test_root_count_bounded_by_degree():
    rng = random.Random(17)
    for _ in range(10):
        f = q([rng.randint(-3, 3) for _ in range(3)] + [1]) * q(
            [rng.randint(-3, 3), 1]
        )
        sf = splitting_field_q(f)
        assert len(sf.roots) <= f.degree
        assert verify_splits(sf)


def test_permuted_factor_order_same_degree():
    # splitting (t^2+1)(t^2-2) vs (t^2-2)(t^2+1): same field invariants
    f1 = q([1, 0, 1]) * q([-2, 0, 1])
    f2 = q([-2, 0, 1]) * q([1, 0, 1])
    sf1, sf2 = splitting_field_q(f1), splitting_field_q(f2)
    assert sf1.degree() == sf2.degree()
    mp1 = sorted(str(m) for m in sf1.root_min_polys())
    mp2 = sorted(str(m) for m in sf2.root_min_polys())
    assert mp1 == mp2


def test_resplit_over_intermediate():
    # splitting f over an intermediate field of SF(f) gives the same field
    f = q([-2, 0, 0, 1])
    sf = splitting_field_q(f)
    field = sf.field
    # remaining factorization over the full field is all linear
    lifted = f.map_domain(field, field.coerce)
    from galoiskit.factor import factor_over_extension

    fact = factor_over_extension(lifted)
    assert all(g.degree == 1 for g, _ in fact.factors)


def test_canonical_root_order_is_stable():
    sf1 = splitting_field_q(q([-2, 0, 0, 0, 1]))
    sf2 = splitting_field_q(q([-2, 0, 0, 0, 1]))
    assert [str(r) for r in sf1.roots] == [str(r) for r in sf2.roots]
    keys = [min_poly(sf1.field, r).degree for r in sf1.roots]
    assert keys == sorted(keys)


def test_json_shape():
    sf = splitting_field_q(q([-2, 0, 1]))
    data = sf.to_json()
    assert set(data) == {"degree", "tower", "roots", "multiplicities", "polynomial"}
    assert data["degree"] == 2


@pytest.mark.parametrize("build", [
    lambda: splitting_field_q(q([-2, 0, 1]) * q([-3, 0, 1]) * q([-1, 1]) * q([1, 1]) * q([-2, 0, 0, 1])),
    lambda: splitting_field_fp(Poly(F3, [1, 0, 1]) * Poly(F3, [1, -1, 0, 1]) * Poly(F3, [0, 1])),
    lambda: splitting_field_fp(Poly(F2, [1, 1, 1]) * Poly(F2, [1, 1, 0, 1]) * Poly(F2, [1, 0, 1, 1])),
])
def test_each_factor_is_tested_until_it_has_its_roots(monkeypatch, build):
    # once the roots are found, a factor of degree d is evaluated at roots
    # until d of them are its zeros, and never after
    import galoiskit.splitting as splitting

    record, split = None, splitting._split_squarefree

    def split_then_record(*args):
        nonlocal record
        out = split(*args)
        record = []
        return out

    evaluate = Poly.eval

    def eval_recorded(self, a):
        value = evaluate(self, a)
        if record is not None:
            record.append((self, not value))
        return value

    monkeypatch.setattr(splitting, "_split_squarefree", split_then_record)
    monkeypatch.setattr(Poly, "eval", eval_recorded)
    sf = build()
    zeros = {}
    for g, is_zero in record:
        assert zeros.get(g, 0) < g.degree  # a full factor is not tested again
        zeros[g] = zeros.get(g, 0) + is_zero
    assert all(zeros[g] == g.degree for g in zeros)
    assert sum(zeros.values()) == len(sf.roots)
