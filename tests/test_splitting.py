"""Splitting-field construction: degrees, roots, invariants."""

import random
from math import lcm

import pytest

from galoiskit.cli import parse_poly
from galoiskit.errors import DegreeCap, InternalInvariant, ZeroPolynomial
from galoiskit.numbers import QQ, PrimeField
from galoiskit.poly import Poly
from galoiskit.splitting import (
    SplittingField,
    splitting_field_fp,
    splitting_field_q,
    verify_splits,
)
from galoiskit.factor import factor_q, factor_fp
from galoiskit.tower import Tower, adjoin_root
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
    assert {r.v[0] for r in sf.roots} == {3, 4}
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
    mp1 = sorted(str(sf1.field.min_poly_over_base(r)) for r in sf1.roots)
    mp2 = sorted(str(sf2.field.min_poly_over_base(r)) for r in sf2.roots)
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
    keys = [sf1.field.min_poly_over_base(r).degree for r in sf1.roots]
    assert keys == sorted(keys)


def test_json_shape():
    sf = splitting_field_q(q([-2, 0, 1]))
    data = sf.to_json()
    assert set(data) == {"degree", "tower", "roots", "multiplicities", "polynomial"}
    assert data["degree"] == 2


_MATCHING_BUILDS = [
    lambda: splitting_field_q(q([-2, 0, 1]) * q([-3, 0, 1]) * q([-1, 1]) * q([1, 1]) * q([-2, 0, 0, 1])),
    lambda: splitting_field_fp(Poly(F3, [1, 0, 1]) * Poly(F3, [1, -1, 0, 1]) * Poly(F3, [0, 1])),
    lambda: splitting_field_fp(Poly(F2, [1, 1, 1]) * Poly(F2, [1, 1, 0, 1]) * Poly(F2, [1, 0, 1, 1])),
    # over F_4 the quartic splits into quadratics, so its roots are found
    # before the cubic's: an orbit of 4 meets a factor of degree 3 unmatched
    lambda: splitting_field_fp(Poly(F2, [1, 1, 1]) * Poly(F2, [1, 1, 0, 1]) * Poly(F2, [1, 1, 0, 0, 1])),
]


@pytest.mark.parametrize("build", _MATCHING_BUILDS)
def test_each_factor_is_tested_until_it_has_its_roots(monkeypatch, build):
    # once the roots are found, over Q a factor of degree d is evaluated at
    # roots until d of them are its zeros, and never after; over F_p a root
    # stands for its whole Frobenius orbit, so only factors of the orbit's
    # size are evaluated there, each at most once per orbit, and each factor
    # has exactly one zero
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
            record.append((self, a, not value))
        return value

    monkeypatch.setattr(splitting, "_split_squarefree", split_then_record)
    monkeypatch.setattr(Poly, "eval", eval_recorded)
    sf = build()
    zeros = {}
    p = sf.field.characteristic
    if p:
        key = sf.field.sort_key
        seen = set()
        for g, a, is_zero in record:
            orbit, c = {key(a)}, a**p
            while key(c) not in orbit:
                orbit.add(key(c))
                c = c**p
            assert g.degree == len(orbit)
            assert (g, frozenset(orbit)) not in seen  # once per orbit
            seen.add((g, frozenset(orbit)))
            assert not zeros.get(g)  # a matched factor is not tested again
            zeros[g] = zeros.get(g, 0) + is_zero
        assert all(zeros[g] == 1 for g in zeros)
        assert len(zeros) == len(factor_fp(sf.source).factors)
        assert sum(g.degree for g in zeros) == len(sf.roots)
        return
    for g, _, is_zero in record:
        assert zeros.get(g, 0) < g.degree  # a full factor is not tested again
        zeros[g] = zeros.get(g, 0) + is_zero
    assert all(zeros[g] == g.degree for g in zeros)
    assert sum(zeros.values()) == len(sf.roots)


def _fp_golden_builds():
    """The F_p inputs of GOLDEN_JSON that build a splitting field, and the
    F_p builds of the orbit-matching test."""
    from test_cli import GOLDEN_JSON

    sources = [
        parse_poly(argv[-1], PrimeField(int(argv[2][1:])))
        for argv, _ in GOLDEN_JSON
        if argv[1:2] == ["--field"] and argv[3] in ("galois", "splitting-field", "correspondence")
    ]
    return [lambda f=f: splitting_field_fp(f) for f in sources] + _MATCHING_BUILDS[1:]


@pytest.mark.parametrize("build", _fp_golden_builds())
def test_frobenius_is_x_to_the_p_and_its_cycles_are_the_factors(build):
    # root i goes to the root r_i^p, and the cycles are the root sets of the
    # irreducible factors over F_p
    sf = build()
    field, step = sf.field, sf.frobenius
    assert step == tuple(sf.roots.index(r**field.characteristic) for r in sf.roots)
    cycles = set()
    for i in range(len(step)):
        cycle, j = {i}, step[i]
        while j != i:
            cycle.add(j)
            j = step[j]
        cycles.add(frozenset(cycle))
    root_sets = {
        frozenset(i for i, r in enumerate(sf.roots) if not g.map_domain(field, field.coerce).eval(r))
        for g, _ in factor_fp(sf.source).factors
    }
    assert cycles == root_sets


def test_roots_not_closed_under_frobenius_raise(monkeypatch):
    # a root list missing a conjugate is an internal failure, not a KeyError
    import galoiskit.splitting as splitting

    split = splitting._split_squarefree

    def split_less_one(*args):
        field, roots = split(*args)
        return field, roots[:-1]

    monkeypatch.setattr(splitting, "_split_squarefree", split_less_one)
    with pytest.raises(InternalInvariant):
        splitting_field_fp(Poly(F3, [1, 0, 1]))


def test_frobenius_is_none_over_q_and_empty_for_a_constant():
    assert _MATCHING_BUILDS[0]().frobenius is None
    assert splitting_field_q(q([-2, 0, 0, 1])).frobenius is None
    assert splitting_field_q(q([3])).frobenius is None
    assert splitting_field_fp(Poly(F3, [2])).frobenius == ()


def _synthetic_cases():
    rng = random.Random(29)
    T, _ = adjoin_root(QQ, q([-2, 0, 0, 1]), "a")
    F = Tower(F3, Poly(F3, [1, 0, 1]), "a")
    picks = {
        QQ: lambda: QQ.coerce(rng.randint(-5, 5)),
        F7: lambda: rng.choice(F7.elements()),
        T: lambda: T.unflatten([rng.randint(-4, 4) for _ in range(3)]),
        F: lambda: rng.choice(_tower_elements(F)),
    }
    cases = []
    for dom, pick in picks.items():
        for _ in range(6):
            f = Poly(dom, [pick() for _ in range(rng.randint(1, 5))] + [dom.one()])
            c = pick()
            cases += [(f, c), (f * Poly(dom, [-c, dom.one()]), c)]
    return cases


def test_synthetic_division_is_division_by_a_linear_factor():
    # quotient * (t - c) + value == f, on Q, F_7 and towers over both, and
    # the value is zero exactly when c is a root
    from galoiskit.splitting import _synthetic_division

    for f, c in _synthetic_cases():
        dom = f.dom
        quot, value = _synthetic_division(f, c)
        assert quot.degree == f.degree - 1
        assert quot * Poly(dom, [-c, dom.one()]) + Poly.constant(dom, value) == f
        assert value == f.eval(c)


@pytest.mark.parametrize("src", [
    "t^3-2", "(t^2-2)*(t^2-3)", "(t^2-2)^2*(t-1)", "t^5-5*t+12", "(t-1)*(t-2)",
    "F2:(t^2+t+1)*(t^3+t+1)", "F2:t^4+t+1", "F3:(t^2+1)^2*(t+1)", "F5:(t-1)*(t-2)",
])
def test_the_input_is_factored_over_the_base_once(monkeypatch, src):
    # the factorization of f also serves as the first round of the splitting
    import galoiskit.splitting as splitting

    dom = PrimeField(int(src[1:src.index(":")])) if ":" in src else QQ
    f = parse_poly(src.split(":")[-1], dom)
    calls = []
    factor = splitting.factor_over_extension
    monkeypatch.setattr(
        splitting, "factor_over_extension", lambda g: calls.append(g.dom == dom) or factor(g)
    )
    sf = (splitting_field_fp if dom != QQ else splitting_field_q)(f)
    assert verify_splits(sf)
    assert calls.count(True) == 1
