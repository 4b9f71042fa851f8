"""Classical verdicts: Sturm counting, solvability, constructibility."""

import random
from fractions import Fraction

import pytest

from galoiskit.errors import Budget, InternalInvariant, NotIrreducible, ZeroPolynomial
from galoiskit.galois import Subgroup
from galoiskit.numbers import QQ, factor_integer, is_fermat_prime
from galoiskit.poly import Poly, poly_gcd, squarefree_part
from galoiskit.factor import is_irreducible_q
from test_poly import _compose
from galoiskit.apps import (
    NOT_CONSTRUCTIBLE,
    NOT_SOLVABLE,
    SOLVABLE,
    classic_problems,
    constructible_degree_check,
    count_real_roots,
    count_real_roots_in,
    kummer_abelian_checks,
    ngon_constructible,
    quintic_a5_certificate,
    solvable_by_radicals,
    sp_criterion,
    sturm_chain,
    trisection_min_poly,
)


def q(coeffs):
    return Poly(QQ, coeffs)


# ---------------------------------------------------------------------------
# independent oracle: Descartes bisection (sign-change isolation)
# ---------------------------------------------------------------------------


def _descartes_variations(f):
    signs = [(c > 0) - (c < 0) for c in f.coeffs if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_roots_01(f, depth=0):
    """Distinct roots of squarefree f in the open interval (0, 1)."""
    # transform: positive roots of (x+1)^n f(1/(x+1)) <-> roots of f in (0,1)
    n = f.degree
    rev = Poly(QQ, list(reversed(f.coeffs)))  # t^n f(1/t)
    transformed = rev.shift(1)  # (x+1)^n f(1/(x+1))
    v = _descartes_variations(transformed)
    if v == 0:
        return 0
    if v == 1:
        return 1
    half = Fraction(1, 2)
    left = _compose(f, Poly(QQ, [Fraction(0), half]))  # f(t/2) on (0,1)
    right = _compose(f, Poly(QQ, [half, half]))  # f((t+1)/2) on (0,1)
    mid = 1 if not f.eval(half) else 0
    return _count_roots_01(left, depth + 1) + mid + _count_roots_01(right, depth + 1)


def oracle_real_root_count(f):
    """Distinct real roots via Descartes bisection, fully rational."""
    f = squarefree_part(f)
    if f.degree == 0:
        return 0
    bound = 1 + max(abs(Fraction(*c.v)) for c in f.coeffs) / abs(Fraction(*f.lc().v))  # Cauchy bound
    # map (-B, B) onto (0, 1): u -> f(2B u - B)
    g = _compose(f, Poly(QQ, [-bound, 2 * bound]))
    count = _count_roots_01(g, 0)
    for endpoint in (Fraction(0),):  # 0 maps from u = 1/2, already interior
        pass
    if not f.eval(-bound):
        count += 1
    if not f.eval(bound):
        count += 1
    return count


def test_count_real_roots_examples():
    assert count_real_roots(q([3, -6, 0, 0, 0, 1])) == 3
    assert count_real_roots(q([-6, 0, 0, 0, 5])) == 2
    assert count_real_roots(q([1, 0, 1])) == 0
    assert count_real_roots(q([-2, 0, 0, 1])) == 1
    assert count_real_roots(q([0, 0, 1])) == 1  # double root counted once
    assert count_real_roots(q([5])) == 0
    with pytest.raises(ZeroPolynomial):
        count_real_roots(q([]))


def test_count_real_roots_in_interval():
    f = q([0, -1, 0, 1])  # roots -1, 0, 1
    assert count_real_roots_in(f, Fraction(-2), Fraction(2)) == 3
    assert count_real_roots_in(f, Fraction(0), Fraction(2)) == 1
    assert count_real_roots_in(f, Fraction(-1, 2), Fraction(1, 2)) == 1
    # every element of the chain vanishes at a double root: (t-1)^2 (t+1)
    g = q([-1, 1]) ** 2 * q([1, 1])
    assert count_real_roots_in(g, Fraction(0), Fraction(1)) == 1
    assert count_real_roots_in(g, Fraction(1), Fraction(3)) == 0
    assert count_real_roots_in(g, Fraction(-1), Fraction(1)) == 1
    assert count_real_roots_in(g, Fraction(-2), Fraction(1)) == 2
    assert count_real_roots_in(q([Fraction(-3, 2)]), Fraction(-1), Fraction(1)) == 0


def test_sturm_chain_shape():
    chain = sturm_chain(q([-2, 0, 1]))
    assert chain[0] == q([-2, 0, 1])
    assert chain[1] == q([0, 2])
    assert all(not g.is_zero() for g in chain)
    # without a squarefree part the chain ends at gcd(f, f') = (t-1)^2
    chain = sturm_chain(q([-1, 1]) ** 3 * q([2, 0, 1]))
    assert [g.degree for g in chain] == [5, 4, 3, 2]
    assert chain[-1].monic() == q([-1, 1]) ** 2


def _random_sturm_input(rng):
    """Random coefficients, or a product with squared and cubed factors; a
    negative or non-integral leading coefficient either way."""
    lead = rng.choice([-3, -1, 1, 2, Fraction(1, 2), Fraction(-7, 3)])
    if rng.random() < 0.5:
        deg = rng.choice([3, 4, 5])
        return q([Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 5])) for _ in range(deg)] + [lead])
    f = q([lead])
    for _ in range(rng.randint(1, 3)):
        g = q([Fraction(rng.randint(-6, 6), rng.choice([1, 3])) for _ in range(rng.randint(1, 2))] + [rng.choice([1, -2])])
        f = f * g ** rng.choice([1, 2, 2, 3])
    return f


def oracle_real_roots_in(f, lo, hi):
    """Distinct roots in (lo, hi] by Descartes bisection on (0, 1)."""
    f = squarefree_part(f)
    if f.degree == 0:
        return 0
    g = _compose(f, q([lo, hi - lo]))  # u -> f(lo + (hi - lo) u)
    return _count_roots_01(g) + (1 if not f.eval(hi) else 0)


def _compare_sturm_with_bisection(seed, rounds):
    rng = random.Random(seed)
    points = sorted({Fraction(k, d) for k in range(-7, 8) for d in (1, 2, 3)})
    for _ in range(rounds):
        f = _random_sturm_input(rng)
        assert count_real_roots(f) == oracle_real_root_count(f), f
        lo, hi = sorted(rng.sample(points, 2))
        assert count_real_roots_in(f, lo, hi) == oracle_real_roots_in(f, lo, hi), (f, lo, hi)


def test_count_real_roots_against_bisection_oracle():
    rng = random.Random(101)
    checked = 0
    while checked < 200:
        deg = rng.choice([3, 4, 5])
        f = q([rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)])
        if poly_gcd(f, f.derivative()).degree != 0:
            continue
        checked += 1
        assert count_real_roots(f) == oracle_real_root_count(f)
    # squared and cubed factors, negative and non-integral leading coefficients
    _compare_sturm_with_bisection(seed=17, rounds=200)


@pytest.mark.slow
def test_count_real_roots_against_bisection_oracle_at_length():
    _compare_sturm_with_bisection(seed=1017, rounds=5000)


def test_sp_criterion():
    assert sp_criterion(q([3, -6, 0, 0, 0, 1])) == 5
    assert sp_criterion(q([-2, 0, 0, 1])) == 3  # 1 real root = 3 - 2
    assert sp_criterion(q([-2, 0, 0, 0, 1])) is None  # degree not prime
    assert sp_criterion(q([1, 1, 1, 1, 1])) is None  # 0 real roots != 3
    assert sp_criterion(q([2, -3, 1])) is None  # reducible


def test_sp_criterion_consistent_with_group_for_p3():
    # when the criterion fires for p = 3 the group really is S3 (order 6)
    from galoiskit.splitting import splitting_field_q
    from galoiskit.galois import automorphisms, isomorphism_type

    f = q([-2, 0, 0, 1])
    assert sp_criterion(f) == 3
    G = automorphisms(splitting_field_q(f))
    assert G.order == 6 and isomorphism_type(G) == "S3"


def test_solvable_by_radicals_routes():
    v = solvable_by_radicals(q([3, -6, 0, 0, 0, 1]))
    assert v.verdict == NOT_SOLVABLE
    assert v.evidence_kind == "sp_criterion"
    assert v.evidence["prime"] == 5 and v.evidence["real_roots"] == 3

    v = solvable_by_radicals(q([7, -1, 3, 0, 1]))
    assert v.verdict == SOLVABLE and v.evidence_kind == "degree_rule"

    f = Poly(QQ, [-123, 1]) ** 5 + Poly(QQ, [456])
    v = solvable_by_radicals(f)
    assert v.verdict == SOLVABLE
    assert v.evidence_kind == "group_computed"
    assert v.evidence["derived_series_orders"][-1] == 1

    with pytest.raises(ZeroPolynomial):
        solvable_by_radicals(q([]))


def test_solvable_decides_degree_at_most_4_before_the_sp_criterion(monkeypatch):
    # the S_p route needs p >= 5, so below degree 5 no irreducibility test or
    # Sturm chain is run
    import galoiskit.apps as apps_mod

    def refuse(f, max_degree):
        raise AssertionError(f"sp_criterion called at degree {f.degree}")

    monkeypatch.setattr(apps_mod, "sp_criterion", refuse)
    for coeffs in ([5], [5, 1], [-2, 0, 1], [-2, 0, 0, 1], [1, -3, 0, 1], [7, -1, 3, 0, 1]):
        v = solvable_by_radicals(q(coeffs))
        assert (v.verdict, v.evidence_kind, v.evidence["degree"]) == (SOLVABLE, "degree_rule", len(coeffs) - 1)
    with pytest.raises(AssertionError):
        solvable_by_radicals(q([3, -6, 0, 0, 0, 1]))


def test_route_consistency_sp_vs_group():
    # where both routes apply (p = 3 cubics), verdicts agree
    from galoiskit.splitting import splitting_field_q
    from galoiskit.galois import automorphisms, is_solvable

    for coeffs in ([-2, 0, 0, 1], [-5, 3, 0, 1]):
        f = q(coeffs)
        if sp_criterion(f) != 3:
            continue
        G = automorphisms(splitting_field_q(f))
        assert is_solvable(G)  # S3 is solvable: same verdict as degree route
        assert solvable_by_radicals(f).verdict == SOLVABLE


def test_random_low_degree_all_solvable():
    rng = random.Random(7)
    for _ in range(50):
        deg = rng.randint(1, 4)
        f = q([rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)])
        assert solvable_by_radicals(f).verdict == SOLVABLE


def test_low_degree_groups_are_solvable_when_computed():
    # the group route itself yields solvable groups for degree <= 4 inputs
    from galoiskit.splitting import splitting_field_q
    from galoiskit.galois import automorphisms, is_solvable

    rng = random.Random(15)
    done = 0
    while done < 6:
        f = q([rng.randint(-4, 4) for _ in range(4)] + [1])
        try:
            G = automorphisms(splitting_field_q(f))
        except Exception:
            continue
        assert is_solvable(G)
        done += 1


def test_kummer_abelian():
    report = kummer_abelian_checks()
    assert len(report["roots_of_unity"]) == 11
    assert all(entry["abelian"] for entry in report["roots_of_unity"])
    by_n = {e["n"]: e for e in report["roots_of_unity"]}
    assert by_n[5]["order"] == 4  # phi(5)
    assert by_n[12]["order"] == 4  # phi(12)
    assert by_n[2]["order"] <= 2
    assert all(entry["abelian"] for entry in report["binomials"])
    by_pair = {(e["n"], e["a"]): e for e in report["binomials"]}
    assert by_pair[(3, 2)]["order_over_unity_field"] == 3


def test_constructibility_checks():
    v = constructible_degree_check(q([-2, 0, 0, 1]))
    assert v.verdict == NOT_CONSTRUCTIBLE and v.degree == 3
    v = constructible_degree_check(trisection_min_poly())
    assert v.verdict == NOT_CONSTRUCTIBLE and v.degree == 3
    v = constructible_degree_check(q([-2, 0, 1]))
    assert v.verdict == "necessary_condition_holds"
    with pytest.raises(NotIrreducible):
        constructible_degree_check(q([2, -3, 1]))


def test_trisection_min_poly_is_the_cos_pi_9_polynomial():
    # 8 cos^3 - 6 cos - 1 = 2 cos(3 theta) - ... : monic form t^3 - 3/4 t - 1/8
    m = trisection_min_poly()
    assert m == q([Fraction(-1, 8), Fraction(-3, 4), 0, 1])
    assert is_irreducible_q(m).irreducible
    # cos(pi/9) is a root numerically-free check: cos(3t) identity at t = 1/2:
    # substituting u = 2t gives 8u^3 - 6u - 1 with u = cos(pi/9); the triple
    # angle identity 4u^3 - 3u = cos(pi/3) = 1/2 rearranges to exactly this.
    assert q([Fraction(-1, 2), -3, 0, 4]).monic() == m


def test_ngon_constructible():
    expected = {3, 4, 5, 6, 8, 10, 12, 15, 16, 17, 20}
    got = {n for n in range(3, 21) if ngon_constructible(n)}
    assert got == expected
    assert ngon_constructible(257)
    assert ngon_constructible(60)  # 2^2 * 3 * 5
    assert not ngon_constructible(7)
    assert not ngon_constructible(9)  # 3^2 repeats a Fermat prime


def _ngon_by_factoring(n):
    """Oracle: the Gauss-Wantzel rule on the prime factors of the odd part."""
    m = n
    while m % 2 == 0:
        m //= 2
    primes = factor_integer(m)
    return len(set(primes)) == len(primes) and all(is_fermat_prime(q) for q in primes)


def test_ngon_rule_matches_the_factoring_oracle():
    assert [n for n in range(3, 10**5 + 1) if ngon_constructible(n) != _ngon_by_factoring(n)] == []


def test_ngon_rule_needs_no_factoring():
    assert not ngon_constructible(10**40)  # 5^2 divides it
    assert not ngon_constructible(3 * 5 * 641 * 2**40)  # 641 divides F_5
    assert not ngon_constructible(2**32 + 1)  # F_5 = 641 * 6700417
    assert ngon_constructible(2**200 * 3 * 5 * 17 * 257 * 65537)
    with pytest.raises(Budget):
        ngon_constructible(2**128 + 1)  # F_7: past the primality proof bound


def test_classic_problems():
    report = classic_problems()
    assert report["duplicate_cube"]["verdict"] == NOT_CONSTRUCTIBLE
    assert report["trisect_angle"]["verdict"] == NOT_CONSTRUCTIBLE
    assert report["square_circle"]["verdict"] == NOT_CONSTRUCTIBLE
    assert any("transcendental" in ax for ax in report["axioms"])


def test_iterated_quadratic_join_degrees():
    # for quadratic subfields L, L' of a common tower, [LL' : L'] is 1 or 2
    from galoiskit.splitting import splitting_field_q
    from galoiskit.galois import automorphisms, subgroups
    from galoiskit.correspondence import fixed_field, subfield_generated_by

    sf = splitting_field_q(q([1, 0, 1]) * q([-2, 0, 1]))
    G = automorphisms(sf)
    quads = [
        fixed_field(H, G) for H in subgroups(G) if H.order == 2
    ]  # the three quadratic intermediate fields
    field = sf.field
    for L in quads:
        for Lp in quads:
            gens = [field.unflatten(list(v)) for v in L.basis] + [
                field.unflatten(list(v)) for v in Lp.basis
            ]
            join = subfield_generated_by(sf, gens)
            assert join.dim % Lp.dim == 0
            assert join.dim // Lp.dim in (1, 2)


@pytest.mark.stretch
def test_quintic_a5_stretch():
    cert = quintic_a5_certificate(q([16, 20, 0, 0, 0, 1]))
    assert cert is not None
    assert cert["order"] == 60
    assert cert["type"] == "A5"
    assert cert["transitive"] is True
    assert cert["solvable"] is False


@pytest.mark.stretch
def test_quintic_a5_certificate_refuses_an_order_20_subgroup_of_a5(monkeypatch):
    # the proof that |Gal| = 60 rests on A5 having no subgroup of order 20
    import galoiskit.apps as apps

    lattice = apps.subgroups
    monkeypatch.setattr(apps, "subgroups", lambda G: [*lattice(G), Subgroup(tuple(range(20)))])
    with pytest.raises(InternalInvariant, match="A5 has a subgroup of order 20"):
        quintic_a5_certificate(q([16, 20, 0, 0, 0, 1]))


def test_quintic_certificate_rejects_s5():
    # t^5 - 6t + 3 has non-square discriminant (group S5): no certificate
    assert quintic_a5_certificate(q([3, -6, 0, 0, 0, 1])) is None
