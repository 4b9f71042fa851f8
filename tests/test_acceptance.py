"""Acceptance criteria: one test per criterion, exact tolerances, with a
printed pass/fail line and the elapsed time against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 11 (the A5 quintic) is a stretch check, disabled by
default; enable it with `-m stretch`.
"""

import random
import time
from collections import Counter

import pytest

from galoiskit.numbers import QQ, PrimeField, divisors, is_prime
from galoiskit.poly import Poly, render
from galoiskit.factor import (
    check_eisenstein,
    cyclotomic_p,
    eisenstein,
    factor_q,
    is_irreducible_ff,
    is_irreducible_q,
    mod_p_certificate,
)
from galoiskit.tower import adjoin_root, tower_degree
from galoiskit.splitting import splitting_field_q, verify_splits
from galoiskit.galois import (
    Subgroup,
    automorphisms,
    is_normal_subgroup,
    isomorphism_type,
    subgroups,
)
from galoiskit.correspondence import (
    fixed_field,
    gal_over,
    quotient_check,
    verify_correspondence,
)
from galoiskit.finitefield import (
    frobenius,
    frobenius_order,
    gf,
    is_primitive_root,
    subfields,
)
from galoiskit.apps import (
    NOT_CONSTRUCTIBLE,
    NOT_SOLVABLE,
    SOLVABLE,
    constructible_degree_check,
    count_real_roots,
    ngon_constructible,
    quintic_a5_certificate,
    solvable_by_radicals,
    trisection_min_poly,
)


def q(coeffs):
    return Poly(QQ, coeffs)


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"
        return False


def test_criterion_01_irreducibility_certificates():
    with _Budget("1 irreducibility certificates", 1):
        f = q([9, 14, 0, -8])
        assert mod_p_certificate(f) == 7
        assert is_irreducible_ff(Poly(PrimeField(7), [9, 14, 0, -8]))
        g = q([3, 0, 0, 9, -15, 2])
        assert eisenstein(g, shifts=[0]) == (3, 0)
        assert check_eisenstein(g, 3, 0)
        for p in (2, 3, 5, 7, 11, 13):
            phi = cyclotomic_p(p)
            assert eisenstein(phi, shifts=[1]) == (p, 1)
            assert check_eisenstein(phi, p, 1)


def test_criterion_02_degrees():
    with _Budget("2 degrees", 10):
        t1, _ = adjoin_root(QQ, q([-2, 0, 1]), "a")
        t2, _ = adjoin_root(t1, Poly(t1, [-3, 0, 1]), "b")
        assert tower_degree(t2) == 4
        t3, _ = adjoin_root(QQ, q([-2, 0, 0, 1]), "x")
        t4, _ = adjoin_root(t3, Poly(t3, [1, 1, 1]), "w")
        assert tower_degree(t4) == 6
        t5, _ = adjoin_root(QQ, q([-12, 0, 0, 0, 1]), "u")
        t6, _ = adjoin_root(t5, Poly(t5, [-6] + [0] * 14 + [1]), "v")
        assert tower_degree(t6) == 60
        for p in (2, 3, 5, 7, 11, 13):
            tc, _ = adjoin_root(QQ, cyclotomic_p(p), "w")
            assert tower_degree(tc) == p - 1


def test_criterion_03_galois_groups():
    with _Budget("3 Galois groups", 30):
        cases = [
            (q([-2, 0, 0, 1]), 6, "S3"),
            (q([1, 0, 1]) * q([-2, 0, 1]), 4, "C2 x C2"),
            (q([1, 1, 1, 1, 1]), 4, "C4"),
            (q([-2, 0, 0, 0, 1]), 8, "D4"),
        ]
        for f, order, name in cases:
            G = automorphisms(splitting_field_q(f))
            assert G.order == order
            assert isomorphism_type(G) == name


def test_criterion_04_t4_minus_2_correspondence():
    with _Budget("4 full t^4-2 correspondence", 60):
        sf = splitting_field_q(q([-2, 0, 0, 0, 1]))
        G = automorphisms(sf)
        subs = subgroups(G)
        assert Counter(h.order for h in subs) == {1: 1, 2: 5, 4: 3, 8: 1}
        normal = [h for h in subs if is_normal_subgroup(h, G)]
        assert len(normal) == 6
        n = sf.degree()
        assert n == 8
        for H in subs:
            L = fixed_field(H, G)
            assert H.order * L.dim == n  # [M : Fix(H)] = |H| for all 10
            assert L.min_poly_of_primitive.degree == L.dim
        normal_order2 = [h for h in normal if h.order == 2]
        assert len(normal_order2) == 1  # the <rho^2> subgroup
        L = fixed_field(normal_order2[0], G)
        rep = quotient_check(L, G)
        assert rep["quotient_type"] == "C2 x C2"


def test_criterion_05_mutual_inverse():
    with _Budget("5 mutually inverse correspondence", 60):
        for f in (
            q([-2, 0, 0, 1]),
            q([-2, 0, 0, 0, 1]),
            q([1, 0, 1]) * q([-2, 0, 1]),
            q([1, 1, 1, 1, 1]),
        ):
            report = verify_correspondence(splitting_field_q(f))
            assert report["mutually_inverse"]


def test_criterion_06_unsolvable_quintic():
    with _Budget("6 unsolvable quintic", 1):
        f = q([3, -6, 0, 0, 0, 1])
        assert eisenstein(f, shifts=[0]) == (3, 0)
        assert is_irreducible_q(f).irreducible
        assert count_real_roots(f) == 3
        verdict = solvable_by_radicals(f)
        assert verdict.verdict == NOT_SOLVABLE
        assert verdict.evidence["group"] == "S5"
        assert verdict.evidence["prime"] == 5


def test_criterion_07_low_degree_solvable():
    with _Budget("7 degree <= 4 always solvable", 5):
        rng = random.Random(2024)
        for _ in range(50):
            deg = rng.randint(1, 4)
            f = q([rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)])
            assert solvable_by_radicals(f).verdict == SOLVABLE


def test_criterion_08_constructibility():
    with _Budget("8 constructibility", 1):
        assert constructible_degree_check(q([-2, 0, 0, 1])).verdict == NOT_CONSTRUCTIBLE
        assert (
            constructible_degree_check(trisection_min_poly()).verdict
            == NOT_CONSTRUCTIBLE
        )
        expected = {3, 4, 5, 6, 8, 10, 12, 15, 16, 17, 20}
        assert {n for n in range(3, 21) if ngon_constructible(n)} == expected


def test_criterion_09_finite_fields():
    with _Budget("9 finite fields", 30):
        F4 = gf(2, 2)
        a = F4.gen()
        assert render(F4.modulus) == "t^2 + t + 1"
        assert F4.mul(a, a) == F4.add(F4.one(), a)  # alpha^2 = 1 + alpha
        assert frobenius(F4, a) == F4.add(F4.one(), a)  # Frobenius swap
        assert frobenius(F4, F4.add(F4.one(), a)) == a
        for p in (2, 3):
            subs = subfields(gf(p, 12))
            assert [m for m, _ in subs] == divisors(12)
        assert all(s.order != 4 for _, s in subfields(gf(2, 3)))
        # Frobenius order n for every prime power p^n <= 2^16
        checked = 0
        for p in range(2, 1 << 16):
            if not is_prime(p):
                continue
            n = 1
            while p**n <= 1 << 16:
                assert frobenius_order(gf(p, n)) == n
                checked += 1
                n += 1
        assert checked > 6500
        assert is_primitive_root(3, 7)
        assert not is_primitive_root(2, 7)


def test_criterion_10_property_suites():
    with _Budget("10 property suites", 120):
        # |Gal| = [M:K] and |Gal| divides k! on every constructed field
        from math import factorial

        polys = [
            q([-2, 0, 0, 1]),
            q([-2, 0, 0, 0, 1]),
            q([1, 1, 1, 1, 1]),
            q([1, 0, 1]) * q([-2, 0, 1]),
            q([-2, 0, 1]),
        ]
        for f in polys:
            sf = splitting_field_q(f)
            G = automorphisms(sf)
            assert G.order == sf.degree()
            assert factorial(len(sf.roots)) % G.order == 0
            if factor_q(f).is_irreducible():
                assert G.order % f.degree == 0
            assert verify_splits(sf)

        # factorization round-trip uniqueness
        rng = random.Random(5)
        for _ in range(15):
            f = q([rng.randint(-4, 4) for _ in range(4)] + [rng.randint(1, 3)])
            fact = factor_q(f)
            assert factor_q(fact.expand(QQ)).factors == fact.factors

        # Frobenius additivity, exhaustive on fields up to 2^12 elements
        # (full Cartesian to 2^9; basis-spanning reduction above, which
        # implies the full statement by peeling basis summands)
        for p, n in ((2, 9), (3, 5), (5, 3), (7, 2), (2, 12), (3, 7)):
            F = gf(p, n)
            elems = F.elements()
            frob = {x: F.pow(x, p) for x in elems}
            if F.order <= 1 << 9:
                for x in elems:
                    fx = frob[x]
                    for y in elems:
                        assert frob[F.add(x, y)] == F.add(fx, frob[y])
            else:
                basis = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
                for x in elems:
                    fx = frob[x]
                    for b in basis:
                        assert frob[F.add(x, b)] == F.add(fx, frob[b])

        # Galois connection laws + conjugation covariance on SF(t^4 - 2)
        from galoiskit.linalg import mat_mul_vec
        from linalg_oracles import in_row_space

        sf = splitting_field_q(q([-2, 0, 0, 0, 1]))
        G = automorphisms(sf)
        subs = subgroups(G)
        base = sf.field.base
        fixed = {H: fixed_field(H, G) for H in subs}
        for H1 in subs:
            for H2 in subs:
                if set(H1.member_indices) <= set(H2.member_indices):
                    assert all(
                        in_row_space(base, fixed[H1].basis, v)
                        for v in fixed[H2].basis
                    )
        for H in subs:
            L = fixed[H]
            H_back = gal_over(L, G)
            assert set(H.member_indices) <= set(H_back.member_indices)
            L_back = fixed_field(H_back, G)
            assert all(in_row_space(base, L_back.basis, v) for v in L.basis)
        tbl = G
        for H in subs:
            if H.order != 2:
                continue
            L = fixed[H]
            for g_idx in range(G.order):
                inv = tbl.inverse(g_idx)
                conj = Subgroup(
                    tuple(
                        sorted(
                            tbl.table[tbl.table[g_idx][h]][inv]
                            for h in H.member_indices
                        )
                    )
                )
                L_conj = fixed_field(conj, G)
                mat = G.matrix_of(g_idx)
                mapped = [mat_mul_vec(mat, v, base.zero()) for v in L.basis]
                assert all(in_row_space(base, L_conj.basis, v) for v in mapped)


@pytest.mark.stretch
def test_criterion_11_stretch_a5_quintic():
    with _Budget("11 stretch A5 quintic", 600):
        cert = quintic_a5_certificate(q([16, 20, 0, 0, 0, 1]))
        assert cert is not None
        assert cert["order"] == 60
        assert cert["transitive"] is True
        assert cert["solvable"] is False
        assert cert["type"] == "A5"
