"""GF(p^n): classification, Frobenius, subfields, multiplicative structure."""

import itertools
import random
import tracemalloc

import pytest

from galoiskit.errors import Budget, InternalInvariant, NotIrreducible, NotPrime, ZeroInverse
from galoiskit.numbers import PrimeField, TowerElem, divisors, is_prime
from galoiskit.poly import Poly, render
from galoiskit.tower import Tower
from galoiskit.factor import factor_fp, is_irreducible_ff
from galoiskit.galois import Subgroup, automorphisms, isomorphism_type, subgroup_table
from galoiskit.splitting import splitting_field_fp
from galoiskit.finitefield import (
    GF,
    find_irreducible,
    frobenius,
    frobenius_order,
    gf,
    is_primitive_root,
    multiplicative_generator,
    subfields,
    unique_pth_root,
)
from tower_oracles import residue_product

F2 = PrimeField(2)


def test_find_irreducible_examples():
    assert render(find_irreducible(2, 2)) == "t^2 + t + 1"
    assert render(find_irreducible(3, 2)) == "t^2 + 1"
    for p in (2, 3, 5, 101):
        assert render(find_irreducible(p, 1)) == "t"
    # determinism + irreducibility + canonical minimality (exhaustive check)
    f = find_irreducible(3, 3)
    assert is_irreducible_ff(f)
    F3 = PrimeField(3)
    for high_to_low in itertools.product(range(3), repeat=3):
        cand = Poly(F3, [F3.from_int(c) for c in reversed(high_to_low)] + [F3.one()])
        if cand.sort_key() < f.sort_key():
            assert not is_irreducible_ff(cand)


def test_gf_construction():
    F4 = gf(2, 2)
    assert F4.order == 4
    assert isinstance(F4, Tower)
    elems = F4.elements()
    assert len(elems) == 4
    assert all(type(x) is TowerElem and x.tower is F4 for x in elems)
    a = F4.generator()
    # alpha^2 = 1 + alpha and (1 + alpha)^2 = alpha
    assert a * a == F4.one() + a
    one_plus_a = F4.one() + a
    assert one_plus_a * one_plus_a == a
    assert gf(3, 2).order == 9
    assert gf(7, 1).order == 7
    with pytest.raises(NotPrime):
        gf(6, 2)


def test_gf_rejects_a_modulus_that_is_not_irreducible():
    # a reducible modulus makes F_p[a]/(m) a ring with zero divisors, where
    # multiplicative_generator certified 0 and subfields never returned
    F2, F3 = PrimeField(2), PrimeField(3)
    bad = [
        (2, 2, Poly(F2, [0, 0, 1])),  # t^2
        (2, 2, Poly(F2, [1, 0, 1])),  # (t + 1)^2
        (2, 4, Poly(F2, [1, 1, 1]) * Poly(F2, [1, 1, 1])),
        (2, 3, Poly(F2, [1, 1, 1])),  # irreducible, but of degree 2
        (3, 2, Poly(F3, [2, 0, 2])),  # 2(t^2 + 1): not monic
        (2, 2, Poly(F3, [1, 0, 1])),  # over F_3, not F_2
    ]
    for p, n, m in bad:
        with pytest.raises(NotIrreducible):
            GF(p, n, modulus=m)
    F = GF(2, 2, modulus=Poly(F2, [1, 1, 1]))
    assert F.order == 4 and len(subfields(F)) == 2


def test_gf_field_axioms_exhaustive_small():
    for p, n in ((2, 2), (3, 2), (2, 3)):
        F = gf(p, n)
        elems = F.elements()
        for a in elems:
            assert a + -a == F.zero()
            if a:
                assert a * a.inv() == F.one()
        for a in elems:
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a
        with pytest.raises(ZeroInverse):
            F.zero().inv()


def test_every_nonzero_element_times_its_inverse_is_one():
    for p, n in ((2, 4), (3, 3), (5, 2), (7, 1)):
        F = gf(p, n)
        nonzero = [x for x in F.elements() if x]
        assert len(nonzero) == F.order - 1
        for x in nonzero:
            assert x * x.inv() == F.one()


# the GF shapes of degree <= 10 that the ff_structure benchmark asks, and GF(7)
KERNEL_SHAPES = ((2, 5), (3, 3), (7, 2), (2, 10), (5, 4), (31, 2), (4099, 1),
                 (3, 9), (5, 6), (127, 2), (16381, 1), (7, 1))


def _oracle_power(F, v, e):
    """v^e by right-to-left square and multiply on `residue_product`."""
    out = F._one
    while e:
        if e & 1:
            out = residue_product(F, out, v)
        v, e = residue_product(F, v, v), e >> 1
    return out


def test_gf_arithmetic_is_its_one_level_tower():
    """*, ** and inv on random elements of GF(p^n), the one-level tower
    F_p[a]/(modulus), agree with the schoolbook product of
    `tower_oracles.residue_product` on their coordinates: a product
    directly, a power by that product's square and multiply, and an
    inverse by its oracle product with x being one."""
    rng = random.Random(20)
    for p, n in KERNEL_SHAPES:
        F = gf(p, n)
        assert F.level_degree == n and F.minpoly == F.modulus and F.lower == PrimeField(p)
        for _ in range(12):
            x, y = (F.unflatten([rng.randrange(p) for _ in range(n)]) for _ in range(2))
            e = rng.randrange(2, 3 * F.order)
            assert (x * y).v == residue_product(F, x.v, y.v)
            assert (x**e).v == _oracle_power(F, x.v, e)
            if x:
                assert residue_product(F, x.v, x.inv().v) == F._one


def test_frobenius_swaps_f4():
    F4 = gf(2, 2)
    a = F4.generator()
    one_plus_a = F4.one() + a
    assert frobenius(F4, a) == one_plus_a
    assert frobenius(F4, one_plus_a) == a
    assert frobenius(F4, F4.zero()) == F4.zero()
    assert frobenius(F4, F4.one()) == F4.one()


def test_frobenius_identity_on_prime_field():
    F = gf(5, 1)
    for a in F.elements():
        assert frobenius(F, a) == a


def test_frobenius_order_examples():
    assert frobenius_order(gf(3, 4)) == 4
    assert frobenius_order(gf(2, 5)) == 5
    assert frobenius_order(gf(7, 1)) == 1


def test_frobenius_additive_homomorphism_exhaustive():
    """(x + y)^p = x^p + y^p: full Cartesian check on fields up to 2^9
    elements, and for every x against a spanning basis above that (which
    implies the full statement by peeling basis summands)."""
    small = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9),
             (3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2), (7, 3),
             (11, 2), (13, 2), (17, 2), (19, 2)]
    for p, n in small:
        F = gf(p, n)
        elems = F.elements()
        frob = {a: a**p for a in elems}
        for x in elems:
            fx = frob[x]
            for y in elems:
                assert frob[x + y] == fx + frob[y]
    larger = [(2, 10), (2, 12), (3, 6), (3, 7), (5, 4), (7, 4), (11, 3), (13, 3)]
    for p, n in larger:
        F = gf(p, n)
        if F.order > 1 << 12:
            continue
        basis = [F.generator() ** j for j in range(n)]
        frob_basis = [b**p for b in basis]
        for x in F.elements():
            fx = x**p
            for b, fb in zip(basis, frob_basis):
                assert (x + b) ** p == fx + fb


def test_every_element_is_qth_root_of_itself():
    # x^(p^n) = x, exhaustive for orders up to 2^12 via iterated Frobenius
    for p, n in ((2, 2), (2, 6), (2, 12), (3, 4), (3, 7), (5, 4), (7, 3), (11, 3)):
        F = gf(p, n)
        elems = F.elements()
        frob = {a: a**p for a in elems}
        for x in elems:
            y = x
            for _ in range(n):
                y = frob[y]
            assert y == x


def test_unique_pth_root():
    F4 = gf(2, 2)
    a = F4.generator()
    assert unique_pth_root(F4, F4.one()) == F4.one()
    assert unique_pth_root(F4, a) == F4.one() + a  # (1+a)^2 = a
    Fp = gf(7, 1)
    for x in Fp.elements():
        assert unique_pth_root(Fp, x) == x
    for p, n in ((3, 3), (5, 2)):
        F = gf(p, n)
        for x in F.elements():
            y = unique_pth_root(F, x)
            assert y**p == x


def test_subfields_lattice():
    for p in (2, 3):
        F = gf(p, 12)
        subs = subfields(F)
        assert [m for m, _ in subs] == divisors(12)
        assert [s.order for _, s in subs] == [p**m for m in divisors(12)]
    subs8 = subfields(gf(2, 3))
    assert [s.order for _, s in subs8] == [2, 8]
    assert all(s.order != 4 for _, s in subs8)
    subs_p = subfields(gf(5, 1))
    assert [s.order for _, s in subs_p] == [5]


def test_subfield_subsets_are_subfields():
    F = gf(2, 6)
    for m, s in subfields(F):
        elems = s.elements
        assert len(elems) == 2**m
        for a in elems:
            for b in elems:
                assert a + b in elems
                assert a * b in elems
        # the fixed-set description: a^(p^m) = a for members
        for a in elems:
            assert a ** (2**m) == a


def _fields_up_to(limit):
    for p in range(2, limit + 1):
        if is_prime(p):
            n = 1
            while p**n <= limit:
                yield p, n
                n += 1


def test_subfield_membership_matches_generator_powers():
    """On every GF(p^n) of at most 729 elements, membership in the subfield
    of order p^m agrees, element by element, with the subfield listed as 0
    and the powers of g^((q-1)/(p^m-1)) for the multiplicative generator g,
    and admits exactly p^m elements."""
    for p, n in _fields_up_to(729):
        F = gf(p, n)
        elems = F.elements()
        g = multiplicative_generator(F)
        for m, sub in subfields(F):
            h = g ** ((F.order - 1) // (p**m - 1))
            listed = {F.zero()}
            cur = F.one()
            for _ in range(p**m - 1):
                listed.add(cur)
                cur = cur * h
            assert cur == F.one() and len(listed) == p**m
            members = {a for a in elems if a in sub}
            assert len(members) == sub.order == p**m
            assert members == listed == set(sub.elements)


def test_structure_of_gf_2_20_lists_no_field():
    # the JSON summary (generator included) and the subfield lattice of
    # GF(2^20) never hold the field's 2^20 elements
    tracemalloc.start()
    try:
        F = gf(2, 20)
        F.to_json()
        subfields(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_subfield_size_certificate_can_fail():
    """`subfields` proves ord(h) = N = p^m - 1 for h = g^((q-1)/N): h^N = 1
    and h^(N/l) != 1 for each prime l | N.  A wrong generator must make it
    fail.  In GF(2^4), g^3 gives h = 1 for the subfield of order 4 (N = 3).
    In GF(2^12), g^3 gives h of order 5 at N = 15, caught by l = 3, and g^7
    gives h of order 9 at N = 63, caught only by l = 7.  Zero gives h = 0,
    whose only failing test is h^N = 1 (at N = 1 no prime divides N)."""
    for n, exponents in ((4, (3,)), (12, (3, 7))):
        F = gf(2, n)
        g = multiplicative_generator(F)
        for bad in [g**e for e in exponents] + [F.zero()]:
            F._generator = bad
            with pytest.raises(InternalInvariant, match="wrong size"):
                subfields(F)
        F._generator = g
        assert [s.order for _, s in subfields(F)] == [2**m for m in divisors(n)]


def test_subfields_of_gf_2_20_take_few_products(monkeypatch):
    calls = []
    mul = Tower._mul
    monkeypatch.setattr(Tower, "_mul", lambda self, a, b: calls.append(1) or mul(self, a, b))
    F = gf(2, 20)
    multiplicative_generator(F)
    calls.clear()
    assert [s.order for _, s in subfields(F)] == [2**m for m in (1, 2, 4, 5, 10, 20)]
    assert len(calls) < 300  # walking each h back to 1 took about 1,190


def test_subfield_count_is_divisor_count():
    for p, n in ((2, 8), (3, 6), (5, 4), (2, 12)):
        assert len(subfields(gf(p, n))) == len(divisors(n))


def test_multiplicative_generator():
    F4 = gf(2, 2)
    assert multiplicative_generator(F4) == F4.generator()
    for p, n in ((2, 4), (3, 2), (5, 2), (7, 1), (2, 8)):
        F = gf(p, n)
        g = multiplicative_generator(F)
        seen = set()
        cur = F.one()
        for _ in range(F.order - 1):
            cur = cur * g
            seen.add(cur)
        assert len(seen) == F.order - 1


def test_is_primitive_root():
    assert is_primitive_root(3, 7)
    assert not is_primitive_root(2, 7)  # 2^3 = 1 mod 7
    assert is_primitive_root(2, 5)
    assert not is_primitive_root(4, 5)
    with pytest.raises(NotPrime):
        is_primitive_root(2, 8)


def _relative_galois_group(p, n, m):
    """Gal(GF(p^n) : GF(p^m)) as the subgroup of Gal(GF(p^n) : F_p) that the
    m-th power of Frobenius generates; Gal(GF(p^n) : F_p) is `automorphisms`
    of the splitting field of the defining polynomial of gf(p, n).  Returns
    (splitting field, its Galois group, the subgroup's member indices)."""
    sf = splitting_field_fp(find_irreducible(p, n))
    G = automorphisms(sf)
    frob = [phi.root_perm for phi in G.elements].index(sf.frobenius)
    power = 0
    for _ in range(m):
        power = G.table[power][frob]
    return sf, G, G.generated_subgroup([power])


def test_gal_ff():
    sf, G, H = _relative_galois_group(2, 12, 4)
    assert G.order == 12 and len(H) == 3
    assert isomorphism_type(subgroup_table(G, Subgroup(tuple(sorted(H))))) == "C3"
    assert len(_relative_galois_group(3, 6, 6)[2]) == 1
    assert len(_relative_galois_group(3, 6, 1)[2]) == 6
    # frobenius^4 generates what frobenius^gcd(4, 6) does: Gal(GF(3^6) : GF(3^2))
    assert _relative_galois_group(3, 6, 4)[2] == _relative_galois_group(3, 6, 2)[2]
    # the automorphisms really fix the subfield of order p^m pointwise, and
    # nothing else: the splitting field is gf(2, 6)'s own tower
    sf, G, H = _relative_galois_group(2, 6, 2)
    F = gf(2, 6)
    assert sf.field.minpoly == F.modulus and sf.field.absolute_degree() == 6
    sub = dict(subfields(F))[2]
    for i in H:
        for a in sub.elements:
            x = TowerElem(sf.field, a.v)
            assert G.apply(G.elements[i], x) == x
    moved = [a for a in F.elements() if a not in set(sub.elements)]
    assert all(any(G.apply(G.elements[i], TowerElem(sf.field, a.v)).v != a.v for i in H) for a in moved)


def test_gal_ff_cross_check_with_enumeration():
    # Frobenius generates the automorphism enumeration of the splitting
    # field of the defining polynomial, a cyclic group of order n
    for p, n in ((2, 2), (2, 3), (3, 2), (2, 4)):
        _, G, H = _relative_galois_group(p, n, 1)
        assert G.order == n == len(H)
        assert isomorphism_type(G) == f"C{n}"
        assert G.is_abelian()


def test_classification_independence_of_modulus():
    # two models of GF(16) from different irreducibles: same invariants
    F3 = PrimeField(2)
    candidates = []
    for high_to_low in itertools.product(range(2), repeat=4):
        cand = Poly(F3, [F3.from_int(c) for c in reversed(high_to_low)] + [F3.one()])
        if is_irreducible_ff(cand):
            candidates.append(cand)
    assert len(candidates) >= 2
    models = [GF(2, 4, modulus=m) for m in candidates[:2]]
    stats = []
    for F in models:
        stats.append(
            (
                F.order,
                F.p,
                frobenius_order(F),
                tuple(s.order for _, s in subfields(F)),
            )
        )
    assert stats[0] == stats[1]


def test_irreducible_factors_of_tq_minus_t():
    # t^(p^n) - t factors into exactly the irreducibles of degree dividing n
    for p, n in ((2, 4), (3, 2)):
        F = PrimeField(p)
        q = p**n
        f = Poly(F, [0, -1] + [0] * (q - 2) + [1])
        fact = factor_fp(f)
        assert all(m == 1 for _, m in fact.factors)
        degs = {g.degree for g, _ in fact.factors}
        assert degs == set(divisors(n))
        # and the canonical irreducible of each divisor degree divides it
        for d in divisors(n):
            cand = find_irreducible(p, d)
            assert any(g == cand for g, _ in fact.factors)


def test_budget_guard():
    with pytest.raises(Budget):
        find_irreducible(2, 40)


def test_gf_json():
    data = gf(2, 2).to_json()
    assert data["order"] == 4
    assert data["modulus"] == "t^2 + t + 1"
    assert data["subfield_orders"] == [2, 4]
    assert data["frobenius_order"] == 2
