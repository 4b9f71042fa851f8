"""Galois groups: enumeration, action on roots, group structure."""

import functools
import random
from collections import Counter
from fractions import Fraction

import pytest

from galoiskit.errors import InternalInvariant, NotASubgroup, NotNormal, OrderCap
from galoiskit.linalg import mat_mul_vec
from linalg_oracles import mat_mul_vec as scalar_mat_mul_vec
from linalg_oracles import scalar_matrix
from galoiskit.numbers import QQ, PrimeField
from galoiskit.cli import parse_poly
from galoiskit.poly import Poly
from galoiskit.splitting import splitting_field_fp, splitting_field_q
from galoiskit.tower import TowerElem
from galoiskit.galois import (
    _NONABELIAN_FINGERPRINTS,
    FiniteGroup,
    Subgroup,
    automorphisms,
    apply_automorphism,
    check_subgroup,
    cycle_notation,
    derived_series,
    from_permutations,
    is_normal_subgroup,
    is_solvable,
    is_transitive,
    isomorphism_type,
    minimal_generators,
    orbits,
    quotient_group,
    subgroup_table,
    subgroups,
)


def q(coeffs):
    return Poly(QQ, coeffs)


@pytest.fixture(scope="module")
def gal_cbrt2():
    return automorphisms(splitting_field_q(q([-2, 0, 0, 1])))


@pytest.fixture(scope="module")
def gal_klein():
    return automorphisms(splitting_field_q(q([1, 0, 1]) * q([-2, 0, 1])))


@pytest.fixture(scope="module")
def gal_t4():
    return automorphisms(splitting_field_q(q([-2, 0, 0, 0, 1])))


def test_group_orders_and_types(gal_cbrt2, gal_klein, gal_t4):
    assert gal_cbrt2.order == 6 and isomorphism_type(gal_cbrt2) == "S3"
    assert gal_klein.order == 4 and isomorphism_type(gal_klein) == "C2 x C2"
    assert gal_t4.order == 8 and isomorphism_type(gal_t4) == "D4"
    g5 = automorphisms(splitting_field_q(q([1, 1, 1, 1, 1])))
    assert g5.order == 4 and isomorphism_type(g5) == "C4"


def test_order_equals_degree(gal_cbrt2, gal_klein, gal_t4):
    for G in (gal_cbrt2, gal_klein, gal_t4):
        assert G.order == G.sf.degree()


def test_order_divides_root_factorial(gal_cbrt2, gal_klein, gal_t4):
    from math import factorial

    for G in (gal_cbrt2, gal_klein, gal_t4):
        k = len(G.sf.roots)
        assert factorial(k) % G.order == 0


def test_irreducible_degree_divides_order():
    for coeffs in ([-2, 0, 0, 1], [-2, 0, 0, 0, 1], [1, 1, 1, 1, 1], [-2, 0, 1]):
        f = q(coeffs)
        G = automorphisms(splitting_field_q(f))
        assert G.order % f.degree == 0


def _check_axioms(g):
    """Identity at index 0 on both sides, and an inverse in every row (the
    associativity spot check is separate: a full check is O(n^3))."""
    t, n = g.table, g.order
    if any(t[0][j] != j or t[j][0] != j for j in range(n)):
        return False
    return all(any(t[i][j] == 0 for j in range(n)) for i in range(n))


def test_group_axioms_from_table(gal_t4):
    g = gal_t4
    assert _check_axioms(g)
    rng = random.Random(3)
    for _ in range(40):
        a, b, c = (rng.randrange(g.order) for _ in range(3))
        assert g.table[g.table[a][b]][c] == g.table[a][g.table[b][c]]


@pytest.mark.parametrize("f", ["t^3-2", "t^4-2", "(t^2-2)*(t^2-3)*(t^2-5)", "t^5-5*t+12", "t^6-2", "t^5-2", "t^4-t-1"])
def test_galois_group_is_the_closure_of_its_generators(f):
    # closing the generators' root permutations by direct composition gives
    # the elements in the same order and the same table
    G = automorphisms(splitting_field_q(parse_poly(f)))
    assert isinstance(G, FiniteGroup)
    group, perms = from_permutations([G.elements[i].root_perm for i in minimal_generators(G)])
    assert perms == [a.root_perm for a in G.elements]
    assert group.table == G.table


def test_faithful_injective_action(gal_t4):
    perms = [a.root_perm for a in gal_t4.elements]
    assert len(set(perms)) == len(perms)
    # homomorphism into S_k: table composition matches permutation composition
    g = gal_t4
    for i in range(g.order):
        for j in range(g.order):
            composed = tuple(
                perms[i][perms[j][x]] for x in range(len(perms[0]))
            )
            assert perms[g.table[i][j]] == composed


def test_apply_fixes_base_and_preserves_min_poly(gal_t4):
    field = gal_t4.sf.field
    for a in gal_t4.elements:
        assert apply_automorphism(field, a, Fraction(7, 3)) == field.coerce(
            Fraction(7, 3)
        )
    rng = random.Random(5)
    n = field.absolute_degree()
    for a in gal_t4.elements[:4]:
        x = field.unflatten([Fraction(rng.randint(-2, 2)) for _ in range(n)])
        y = apply_automorphism(field, a, x)
        assert field.min_poly_over_base(x) == field.min_poly_over_base(y)


def test_phi5_action_is_power_maps():
    # each automorphism sends a 5th root of unity to one of its powers, and
    # together they realize all four nontrivial powers
    G = automorphisms(splitting_field_q(q([1, 1, 1, 1, 1])))
    field = G.sf.field
    omega = G.sf.roots[0]
    powers = {1: omega}
    for i in (2, 3, 4):
        powers[i] = powers[i - 1] * omega
    exponents = set()
    for a in G.elements:
        img = apply_automorphism(field, a, omega)
        matches = [i for i, w in powers.items() if w == img]
        assert len(matches) == 1
        exponents.add(matches[0])
    assert exponents == {1, 2, 3, 4}


def test_apply_conjugation_style(gal_klein):
    # some element sends each root to its negative partner (i -> -i, s -> -s)
    field = gal_klein.sf.field
    roots = gal_klein.sf.roots
    found = False
    for a in gal_klein.elements:
        if all(apply_automorphism(field, a, r) == -r for r in roots):
            found = True
    assert found


def _apply_by_generator_images(chain, images, field, x):
    """Oracle: map x through generator_k -> images[k] by recursing down the
    tower, with no matrix involved."""
    if not isinstance(x, TowerElem) or x.tower == field.base:  # a base scalar
        return field.coerce(x)
    img = images[chain.index(x.tower)]
    acc = field.zero()
    power = field.one()
    for c in x.coeffs:
        acc = acc + _apply_by_generator_images(chain, images, field, c) * power
        power = power * img
    return acc


@pytest.mark.parametrize(
    "f",
    [
        q([-2, 0, 0, 0, 1]),
        q([-2, 0, 1]) * q([-3, 0, 1]) * q([-5, 0, 1]),
        q([12, -5, 0, 0, 0, 1]),
    ],
    ids=["t^4-2", "(t^2-2)(t^2-3)(t^2-5)", "t^5-5t+12"],
)
def test_matrix_application_matches_generator_images(f):
    G = automorphisms(splitting_field_q(f))
    field = G.sf.field
    chain = field.chain()
    n = field.absolute_degree()
    rng = random.Random(11)
    xs = [field.unflatten([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]) for _ in range(3)]
    for a in G.elements:
        for x in xs + list(G.sf.roots[:1]):
            expected = _apply_by_generator_images(chain, a.generator_images, field, field.coerce(x))
            assert apply_automorphism(field, a, x) == expected


def _mat_mul(field, A, B):
    zero = field.zero()
    return [
        [sum((A[r][k] * B[k][c] for k in range(len(B))), zero) for c in range(len(B[0]))]
        for r in range(len(A))
    ]


@pytest.mark.parametrize(
    "sf",
    [
        lambda: splitting_field_q(q([-2, 0, 0, 1])),
        lambda: splitting_field_q(q([-2, 0, 0, 0, 1])),
        lambda: splitting_field_fp(Poly(PrimeField(2), [1, 1, 1]) * Poly(PrimeField(2), [1, 1, 0, 1])),
    ],
    ids=["t^3-2", "t^4-2", "F2:(t^2+t+1)(t^3+t+1)"],
)
def test_matrices_compose_like_the_table(sf):
    # table[a][b] is "apply b, then a", so its matrix is M_a * M_b
    G = automorphisms(sf())
    base = G.sf.field.base
    n = G.sf.degree()
    mats = [scalar_matrix(base, G.matrix_of(i)) for i in range(G.order)]
    assert mats[0] == [[base.one() if i == j else base.zero() for j in range(n)] for i in range(n)]
    for a in range(G.order):
        for b in range(G.order):
            assert mats[G.table[a][b]] == _mat_mul(base, mats[a], mats[b])


def test_transitivity(gal_cbrt2, gal_klein):
    assert is_transitive(gal_cbrt2)
    assert not is_transitive(gal_klein)
    g2 = automorphisms(splitting_field_q(q([-2, 0, 1])))
    assert is_transitive(g2)
    assert g2.order == 2


def test_orbits_match_min_polys(gal_klein, gal_cbrt2):
    # orbits group the roots by identical minimal polynomial over Q
    for G in (gal_klein, gal_cbrt2):
        field = G.sf.field
        parts = orbits(G)
        for part in parts:
            mps = {str(field.min_poly_over_base(G.sf.roots[i])) for i in part}
            assert len(mps) == 1
        mp_to_orbit = {}
        for part in parts:
            mp = str(field.min_poly_over_base(G.sf.roots[part[0]]))
            assert mp not in mp_to_orbit
            mp_to_orbit[mp] = part
    trivial = automorphisms(splitting_field_q(q([2, -3, 1])))
    assert orbits(trivial) == [[0], [1]]


def test_subgroups_d4(gal_t4):
    subs = subgroups(gal_t4)
    prof = Counter(h.order for h in subs)
    assert len(subs) == 10
    assert prof == {1: 1, 2: 5, 4: 3, 8: 1}
    normal = [h for h in subs if is_normal_subgroup(h, gal_t4)]
    assert Counter(h.order for h in normal) == {1: 1, 2: 1, 4: 3, 8: 1}
    # every index-2 subgroup is normal
    for h in subs:
        if h.order == 4:
            assert is_normal_subgroup(h, gal_t4)


def test_subgroups_cyclic():
    c4, _ = from_permutations([(1, 2, 3, 0)])
    assert len(subgroups(c4)) == 3  # one per divisor of 4
    trivial = FiniteGroup([[0]])
    assert len(subgroups(trivial)) == 1


def test_not_a_subgroup_raises(gal_t4):
    with pytest.raises(NotASubgroup):
        is_normal_subgroup(Subgroup((0, 1, 2)), gal_t4)  # not closed


def test_order_cap():
    s5, _ = from_permutations([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    with pytest.raises(OrderCap):
        subgroups(s5)  # order 120 > 60


def test_solvability():
    s3, _ = from_permutations([(1, 0, 2), (1, 2, 0)])
    assert is_solvable(s3)
    assert [h.order for h in derived_series(s3)] == [6, 3, 1]
    s5, _ = from_permutations([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    assert not is_solvable(s5)
    a5, _ = from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])
    assert a5.order == 60
    assert not is_solvable(a5)


def test_d4_derived_series_vs_table_oracle(gal_t4):
    # oracle: the commutator subgroup computed by brute force over all pairs
    g = gal_t4
    comms = set()
    for a in range(g.order):
        for b in range(g.order):
            ia, ib = g.inverse(a), g.inverse(b)
            comms.add(g.table[g.table[g.table[a][b]][ia]][ib])
    closure = g.generated_subgroup(comms)
    series = derived_series(gal_t4)
    assert set(series[1].member_indices) == closure
    assert len(closure) == 2  # <rho^2>
    assert series[-1].order == 1


def test_sn_generation():
    # S5 = <(12), (12345)>, verified via closure of the pair
    s5, perms = from_permutations([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    assert s5.order == 120
    assert isomorphism_type(s5) == "S5"
    idx = {p: i for i, p in enumerate(perms)}
    transposition = idx[(1, 0, 2, 3, 4)]
    five_cycle = idx[(1, 2, 3, 4, 0)]
    closure = s5.generated_subgroup([transposition, five_cycle])
    assert len(closure) == 120


def test_isomorphism_type_table():
    c2, _ = from_permutations([(1, 0)])
    assert isomorphism_type(c2) == "C2"
    c12, _ = from_permutations([tuple((i + 1) % 12 for i in range(12))])
    assert isomorphism_type(c12) == "C12"
    v4, _ = from_permutations([(1, 0, 3, 2), (2, 3, 0, 1)])
    assert isomorphism_type(v4) == "C2 x C2"
    a4, _ = from_permutations([(1, 2, 0, 3), (0, 2, 3, 1)])
    assert isomorphism_type(a4) == "A4"
    s4, _ = from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)])
    assert isomorphism_type(s4) == "S4"
    q8 = _quaternion_table()
    assert isomorphism_type(q8) == "Q8"
    a5, _ = from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])
    assert isomorphism_type(a5) == "A5"
    c2c2c2, _ = from_permutations([(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)])
    assert isomorphism_type(c2c2c2) == "unidentified abelian group of order 8"


def test_each_nonabelian_fingerprint_fixes_the_whole_multiset():
    # a row lists the order of every element, so a group matches it only
    # with exactly these counts
    for (n, orders), name in _NONABELIAN_FINGERPRINTS.items():
        assert len(orders) == n and list(orders) == sorted(orders), name
    for gens, name in [
        ([(1, 0, 2, 3), (1, 2, 3, 0)], "S4"),
        ([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], "A5"),
        ([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], "S5"),
    ]:
        group, _ = from_permutations(gens)
        assert isomorphism_type(group) == name


def _quaternion_table():
    # Q8 = {1, -1, i, -i, j, -j, k, -k} with the usual rules
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    mult = {}

    def key(sign, letter):
        if letter == "1":
            return "1" if sign > 0 else "-1"
        return letter if sign > 0 else "-" + letter

    basic = {
        ("i", "i"): (-1, "1"),
        ("j", "j"): (-1, "1"),
        ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"),
        ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"),
        ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"),
        ("i", "k"): (-1, "j"),
    }
    for a in names:
        for b in names:
            sa = -1 if a.startswith("-") else 1
            sb = -1 if b.startswith("-") else 1
            la, lb = a.lstrip("-"), b.lstrip("-")
            if la == "1":
                s, l = sa * sb, lb
            elif lb == "1":
                s, l = sa * sb, la
            else:
                s0, l = basic[(la, lb)]
                s = sa * sb * s0
            mult[(a, b)] = key(s, l)
    index = {n: i for i, n in enumerate(names)}
    table = [[index[mult[(a, b)]] for b in names] for a in names]
    return FiniteGroup(table)


def test_quotient_group():
    s3, perms = from_permutations([(1, 0, 2), (1, 2, 0)])
    a3_members = tuple(
        i for i, p in enumerate(perms) if _parity(p) == 0
    )
    quo, cosets = quotient_group(s3, Subgroup(tuple(sorted(a3_members))))
    assert quo.order == 2
    assert isomorphism_type(quo) == "C2"


def test_quotient_by_a_non_normal_subgroup_raises(gal_t4):
    N = next(H for H in subgroups(gal_t4) if H.order == 2 and not is_normal_subgroup(H, gal_t4))
    with pytest.raises(NotNormal):
        quotient_group(gal_t4, N)


def test_element_order_on_a_table_that_is_not_a_group_raises():
    # the powers of element 1 run 1, 2, 2, ... and never reach the identity
    g = FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 2, 2]])
    with pytest.raises(InternalInvariant):
        g.element_order(1)
    with pytest.raises(InternalInvariant):
        isomorphism_type(g)


def _parity(p):
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parity ^= (length - 1) % 2
    return parity


def test_subgroup_table_and_check(gal_t4):
    subs = subgroups(gal_t4)
    for h in subs:
        assert check_subgroup(h, gal_t4)
        tbl = subgroup_table(gal_t4, h)
        assert tbl.order == h.order
        assert _check_axioms(tbl)


def test_subgroups_are_immutable_hashable_values():
    a, b = Subgroup((0, 1)), Subgroup((0, 1))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1 and a != Subgroup((0,))
    with pytest.raises(AttributeError):
        a.member_indices = (0,)


def test_cycle_notation():
    assert cycle_notation((1, 0, 2)) == "(1 2)"
    assert cycle_notation((0, 1, 2)) == "()"
    assert cycle_notation((1, 2, 3, 0)) == "(1 2 3 4)"



def test_automorphism_repr_is_its_root_permutation_in_cycle_notation():
    G = automorphisms(splitting_field_q(parse_poly("t^3-2", QQ)))
    assert [repr(a) for a in G.elements] == [
        "Automorphism(())", "Automorphism((2 3))", "Automorphism((1 2))",
        "Automorphism((1 2 3))", "Automorphism((1 3 2))", "Automorphism((1 3))",
    ]


def test_minimal_generators(gal_t4):
    gens = minimal_generators(gal_t4)
    assert gal_t4.generated_subgroup(gens) == frozenset(range(8))
    assert len(gens) <= 2


def test_json_shape(gal_t4):
    data = gal_t4.to_json()
    assert data["order"] == 8
    assert data["type"] == "D4"
    assert len(data["elements"]) == 8


def _generator_images_by_full_scan(sf):
    """Oracle for the pruned root scan in `automorphisms`: every way to send
    each level's generator, bottom-up, to any stored root of its minimal
    polynomial mapped by the images chosen below it."""
    field, roots = sf.field, sf.roots
    chain = field.chain()
    found = []

    def extend(images):
        k = len(images)
        if k == len(chain):
            found.append(tuple(images))
            return
        m_phi = Poly(field, [
            _apply_by_generator_images(chain, images, field, c) for c in chain[k].minpoly.coeffs
        ])
        for r in roots:
            if not m_phi.eval(r):
                extend(images + [r])

    extend([])
    return found


def _full_scan_sources():
    """(id, source) of the fields checked against the full scan: the ladder
    and two F_p fields under their first ids; t^8-2, t^3-3t+1, t^4+1 and a
    compositum of four quadratics; the other Q `galois` inputs of
    GOLDEN_JSON; and t^7-2, under slow."""
    from test_cli import GOLDEN_JSON

    out = [
        ("t^3-2", "t^3-2"), ("t^4-2", "t^4-2"), ("(t^2-2)(t^2-3)(t^2-5)", "(t^2-2)*(t^2-3)*(t^2-5)"),
        ("t^5-5t+12", "t^5-5*t+12"), ("t^6-2", "t^6-2"), ("t^5-2", "t^5-2"), ("t^4-t-1", "t^4-t-1"),
        ("F3:t^6+2t^5+t^4+t^3+2t^2+t+1", "F3:t^6+2*t^5+t^4+t^3+2*t^2+t+1"),
        ("F2:(t^2+t+1)(t^3+t+1)", "F2:(t^2+t+1)*(t^3+t+1)"),
    ]
    out += [(src, src) for src in ("t^8-2", "t^3-3*t+1", "t^4+1", "(t^2-2)*(t^2-3)*(t^2-5)*(t^2-7)")]
    for argv, _ in GOLDEN_JSON:
        if argv[1:2] == ["galois"] and argv[-1] not in [src for _, src in out]:
            out.append((argv[-1], argv[-1]))
    return [pytest.param(src, id=name) for name, src in out] + [
        pytest.param("t^7-2", id="t^7-2", marks=pytest.mark.slow)
    ]


@pytest.mark.parametrize("src", _full_scan_sources())
def test_pruned_root_scan_matches_the_full_scan(src):
    # the stabilizer chain over Q, and the Frobenius powers over F_p, give
    # the elements of the full scan in the same order, with the same
    # generator images, root permutations and matrices
    sf = _splitting_field(src)
    G = automorphisms(sf)
    field, roots = sf.field, sf.roots
    chain = field.chain()
    expected = _generator_images_by_full_scan(sf)
    assert len(expected) == len(set(expected)) == G.order == sf.degree()
    oracle = sorted(
        (tuple(roots.index(_apply_by_generator_images(chain, images, field, r)) for r in roots), images)
        for images in expected
    )
    assert oracle[0][0] == tuple(range(len(roots)))
    assert [(a.root_perm, a.generator_images) for a in G.elements] == oracle
    assert [scalar_matrix(field.base, G.matrix_of(i)) for i in range(G.order)] == [
        _eager_matrix(field, images) for _, images in oracle
    ]


def test_roots_are_accepted_by_counting(monkeypatch):
    # a level's mapped minimal polynomial has exactly as many roots among the
    # candidates as its degree: for S4 every level takes all its candidates
    # unevaluated, and t^6 - 2 must still test roots at its quadratic level
    s4 = splitting_field_q(q([-1, -1, 0, 0, 1]))
    d6 = splitting_field_q(q([-2, 0, 0, 0, 0, 0, 1]))
    calls = []
    evaluate = Poly.eval
    monkeypatch.setattr(Poly, "eval", lambda self, a: calls.append(1) or evaluate(self, a))
    assert automorphisms(s4).order == 24 and not calls
    assert automorphisms(d6).order == 12 and calls


def _random_irreducible(rng, F, d, avoid):
    from galoiskit.factor import is_irreducible_ff

    while True:
        g = Poly(F, [rng.randrange(F.p) for _ in range(d)] + [1])
        if g not in avoid and is_irreducible_ff(g):
            return g


def _frobenius_sources():
    """The F_p `galois` inputs of GOLDEN_JSON, and seeded products of
    distinct irreducibles over F_2, F_3, F_5 and F_7 whose degrees have lcm
    at most 8."""
    from test_cli import GOLDEN_JSON

    out = [
        parse_poly(argv[-1], PrimeField(int(argv[2][1:])))
        for argv, _ in GOLDEN_JSON
        if argv[1:2] == ["--field"] and argv[3] == "galois"
    ]
    rng = random.Random(41)
    shapes = {2: [(8,), (1, 2, 4), (2, 3), (1, 3), (4, 4)], 3: [(2, 4), (1, 3), (2, 2)],
              5: [(2, 3), (4,)], 7: [(3,), (1, 2)]}
    for p, degree_lists in shapes.items():
        F = PrimeField(p)
        for degrees in degree_lists:
            factors = []
            for d in degrees:
                factors.append(_random_irreducible(rng, F, d, factors))
            f = Poly.one(F)
            for g in factors:
                f = f * g
            out.append(f)
    return out


def test_fp_base_field_takes_the_frobenius_route(monkeypatch):
    # F_p itself has one automorphism, the identity, and nothing is searched
    import galoiskit.galois as galois

    monkeypatch.setattr(galois, "_searched", None)
    G = automorphisms(splitting_field_fp(Poly(PrimeField(5), [-1, 0, 1])))
    assert [(a.root_perm, a.generator_images) for a in G.elements] == [((0, 1), ())]


@pytest.mark.parametrize("f", _frobenius_sources(), ids=str)
def test_fp_automorphisms_are_the_frobenius_powers(monkeypatch, f):
    # oracle: Gal over F_p is generated by x -> x^p; element j = phi^j maps
    # basis vector b to b^(p^j), root r to r^(p^j) and each generator g to
    # g^(p^j), and the group is exactly phi^0 .. phi^(n-1), sorted by root
    # permutation.  automorphisms reads sf.frobenius and takes no powers
    sf = splitting_field_fp(f)
    calls, power = [], TowerElem.__pow__
    monkeypatch.setattr(TowerElem, "__pow__", lambda self, n: calls.append(n) or power(self, n))
    G = automorphisms(sf)
    monkeypatch.undo()
    assert calls == []
    field, roots, p = sf.field, sf.roots, f.dom.p
    n = sf.degree()
    assert n > 1
    index = {field.sort_key(r): i for i, r in enumerate(roots)}
    basis = [field.unflatten([int(i == b) for i in range(n)]) for b in range(n)]
    expected = []
    for j in range(n):
        e = p**j
        cols = [field.flatten(b**e) for b in basis]
        expected.append((
            tuple(index[field.sort_key(r**e)] for r in roots),
            tuple(g**e for g in field.generators()),
            [[col[r] for col in cols] for r in range(n)],
        ))
    expected.sort(key=lambda x: x[0])
    assert len({perm for perm, _, _ in expected}) == n == G.order
    assert [(a.root_perm, a.generator_images, scalar_matrix(field.base, a.matrix)) for a in G.elements] == expected


# The seven ROADMAP ladder polynomials and the fifteen splitting fields of the
# benchmark's correspondence workload, less the three they share.
LADDER = ("t^3-2", "t^4-2", "(t^2-2)*(t^2-3)*(t^2-5)", "t^5-5*t+12", "t^6-2", "t^5-2", "t^4-t-1")
CORRESPONDENCE_FIELDS = (
    "t^2-2", "t^3-3*t+1", "(t^2-2)*(t^2-3)", "t^4-4*t^2+2", "t^4+5*t^2+5", "t^3-3", "t^3-5",
    "t^3-7", "t^3-t-1", "t^4+2", "t^4-3", "(t^2+1)*(t^2-2)*(t^2-3)",
)


@functools.cache
def _splitting_field(src):
    """Over Q with a degree cap of 48, which t^7-2 needs; a prefix "F<p>:" selects F_p."""
    if ":" in src:
        p, f = src.split(":")
        return splitting_field_fp(parse_poly(f, PrimeField(int(p[1:]))))
    return splitting_field_q(parse_poly(src), max_degree=48)


def _eager_matrix(field, images):
    """The oracle: every basis image, level by level (a^i * b_j goes to
    r^i * image of b_j, i outer), as the columns of the matrix."""
    basis = [field.one()]
    for level, r in zip(field.chain(), images):
        powers = [field.one()]
        for _ in range(1, level.level_degree):
            powers.append(powers[-1] * r)
        basis = [x * b for x in powers for b in basis]
    cols = [field.flatten(b) for b in basis]
    return [[col[i] for col in cols] for i in range(field.absolute_degree())]


@pytest.mark.parametrize("src", LADDER + CORRESPONDENCE_FIELDS + ("t^7-2", "F2:t^4+t+1", "F2:(t^2+t+1)*(t^3+t+1)"))
def test_lazy_matrices_match_the_eager_construction(src):
    sf = _splitting_field(src)
    G = automorphisms(sf)
    field, p = sf.field, sf.field.characteristic
    roots = [field.coerce(r).v for r in sf.roots]
    assert G.order == sf.degree() > 1
    for a in G.elements:
        assert scalar_matrix(field.base, a.matrix) == _eager_matrix(field, a.generator_images)
        for i, v in enumerate(roots):
            assert mat_mul_vec(a.matrix, v, p) == roots[a.root_perm[i]]


@pytest.mark.parametrize("src", LADDER)
def test_group_answers_build_no_matrix(src):
    # galois, solvable and the ladder read only the root permutations
    G = automorphisms(_splitting_field(src))
    G.to_json()
    derived_series(G)
    assert all(a._matrix is None for a in G.elements)


@pytest.mark.parametrize("src", LADDER)
def test_a_monomial_dropped_from_the_support_is_caught(monkeypatch, src):
    # the root permutation is checked: with the image of the last monomial of
    # the roots' support taken as zero, some root maps to no root
    import galoiskit.galois as galois

    sf = _splitting_field(src)
    images_of = galois._images_of
    monkeypatch.setattr(
        galois, "_images_of", lambda basis, r, indices: images_of(basis, r, indices)[:-1] + [sf.field.zero()]
    )
    with pytest.raises(InternalInvariant, match="do not permute the roots"):
        automorphisms(sf)


@pytest.mark.parametrize("src, leaves", zip(LADDER, (2, 3, 3, 2, 3, 3, 3)))
def test_the_chain_searches_at_most_log2_order_leaves(monkeypatch, src, leaves):
    # each leaf is checked by root_permutation once; a search of every
    # element would check |G| = 6, 8, 8, 10, 12, 20 and 24 leaves
    import galoiskit.galois as galois

    calls, check = [], galois.root_permutation
    monkeypatch.setattr(galois, "root_permutation", lambda *a: calls.append(1) or check(*a))
    G = automorphisms(_splitting_field(src))
    assert len(calls) == leaves <= G.order.bit_length() - 1


def test_an_orbit_larger_than_its_level_degree_is_caught(monkeypatch):
    # G_k moves g_k onto exactly d_k roots: with a point too many in every
    # orbit under a generator, the top level of t^3-2 (d = 2) is refused
    import galoiskit.galois as galois

    transversal = galois._transversal
    monkeypatch.setattr(
        galois, "_transversal", lambda x, gens, e: {**transversal(x, gens, e), **({-1: e} if gens else {})}
    )
    with pytest.raises(InternalInvariant, match="level 1 moves its generator to 3 roots, not 2"):
        automorphisms(_splitting_field("t^3-2"))


def _quotient_oracle(G, N):
    """The coset quotient as first written, the identity coset swapped to the
    front if needed: (table, cosets)."""
    nset = set(N.member_indices)
    cosets, assigned = [], {}
    for a in range(G.order):
        if a in assigned:
            continue
        coset = frozenset(G.table[a][h] for h in nset)
        for x in coset:
            assigned[x] = len(cosets)
        cosets.append(coset)
    id_idx = assigned[0]
    if id_idx != 0:
        cosets[0], cosets[id_idx] = cosets[id_idx], cosets[0]
        assigned = {x: i for i, c in enumerate(cosets) for x in c}
    reps = [min(c) for c in cosets]
    return [[assigned[G.table[r][s]] for s in reps] for r in reps], cosets


def _restriction_oracle(L, G):
    """The restriction table as first written: elements numbered by the first
    appearance of the image of L's primitive element."""
    field = G.sf.field
    theta, zero = field.flatten(L.primitive), field.base.zero()
    prints = [tuple(map(field.base.sort_key, scalar_mat_mul_vec(scalar_matrix(field.base, G.matrix_of(i)), theta, zero)))
              for i in range(G.order)]
    fps, reps = {}, []
    for idx, fp in enumerate(prints):
        if fp not in fps:
            fps[fp] = len(reps)
            reps.append(idx)
    return [[fps[prints[G.table[a][b]]] for b in reps] for a in reps]


def _coset_representatives_oracle(H, G):
    reps, seen = [], set(H.member_indices)
    for g in range(G.order):
        if g not in seen:
            reps.append(g)
            seen.update(G.table[g][h] for h in H.member_indices)
    return reps


@pytest.mark.parametrize("src", LADDER + CORRESPONDENCE_FIELDS)
def test_class_numbering_matches_the_first_written_quotients(src):
    from galoiskit.correspondence import _coset_representatives, fixed_field, is_normal_intermediate, restriction_group

    G = automorphisms(_splitting_field(src))
    for H in subgroups(G):
        assert _coset_representatives(H, G) == _coset_representatives_oracle(H, G)
        if not is_normal_subgroup(H, G):
            continue
        quo, cosets = quotient_group(G, H)
        assert ([list(row) for row in quo.table], cosets) == _quotient_oracle(G, H)
        assert cosets[0] == frozenset(H.member_indices)
        L = fixed_field(H, G)
        assert is_normal_intermediate(L, G)
        assert [list(row) for row in restriction_group(L, G).table] == _restriction_oracle(L, G)


@pytest.mark.parametrize("src", LADDER + CORRESPONDENCE_FIELDS)
def test_orbits_are_the_roots_of_the_irreducible_factors(src):
    from galoiskit.factor import factor_q

    sf = _splitting_field(src)
    field = sf.field
    parts = sorted(
        [i for i, r in enumerate(sf.roots) if not g.map_domain(field, field.coerce).eval(r)]
        for g, _ in factor_q(sf.source).factors
    )
    assert orbits(automorphisms(sf)) == parts
    assert is_transitive(automorphisms(sf)) == (len(parts) == 1)


def _subgroups_oracle(G):
    """The lattice closed under pairwise joins, each join generated by every
    member of both parts."""
    found = {G.generated_subgroup([i]) for i in range(G.order)}
    while True:
        joins = {G.generated_subgroup(a | b) for a in found for b in found if not (a <= b or b <= a)}
        if joins <= found:
            return sorted((len(h), sorted(h)) for h in found)
        found |= joins


@pytest.mark.parametrize("src", ("S4", "A4") + LADDER)
def test_subgroups_match_the_join_oracle(src):
    gens = {"S4": [(1, 0, 2, 3), (1, 2, 3, 0)], "A4": [(1, 2, 0, 3), (1, 0, 3, 2)]}
    G = from_permutations(gens[src])[0] if src in gens else automorphisms(_splitting_field(src))
    assert [(h.order, list(h.member_indices)) for h in subgroups(G)] == _subgroups_oracle(G)


def test_a5_has_59_subgroups():
    a5, _ = from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])
    assert Counter(h.order for h in subgroups(a5)) == {1: 1, 2: 15, 3: 10, 4: 5, 5: 6, 6: 10, 10: 6, 12: 5, 60: 1}
