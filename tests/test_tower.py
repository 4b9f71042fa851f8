"""Tower layer: adjunction, element arithmetic, degrees, minimal polynomials."""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from galoiskit.errors import NotIrreducible, TowerMismatch, ZeroInverse
from galoiskit.finitefield import find_irreducible
from galoiskit.linalg import Echelon
from galoiskit.numbers import QQ, PrimeField
from galoiskit.poly import Poly, render
from galoiskit.tower import Tower, TowerElem, adjoin_root
from linalg_oracles import in_row_space, rref, row_space_basis
from tower_oracles import fraction_product, residue_product

F2 = PrimeField(2)
F3 = PrimeField(3)
ELEMENT_ENUM_BUDGET = 1 << 20


def q(coeffs):
    return Poly(QQ, coeffs)


def _tower_elements(T):
    """Every element of a finite tower, listed from its base coordinates: the
    exhaustive oracle for roots and factorizations over small fields."""
    n = T.absolute_degree()
    assert 0 < T.characteristic and T.characteristic**n <= ELEMENT_ENUM_BUDGET
    return [T.unflatten(list(v)) for v in itertools.product(T.base.elements(), repeat=n)]


@pytest.fixture(scope="module")
def sqrt2():
    return adjoin_root(QQ, q([-2, 0, 1]), "a")


@pytest.fixture(scope="module")
def sqrt23(sqrt2):
    T1, _ = sqrt2
    return adjoin_root(T1, Poly(T1, [-3, 0, 1]), "b")


def test_adjoin_examples(sqrt2):
    T1, r2 = sqrt2
    assert T1.absolute_degree() == 2
    assert r2 * r2 == 2

    T9, s2 = adjoin_root(F3, Poly(F3, [-2, 0, 1]), "s")
    assert T9.absolute_degree() == 2
    assert len(_tower_elements(T9)) == 9

    T4, alpha = adjoin_root(F2, Poly(F2, [1, 1, 1]), "a")
    elems = _tower_elements(T4)
    assert len(elems) == 4
    assert set(elems) == {T4.zero(), T4.one(), alpha, alpha + 1}


def test_element_str_leaves_a_compound_constant_bare(sqrt2, sqrt23):
    # render puts a compound constant term in parentheses, element_str not
    A, a = sqrt2
    T, b = sqrt23
    assert T.element_str(a * b + a + 1) == "a*b + a + 1"
    assert T.element_str(a * b - a + 1) == "a*b + -a + 1"
    assert render(Poly(A, [a + 1, a]), "b") == "a*b + (a + 1)"


def test_adjoin_requires_irreducible():
    with pytest.raises(NotIrreducible):
        adjoin_root(QQ, q([-1, 0, 1]), "x")  # t^2 - 1 factors
    with pytest.raises(Exception):
        adjoin_root(QQ, q([-2, 0, 2]), "x")  # not monic


def test_elem_ops(sqrt2):
    T1, r2 = sqrt2
    assert (1 + r2) * (-1 + r2) == 1
    # inverse formula 1/(a + b sqrt2) = (a - b sqrt2)/(a^2 - 2 b^2)
    for a, b in [(3, 5), (1, 1), (Fraction(1, 2), Fraction(2, 3))]:
        x = T1.coerce(a) + r2 * T1.coerce(b)
        denom = Fraction(a) ** 2 - 2 * Fraction(b) ** 2
        expected = (T1.coerce(a) - r2 * T1.coerce(b)) / T1.coerce(denom)
        assert x.inv() == expected
        assert x * x.inv() == 1
    T4, alpha = adjoin_root(F2, Poly(F2, [1, 1, 1]), "a")
    assert alpha * alpha == alpha + 1
    with pytest.raises(ZeroInverse):
        T1.zero().inv()


def test_tower_mismatch(sqrt2):
    T1, r2 = sqrt2
    Tother, r5 = adjoin_root(QQ, q([-5, 0, 1]), "c")
    with pytest.raises(TowerMismatch):
        T1.coerce(r5)


def _degree_over(T, sub):
    """[T : sub] for an ancestor level (or the base) sub of T."""
    assert sub == T.base or sub in T.chain()
    return T.absolute_degree() // sub.absolute_degree()


def test_degrees(sqrt23):
    T2, _ = sqrt23
    assert T2.absolute_degree() == 4
    # Q(cbrt2, omega) has degree 6
    T, xi = adjoin_root(QQ, q([-2, 0, 0, 1]), "x")
    Tw, om = adjoin_root(T, Poly(T, [1, 1, 1]), "w")
    assert Tw.absolute_degree() == 6
    assert _degree_over(Tw, T) == 2
    assert _degree_over(Tw, QQ) == 6
    assert QQ.absolute_degree() == 1


def test_degree_60_product_bound():
    T5, _ = adjoin_root(QQ, q([-12, 0, 0, 0, 1]), "a")
    T60, _ = adjoin_root(T5, Poly(T5, [-6] + [0] * 14 + [1]), "b")
    assert T60.absolute_degree() == 60


def test_min_poly(sqrt23):
    T2, r3 = sqrt23
    r2 = T2.generators()[0]
    s = r2 + r3
    assert render(T2.min_poly_over_base(s)) == "t^4 - 10*t^2 + 1"
    # sanity: the reported polynomial annihilates the element
    mp = T2.min_poly_over_base(s)
    assert not mp.map_domain(T2, T2.coerce).eval(s)
    # base scalars have linear minimal polynomials
    assert T2.min_poly_over_base(T2.coerce(Fraction(5, 2))) == q([Fraction(-5, 2), 1])
    # the generator of Q[t]/(t^3 - 2) has minimal polynomial t^3 - 2
    T, xi = adjoin_root(QQ, q([-2, 0, 0, 1]), "x")
    assert T.min_poly_over_base(xi) == q([-2, 0, 0, 1])


def test_min_poly_degree_divides(sqrt23):
    T2, _ = sqrt23
    rng = random.Random(3)
    n = T2.absolute_degree()
    for _ in range(10):
        x = T2.unflatten([Fraction(rng.randint(-3, 3)) for _ in range(n)])
        d = T2.min_poly_over_base(x).degree
        assert n % d == 0


def test_degree_monotonicity(sqrt23):
    # [L(beta):L] <= [Q(beta):Q] for beta = sqrt3 over L = Q(sqrt2)
    T2, r3 = sqrt23
    over_base = T2.min_poly_over_base(r3).degree
    level = T2.minpoly.degree  # degree of sqrt3 over Q(sqrt2)
    assert level <= over_base or over_base <= level  # both are 2 here
    assert level == 2 and over_base == 2


def test_primitive_element(sqrt23):
    T2, _ = sqrt23
    gamma, mp = T2.primitive_element()
    r2, r3 = T2.generators()
    assert gamma == r2 + r3
    assert render(mp) == "t^4 - 10*t^2 + 1"
    # single level tower: its own generator
    T1, r = adjoin_root(QQ, q([-7, 0, 1]), "r")
    g, m = T1.primitive_element()
    assert g == r and m == q([-7, 0, 1])
    # Q(i, sqrt2): primitive element of degree 4
    Ti, _ = adjoin_root(QQ, q([1, 0, 1]), "i")
    Ti2, _ = adjoin_root(Ti, Poly(Ti, [-2, 0, 1]), "s")
    g, m = Ti2.primitive_element()
    assert m.degree == 4


def test_express_in_primitive(sqrt23):
    T2, _ = sqrt23
    rng = random.Random(5)
    for _ in range(8):
        x = T2.unflatten([Fraction(rng.randint(-4, 4)) for _ in range(4)])
        rep = T2.to_primitive(x)
        assert rep.tower is T2.primitive_field() and T2.from_primitive(rep) == x


def _solve_oracle(field, rows, rhs):
    """One solution of A x = b read off the RREF of [A | b], or None."""
    ncols = len(rows[0])
    reduced, pivots = rref(field, [list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = reduced[i][ncols]
    return x


def _min_poly_oracle(T, x):
    """Minimal polynomial by a fresh solve for each power: x^k in the span of
    1, ..., x^(k-1)."""
    base, n = T.base, T.absolute_degree()
    rows, cur = [T.flatten(T.one())], T.one()
    for k in range(1, n + 1):
        cur = cur * x
        target = T.flatten(cur)
        sol = _solve_oracle(base, [[rows[j][i] for j in range(k)] for i in range(n)], target)
        if sol is not None:
            return Poly(base, [-c for c in sol] + [base.one()])
        rows.append(target)
    raise AssertionError("no dependency among n + 1 powers")


def _coords_oracle(T, x):
    """Coordinates of x in powers of the primitive element, through the
    inverse of the matrix whose columns are those powers."""
    gamma, _ = T.primitive_element()
    base, n = T.base, T.absolute_degree()
    cols, cur = [], T.one()
    for _ in range(n):
        cols.append(T.flatten(cur))
        cur = cur * gamma
    zero, one = base.zero(), base.one()
    aug = [[cols[j][i] for j in range(n)] + [one if i == j else zero for j in range(n)] for i in range(n)]
    reduced, pivots = rref(base, aug)
    assert pivots[:n] == list(range(n))
    inverse = [row[n:] for row in reduced[:n]]
    vec = T.flatten(x)
    return Poly(base, [sum((a * b for a, b in zip(row, vec)), zero) for row in inverse])


def _oracle_towers():
    """(tower, [(generator of a subfield, its degree)]), covering a subfield
    of every degree dividing [tower : base]."""
    T, a = adjoin_root(QQ, q([-2, 0, 1]), "a")
    T2, b = adjoin_root(T, Poly(T, [-3, 0, 1]), "b")
    a = T2.coerce(a)
    yield T2, [(T2.one(), 1), (a, 2), (b, 2), (a * b, 2), (a + b, 4), (a * b + a, 4)]
    C, c = adjoin_root(QQ, q([-2, 0, 0, 1]), "c")
    C2, w = adjoin_root(C, Poly(C, [1, 1, 1]), "w")
    c = C2.coerce(c)
    yield C2, [(C2.one(), 1), (w, 2), (c, 3), (c * w, 3), (c + w, 6), (c * w + c, 6)]
    F9, s = adjoin_root(F3, Poly(F3, [1, 0, 1]), "s")
    F81, u = adjoin_root(F9, Poly(F9, [-(s + 1), 0, 1]), "u")  # 1 + s is no square in F9
    s = F81.coerce(s)
    yield F81, [(F81.one(), 1), (s, 2), (u * u, 2), (u, 4), (u + s, 4)]


def test_min_poly_and_coordinates_match_the_solve_oracles():
    rng = random.Random(11)
    for T, gens in _oracle_towers():
        base, n = T.base, T.absolute_degree()
        degrees = set()
        for g, d in gens:
            for _ in range(4):
                x = T.zero()
                for i in range(d):
                    x = x + g**i * T.from_int(rng.randint(-3, 3))
                mp = T.min_poly_over_base(x)
                assert mp == _min_poly_oracle(T, x)
                assert d % mp.degree == 0
                degrees.add(mp.degree)
                assert Poly(base, T.primitive_field().flatten(T.to_primitive(x))) == _coords_oracle(T, x)
        for c in range(-2, 3):
            assert T.min_poly_over_base(T.from_int(c)) == Poly(base, [base.from_int(-c), base.one()])
            assert T.to_primitive(T.from_int(c)) == T.primitive_field().from_int(c)
        assert degrees == {d for d in range(1, n + 1) if n % d == 0}


def _primitive_map_towers():
    """The splitting fields of the ladder, then Q(a)(b), a^2 = 1/2 and
    b^2 = 1/3, whose m_gamma has denominators."""
    from galoiskit.cli import parse_poly
    from galoiskit.splitting import splitting_field_q

    for f in LADDER:
        yield splitting_field_q(parse_poly(f)).field
    A, _ = adjoin_root(QQ, q([Fraction(-1, 2), 0, 1]), "a")
    yield adjoin_root(A, Poly(A, [Fraction(-1, 3), 0, 1]), "b")[0]


def test_to_primitive_and_from_primitive_are_inverse_isomorphisms():
    """On seeded elements of a tower T and of K = `primitive_field`: the two
    maps undo each other, keep sums and products, send gamma to the
    generator y of K, and take f(y) to f(gamma) for an f of degree above
    [K : Q]; `to_primitive` gives the coordinates of `_coords_oracle`."""
    rng = random.Random(40)
    degrees = []
    for T in _primitive_map_towers():
        K, n = T.primitive_field(), T.absolute_degree()
        gamma, mgamma = T.primitive_element()
        degrees.append(n)
        assert K.lower == T.base and K.minpoly == mgamma
        assert T.to_primitive(gamma) == K.generator() and T.from_primitive(K.generator()) == gamma
        xs, ys = _sample(T, rng, 2 if n > 12 else 4), _sample(K, rng, 2 if n > 12 else 4)
        for x in xs[4:5]:
            assert Poly(QQ, K.flatten(T.to_primitive(x))) == _coords_oracle(T, x)
        for x in xs:
            assert T.from_primitive(T.to_primitive(x)) == x
        for y in ys:
            assert T.to_primitive(T.from_primitive(y)) == y
        for (x, u), (y, v) in itertools.combinations(list(zip(xs, ys))[1:], 2):
            assert T.to_primitive(x + y) == T.to_primitive(x) + T.to_primitive(y)
            assert T.to_primitive(x * y) == T.to_primitive(x) * T.to_primitive(y)
            assert T.from_primitive(u + v) == T.from_primitive(u) + T.from_primitive(v)
            assert T.from_primitive(u * v) == T.from_primitive(u) * T.from_primitive(v)
        f = q([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n + 2)] + [1])
        assert T.from_primitive(f.map_domain(K, K.coerce).eval(K.generator())) == f.map_domain(T, T.coerce).eval(gamma)
    assert degrees == [6, 8, 8, 10, 12, 20, 24, 4]


def test_contains(sqrt23):
    T2, r3 = sqrt23
    r2 = T2.generators()[0]
    # span of Q(sqrt2) inside Q(sqrt2, sqrt3): membership is a zero residual
    # against the echelon, as against the oracle's RREF basis
    echelon = Echelon(4, 0)
    for x in (T2.one(), r2):
        echelon.add(x.v)
    basis = row_space_basis(QQ, [T2.flatten(T2.one()), T2.flatten(r2)])
    assert [QQ._view(v) for v in echelon.basis()] == basis
    cases = [(r2, True), (r3, False), (T2.coerce(Fraction(7, 3)), True), (r2 * r3, False), (r2 * r2 + r2, True)]
    for x, inside in cases:
        assert echelon.contains(x.v) == inside == in_row_space(QQ, basis, T2.flatten(x))


def test_field_axioms_random_towers(sqrt23):
    T2, _ = sqrt23
    rng = random.Random(9)
    towers = [T2]
    T, _ = adjoin_root(QQ, q([-2, 0, 0, 1]), "x")
    T6, _ = adjoin_root(T, Poly(T, [1, 1, 1]), "w")
    towers.append(T6)
    T4f, _ = adjoin_root(F2, Poly(F2, [1, 1, 1]), "a")
    towers.append(T4f)
    for Tw in towers:
        n = Tw.absolute_degree()
        base = Tw.base
        for _ in range(12):
            xs = []
            for _ in range(3):
                vec = [base.from_int(rng.randint(-3, 3)) for _ in range(n)]
                xs.append(Tw.unflatten(vec))
            a, b, c = xs
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == Tw.zero()
            if a:
                assert a * a.inv() == Tw.one()


def test_tower_law_random():
    rng = random.Random(13)
    seeds = [
        [q([-2, 0, 1]), [-3, 0, 1]],
        [q([-2, 0, 0, 1]), [1, 1, 1]],
        [q([1, 0, 1]), [-2, 0, 1]],
    ]
    for base_poly, up_coeffs in seeds:
        T1, _ = adjoin_root(QQ, base_poly, "u")
        up = Poly(T1, up_coeffs)
        T2, _ = adjoin_root(T1, up, "v")
        assert T2.absolute_degree() == _degree_over(T2, T1) * T1.absolute_degree()


def test_sum_and_product_stay_algebraic():
    # closure at desk scale: for algebraic alpha, beta of degree <= 3 the
    # minimal polynomials of alpha + beta and alpha * beta exist with degree
    # bounded by the product of the degrees
    T, a = adjoin_root(QQ, q([-2, 0, 0, 1]), "a")  # cbrt2
    T2, b = adjoin_root(T, Poly(T, [-3, 0, 0, 1]), "b")  # cbrt3
    a_up = T2.coerce(a)
    for elem in (a_up + b, a_up * b):
        mp = T2.min_poly_over_base(elem)
        assert 1 <= mp.degree <= 9
        assert not mp.map_domain(T2, T2.coerce).eval(elem)


def test_describe_and_render(sqrt23):
    T2, _ = sqrt23
    desc = T2.describe()
    assert desc[0]["label"] == "a"
    assert desc[1]["label"] == "b"
    assert desc[0]["min_poly"] == "t^2 - 2"
    r2, r3 = T2.generators()
    assert T2.element_str(r2 + r3) == "b + a"
    assert T2.element_str(T2.zero()) == "0"


def test_base_fields_are_towers_of_height_0(sqrt23):
    T2, _ = sqrt23
    F7 = PrimeField(7)
    rng = random.Random(11)
    for field in (QQ, F7, T2):
        n = field.absolute_degree()
        base = field.base
        assert base.base is base and base.absolute_degree() == 1
        for _ in range(6):
            vec = [base.from_int(rng.randint(-9, 9)) for _ in range(n)]
            x = field.unflatten(vec)
            assert field.flatten(x) == vec and len(field.flatten(x)) == n
            assert field.unflatten(field.flatten(x)) == x
        c = base.from_int(rng.randint(-9, 9)) / base.from_int(3)
        assert field.min_poly_over_base(field.coerce(c)) == Poly(base, [-c, base.one()])
        m = Poly(field, [field.from_int(-5), field.zero(), field.one()])
        assert adjoin_root(field, m, "z") == (Tower(field, m, "z"), Tower(field, m, "z").generator())
    for field in (QQ, F7):
        assert field.base is field
        assert field.chain() == field.generators() == field.describe() == []
        assert field.flatten(3) == [field.from_int(3)]
        assert field.unflatten([5]) == field.from_int(5)
    a, b = T2.generators()
    assert T2.chain() == [T2.lower, T2] and T2.lower.chain() == [T2.lower]
    assert (a * a, b * b) == (2, 3)
    assert [level["label"] for level in T2.describe()] == ["a", "b"]


def test_equal_elements_hash_equal_across_levels():
    # a lower element embeds as its coordinates followed by zeros, and a
    # one-coordinate value equals its base scalar: each pair that is == must
    # hash alike, so sets and dicts that mix levels keep one copy
    A, a = adjoin_root(QQ, q([-2, 0, 1]), "a")
    B, b = adjoin_root(A, Poly(A, [-3, 0, 1]), "b")
    C, _ = adjoin_root(B, Poly(B, [-5, 0, 1]), "c")
    F3 = PrimeField(3)
    FA, fa = adjoin_root(F3, Poly(F3, [1, 0, 1]), "a")
    FB, _ = adjoin_root(FA, Poly(FA, [-1, -1, 0, 1]), "b")
    cases = [
        (A, B, [a, a + 1, a * Fraction(-2, 5)], [Fraction(0), Fraction(1), Fraction(-7, 3), 5]),
        (FA, FB, [fa, fa + 1, fa * 2], F3.elements()),
        # coordinates (1, 0, 1, 0) and (0, 1, 0, 1): a zero between nonzeros
        (B, C, [b + 1, a * b + a], [Fraction(2)]),
    ]
    for lower, upper, elems, scalars in cases:
        for x in elems:
            y = upper.coerce(x)
            assert x == y and hash(x) == hash(y) and len({x, y}) == 1
        for c in scalars:
            for T in (lower, upper):
                x = T.coerce(c)
                assert x == c and hash(x) == hash(c) and len({x, c}) == 1


def _from_level_poly(T, f):
    """The element of T whose level view is f, a polynomial over T.lower of
    degree below the level's: its coefficients' tuples, concatenated."""
    return TowerElem(T, T._embed(T.lower._concat(f.coeffs)))


def _poly_route_product(x, y):
    """Oracle for the product kernel: the product as polynomials over the
    lower level, reduced mod the level's minimal polynomial."""
    T = x.tower
    return _from_level_poly(T, Poly(T.lower, x.coeffs) * Poly(T.lower, y.coeffs) % T.minpoly)


def _q_kernel_towers():
    from galoiskit.splitting import splitting_field_q

    A, _ = adjoin_root(QQ, q([-2, 0, 1]), "a")
    yield adjoin_root(A, Poly(A, [-3, 0, 1]), "b")[0]  # Q(sqrt2, sqrt3)
    C, _ = adjoin_root(QQ, q([-2, 0, 0, 1]), "c")
    yield adjoin_root(C, Poly(C, [1, 1, 1]), "w")[0]  # Q(2^(1/3), omega)
    yield splitting_field_q(q([-1, -1, 0, 0, 1])).field  # degree 24
    R, _ = adjoin_root(QQ, q([Fraction(-5, 3), 0, 1]), "r")  # lc of 3t^2 - 5 is not 1
    yield adjoin_root(R, Poly(R, [Fraction(-1, 2), 0, 1]), "h")[0]


def _ff_kernel_towers():
    yield adjoin_root(F2, Poly(F2, [1, 1, 1]), "a")[0]  # F_4
    F9, s = adjoin_root(F3, Poly(F3, [1, 0, 1]), "s")
    yield F9
    yield adjoin_root(F9, Poly(F9, [-(s + 1), 0, 1]), "u")[0]  # F_81 over F_9
    yield adjoin_root(F9, Poly(F9, [-(s + 1), -1, 0, 1]), "v")[0]  # F_3 tower [2, 3]
    F1031 = PrimeField(1031)  # a prime past one-byte slots
    I, i = adjoin_root(F1031, Poly(F1031, [1, 0, 1]), "i")
    yield I
    # a level over it: the level recursion over F_p with wide packed slots below
    yield adjoin_root(I, Poly(I, [-(i + 1), 0, 0, 0, 0, 1]), "u")[0]
    F7 = PrimeField(7)
    yield Tower(F7, Poly.t(F7), "a", certify=False)  # F_7[a]/(a), the level of GF(7, 1)
    yield Tower(F2, find_irreducible(2, 20), "a", certify=False)  # the level of GF(2^20)


def _kernel_towers():
    yield from _q_kernel_towers()
    yield from _ff_kernel_towers()


def _coord(base, rng):
    if base == QQ:
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))
    return base.from_int(rng.randrange(base.characteristic))


def _sample(T, rng, count):
    """Zero, one, the generator, -2, `count` random elements and one sparse
    random element of T."""
    n, base = T.absolute_degree(), T.base
    xs = [T.zero(), T.one(), T.generator(), T.from_int(-2)]
    xs += [T.unflatten([_coord(base, rng) for _ in range(n)]) for _ in range(count)]
    xs.append(T.unflatten([_coord(base, rng) if i % 3 else base.zero() for i in range(n)]))
    return xs


def test_product_kernel_matches_the_poly_route(monkeypatch):
    rng = random.Random(14)
    built = []
    init = Poly.__init__
    monkeypatch.setattr(Poly, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    for top in _kernel_towers():
        for T in top.chain():
            xs = _sample(T, rng, 3 if T.absolute_degree() > 12 else 6)
            for x in xs:
                for y in xs[1:4] + rng.sample(xs[4:], 2):
                    built.clear()
                    prod = x * y
                    assert not built  # the product builds no Poly
                    assert prod.coeffs == _poly_route_product(x, y).coeffs
                assert 3 * x == _poly_route_product(T.from_int(3), x)


def _check_level_view(T, x, y, invert=True):
    """Every element operation of T against the same operation on the level
    view: polynomials over T.lower of degree below the level's degree."""
    L, m, flat = T.lower, T.minpoly, T.flatten
    X, Y = Poly(L, x.coeffs), Poly(L, y.coeffs)
    back = lambda f: _from_level_poly(T, f)
    assert flat(x) == [c for lc in x.coeffs for c in L.flatten(lc)]
    assert T.unflatten(flat(x)) == x and back(X) == x
    assert flat(x + y) == flat(back(X + Y))
    assert flat(x - y) == flat(back(X - Y))
    assert flat(-x) == flat(back(-X))
    assert flat(x * y) == flat(back(X * Y % m))
    assert flat(x**3) == flat(back(X * X * X % m))
    assert x**0 == T.one() and x**1 == x
    assert (x == y) == (flat(x) == flat(y)) == (X == Y)
    assert x != x + 1 and hash(x) == hash(back(X)) == hash(T.unflatten(flat(x)))
    assert bool(x) == bool(X)
    assert T.sort_key(x) == tuple(T.base.sort_key(c) for c in flat(x))
    if y and invert:
        z = y.inv()
        Z = Poly(L, z.coeffs)
        assert Y * Z % m == Poly.one(L)
        assert flat(y**-2) == flat(back(Z * Z % m))
        assert flat(x / y) == flat(back(X * Z % m))


def _check_ancestors(T, x, rng):
    """Elements of every ancestor level and base scalars embed into T by
    coerce, as their coordinates followed by zeros, and mix with x on
    either side."""
    n, zero = T.absolute_degree(), T.base.zero()
    for A in [T.base] + T.chain()[:-1]:
        z = A.unflatten([_coord(T.base, rng) for _ in range(A.absolute_degree())])
        up = T.coerce(z)
        assert T.flatten(up) == A.flatten(z) + [zero] * (n - A.absolute_degree())
        assert up == z and hash(up) == hash(T.unflatten(T.flatten(up)))
        assert T.flatten(x + z) == T.flatten(x + up)
        assert T.flatten(x * z) == T.flatten(x * up)
        assert T.flatten(x - z) == T.flatten(x - up)
        # on the left, a scalar defers to x and a lower-level element is lifted
        assert T.flatten(z + x) == T.flatten(up + x)
        assert T.flatten(z - x) == T.flatten(up - x)
        assert T.flatten(z * x) == T.flatten(up * x)
        if x:
            assert T.flatten(z / x) == T.flatten(up / x)
    assert T.flatten(T.coerce(3)) == [T.base.from_int(3)] + [zero] * (n - 1)


def test_arithmetic_matches_the_level_view():
    rng = random.Random(19)
    for top in _kernel_towers():
        for T in top.chain():
            big = T.absolute_degree() > 12
            xs = _sample(T, rng, 1 if big else 4)
            for x in xs:
                for y in xs[2:4] + xs[-1:] if big else xs[:4] + rng.sample(xs[4:], 2):
                    _check_level_view(T, x, y, invert=not big or x is xs[-1])
                _check_ancestors(T, x, rng)


LADDER = ("t^3-2", "t^4-2", "(t^2-2)*(t^2-3)*(t^2-5)", "t^5-5*t+12", "t^6-2", "t^5-2", "t^4-t-1")


def _integer_product_towers():
    """Towers whose level minimal polynomials are not integral: t^2 - a/3
    over Q(a), a = sqrt2, a cube root of (a + b)/5 over that, and a tower
    over Q(r), 3r^2 = 5; then the splitting fields of the ladder and of the
    second C2^3 field of the correspondence benchmark."""
    from galoiskit.cli import parse_poly
    from galoiskit.splitting import splitting_field_q

    A, a = adjoin_root(QQ, q([-2, 0, 1]), "a")
    B, b = adjoin_root(A, Poly(A, [-a / 3, 0, 1]), "b")
    yield B
    yield adjoin_root(B, Poly(B, [-(a + b) / 5, 0, 0, 1]), "c")[0]
    yield from itertools.islice(_q_kernel_towers(), 3, None)
    for f in LADDER + ("(t^2+1)*(t^2-2)*(t^2-3)",):
        yield splitting_field_q(parse_poly(f)).field


def test_product_matches_the_fraction_oracle():
    rng = random.Random(34)
    heights, denominators = set(), set()
    for top in _integer_product_towers():
        for T in top.chain():
            heights.add(len(T.chain()))
            denominators.add(T._step if len(T.chain()) > 1 else T._modulus[-1])
            xs = _sample(T, rng, 3 if T.absolute_degree() > 12 else 6)
            for x in xs:
                for y in xs[1:4] + rng.sample(xs[4:], 2):
                    prod = TowerElem(T, T._mul(x.v, y.v))
                    assert T.sort_key(prod) == fraction_product(T, T.sort_key(x), T.sort_key(y))
                    _check_q_kernel_form(T, prod.v)
    assert heights >= {1, 2, 3} and max(denominators) > 1


def _check_q_kernel_form(T, v):
    """v is an element of the tower T over Q in kernel form: n int
    numerators, then a positive int denominator, in lowest terms."""
    assert len(v) == T.absolute_degree() + 1 and all(type(c) is int for c in v)
    assert v[-1] > 0 and math.gcd(*v) == 1


def test_q_kernel_keeps_integer_numerators_in_lowest_terms(monkeypatch):
    # every operation of 1-, 2- and 3-level towers over Q with mixed
    # denominators returns the kernel form, products agree with the
    # `Fraction` oracle, the order is that of the rational coordinates,
    # equal values reached by different routes are one dict key, and the
    # kernels build no `Fraction`
    rng = random.Random(38)
    C = list(itertools.islice(_integer_product_towers(), 2))[-1]  # over Q(a)(b), b^2 = a/3
    towers = C.chain() + [adjoin_root(QQ, q([Fraction(-5, 3), 0, 1]), "r")[0]]
    assert [len(T.chain()) for T in towers] == [1, 2, 3, 1]
    built, new = [], Fraction.__new__
    counting_new = staticmethod(lambda cls, *a, **k: built.append(1) or new(cls, *a, **k))
    for T in towers:
        xs = _sample(T, rng, 4) + [T.coerce(Fraction(1, 2)), T.coerce(Fraction(1, 3))]
        for x in xs:
            for y in xs[1:4] + xs[-3:]:
                monkeypatch.setattr(Fraction, "__new__", counting_new)
                vs = [T._add(x.v, y.v), T._sub(x.v, y.v), T._mul(x.v, y.v), T._pow(x.v, 3), T._sub(T._zero, x.v)]
                if y:
                    vs.append(T._inv(y.v))
                monkeypatch.undo()
                assert not built
                for v in vs:
                    _check_q_kernel_form(T, v)
                for z in (x + y, x - y, x * y, x**3, -x) + ((y.inv(), x / y) if y else ()):
                    _check_q_kernel_form(T, z.v)
                assert T.flatten(x * y) == list(fraction_product(T, T.sort_key(x), T.sort_key(y)))
                assert len(dict.fromkeys([x * y, y * x])) == 1
                assert len(dict.fromkeys([(x + y) - y, x, (x - y) + y])) == 1
                if y:
                    assert len(dict.fromkeys([x * y * y.inv(), x, x / y * y])) == 1
        rng.shuffle(xs)
        keys = [T.sort_key(x) for x in sorted(xs, key=T.sort_key)]
        assert keys == sorted(tuple(T.flatten(x)) for x in xs)
        assert all(type(c) is TowerElem and c.tower is QQ for key in keys for c in key)


def test_finite_tower_arithmetic_builds_no_fpelem(monkeypatch):
    # no F_p scalar, the TowerElem of a PrimeField, is built by tower arithmetic
    rng = random.Random(20)
    cases = [(T, _sample(T, rng, 4)) for top in _ff_kernel_towers() for T in top.chain()]
    built = []
    init = TowerElem.__init__

    def counting_init(self, field, v):
        if isinstance(field, PrimeField):
            built.append(field)
        init(self, field, v)

    monkeypatch.setattr(TowerElem, "__init__", counting_init)
    for T, xs in cases:
        for x in xs:
            for y in xs:
                x * y, x + y, x - y, -x, x**5, x == y, hash(x), bool(x), T.sort_key(x)
                x + 1, 2 * x, x == 1
            if x:
                x.inv()
    assert not built


def test_prime_field_scalars_act_as_tower_elements():
    # an F_p scalar is the degree-1 TowerElem; against a tower over F_p it
    # is that tower's element of the same residue, in either operand order
    for T in _ff_kernel_towers():
        F, g = T.base, T.generator()
        xs = [x for x in (g + 1, g) if x]  # g is 0 on the level F_7[a]/(a)
        x_inv = xs[0].inv()
        for c in range(F.characteristic):
            a, b = F.from_int(c), T.coerce(c)
            assert a == b and b == a and hash(a) == hash(b)
            for x in xs:
                for op in (operator.add, operator.sub, operator.mul):
                    assert op(a, x) == op(b, x) and op(x, a) == op(x, b)
                    assert op(a, x).tower is T and op(x, a).tower is T
            x = xs[0]  # each division inverts in T: one operand keeps it quick
            assert a / x == b * x_inv and (a / x).tower is T
            if c:
                assert x / a == x * T.coerce(a.inv()) and (x / a).tower is T


def test_scalars_of_different_primes_do_not_mix():
    F4 = next(_ff_kernel_towers())
    F9 = adjoin_root(F3, Poly(F3, [1, 0, 1]), "s")[0]
    pairs = [
        (F2.one(), F3.one()),
        (PrimeField(5).from_int(2), PrimeField(7).from_int(2)),
        (F2.one(), F9.generator()),
        (F3.one(), F4.generator()),
        (F4.generator(), F9.generator()),  # two unrelated towers
    ]
    for x, y in pairs:
        assert x != y and y != x
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(x, y)
            with pytest.raises(TypeError):
                op(y, x)


def test_fp_level_reduces_its_top_sums_before_the_lower_product():
    # On u^5 = i + 1 over F_1031(i), slot 5 of the product of
    # s = 1 + u + ... + u^4 and -(i + 1) s sums four lower products equal to
    # -(i + 1) = (1030, 1030).  Unreduced, (4120, 4120) times the modulus
    # coefficient -(i + 1) passes the 23-bit packed slots of F_1031(i).
    F = PrimeField(1031)
    I, i = adjoin_root(F, Poly(F, [1, 0, 1]), "i")
    U, u = adjoin_root(I, Poly(I, [-(i + 1), 0, 0, 0, 0, 1]), "u")
    assert I._slot == 23 and 2 * 4120 * 1030 >= 1 << I._slot
    s = sum((u**k for k in range(5)), U.zero())
    top = U.unflatten([F.from_int(1030)] * U.absolute_degree())
    for x, y in [(s, s * -(i + 1)), (s * -(i + 1), s * -(i + 1)), (top, top), (s, top)]:
        assert U._mul(x.v, y.v) == residue_product(U, x.v, y.v)


@pytest.mark.slow
def test_product_kernel_randomized_sweep():
    rng = random.Random(2024)
    for top in _kernel_towers():
        for T in top.chain():
            xs = _sample(T, rng, 40)
            for _ in range(2000):
                x, y = rng.choice(xs), rng.choice(xs)
                assert T.flatten(x * y) == T.flatten(_poly_route_product(x, y))


def _gcd_ext_inverse(x):
    """The inverse of x by `gcd_ext` over the lower level mod the minimal
    polynomial, the route of multi-level and finite towers: the oracle for
    the integer PRS of one-level fields over Q."""
    from galoiskit.poly import gcd_ext

    T = x.tower
    d, a, _ = gcd_ext(Poly(T.lower, x.coeffs), T.minpoly)
    assert d == Poly.one(T.lower)
    return _from_level_poly(T, a % T.minpoly)


def _one_level_q_fields():
    """Q(2^(1/3)), Q(sqrt(1/2)) and the primitive fields of the splitting
    fields of t^5 - 5t + 12 (degree 10) and t^4 - t - 1 (degree 24), built
    in that order (the splitting fields invert on the way)."""
    from galoiskit.splitting import splitting_field_q

    yield adjoin_root(QQ, q([-2, 0, 0, 1]), "c")[0]
    yield adjoin_root(QQ, q([Fraction(-1, 2), 0, 1]), "h")[0]
    for f in (q([12, -5, 0, 0, 0, 1]), q([-1, -1, 0, 0, 1])):
        yield splitting_field_q(f).field.primitive_field()


def test_one_level_inverse_matches_the_gcd_ext_route():
    rng = random.Random(24)
    degrees = []
    for K in _one_level_q_fields():
        n = K.absolute_degree()
        degrees.append(n)
        elems = [K.generator(), K.generator() - 1, K.coerce(Fraction(-3, 7))]
        for _ in range(4 if n > 10 else 8):
            elems.append(K.unflatten([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]))
        for x in elems:
            y = x.inv()
            assert x * y == K.one() and K.flatten(y) == K.flatten(_gcd_ext_inverse(x))
            _check_q_kernel_form(K, y.v)
        with pytest.raises(ZeroInverse):
            K.zero().inv()
    assert degrees == [3, 2, 10, 24]


def test_one_level_inverse_finds_a_zero_divisor():
    # Q[y]/(y^2 - 1), built without a certificate: y - 1 divides y^2 - 1
    T, y = adjoin_root(QQ, q([-1, 0, 1]), "y", certify=False)
    with pytest.raises(NotIrreducible):
        (y - 1).inv()
    assert (y + 2).inv() * (y + 2) == T.one()


def _lower_level_inverses():
    """(level L, nonzero x of L embedded in the tower T, the `_gcd_ext_inverse`
    of x in T) for every kernel tower T: base scalars (L the base field) and
    a few elements of each level below the top."""
    rng = random.Random(35)
    for T in _kernel_towers():
        base = T.base
        for L in [base] + T.chain()[:-1]:
            if L is base:
                xs = [base.from_int(c) for c in (1, -2, 5)] + [_coord(base, rng) for _ in range(3)]
            else:
                xs = _sample(L, rng, 2)
            for x in (T.coerce(x) for x in xs if x):
                yield L, x, _gcd_ext_inverse(x)


def test_lower_level_inverses_match_the_gcd_ext_route():
    cases = list(_lower_level_inverses())
    assert len(cases) > 100
    for _, x, y in cases:
        assert x.inv() == y


def test_lower_level_inverses_run_no_euclid_at_or_above_their_level(monkeypatch):
    # Tower._inv of an element of the lower level L inverts it in L itself,
    # so gcd_ext runs over no field at or above L: over none at all for a
    # base scalar
    import galoiskit.tower as tower_module

    cases = list(_lower_level_inverses())  # the oracle runs gcd_ext at every level
    gcd_ext, over = tower_module.gcd_ext, []
    monkeypatch.setattr(tower_module, "gcd_ext", lambda f, g: over.append(f.dom) or gcd_ext(f, g))
    for L, x, y in cases:
        over.clear()
        assert x.inv() == y
        levels = [x.tower.base] + x.tower.chain()
        assert not any(dom in levels[levels.index(L) :] for dom in over)


def _schoolbook_fp_product(a, b, p, m):
    """The F_p extension product before it ran on packed integers: the
    schoolbook product of the residue tuples a and b, then reduction by the
    monic modulus whose lower coefficients are m.  The oracle for
    `Tower._mul` on a level over F_p."""
    d = len(a)
    out = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):
        if c := out[k] % p:
            for j in range(d):
                out[k - d + j] -= c * m[j]
    return tuple([c % p for c in out[:d]])


def _check_fp_products(p, m, rng, count):
    """Tower._mul on F_p[a]/(a^d + m_(d-1) a^(d-1) + ... + m_0) against the
    schoolbook oracle: zero, one, all-(p-1) and `count` seeded operands,
    every pair."""
    d, F = len(m), PrimeField(p)
    T = Tower(F, Poly(F, list(m) + [1]), "a", certify=False)  # any monic modulus
    zero, top = (0,) * d, (p - 1,) * d
    xs = [zero, (1,) + zero[1:], top] + [tuple(rng.randrange(p) for _ in range(d)) for _ in range(count)]
    for x in xs:
        for y in xs:
            assert T._mul(x, y) == _schoolbook_fp_product(x, y, p, m), (p, m, x, y)


def test_powers_make_one_product_per_bit_after_the_top_one(monkeypatch):
    # left to right from the top bit: a squaring for each bit after it and a
    # product by x for each 1 among those bits; no product at all for e = 0
    from galoiskit.finitefield import gf

    T, F = next(_q_kernel_towers()), gf(3, 5)
    x = T.unflatten([Fraction(1, 2), 0, -1, Fraction(2, 3)]).v
    gf_power = lambda v, e: (TowerElem(F, v) ** e).v  # a GF element's `**`
    for tower, x, power in ((T, x, T._pow), (F, (1, 2, 0, 1, 2), gf_power)):
        mul, calls = tower._mul, []
        monkeypatch.setattr(tower, "_mul", lambda a, b: calls.append(1) or mul(a, b))
        expected = tower._one
        for e in range(40):
            calls.clear()
            assert power(x, e) == expected
            assert len(calls) == (e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0)
            expected = mul(expected, x)


def _moduli(p, d, rng):
    """A dense random modulus, a sparse one (zero coefficients) and x^d - 1."""
    sparse = [0] * d
    sparse[0], sparse[rng.randrange(d)] = rng.randrange(1, p), rng.randrange(1, p)
    return [[rng.randrange(p) for _ in range(d)], sparse, [p - 1] + [0] * (d - 1)]


def test_fp_product_matches_the_schoolbook_oracle():
    rng = random.Random(25)
    for p in (2, 3, 5, 7, 11, 31, 127, 1031, 4099, 16381):
        for d in range(1, 21):
            for m in _moduli(p, d, rng):
                _check_fp_products(p, m, rng, 3)


# (p, d) on either side of the one-byte slot: 2^8 > 2d(p-1)^2 for the first
# of each pair (the largest such d), not for the second; then the same about
# 2^16, and slots of more than 64 bits
SLOT_BOUNDARY_SHAPES = [
    (2, 127), (2, 128), (3, 31), (3, 32), (5, 7), (5, 8), (7, 3), (7, 4), (11, 1), (11, 2),
    (127, 2), (131, 2), (127, 3), (2**31 - 1, 3), (999999999989, 2),
]


def test_fp_product_at_slot_width_boundaries():
    rng = random.Random(26)
    for p, d in SLOT_BOUNDARY_SHAPES:
        for m in _moduli(p, d, rng):
            _check_fp_products(p, m, rng, 12 if d < 20 else 4)
