"""The Galois correspondence: fixed fields, mutual inverse, quotients."""

import random
from fractions import Fraction

import pytest

from galoiskit.cli import parse_poly
from galoiskit.errors import InternalInvariant, NotNormal
from galoiskit.numbers import QQ, PrimeField
from galoiskit.poly import Poly, render
from galoiskit.splitting import splitting_field_fp, splitting_field_q
from galoiskit.galois import (
    Subgroup,
    apply_automorphism,
    automorphisms,
    is_normal_subgroup,
    isomorphism_type,
    subgroup_table,
    subgroups,
)
from galoiskit.correspondence import (
    _coset_representatives,
    _find_primitive,
    fixed_field,
    gal_over,
    is_normal_intermediate,
    quotient_check,
    restriction_group,
    subfield_generated_by,
    verify_correspondence,
)
from linalg_oracles import in_row_space, mat_mul_vec, row_space_basis, rref, scalar_matrix


def q(coeffs):
    return Poly(QQ, coeffs)


@pytest.fixture(scope="module")
def t4_setup():
    sf = splitting_field_q(q([-2, 0, 0, 0, 1]))
    G = automorphisms(sf)
    return sf, G, subgroups(G)


@pytest.fixture(scope="module")
def cbrt2_setup():
    sf = splitting_field_q(q([-2, 0, 0, 1]))
    G = automorphisms(sf)
    return sf, G


def test_fixed_field_whole_group_is_base(t4_setup):
    sf, G, subs = t4_setup
    L = fixed_field(Subgroup(tuple(range(G.order))), G)
    assert L.dim == 1
    assert L.contains(sf.field.coerce(Fraction(3, 7)))


def test_fixed_field_of_order2_subgroups(t4_setup):
    # in SF(t^4 - 2) some order-2 subgroup fixes Q(xi): dim 4, minpoly t^4 - 2
    sf, G, subs = t4_setup
    minpolys = []
    for H in subs:
        if H.order != 2:
            continue
        L = fixed_field(H, G)
        assert L.dim == 4
        minpolys.append(render(L.min_poly_of_primitive))
    assert minpolys.count("t^4 - 2") == 2  # Q(xi) and Q(xi * i)
    assert len(minpolys) == 5


def test_fixed_field_of_rho_is_q_i(t4_setup):
    # the cyclic order-4 subgroup fixes Q(i): dim 2 and i is in it
    sf, G, subs = t4_setup
    field = sf.field
    xi = max(sf.roots, key=lambda r: field.sort_key(r))  # the positive real root
    xi_i = next(r for r in sf.roots if r != xi and r != -xi and field.sort_key(r) > field.sort_key(-r))
    i_elem = xi_i / xi
    assert i_elem * i_elem == -1
    found = False
    for H in subs:
        if H.order == 4:
            tbl = subgroup_table(G, H)
            if isomorphism_type(tbl) == "C4":
                L = fixed_field(H, G)
                assert L.dim == 2
                assert L.contains(i_elem)
                found = True
    assert found


def test_degree_order_duality(t4_setup):
    sf, G, subs = t4_setup
    n = sf.degree()
    for H in subs:
        L = fixed_field(H, G)
        assert L.dim * H.order == n


def test_gal_over_endpoints(t4_setup):
    sf, G, subs = t4_setup
    base_field = fixed_field(Subgroup(tuple(range(G.order))), G)
    assert gal_over(base_field, G).order == G.order
    top = fixed_field(Subgroup((0,)), G)
    assert gal_over(top, G).order == 1


def test_gal_over_q_omega(cbrt2_setup):
    sf, G = cbrt2_setup
    r0 = next(r for r in sf.roots if r)
    others = [r for r in sf.roots if r != r0]
    omega = others[0] / r0
    L = subfield_generated_by(sf, [omega])
    assert L.dim == 2
    H = gal_over(L, G)
    assert H.order == 3
    tbl = subgroup_table(G, H)
    assert isomorphism_type(tbl) == "C3"  # this is the A3 of the action
    assert not tbl.table[1][2] != 0 or True  # structural smoke
    # all three elements act as even permutations on the roots
    assert all(
        _parity(G.elements[i].root_perm) == 0 for i in H.member_indices
    )


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


def test_verify_correspondence_on_worked_examples():
    for coeffs in ([-2, 0, 0, 1], [-2, 0, 0, 0, 1], [1, 1, 1, 1, 1]):
        sf = splitting_field_q(q(coeffs))
        report = verify_correspondence(sf)
        assert report["mutually_inverse"]
    sf = splitting_field_q(q([1, 0, 1]) * q([-2, 0, 1]))
    report = verify_correspondence(sf)
    assert report["mutually_inverse"]
    assert report["pair_count"] == 5
    dims = sorted(p["fixed_field"]["dim"] for p in report["pairs"])
    assert dims == [1, 2, 2, 2, 4]


def test_klein_fixed_fields_are_the_three_quadratics():
    sf = splitting_field_q(q([1, 0, 1]) * q([-2, 0, 1]))
    G = automorphisms(sf)
    minpolys = set()
    for H in subgroups(G):
        if H.order == 2:
            L = fixed_field(H, G)
            minpolys.add(render(L.min_poly_of_primitive))
    assert minpolys == {"t^2 - 2", "t^2 + 1", "t^2 + 2"}  # sqrt2, i, sqrt2*i


def test_prime_degree_extension_has_two_pairs():
    sf = splitting_field_q(q([1, 1, 1]))  # omega, degree 2
    report = verify_correspondence(sf)
    assert report["pair_count"] == 2
    assert report["mutually_inverse"]


def test_is_normal_intermediate(t4_setup):
    sf, G, subs = t4_setup
    flags = []
    for H in subs:
        L = fixed_field(H, G)
        flags.append(is_normal_intermediate(L, G))
        # Fix(H) normal over Q exactly when H is normal in G
        assert is_normal_intermediate(L, G) == is_normal_subgroup(H, G)
    assert sum(flags) == 6


def test_quotient_checks(t4_setup, cbrt2_setup):
    sf, G, subs = t4_setup
    # G / <rho^2> = C2 x C2
    for H in subs:
        if H.order == 2 and is_normal_subgroup(H, G):
            L = fixed_field(H, G)
            rep = quotient_check(L, G)
            assert rep["quotient_order"] == 4
            assert rep["quotient_type"] == "C2 x C2"
    # S3 / A3 = C2
    sf3, G3 = cbrt2_setup
    r0 = next(r for r in sf3.roots if r)
    omega = [r for r in sf3.roots if r != r0][0] / r0
    L = subfield_generated_by(sf3, [omega])
    rep = quotient_check(L, G3)
    assert rep["quotient_order"] == 2 and rep["quotient_type"] == "C2"
    # endpoints: L = K gives the trivial quotient, L = M recovers G itself
    base = fixed_field(Subgroup(tuple(range(G.order))), G)
    rep = quotient_check(base, G)
    assert rep["quotient_order"] == 1
    top = fixed_field(Subgroup((0,)), G)
    rep = quotient_check(top, G)
    assert rep["quotient_order"] == G.order
    assert rep["quotient_type"] == "D4"


def test_quotient_check_rejects_non_normal(t4_setup):
    sf, G, subs = t4_setup
    for H in subs:
        if H.order == 2 and not is_normal_subgroup(H, G):
            L = fixed_field(H, G)
            with pytest.raises(NotNormal):
                quotient_check(L, G)
            break


def test_order_reversal_and_units(t4_setup):
    sf, G, subs = t4_setup
    fixed = {H: fixed_field(H, G) for H in subs}
    for H1 in subs:
        for H2 in subs:
            if set(H1.member_indices) <= set(H2.member_indices):
                L1, L2 = fixed[H1], fixed[H2]
                # Fix reverses inclusions
                assert all(
                    in_row_space(sf.field.base, L1.basis, v) for v in L2.basis
                )
    # unit inequalities: H <= Gal(M : Fix(H)), L <= Fix(Gal(M : L))
    for H in subs:
        L = fixed[H]
        H_back = gal_over(L, G)
        assert set(H.member_indices) <= set(H_back.member_indices)
        L_back = fixed_field(H_back, G)
        assert all(in_row_space(sf.field.base, L_back.basis, v) for v in L.basis)


def test_conjugation_covariance(t4_setup):
    # Fix(g H g^-1) = g Fix(H) as subspaces
    sf, G, subs = t4_setup
    base = sf.field.base
    zero = base.zero()
    g_tbl = G
    for H in subs:
        if H.order not in (2, 4):
            continue
        L = fixed_field(H, G)
        for a in range(G.order):
            inv = g_tbl.inverse(a)
            conj = tuple(
                sorted(g_tbl.table[g_tbl.table[a][h]][inv] for h in H.member_indices)
            )
            L_conj = fixed_field(Subgroup(conj), G)
            mat = scalar_matrix(base, G.matrix_of(a))
            mapped = [mat_mul_vec(mat, v, zero) for v in L.basis]
            assert all(in_row_space(base, L_conj.basis, v) for v in mapped)
            assert len(mapped) == L_conj.dim


def test_restriction_group_counts(t4_setup):
    sf, G, subs = t4_setup
    for H in subs:
        if is_normal_subgroup(H, G):
            L = fixed_field(H, G)
            restr = restriction_group(L, G)
            assert restr.order == G.order // gal_over(L, G).order


def test_subfield_generated_closure(cbrt2_setup):
    sf, G = cbrt2_setup
    field = sf.field
    r0 = next(r for r in sf.roots if r)
    L = subfield_generated_by(sf, [r0])
    assert L.dim == 3
    # closed under multiplication: product of basis elements stays inside
    vecs = [field.unflatten(list(v)) for v in L.basis]
    for a in vecs:
        for b in vecs:
            assert L.contains(a * b)


def _generated_span_oracle(field, elems):
    """RREF basis of the field generated by elems: span 1 and elems, then
    multiply the whole span by every generator until it stops growing."""
    base = field.base
    rows = row_space_basis(base, [field.flatten(x) for x in [field.one()] + elems])
    while True:
        grown = list(rows)
        for v in rows:
            grown.extend(field.flatten(field.unflatten(list(v)) * e) for e in elems)
        grown = row_space_basis(base, grown)
        if len(grown) == len(rows):
            return grown
        rows = grown


@pytest.mark.parametrize("coeffs", [
    [-2, 0, 0, 1],  # t^3 - 2, S3
    [-2, 0, 0, 0, 1],  # t^4 - 2, D4
    [-30, 0, 31, 0, -10, 0, 1],  # (t^2 - 2)(t^2 - 3)(t^2 - 5), C2^3
])
def test_subfield_generated_by_matches_the_fixpoint_oracle(coeffs):
    sf = splitting_field_q(q(coeffs))
    field = sf.field
    roots = [field.coerce(r) for r in sf.roots]
    pool = roots + [a * b for a in roots for b in roots] + [a + b for a in roots for b in roots]
    rng = random.Random(7)
    gen_sets = [[], [field.from_int(3)], roots] + [rng.sample(pool, rng.randint(1, 2)) for _ in range(10)]
    dims = set()
    for gens in gen_sets:
        L = subfield_generated_by(sf, gens)
        assert L.basis == _generated_span_oracle(field, gens)
        assert all(L.contains(g) for g in gens)
        dims.add(L.dim)
    assert {1, field.absolute_degree()} <= dims and len(dims) >= 3


def test_t6_minus_2_dihedral_d6_correspondence():
    # Gal(t^6 - 2) = D6 of order 12: D_n has tau(n) + sigma(n) = 4 + 12
    # subgroups and, n even, tau(n) + 3 = 7 normal ones
    sf = splitting_field_q(q([-2, 0, 0, 0, 0, 0, 1]))
    report = verify_correspondence(sf)
    assert report["degree"] == 12 and report["group_order"] == 12
    assert report["pair_count"] == 16
    assert sum(p["normal"] for p in report["pairs"]) == 7
    assert report["mutually_inverse"]


def test_t5_minus_2_frobenius_f20_correspondence():
    # Gal(t^5 - 2) = F20 = C5 : C4: 1, five C2, five C4, C5, D5, F20 make 14
    # subgroups; 1, C5, D5 and F20 are the normal ones
    sf = splitting_field_q(q([-2, 0, 0, 0, 0, 1]))
    report = verify_correspondence(sf)
    assert report["degree"] == 20 and report["group_order"] == 20
    assert report["pair_count"] == 14
    assert sum(p["normal"] for p in report["pairs"]) == 4
    assert report["mutually_inverse"]


@pytest.mark.parametrize("coeffs", [
    [-2, 0, 0, 0, 1],  # t^4 - 2, D4
    [-30, 0, 31, 0, -10, 0, 1],  # (t^2 - 2)(t^2 - 3)(t^2 - 5), C2^3
])
def test_fixed_field_primitive_is_fixed_by_exactly_h(coeffs):
    # the primitive search relies on Stab(x) = H for a generator x of
    # Fix(H); check it with the automorphisms themselves, not their matrices
    sf = splitting_field_q(q(coeffs))
    G = automorphisms(sf)
    for H in subgroups(G):
        L = fixed_field(H, G)
        x = L.primitive
        stab = tuple(i for i in range(G.order) if apply_automorphism(sf.field, G.elements[i], x) == x)
        assert stab == H.member_indices
        assert L.min_poly_of_primitive.degree == G.order // H.order


def test_primitive_filter_that_accepts_a_non_generator_raises(t4_setup):
    # an empty list of moving automorphisms lets the first candidate, 1,
    # through the filter; its degree-1 minimal polynomial must not pass
    # silently as a generator of the degree-8 field
    sf, G, subs = t4_setup
    field = sf.field
    basis = [tuple(int(i == j) for j in range(8)) + (1,) for i in range(8)]  # kernel tuples
    with pytest.raises(InternalInvariant):
        _find_primitive(field, basis, outside=[])
    elem, relation = _find_primitive(field, basis)
    assert field.min_poly_over_base(elem).degree == 8 == len(relation) - 1


@pytest.mark.parametrize("coeffs", [
    [-2, 0, 0, 0, 1],  # t^4 - 2, D4
    [-30, 0, 31, 0, -10, 0, 1],  # (t^2 - 2)(t^2 - 3)(t^2 - 5), C2^3
    [-1, -1, 0, 0, 1],  # t^4 - t - 1, S4 of degree 24
])
def test_q_linear_algebra_builds_no_fraction(monkeypatch, coeffs):
    # over Q the fixed fields, Gal(M : L), normality and the power echelon of
    # a minimal polynomial run on integer numerators over one denominator
    sf = splitting_field_q(q(coeffs))
    G = automorphisms(sf)
    subs = subgroups(G)
    built, new = [], Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(lambda cls, *a, **k: built.append(1) or new(cls, *a, **k)))
    found = []
    for H in subs:
        L = fixed_field(H, G)
        found.append((H, L, gal_over(L, G), is_normal_intermediate(L, G), sf.field._power_echelon(L.primitive)))
    monkeypatch.undo()
    assert not built
    for H, L, back, normal, (relation, _, powers) in found:
        assert back.member_indices == H.member_indices and normal == is_normal_subgroup(H, G)
        assert len(powers) == L.dim == L.min_poly_of_primitive.degree
        assert L.min_poly_of_primitive == sf.field.min_poly_over_base(L.primitive)


# ---------------------------------------------------------------------------
# the trace, coset and primitive-element routes against the plain definitions
# ---------------------------------------------------------------------------


def _nullspace(field, rows, ncols):
    """Basis of {x : A x = 0} (RREF-canonical): one vector per free column."""
    reduced, pivots = rref(field, rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for i, pc in enumerate(pivots):
            v[pc] = -reduced[i][fc]
        basis.append(v)
    return basis


def _fixed_space_by_kernels(H, G):
    """Fix(H) by its definition: the common kernel of matrix(h) - I over H,
    stacked as (|H| - 1) n rows, as an RREF basis."""
    base = G.sf.field.base
    n = G.sf.field.absolute_degree()
    stacked = []
    for idx in H.member_indices[1:]:
        for r, row in enumerate(scalar_matrix(base, G.matrix_of(idx))):
            stacked.append([c - base.one() if j == r else c for j, c in enumerate(row)])
    return row_space_basis(base, _nullspace(base, stacked, n))


def _basis_images(L, G, idx):
    base = G.sf.field.base
    return [mat_mul_vec(scalar_matrix(base, G.matrix_of(idx)), v, base.zero()) for v in L.basis]


_TRACE_FIELDS = {
    "t^4-2 (D4)": lambda: splitting_field_q(q([-2, 0, 0, 0, 1])),
    "(t^2-2)(t^2-3)(t^2-5) (C2^3)": lambda: splitting_field_q(q([-30, 0, 31, 0, -10, 0, 1])),
    "t^5-2 (F20)": lambda: splitting_field_q(q([-2, 0, 0, 0, 0, 1])),
    "F3 (t^2+1)(t^3+2t+1) (C6)": lambda: splitting_field_fp(parse_poly("(t^2+1)*(t^3+2*t+1)", PrimeField(3))),
}


@pytest.fixture(scope="module", params=sorted(_TRACE_FIELDS))
def lattice(request):
    sf = _TRACE_FIELDS[request.param]()
    G = automorphisms(sf)
    return sf, G, subgroups(G)


def test_trace_image_is_the_common_kernel(lattice):
    # the same subspace, so the same canonical RREF basis, on every subgroup
    sf, G, subs = lattice
    for H in subs:
        assert fixed_field(H, G).basis == _fixed_space_by_kernels(H, G), H


def test_subfield_contains_matches_the_row_space_oracle(lattice):
    # a zero residual against the subfield's echelon is membership in its
    # RREF basis: sums of basis rows (inside), and those plus a random
    # element (inside only when that element is)
    sf, G, subs = lattice
    field, base = sf.field, sf.field.base
    rng = random.Random(35)
    fields = [fixed_field(H, G) for H in subs] + [subfield_generated_by(sf, [r]) for r in sf.roots[:3]]
    counts = [0, 0]
    for L in fields:
        for _ in range(4):
            inside = field.unflatten([sum((base.from_int(rng.randint(-2, 2)) * v[j] for v in L.basis), base.zero())
                                      for j in range(len(L.basis[0]))])
            other = field.unflatten([base.from_int(rng.randint(-2, 2)) for _ in L.basis[0]])
            for x in (inside, inside + other):
                member = L.contains(x)
                assert member == in_row_space(base, L.basis, field.flatten(x))
                counts[member] += 1
        assert L.contains(L.primitive) and L.contains(field.one())
    assert min(counts) >= 4, counts


def test_coset_representatives_meet_each_other_coset_once(lattice):
    sf, G, subs = lattice
    for H in subs:
        reps = _coset_representatives(H, G)
        cosets = [frozenset(G.table[g][h] for h in H.member_indices) for g in reps]
        assert len(reps) == G.order // H.order - 1
        assert all(c.isdisjoint(H.member_indices) for c in cosets)
        assert frozenset().union(H.member_indices, *cosets) == frozenset(range(G.order))


def test_primitive_route_matches_the_basis_route(lattice):
    # Gal(M:L), normality and the restriction table read off the primitive
    # element agree with the definitions on the whole basis of L, for the
    # fixed fields and for fields generated by roots
    sf, G, subs = lattice
    base = sf.field.base
    fields = [fixed_field(H, G) for H in subs] + [subfield_generated_by(sf, [r]) for r in sf.roots[:3]]
    for L in fields:
        fixing = tuple(i for i in range(G.order) if _basis_images(L, G, i) == L.basis)
        assert gal_over(L, G).member_indices == fixing
        normal = all(in_row_space(base, L.basis, v) for i in range(G.order) for v in _basis_images(L, G, i))
        assert is_normal_intermediate(L, G) == normal
        if normal:
            prints = [tuple(tuple(map(base.sort_key, v)) for v in _basis_images(L, G, i)) for i in range(G.order)]
            reps = [i for i in range(G.order) if prints.index(prints[i]) == i]
            table = [[reps.index(prints.index(prints[G.table[a][b]])) for b in reps] for a in reps]
            assert [list(row) for row in restriction_group(L, G).table] == table


def test_primitive_filter_missing_a_coset_raises():
    # Fix(1) of (t^2-2)(t^2-3)(t^2-5) is the whole field and its candidates
    # run through sums of two square roots, each fixed by one automorphism
    # alone; leaving out that automorphism's coset lets such a candidate
    # through the filter, and the certificate must then refuse it
    sf = splitting_field_q(q([-30, 0, 31, 0, -10, 0, 1]))
    G = automorphisms(sf)
    top = Subgroup((0,))
    basis = fixed_field(top, G).rows
    reps = _coset_representatives(top, G)
    for skipped in reps:
        with pytest.raises(InternalInvariant):
            _find_primitive(sf.field, basis, [G.matrix_of(g) for g in reps if g != skipped])
