"""The fundamental theorem made executable.

Intermediate fields are base-linear subspaces of the splitting field in its
flattened power-product coordinates, canonically represented by reduced row
echelon bases (so equality of subfields is equality of bases, sidestepping
the isomorphic-but-distinct-subset trap).  Fixed fields come from kernels of
automorphism matrices; Galois groups over an intermediate field come from
pointwise fixing of its basis.  `verify_correspondence` checks that the two
maps are mutually inverse on the whole lattice and that degrees match orders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InternalInvariant, NotNormal, SearchExhausted
from .galois import (
    GaloisGroup,
    Subgroup,
    isomorphism_type,
    is_normal_subgroup,
    quotient_group,
    subgroups,
    FiniteGroup,
)
from .linalg import Echelon, in_row_space, mat_mul_vec, nullspace, row_space_basis
from .poly import Poly, render


@dataclass
class Subfield:
    """An intermediate field of the splitting-field extension, as an RREF
    subspace basis plus a certified primitive element."""

    sf: object
    basis: list  # RREF rows over the base field, each of length n
    primitive: object
    min_poly_of_primitive: Poly

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, x) -> bool:
        field = self.sf.field
        return in_row_space(field.base, self.basis, field.flatten(x))

    def same_as(self, other: "Subfield") -> bool:
        return self.basis == other.basis

    def to_json(self):
        return {
            "dim": self.dim,
            "primitive": str(self.primitive),
            "primitive_min_poly": render(self.min_poly_of_primitive),
        }


def _candidates(base, basis):
    """Small integer combinations of the basis rows, lazily and in search
    order: the rows, then pairwise sums and differences, then every
    coefficient vector in {0, 1, 2}^dim (3^dim of them, never listed)."""
    yield from basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            yield [a + b for a, b in zip(basis[i], basis[j])]
            yield [a - b for a, b in zip(basis[i], basis[j])]
    for coeffs in itertools.product(range(3), repeat=len(basis)):
        if not any(coeffs):
            continue
        vec = [base.zero()] * len(basis[0])
        for c, row in zip(coeffs, basis):
            if c:
                cc = base.from_int(c)
                vec = [a + cc * b for a, b in zip(vec, row)]
        yield vec


def _find_primitive(field, basis, outside=None):
    """First of `_candidates` to generate the subspace, certified by its
    minimal polynomial of degree dim.  A `min_poly_over_base` costs up to n
    tower products and n reductions against an echelon of up to n rows, so
    when `outside` (the matrices of every automorphism not fixing the
    subspace) is given, a candidate fixed by one of them is rejected first at
    O(|outside| n^2) base-field operations."""
    base = field.base
    seen = set()
    for vec in _candidates(base, basis):
        key = tuple(base.sort_key(c) for c in vec)
        if key in seen:
            continue
        seen.add(key)
        if outside and any(mat_mul_vec(m, vec, base.zero()) == vec for m in outside):
            continue
        elem = field.unflatten(list(vec))
        mp = field.min_poly_over_base(elem)
        if mp.degree == len(basis):
            return elem, mp
        if outside is not None:
            raise InternalInvariant(
                f"filter passed a degree-{mp.degree} element of a degree-{len(basis)} subfield")
    raise SearchExhausted("no primitive element found for subfield")


def _make_subfield(sf, rows, outside=None) -> Subfield:
    basis = row_space_basis(sf.field.base, rows)
    elem, mp = _find_primitive(sf.field, basis, outside)
    return Subfield(sf, basis, elem, mp)


def fixed_field(H: Subgroup, G: GaloisGroup) -> Subfield:
    """Fix(H): the subspace killed by (matrix(h) - I) for every h in H,
    with dimension exactly degree/|H|.

    An x in Fix(H) has minimal polynomial of degree [G : Stab(x)], so it
    generates Fix(H) exactly when no automorphism outside H fixes it; the
    primitive search rejects candidates on that test, at O(|G| n^2) each,
    and certifies only the element it accepts."""
    n = G.sf.field.absolute_degree()
    base = G.sf.field.base
    stacked = []
    for idx in H.member_indices:
        if idx == 0:
            continue
        mat = G.matrix_of(idx)
        for r in range(n):
            row = list(mat[r])
            row[r] = row[r] - base.one()
            stacked.append(row)
    if not stacked:
        vecs = [[base.one() if i == j else base.zero() for j in range(n)] for i in range(n)]
    else:
        vecs = nullspace(base, stacked, ncols=n)
    outside = [G.matrix_of(i) for i in range(G.order) if i not in H.member_indices]
    sub = _make_subfield(G.sf, vecs, outside)
    if sub.dim * H.order != n:
        raise InternalInvariant(
            f"fixed field dimension {sub.dim} times |H| = {H.order} != degree {n}"
        )
    return sub


def subfield_generated_by(sf, elems) -> Subfield:
    """The smallest intermediate field containing the given elements: the
    span of 1 closed under multiplication by each of them.  Every element
    found independent of those before it queues its products with the
    generators, so each spanning element is multiplied out once."""
    field = sf.field
    elems = [field.coerce(e) for e in elems]
    echelon = Echelon(field.base)
    queue = [field.one()]
    while queue:
        x = queue.pop()
        if echelon.add(field.flatten(x)) is None:
            queue.extend(x * e for e in elems)
    return _make_subfield(sf, [row for _, row, _ in echelon.rows])


def gal_over(L: Subfield, G: GaloisGroup) -> Subgroup:
    """Gal(M : L): the subgroup fixing L pointwise (checked on its basis)."""
    base = G.sf.field.base
    members = []
    for idx in range(G.order):
        mat = G.matrix_of(idx)
        ok = True
        for v in L.basis:
            if mat_mul_vec(mat, v, base.zero()) != list(v):
                ok = False
                break
        if ok:
            members.append(idx)
    return Subgroup(tuple(members))


def is_normal_intermediate(L: Subfield, G: GaloisGroup) -> bool:
    """True iff every automorphism maps L onto itself setwise."""
    base = G.sf.field.base
    for idx in range(G.order):
        mat = G.matrix_of(idx)
        for v in L.basis:
            if not in_row_space(base, L.basis, mat_mul_vec(mat, v, base.zero())):
                return False
    return True


def restriction_group(L: Subfield, G: GaloisGroup):
    """The group of distinct restrictions to L (the image of the restriction
    homomorphism), as its own composition table."""
    base = G.sf.field.base
    zero = base.zero()

    def fingerprint(idx):
        mat = G.matrix_of(idx)
        return tuple(tuple(base.sort_key(c) for c in mat_mul_vec(mat, v, zero)) for v in L.basis)

    fps = {}
    reps = []
    for idx in range(G.order):
        fp = fingerprint(idx)
        if fp not in fps:
            fps[fp] = len(reps)
            reps.append(idx)
    # identity restriction first
    id_fp = fingerprint(0)
    id_pos = fps[id_fp]
    if id_pos != 0:
        reps[0], reps[id_pos] = reps[id_pos], reps[0]
        fps = {}
        for pos, r in enumerate(reps):
            fps[fingerprint(r)] = pos
    table = [
        [fps[fingerprint(G.table[a][b])] for b in reps] for a in reps
    ]
    return FiniteGroup(table)


def quotient_check(L: Subfield, G: GaloisGroup):
    """Verify Gal(M:K)/Gal(M:L) = Gal(L:K): build the coset quotient, count
    distinct restrictions to L independently, compare orders and types."""
    if not is_normal_intermediate(L, G):
        raise NotNormal("quotient check needs a normal intermediate field")
    N = gal_over(L, G)
    quo, cosets = quotient_group(G, N)
    restr = restriction_group(L, G)
    report = {
        "quotient_order": quo.order,
        "quotient_type": isomorphism_type(quo),
        "restriction_order": restr.order,
        "restriction_type": isomorphism_type(restr),
        "orders_match": quo.order == restr.order,
        "types_match": isomorphism_type(quo) == isomorphism_type(restr),
    }
    if not (report["orders_match"] and report["types_match"]):
        raise InternalInvariant(f"quotient mismatch: {report}")
    return report


def verify_correspondence(sf, G: GaloisGroup | None = None):
    """Check the two legs of the correspondence are mutually inverse over the
    full subgroup lattice, with |H| * dim Fix(H) = [M:K] throughout."""
    if G is None:
        from .galois import automorphisms

        G = automorphisms(sf)
    n = sf.field.absolute_degree()
    subs = subgroups(G)
    pairs = []
    all_ok = True
    for H in subs:
        L = fixed_field(H, G)
        H_back = gal_over(L, G)
        match = H_back.member_indices == H.member_indices
        normal_side = is_normal_subgroup(H, G)
        # round-trip on the field side (Fix(H_back) is L itself when H_back = H)
        L_back = L if match else fixed_field(H_back, G)
        field_match = L_back.same_as(L)
        ok = match and field_match and (L.dim * H.order == n)
        all_ok = all_ok and ok
        pairs.append(
            {
                "subgroup": list(H.member_indices),
                "order": H.order,
                "normal": normal_side,
                "fixed_field": L.to_json(),
                "gal_over_matches": match,
            }
        )
    return {
        "degree": n,
        "group_order": G.order,
        "pairs": pairs,
        "mutually_inverse": all_ok,
        "pair_count": len(pairs),
    }
