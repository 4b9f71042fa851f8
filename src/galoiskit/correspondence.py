"""The fundamental theorem made executable.

Intermediate fields are base-linear subspaces of the splitting field in its
power-product coordinates, each held in the `Echelon` that spans it:
membership is a zero residual against it, and its reduced row echelon basis
is canonical (so equality of subfields is equality of bases, sidestepping
the isomorphic-but-distinct-subset trap).  Fix(H) is the image of the trace
sum over H, since Gal(M : Fix(H)) = H and the trace of a finite separable
extension is onto (Lang, Algebra, VI.5): one n x n sum and one elimination
per subgroup.  An intermediate field is K(theta) for its certified primitive
element theta, so an automorphism fixes it, maps it into itself or
restricts to it as it acts on theta alone.  `verify_correspondence` checks
that the two maps are mutually inverse on the whole lattice and that
degrees match orders.  It all runs on the kernel tuples of `linalg`, with
`Fraction`s only in `Subfield.basis`, `min_poly_of_primitive` and printing.
"""

from __future__ import annotations

import itertools
import math

from .errors import InternalInvariant, NotNormal, SearchExhausted
from .galois import (
    GaloisGroup,
    Subgroup,
    class_table,
    isomorphism_type,
    is_normal_subgroup,
    quotient_group,
    subgroups,
)
from .linalg import Echelon, fixes, kernel, mat_mul_vec, matrix
from .numbers import TowerElem
from .poly import Poly, render
from .tower import relation_poly


class Subfield:
    """An intermediate field of the splitting-field extension: the echelon
    spanning it, its RREF basis (kernel tuples), and a certified primitive
    element with the relation of its minimal polynomial (`_find_primitive`)."""

    __slots__ = ("sf", "echelon", "rows", "primitive", "relation")

    def __init__(self, sf, echelon: Echelon, outside=None):
        self.sf, self.echelon, self.rows = sf, echelon, echelon.basis()
        self.primitive, self.relation = _find_primitive(sf.field, self.rows, outside)

    @property
    def basis(self) -> list:  # base scalars
        return [self.sf.field.base._view(v) for v in self.rows]

    @property
    def min_poly_of_primitive(self) -> Poly:
        return relation_poly(self.sf.field.base, self.relation)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, x) -> bool:
        return self.echelon.contains(self.sf.field._concat([x]))

    def same_as(self, other: "Subfield") -> bool:
        return self.rows == other.rows

    def to_json(self):
        return {
            "dim": self.dim,
            "primitive": str(self.primitive),
            "primitive_min_poly": render(self.min_poly_of_primitive),
        }


def _candidates(dim):
    """The coefficients of small integer combinations of dim basis rows,
    lazily and in search order: each row, then pairwise sums and
    differences, then every vector in {0, 1, 2}^dim (3^dim, never listed)."""
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    yield from rows
    for i in range(dim):
        for j in range(i + 1, dim):
            yield [a + b for a, b in zip(rows[i], rows[j])]
            yield [a - b for a, b in zip(rows[i], rows[j])]
    for coeffs in itertools.product(range(3), repeat=dim):
        if any(coeffs):
            yield coeffs


def _find_primitive(field, basis, outside=None):
    """(x, relation): the first of `_candidates` (1 for the base field) to
    generate the subspace, certified by its minimal polynomial of degree dim.
    That costs up to n tower products and n reductions against an echelon of
    up to n rows, so when the subspace is Fix(H) and `outside` holds the
    matrices of one representative of each non-trivial coset of H, a
    candidate fixed by one of them is rejected first, at O([G:H] n^2) integer
    operations.

    The filter is exact.  A candidate x lies in Fix(H), so it generates Fix(H)
    exactly when no g outside H fixes it.  If g(x) = x, write g = g_i h (or
    h g_i, whichever side the cosets were taken on) with h in H; h and its
    inverse fix x, so g_i(x) = x, and x is rejected on g_i."""
    p = field.characteristic
    if len(basis) == 1:
        return field.one(), kernel([1], 1, p)
    mat = matrix(basis, p)
    seen = set()
    for coeffs in _candidates(len(basis)):
        v = mat_mul_vec(mat, coeffs if p else (*coeffs, 1), p)
        if v in seen:
            continue
        seen.add(v)
        if outside and any(fixes(m, v, p) for m in outside):
            continue
        relation, _, powers = field._power_echelon(TowerElem(field, v))
        if len(powers) == len(basis):
            return TowerElem(field, v), relation
        if outside is not None:
            raise InternalInvariant(
                f"filter passed a degree-{len(powers)} element of a degree-{len(basis)} subfield")
    raise SearchExhausted("no primitive element found for subfield")


def _coset_representatives(H: Subgroup, G: GaloisGroup) -> list:
    """The least element of each coset {g h : h in H} other than H itself."""
    cosets = class_table(G, lambda g: (G.table[g][h] for h in H.member_indices))[1]
    return [min(c) for c in cosets[1:]]


def fixed_field(H: Subgroup, G: GaloisGroup) -> Subfield:
    """Fix(H) as the image of the trace sum S = sum of matrix(h) over H: the
    span of S's columns (column j of a matrix is the image of basis vector
    j), of dimension exactly degree/|H|.

    An x in Fix(H) has minimal polynomial of degree [G : Stab(x)], so it
    generates Fix(H) exactly when no automorphism outside H fixes it; the
    primitive search rejects candidates on that test, one coset
    representative at a time, and certifies only the element it accepts."""
    n, p = G.sf.field.absolute_degree(), G.sf.field.characteristic
    mats = [G.matrix_of(idx) for idx in H.member_indices]
    den = math.lcm(*[d for _, d in mats])
    echelon = Echelon(n, p)
    for j in range(n):  # column j of S, over den
        echelon.insert(kernel([sum(rows[i][j] * (den // d) for rows, d in mats) for i in range(n)], den, p))
    sub = Subfield(G.sf, echelon, [G.matrix_of(g) for g in _coset_representatives(H, G)])
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
    echelon = Echelon(field.absolute_degree(), field.characteristic)
    queue = [field.one()]
    while queue:
        x = queue.pop()
        if echelon.insert(field._concat([x])):
            queue.extend(x * e for e in elems)
    return Subfield(sf, echelon)


def _images_of_primitive(L: Subfield, G: GaloisGroup):
    """sigma(theta) for each sigma in G in order, as kernel tuples, with theta
    the certified primitive element of L: sigma acts on L = K(theta) as it
    acts on theta."""
    field = G.sf.field
    theta = field._concat([L.primitive])
    return (mat_mul_vec(G.matrix_of(idx), theta, field.characteristic) for idx in range(G.order))


def gal_over(L: Subfield, G: GaloisGroup) -> Subgroup:
    """Gal(M : L): the automorphisms fixing the primitive element of L."""
    field = G.sf.field
    theta = field._concat([L.primitive])
    return Subgroup(tuple(idx for idx in range(G.order) if fixes(G.matrix_of(idx), theta, field.characteristic)))


def is_normal_intermediate(L: Subfield, G: GaloisGroup) -> bool:
    """True iff every automorphism maps L onto itself: sigma(L) = K(sigma(theta))
    has dimension dim L, so it is L exactly when sigma(theta) lies in L."""
    return all(L.echelon.contains(image) for image in _images_of_primitive(L, G))


def restriction_group(L: Subfield, G: GaloisGroup):
    """The group of distinct restrictions to L (the image of the restriction
    homomorphism), as its own composition table.  A restriction is fixed by
    the image of the primitive element, which is its fingerprint; the
    identity (element 0 of G) comes first."""
    prints = list(_images_of_primitive(L, G))
    alike = {}
    for idx, fp in enumerate(prints):
        alike.setdefault(fp, []).append(idx)
    return class_table(G, lambda a: alike[prints[a]])[0]


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
