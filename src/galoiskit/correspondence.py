"""The fundamental theorem made executable.

Intermediate fields are base-linear subspaces of the splitting field in its
flattened power-product coordinates, each held in the `Echelon` that spans
it: membership is a zero residual against it, and its reduced row echelon
basis is canonical (so equality of subfields is equality of bases,
sidestepping the isomorphic-but-distinct-subset trap).  Fix(H) is the image
of the trace sum over H, since Gal(M : Fix(H)) = H and the trace of a finite
separable extension is onto (Lang, Algebra, VI.5): one n x n sum and one
elimination per subgroup.  An intermediate field is K(theta) for its
certified primitive element theta, so an automorphism fixes it, maps it into
itself or restricts to it as it acts on theta alone.  `verify_correspondence`
checks that the two maps are mutually inverse on the whole lattice and that
degrees match orders.
"""

from __future__ import annotations

import itertools

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
from .linalg import Echelon, mat_mul_vec
from .poly import Poly, render


class Subfield:
    """An intermediate field of the splitting-field extension, as the echelon
    spanning it, its RREF basis and a certified primitive element."""

    __slots__ = ("sf", "echelon", "basis", "primitive", "min_poly_of_primitive")

    def __init__(self, sf, echelon: Echelon, basis: list, primitive, min_poly_of_primitive: Poly):
        self.sf = sf
        self.echelon = echelon
        self.basis = basis  # echelon.basis(): RREF rows over the base field, each of length n
        self.primitive = primitive
        self.min_poly_of_primitive = min_poly_of_primitive

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, x) -> bool:
        return not any(self.echelon.reduce(self.sf.field.flatten(x))[0])

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
                vec = [a + cc * b if b else a for a, b in zip(vec, row)]
        yield vec


def _find_primitive(field, basis, outside=None):
    """First of `_candidates` to generate the subspace, certified by its
    minimal polynomial of degree dim.  A `min_poly_over_base` costs up to n
    tower products and n reductions against an echelon of up to n rows, so
    when the subspace is Fix(H) and `outside` holds the matrices of one
    representative of each non-trivial coset of H, a candidate fixed by one of
    them is rejected first, at O([G:H] n^2) base-field operations.

    The filter is exact.  A candidate x lies in Fix(H), so it generates Fix(H)
    exactly when no g outside H fixes it.  If g(x) = x, write g = g_i h (or
    h g_i, whichever side the cosets were taken on) with h in H; h and its
    inverse fix x, so g_i(x) = x, and x is rejected on g_i."""
    base, zero = field.base, field.base.zero()
    seen = set()
    for vec in _candidates(base, basis):
        key = tuple(base.sort_key(c) for c in vec)
        if key in seen:
            continue
        seen.add(key)
        if outside and any(mat_mul_vec(m, vec, zero) == vec for m in outside):
            continue
        elem = field.unflatten(list(vec))
        mp = field.min_poly_over_base(elem)
        if mp.degree == len(basis):
            return elem, mp
        if outside is not None:
            raise InternalInvariant(
                f"filter passed a degree-{mp.degree} element of a degree-{len(basis)} subfield")
    raise SearchExhausted("no primitive element found for subfield")


def _make_subfield(sf, echelon: Echelon, outside=None) -> Subfield:
    basis = echelon.basis()
    elem, mp = _find_primitive(sf.field, basis, outside)
    return Subfield(sf, echelon, basis, elem, mp)


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
    n = G.sf.field.absolute_degree()
    zero = G.sf.field.base.zero()
    total = [[zero] * n for _ in range(n)]
    for idx in H.member_indices:
        for row, mat_row in zip(total, G.matrix_of(idx)):
            row[:] = [a + b if b else a for a, b in zip(row, mat_row)]
    echelon = Echelon(G.sf.field.base)
    for col in zip(*total):
        echelon.add(col)
    outside = [G.matrix_of(g) for g in _coset_representatives(H, G)]
    sub = _make_subfield(G.sf, echelon, outside)
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
    return _make_subfield(sf, echelon)


def _images_of_primitive(L: Subfield, G: GaloisGroup):
    """sigma(theta) for each sigma in G in order, flattened, with theta the
    certified primitive element of L: sigma acts on L = K(theta) as it acts on
    theta."""
    field = G.sf.field
    theta, zero = field.flatten(L.primitive), field.base.zero()
    return (mat_mul_vec(G.matrix_of(idx), theta, zero) for idx in range(G.order))


def gal_over(L: Subfield, G: GaloisGroup) -> Subgroup:
    """Gal(M : L): the automorphisms fixing the primitive element of L."""
    theta = G.sf.field.flatten(L.primitive)
    images = _images_of_primitive(L, G)
    return Subgroup(tuple(idx for idx, image in enumerate(images) if image == theta))


def is_normal_intermediate(L: Subfield, G: GaloisGroup) -> bool:
    """True iff every automorphism maps L onto itself: sigma(L) = K(sigma(theta))
    has dimension dim L, so it is L exactly when sigma(theta) lies in L."""
    return all(not any(L.echelon.reduce(image)[0]) for image in _images_of_primitive(L, G))


def restriction_group(L: Subfield, G: GaloisGroup):
    """The group of distinct restrictions to L (the image of the restriction
    homomorphism), as its own composition table.  A restriction is fixed by
    the image of the primitive element, which is its fingerprint; the
    identity (element 0 of G) comes first."""
    base = G.sf.field.base
    prints = [tuple(map(base.sort_key, image)) for image in _images_of_primitive(L, G)]
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
