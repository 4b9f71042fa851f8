"""Galois groups of splitting fields, with finite-group structure theory.

Over Q automorphisms are found by the recursive extension principle: the
image of each tower generator must be a stored root annihilating the mapped
minimal polynomial of that level.  Over F_p the group is cyclic, generated
by the Frobenius x -> x^p, so its elements are the powers of Frobenius and
nothing is searched: they permute the roots as the powers of the Frobenius
permutation the splitting field keeps, and each generator, a stored root,
with them.  Because the action on roots is faithful, the group is carried
as a table of root permutations (canonically sorted, identity first).  Each
automorphism also carries its matrix on the flattened power-product basis,
built from powers of the generator images (about n tower products and n^2
base entries for a field of degree n), which the fixed-field linear algebra
reads.

The group-theory layer (subgroup lattice by cyclic-seed join closure,
derived series, quotients, isomorphism fingerprinting) works on any finite
composition table, so it also serves abstract permutation groups in tests
and the quotient checks of the correspondence module.
"""

from __future__ import annotations

from .errors import InternalInvariant, NotASubgroup, NotNormal, OrderCap
from .linalg import mat_mul_vec
from .poly import Poly
from .splitting import SplittingField, root_permutation

SUBGROUP_ORDER_CAP = 60


# ---------------------------------------------------------------------------
# abstract finite groups presented by a composition table
# ---------------------------------------------------------------------------


class FiniteGroup:
    """A finite group given by its composition table; index 0 is the identity.
    table[i][j] = index of (element i) followed-after (element j), i.e. the
    composite "apply j, then i"."""

    def __init__(self, table):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)

    def inverse(self, i: int) -> int:
        for j in range(self.order):
            if self.table[i][j] == 0:
                return j
        raise InternalInvariant("element without inverse")

    def element_order(self, i: int) -> int:
        acc = i
        for n in range(1, self.order + 1):
            if acc == 0:
                return n
            acc = self.table[acc][i]
        raise InternalInvariant("no power of the element is the identity")

    def element_orders(self):
        return sorted(self.element_order(i) for i in range(self.order))

    def is_abelian(self) -> bool:
        t = self.table
        return all(
            t[i][j] == t[j][i] for i in range(self.order) for j in range(i)
        )

    def generated_subgroup(self, gens):
        """Indices of the subgroup generated by `gens` (BFS closure)."""
        seen = {0}
        frontier = [0]
        gens = list(gens)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.table[g][x]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)


def from_permutations(gens):
    """Close a set of permutations (tuples) under composition; returns
    (FiniteGroup, list of permutations in canonical order)."""
    if not gens:
        raise ValueError("need at least one permutation")
    k = len(gens[0])
    identity = tuple(range(k))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[i]] for i in range(k))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    perms = sorted(seen)
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(k))] for q in perms] for p in perms
    ]
    return FiniteGroup(table), perms


# ---------------------------------------------------------------------------
# automorphisms of a splitting field
# ---------------------------------------------------------------------------


class Automorphism:
    """A field automorphism over the base: generator images, the induced
    permutation of the stored roots, and its matrix on the flattened
    power-product basis (column j = coordinates of the image of basis j)."""

    __slots__ = ("generator_images", "root_perm", "matrix")

    def __init__(self, generator_images: tuple, root_perm: tuple, matrix: list):
        # the image of each tower level's generator, bottom-up
        self.generator_images = generator_images
        self.root_perm = root_perm  # root i maps to root root_perm[i]
        self.matrix = matrix  # n x n over the base; [[one]] over a bare base field

    def __repr__(self):
        return f"Automorphism({cycle_notation(self.root_perm)})"


class GaloisGroup:
    def __init__(self, sf: SplittingField, elements, table):
        self.sf = sf
        self.elements = elements  # Automorphism list, canonical order, id first
        self.group = FiniteGroup(table)
        self.order = self.group.order

    @property
    def table(self):
        return self.group.table

    def apply(self, phi: Automorphism, x):
        return apply_automorphism(self.sf.field, phi, x)

    def matrix_of(self, i: int):
        """Matrix of element i on the flattened power-product basis."""
        return self.elements[i].matrix

    def to_json(self):
        return {
            "order": self.order,
            "type": isomorphism_type(self),
            "generators": [
                cycle_notation(self.elements[i].root_perm)
                for i in minimal_generators(self)
            ],
            "elements": [cycle_notation(a.root_perm) for a in self.elements],
            "action": [str(r) for r in self.sf.roots],
        }


def apply_automorphism(field, phi: Automorphism, x):
    """Apply an automorphism to an arbitrary element of the splitting field."""
    return field.unflatten(mat_mul_vec(phi.matrix, field.flatten(x), field.base.zero()))


def _basis_up(basis, r, d):
    """Images of the basis one level up (degree d) when its generator maps to
    r: a^i * b_j goes to r^i * basis[j], i outer as in `Tower.flatten`."""
    up = list(basis)
    for _ in range(1, d):
        up += [r * b for b in up[-len(basis) :]]
    return up


def _matrix(field, basis):
    """The matrix whose columns are the flattened images of `basis`."""
    cols = [field.flatten(b) for b in basis]
    return [[col[r] for col in cols] for r in range(field.absolute_degree())]


def _searched(sf):
    """(generator images, matrix, root permutation) of each automorphism."""
    field = sf.field
    chain = field.chain()
    roots = sf.roots
    zero = field.base.zero()
    found = []

    def extend(images, basis):
        # basis: images of the power-product basis of chain[k-1] ([1] below level 0)
        mat = _matrix(field, basis)  # n x dim(chain[k-1])
        k = len(images)
        if k == len(chain):
            found.append((tuple(images), mat))
            return
        level = chain[k]
        d = level.level_degree
        cands = [r for r in roots if not (d > 1 and r in images)]
        hits, m_phi = [], None
        for i, r in enumerate(cands):
            if len(hits) == d:
                break
            if len(cands) - i == d - len(hits):
                hits += cands[i:]
                break
            if m_phi is None:  # the minimal polynomial's coefficients live in chain[k-1]
                m_phi = Poly(field, [
                    field.unflatten(mat_mul_vec(mat, level.lower.flatten(c), zero))
                    for c in level.minpoly.coeffs
                ])
            if not m_phi.eval(r):
                hits.append(r)
        for r in hits:
            extend(images + [r], _basis_up(basis, r, d))

    extend([], [field.one()])

    root_coords = [field.flatten(r) for r in roots]
    root_index = {tuple(v): i for i, v in enumerate(root_coords)}
    for images, mat in found:
        keys = (tuple(mat_mul_vec(mat, v, zero)) for v in root_coords)
        yield images, mat, root_permutation(root_index, keys)


def _frobenius_powers(sf):
    """(generator images, matrix, root permutation) of phi^j, j = 0 .. n-1,
    for the Frobenius phi: the j-th power of `sf.frobenius`, which also
    moves each generator, a stored root, to its image among the roots."""
    field, roots = sf.field, sf.roots
    gens = [roots.index(g) for g in field.generators()]
    perm = tuple(range(len(roots)))
    for _ in range(field.absolute_degree()):
        images = tuple(roots[perm[i]] for i in gens)
        basis = [field.one()]
        for level, r in zip(field.chain(), images):
            basis = _basis_up(basis, r, level.level_degree)
        yield images, _matrix(field, basis), perm
        perm = tuple(sf.frobenius[i] for i in perm)


def automorphisms(sf: SplittingField) -> GaloisGroup:
    """Enumerate Gal(M : base) for a splitting field M; the count must equal
    the tower degree (fields here are normal and separable).

    Over F_p the elements are the powers of Frobenius.  Over Q a search
    sends each level's generator to a root of its mapped minimal polynomial
    m_phi, bottom-up.  m_phi divides f and splits in the normal field M; for
    d > 1 it is irreducible over the image of the level below, so none of
    its roots is an image of a lower generator.  So the candidates -- the
    roots, less those images when d > 1 -- hold exactly d roots of m_phi:
    the scan tests them in order and takes the untested rest unevaluated
    once they are as many as the roots still missing.  The matrix columns
    are the flattened basis images."""
    n = sf.field.absolute_degree()
    route = _searched if sf.frobenius is None else _frobenius_powers
    elems = [Automorphism(images, perm, mat) for images, mat, perm in route(sf)]
    if len({a.root_perm for a in elems}) != len(elems):
        raise InternalInvariant("two automorphisms act alike on the roots")
    elems.sort(key=lambda a: a.root_perm)
    k = len(sf.roots)
    if elems[0].root_perm != tuple(range(k)):
        raise InternalInvariant("identity automorphism missing")
    if len(elems) != n:
        raise InternalInvariant(f"|Gal| = {len(elems)} but [M:K] = {n}")
    index = {a.root_perm: i for i, a in enumerate(elems)}
    table = []
    for a in elems:
        row = []
        for b in elems:
            comp = tuple(a.root_perm[b.root_perm[i]] for i in range(k))
            row.append(index[comp])
        table.append(row)
    return GaloisGroup(sf, elems, table)


# ---------------------------------------------------------------------------
# action on roots
# ---------------------------------------------------------------------------


def orbits(G: GaloisGroup):
    """Partition of root indices under the group action."""
    k = len(G.sf.roots)
    seen = [False] * k
    parts = []
    for start in range(k):
        if seen[start]:
            continue
        orbit = set()
        frontier = [start]
        seen[start] = True
        while frontier:
            x = frontier.pop()
            orbit.add(x)
            for a in G.elements:
                y = a.root_perm[x]
                if not seen[y]:
                    seen[y] = True
                    frontier.append(y)
        parts.append(sorted(orbit))
    return parts


def is_transitive(G: GaloisGroup) -> bool:
    return len(orbits(G)) <= 1


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------


class Subgroup:
    """A subgroup as the sorted tuple of its member indices; immutable and
    hashable, so subgroups key dicts and sets."""

    __slots__ = ("member_indices",)

    def __init__(self, member_indices: tuple):
        object.__setattr__(self, "member_indices", member_indices)

    def __setattr__(self, name, value):
        raise AttributeError("Subgroup is immutable")

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.member_indices == other.member_indices

    def __hash__(self):
        return hash(self.member_indices)

    @property
    def order(self):
        return len(self.member_indices)

    def members(self):
        return frozenset(self.member_indices)


def _as_group(G):
    return G.group if isinstance(G, GaloisGroup) else G


def check_subgroup(H: Subgroup, G) -> bool:
    g = _as_group(G)
    mem = set(H.member_indices)
    if 0 not in mem:
        return False
    return all(g.table[a][b] in mem for a in mem for b in mem)


def subgroups(G, cap: int = SUBGROUP_ORDER_CAP):
    """The complete subgroup lattice: cyclic seeds closed under pairwise
    join, iterated to a fixed point; sorted by (order, members)."""
    g = _as_group(G)
    if g.order > cap:
        raise OrderCap(f"subgroup enumeration capped at order {cap}")
    found = set()
    for i in range(g.order):
        found.add(g.generated_subgroup([i]))
    changed = True
    while changed:
        changed = False
        current = sorted(found, key=lambda s: (len(s), sorted(s)))
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                a, b = current[i], current[j]
                if a <= b or b <= a:
                    continue
                join = g.generated_subgroup(a | b)
                if join not in found:
                    found.add(join)
                    changed = True
    out = [Subgroup(tuple(sorted(s))) for s in found]
    out.sort(key=lambda h: (h.order, h.member_indices))
    return out


def is_normal_subgroup(H: Subgroup, G) -> bool:
    g = _as_group(G)
    if not check_subgroup(H, G):
        raise NotASubgroup("member set is not a subgroup")
    mem = set(H.member_indices)
    for a in range(g.order):
        inv = g.inverse(a)
        for h in mem:
            if g.table[g.table[a][h]][inv] not in mem:
                return False
    return True


def commutator_subgroup(G, H: Subgroup) -> Subgroup:
    g = _as_group(G)
    mem = list(H.member_indices)
    comms = set()
    for a in mem:
        ia = g.inverse(a)
        for b in mem:
            ib = g.inverse(b)
            # a b a^-1 b^-1
            comms.add(g.table[g.table[g.table[a][b]][ia]][ib])
    return Subgroup(tuple(sorted(g.generated_subgroup(comms))))


def derived_series(G):
    """G >= G' >= G'' >= ... until stable."""
    g = _as_group(G)
    series = [Subgroup(tuple(range(g.order)))]
    while True:
        nxt = commutator_subgroup(G, series[-1])
        if nxt.member_indices == series[-1].member_indices:
            break
        series.append(nxt)
        if nxt.order == 1:
            break
    return series


def is_solvable(G) -> bool:
    return derived_series(G)[-1].order == 1


def subgroup_table(G, H: Subgroup):
    """The composition table of a subgroup, as its own FiniteGroup."""
    g = _as_group(G)
    mem = list(H.member_indices)
    pos = {m: i for i, m in enumerate(mem)}
    # reorder so identity (global index 0) is local index 0
    assert mem[0] == 0
    table = [[pos[g.table[a][b]] for b in mem] for a in mem]
    return FiniteGroup(table)


def quotient_group(G, N: Subgroup):
    """Quotient by a normal subgroup: (FiniteGroup, coset list)."""
    if not is_normal_subgroup(N, G):
        raise NotNormal("quotient by a subgroup that is not normal")
    g = _as_group(G)
    nset = set(N.member_indices)
    cosets = []
    assigned = {}
    for a in range(g.order):
        if a in assigned:
            continue
        coset = frozenset(g.table[a][h] for h in nset)
        idx = len(cosets)
        cosets.append(coset)
        for x in coset:
            assigned[x] = idx
    # put the identity coset first
    id_idx = assigned[0]
    if id_idx != 0:
        cosets[0], cosets[id_idx] = cosets[id_idx], cosets[0]
        assigned = {x: i for i, c in enumerate(cosets) for x in c}
    reps = [min(c) for c in cosets]
    table = [
        [assigned[g.table[reps[i]][reps[j]]] for j in range(len(cosets))]
        for i in range(len(cosets))
    ]
    return FiniteGroup(table), cosets


# ---------------------------------------------------------------------------
# isomorphism types
# ---------------------------------------------------------------------------

_NONABELIAN_FINGERPRINTS = {
    (6, (1, 2, 2, 2, 3, 3)): "S3",
    (8, (1, 2, 2, 2, 2, 2, 4, 4)): "D4",
    (8, (1, 2, 4, 4, 4, 4, 4, 4)): "Q8",
    (12, (1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3)): "A4",
}


def isomorphism_type(G, cap: int = 120) -> str:
    """Name the isomorphism type from the fingerprint (order, abelian flag,
    element-order multiset); honest 'unidentified' otherwise."""
    g = _as_group(G)
    n = g.order
    if n > cap:
        raise OrderCap(f"type identification capped at order {cap}")
    orders = tuple(g.element_orders())
    if g.is_abelian():
        if orders[-1] == n:
            return f"C{n}"
        if n == 4:
            return "C2 x C2"
        return f"unidentified abelian group of order {n}"
    key = (n, orders)
    if key in _NONABELIAN_FINGERPRINTS:
        return _NONABELIAN_FINGERPRINTS[key]
    if n == 24 and orders.count(2) == 9 and orders.count(3) == 8 and orders.count(4) == 6:
        return "S4"
    if n == 60 and orders.count(2) == 15 and orders.count(3) == 20 and orders.count(5) == 24:
        return "A5"
    if (
        n == 120
        and orders.count(2) == 25
        and orders.count(3) == 20
        and orders.count(4) == 30
        and orders.count(5) == 24
        and orders.count(6) == 20
    ):
        return "S5"
    return f"unidentified group of order {n}"


def minimal_generators(G):
    """A small generating set of element indices (greedy)."""
    g = _as_group(G)
    gens = []
    span = g.generated_subgroup([])
    for i in sorted(range(g.order), key=lambda j: -g.element_order(j)):
        if i in span:
            continue
        gens.append(i)
        span = g.generated_subgroup(gens)
        if len(span) == g.order:
            break
    return gens


def cycle_notation(perm) -> str:
    """(0 1 2)-style cycle notation, 1-based for presentation."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = perm[x]
        parts.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(parts) if parts else "()"
