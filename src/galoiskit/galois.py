"""Galois groups of splitting fields, with finite-group structure theory.

Over Q automorphisms are found by the recursive extension principle: the
image of each tower generator must be a stored root annihilating the mapped
minimal polynomial of that level.  Over F_p the group is cyclic, generated
by the Frobenius x -> x^p, so its elements are the powers of Frobenius and
nothing is searched: they permute the roots as the powers of the Frobenius
permutation the splitting field keeps, and each generator, a stored root,
with them.  Because the action on roots is faithful, a `GaloisGroup` is the
`FiniteGroup` of its root permutations (canonically sorted, identity first),
whose table `_perm_table` composes, as it does for `from_permutations`.  The
search reads the root permutation off the images of the top-level basis
monomials on which some root has a nonzero coordinate.  The matrix of an
automorphism on the power-product basis (about n tower products for degree
n; int rows over one denominator, `galoiskit.linalg`), which only the
fixed-field linear algebra reads, is built on first read from the generator
images.

The group-theory layer (subgroup lattice by cyclic-seed join closure,
derived series, quotients, isomorphism fingerprinting) works on any finite
composition table, so it also serves abstract permutation groups in tests
and the quotient checks of the correspondence module.  The one orbit
routine, `closure` (defined in `galoiskit.splitting`), serves generated
subgroups, `from_permutations`, `orbits`, the Frobenius cycles of a
splitting field and `SubfieldOfGF.elements`; one class numbering,
`class_table`, numbers classes by their least elements and composes those:
cosets for `quotient_group`, the members of a subgroup for
`subgroup_table`, and the restrictions and cosets of the correspondence
module.
"""

from __future__ import annotations

from .errors import InternalInvariant, NotASubgroup, NotNormal, OrderCap
from .linalg import mat_mul_vec, matrix
from .poly import Poly
from .splitting import SplittingField, closure, root_permutation

SUBGROUP_ORDER_CAP = 60
TYPE_ORDER_CAP = 120


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
        """Indices of the subgroup generated by `gens`."""
        table = self.table
        return frozenset(closure(0, list(gens), lambda g, x: table[g][x]))


def from_permutations(gens):
    """Close a set of permutations (tuples) under composition; returns
    (FiniteGroup, list of permutations in canonical order)."""
    if not gens:
        raise ValueError("need at least one permutation")
    identity = tuple(range(len(gens[0])))
    perms = sorted(closure(identity, gens, lambda g, p: tuple(g[i] for i in p)))
    return FiniteGroup(_perm_table(perms)), perms


def _perm_table(perms):
    """The composition table of distinct permutations (tuples) that are
    closed under composition: entry [i][j] is the index of perms[i] after
    perms[j]."""
    k = len(perms[0])
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(k))] for q in perms] for p in perms]


# ---------------------------------------------------------------------------
# automorphisms of a splitting field
# ---------------------------------------------------------------------------


class Automorphism:
    """A field automorphism over the base: generator images, the induced
    permutation of the stored roots, and its matrix on the power-product
    basis (column j = coordinates of the image of basis j; `linalg.matrix`),
    built from the generator images on first read."""

    __slots__ = ("generator_images", "root_perm", "_field", "_lower", "_matrix")

    def __init__(self, field, generator_images: tuple, root_perm: tuple, lower=None):
        # the image of each tower level's generator, bottom-up
        self.generator_images = generator_images
        self.root_perm = root_perm  # root i maps to root root_perm[i]
        self._field = field
        self._lower = lower  # images of the basis below the top level, if the search kept them
        self._matrix = None

    @property
    def matrix(self):
        """n x n over the base, as (int rows, den); ([(1,)], 1) over a bare base field."""
        if self._matrix is None:
            chain = self._field.chain()
            k = len(chain) - 1 if self._lower else 0
            basis = self._lower or [self._field.one()]
            for level, r in zip(chain[k:], self.generator_images[k:]):
                basis = _images_of(basis, r, range(level.level_degree * len(basis)))
            self._matrix = _matrix(self._field, basis)
        return self._matrix

    def __repr__(self):
        return f"Automorphism({cycle_notation(self.root_perm)})"


class GaloisGroup(FiniteGroup):
    """Gal(M : base) as the finite group of its root permutations: element i
    of the table is the automorphism elements[i]."""

    def __init__(self, sf: SplittingField, elements):
        super().__init__(_perm_table([a.root_perm for a in elements]))
        self.sf = sf
        self.elements = elements  # Automorphism list, canonical order, id first

    def matrix_of(self, i: int):
        """Matrix of element i on the power-product basis."""
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
    return field._view(mat_mul_vec(phi.matrix, field._concat([x]), field.characteristic))[0]


def _matrix(field, basis):
    """The matrix whose columns are the coordinates of the elements `basis`."""
    return matrix([field._concat([b]) for b in basis], field.characteristic)


def _images_of(basis, r, indices):
    """The images one level up of the basis monomials `indices` (ascending)
    when its generator a maps to r and the basis below maps to `basis`:
    monomial k = i * len(basis) + j is a^i * b_j (i outer, as in
    `Tower.flatten`) and goes to r^i * basis[j]."""
    powers = [basis[0], r]  # basis[0], the image of 1, is 1
    while len(powers) <= indices[-1] // len(basis):
        powers.append(powers[-1] * r)
    return [basis[j] if not i else powers[i] if not j else powers[i] * basis[j]
            for i, j in (divmod(k, len(basis)) for k in indices)]


def _searched(sf):
    """(generator images, images of the basis below the top level, root
    permutation) of each automorphism.  Roots and their images are keyed by
    their kernel tuples; an image is the matrix of the support monomials'
    images times the support coordinates of the root."""
    field = sf.field
    chain = field.chain()
    roots = sf.roots
    if not chain:  # a bare base field: the identity alone
        yield (), None, tuple(range(len(roots)))
        return
    n = field.absolute_degree()
    root_index = {r.v: i for i, r in enumerate(roots)}
    support = [j for j in range(n) if any(r.v[j] for r in roots)]
    coords = [(*[r.v[j] for j in support], r.v[-1]) for r in roots]

    def extend(images, basis):
        # basis: images of the power-product basis of chain[k-1] ([1] below level 0)
        k = len(images)
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
                mat = _matrix(field, basis)
                m_phi = Poly(field, [
                    field._view(mat_mul_vec(mat, level.lower._concat([c]), 0))[0]
                    for c in level.minpoly.coeffs
                ])
            if not m_phi.eval(r):
                hits.append(r)
        for r in hits:
            if k + 1 < len(chain):
                yield from extend(images + [r], _images_of(basis, r, range(d * len(basis))))
                continue
            mat = _matrix(field, _images_of(basis, r, support))
            keys = (mat_mul_vec(mat, v, 0) for v in coords)
            yield (*images, r), basis, root_permutation(root_index, keys)

    yield from extend([], [field.one()])


def _frobenius_powers(sf):
    """(generator images, None, root permutation) of phi^j, j = 0 .. n-1,
    for the Frobenius phi: the j-th power of `sf.frobenius`, which also
    moves each generator, a stored root, to its image among the roots."""
    field, roots = sf.field, sf.roots
    gens = [roots.index(g) for g in field.generators()]
    perm = tuple(range(len(roots)))
    for _ in range(field.absolute_degree()):
        yield tuple(roots[perm[i]] for i in gens), None, perm
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
    once they are as many as the roots still missing."""
    n = sf.field.absolute_degree()
    route = _searched if sf.frobenius is None else _frobenius_powers
    elems = [Automorphism(sf.field, images, perm, lower) for images, lower, perm in route(sf)]
    if len({a.root_perm for a in elems}) != len(elems):
        raise InternalInvariant("two automorphisms act alike on the roots")
    elems.sort(key=lambda a: a.root_perm)
    if elems[0].root_perm != tuple(range(len(sf.roots))):
        raise InternalInvariant("identity automorphism missing")
    if len(elems) != n:
        raise InternalInvariant(f"|Gal| = {len(elems)} but [M:K] = {n}")
    return GaloisGroup(sf, elems)


# ---------------------------------------------------------------------------
# action on roots
# ---------------------------------------------------------------------------


def orbits(G: GaloisGroup):
    """Partition of root indices under the group action."""
    perms = [a.root_perm for a in G.elements]
    parts, seen = [], set()
    for start in range(len(G.sf.roots)):
        if start not in seen:
            parts.append(sorted(closure(start, perms, tuple.__getitem__)))
            seen.update(parts[-1])
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


def check_subgroup(H: Subgroup, G) -> bool:
    mem = set(H.member_indices)
    if 0 not in mem:
        return False
    return all(G.table[a][b] in mem for a in mem for b in mem)


def subgroups(G):
    """The complete subgroup lattice: cyclic seeds closed under pairwise
    join, iterated to a fixed point; sorted by (order, members).  Each
    subgroup keeps the generators it was found from, so a join is closed
    under those of its two parts, not under all their members."""
    if G.order > SUBGROUP_ORDER_CAP:
        raise OrderCap(f"subgroup enumeration capped at order {SUBGROUP_ORDER_CAP}")
    found = {}
    for i in range(G.order):
        found.setdefault(G.generated_subgroup([i]), (i,))
    changed = True
    while changed:
        changed = False
        current = sorted(found, key=lambda s: (len(s), sorted(s)))
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                a, b = current[i], current[j]
                if a <= b or b <= a:
                    continue
                gens = found[a] + found[b]
                join = G.generated_subgroup(gens)
                if join not in found:
                    found[join] = gens
                    changed = True
    out = [Subgroup(tuple(sorted(s))) for s in found]
    out.sort(key=lambda h: (h.order, h.member_indices))
    return out


def is_normal_subgroup(H: Subgroup, G) -> bool:
    if not check_subgroup(H, G):
        raise NotASubgroup("member set is not a subgroup")
    mem = set(H.member_indices)
    for a in range(G.order):
        inv = G.inverse(a)
        for h in mem:
            if G.table[G.table[a][h]][inv] not in mem:
                return False
    return True


def commutator_subgroup(G, H: Subgroup) -> Subgroup:
    mem = list(H.member_indices)
    comms = set()
    for a in mem:
        ia = G.inverse(a)
        for b in mem:
            ib = G.inverse(b)
            # a b a^-1 b^-1
            comms.add(G.table[G.table[G.table[a][b]][ia]][ib])
    return Subgroup(tuple(sorted(G.generated_subgroup(comms))))


def derived_series(G):
    """G >= G' >= G'' >= ... until stable."""
    series = [Subgroup(tuple(range(G.order)))]
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


def class_table(G, class_of, elements=None):
    """Number the classes class_of(a) (each an iterable holding a) of the
    `elements` (all of G by default, ascending) by their least elements,
    and compose those: (FiniteGroup on the classes, classes as frozensets).
    Class 0 holds the identity, the least element."""
    number, classes, reps = {}, [], []
    for a in range(G.order) if elements is None else elements:
        if a not in number:
            classes.append(frozenset(class_of(a)))
            number.update(dict.fromkeys(classes[-1], len(reps)))
            reps.append(a)
    return FiniteGroup([[number[G.table[a][b]] for b in reps] for a in reps]), classes


def subgroup_table(G, H: Subgroup):
    """The composition table of a subgroup, as its own FiniteGroup."""
    return class_table(G, lambda a: (a,), H.member_indices)[0]


def quotient_group(G, N: Subgroup):
    """Quotient by a normal subgroup: (FiniteGroup, coset list), the cosets
    aN numbered by their least elements, N first."""
    if not is_normal_subgroup(N, G):
        raise NotNormal("quotient by a subgroup that is not normal")
    return class_table(G, lambda a: (G.table[a][h] for h in N.member_indices))


# ---------------------------------------------------------------------------
# isomorphism types
# ---------------------------------------------------------------------------

_NONABELIAN_FINGERPRINTS = {
    (6, (1, 2, 2, 2, 3, 3)): "S3",
    (8, (1, 2, 2, 2, 2, 2, 4, 4)): "D4",
    (8, (1, 2, 4, 4, 4, 4, 4, 4)): "Q8",
    (12, (1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3)): "A4",
}


def isomorphism_type(G) -> str:
    """Name the isomorphism type from the fingerprint (order, abelian flag,
    element-order multiset); honest 'unidentified' otherwise."""
    n = G.order
    if n > TYPE_ORDER_CAP:
        raise OrderCap(f"type identification capped at order {TYPE_ORDER_CAP}")
    orders = tuple(G.element_orders())
    if G.is_abelian():
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
    gens = []
    span = G.generated_subgroup([])
    for i in sorted(range(G.order), key=lambda j: -G.element_order(j)):
        if i in span:
            continue
        gens.append(i)
        span = G.generated_subgroup(gens)
        if len(span) == G.order:
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
