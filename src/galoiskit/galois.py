"""Galois groups of splitting fields, with finite-group structure theory.

Over Q the group comes from a stabilizer chain whose base is the tower
generators g_0 .. g_(L-1), stored roots (`_searched`): G_k, the elements
that fix g_0 .. g_(k-1), moves g_k onto the d_k roots of level k's minimal
polynomial, and from the top level down one leaf search per new strong
generator closes that orbit.  A leaf sends each generator to a stored root
annihilating the mapped minimal polynomial of its level, and its root
permutation is read off the images of the top-level basis monomials on
which some root has a nonzero coordinate.  Each new generator at least
doubles the group generated so far, so at most log2 |G| leaves are
searched.  Over F_p the group is cyclic, generated by the Frobenius
x -> x^p, and nothing is searched: the splitting field keeps the Frobenius
permutation of its roots.  Either way `from_permutations` closes those
generators, on the root indices with no tower product, into the sorted
root permutations (identity first) and their composition table, and each
generator's image, a stored root, is read off an element's root
permutation.  Because the action on roots is faithful, a `GaloisGroup` is
the `FiniteGroup` of its root permutations.  The matrix of an automorphism
on the power-product basis (about n tower products for degree n; int rows
over one denominator, `galoiskit.linalg`), which only the fixed-field
linear algebra reads, is built on first read from the generator images.

The group-theory layer (subgroup lattice by cyclic-seed join closure,
derived series, quotients, isomorphism fingerprinting) works on any finite
composition table, so it also serves abstract permutation groups in tests
and the quotient checks of the correspondence module.  The one orbit
routine, `closure` (defined in `galoiskit.splitting`), serves generated
subgroups, `from_permutations`, the chain's orbits in `_searched`, `orbits`
and `SubfieldOfGF.elements`; one class numbering, `class_table`, numbers
classes by their least elements and composes those: cosets for
`quotient_group`, the members of a subgroup for `subgroup_table`, and the
restrictions and cosets of the correspondence module.
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
    (FiniteGroup, list of permutations in canonical order).  The closure
    holds each permutation once, sorted, so the identity is element 0, and
    table entry [i][j] is the index of perms[i] after perms[j]."""
    if not gens:
        raise ValueError("need at least one permutation")
    identity = tuple(range(len(gens[0])))
    perms = sorted(closure(identity, gens, lambda g, p: tuple(g[i] for i in p)))
    index = {p: i for i, p in enumerate(perms)}
    return FiniteGroup([[index[tuple(p[i] for i in q)] for q in perms] for p in perms]), perms


# ---------------------------------------------------------------------------
# automorphisms of a splitting field
# ---------------------------------------------------------------------------


class Automorphism:
    """A field automorphism over the base: generator images, the induced
    permutation of the stored roots, and its matrix on the power-product
    basis (column j = coordinates of the image of basis j; `linalg.matrix`),
    built from the generator images on first read."""

    __slots__ = ("generator_images", "root_perm", "_field", "_matrix")

    def __init__(self, field, generator_images: tuple, root_perm: tuple):
        # the image of each tower level's generator, bottom-up
        self.generator_images = generator_images
        self.root_perm = root_perm  # root i maps to root root_perm[i]
        self._field = field
        self._matrix = None

    @property
    def matrix(self):
        """n x n over the base, as (int rows, den); ([(1,)], 1) over a bare base field."""
        if self._matrix is None:
            basis = [self._field.one()]
            for level, r in zip(self._field.chain(), self.generator_images):
                basis = _images_of(basis, r, range(level.level_degree * len(basis)))
            self._matrix = _matrix(self._field, basis)
        return self._matrix

    def __repr__(self):
        return f"Automorphism({cycle_notation(self.root_perm)})"


class GaloisGroup(FiniteGroup):
    """Gal(M : base) as the finite group of its root permutations: element i
    of the table (from `from_permutations`) is the automorphism elements[i]."""

    def __init__(self, sf: SplittingField, table, elements):
        super().__init__(table)
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


def _searched(sf, gens):
    """Root permutations that generate Gal(M : Q): the strong generators of
    a stabilizer chain whose base is the tower generators g_0 .. g_(L-1),
    stored roots (Sims 1970; Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, ch. 4).  G_k, the automorphisms that fix
    g_0 .. g_(k-1), moves g_k onto the d_k roots of level k's minimal
    polynomial.  From the top level down, while the strong generators found
    so far move g_k onto fewer points (its orbit, a `closure` on the root
    indices), one leaf is searched: it fixes g_j for j < k, sends g_k to a
    root outside that orbit, and each higher level's generator to the first
    root of its mapped minimal polynomial.  Each new generator at least
    doubles the group generated so far, so at most log2 |G| leaves are
    searched.  A leaf's root images are keyed by their kernel tuples: the
    matrix of the support monomials' images times the support coordinates
    of the root.  `gens` are the generators' root indices."""
    field = sf.field
    chain = field.chain()
    roots = sf.roots
    identity = tuple(range(len(roots)))
    if not chain:  # a bare base field: the identity generates the group
        return [identity]
    n = field.absolute_degree()
    root_index = {r.v: i for i, r in enumerate(roots)}
    support = [j for j in range(n) if any(r.v[j] for r in roots)]
    coords = [(*[r.v[j] for j in support], r.v[-1]) for r in roots]
    # the power-product basis below the top level, which the identity fixes
    m = chain[-1].lower.absolute_degree()
    units = field._view((*[int(i == j) for j in range(m) for i in range(n)], 1))

    def first_root(cands, missing, level, basis):
        # the first of the candidates that is a root of the level's minimal
        # polynomial mapped by `basis`, given that `missing` of them are: once
        # as many are left, the next is taken unevaluated
        m_phi = None
        for i, r in enumerate(cands):
            if len(cands) - i == missing:
                return r
            if m_phi is None:  # the minimal polynomial's coefficients live in the level below
                mat = _matrix(field, basis)
                m_phi = Poly(field, [
                    field._view(mat_mul_vec(mat, level.lower._concat([c]), 0))[0]
                    for c in level.minpoly.coeffs
                ])
            if not m_phi.eval(roots[r]):
                return r
        raise InternalInvariant("a minimal polynomial has fewer roots than its degree")

    def leaf(images):
        # the root permutation of the automorphism that fixes the generators
        # below the last image, sends the next to it and each one above to
        # the first root found; `images` are root indices
        k = len(images) - 1
        basis = units[: chain[k].lower.absolute_degree()]
        while k + 1 < len(chain):
            basis = _images_of(basis, roots[images[k]], range(chain[k].level_degree * len(basis)))
            k += 1
            d = chain[k].level_degree
            images.append(first_root([i for i in identity if i not in images], d, chain[k], basis))
        mat = _matrix(field, _images_of(basis, roots[images[k]], support))
        return root_permutation(root_index, (mat_mul_vec(mat, v, 0) for v in coords))

    strong = []
    for k in reversed(range(len(chain))):
        level = chain[k]
        d = level.level_degree
        while len(orbit := closure(gens[k], strong, tuple.__getitem__)) < d:
            rest = [i for i in identity if i not in gens[:k] and i not in orbit]
            r = first_root(rest, d - len(orbit), level, units[: level.lower.absolute_degree()])
            strong.append(leaf([*gens[:k], r]))
        if len(orbit) != d:
            raise InternalInvariant(f"level {k} moves its generator to {len(orbit)} roots, not {d}")
    return strong


def automorphisms(sf: SplittingField) -> GaloisGroup:
    """Enumerate Gal(M : base) for a splitting field M; the count must equal
    the tower degree (fields here are normal and separable).

    Over F_p the group is generated by the Frobenius.  Over Q it is
    generated by the strong generators of a stabilizer chain on the tower
    generators (`_searched`), whose leaves send each level's generator to a
    root of its mapped minimal polynomial m_phi.  m_phi divides f and
    splits in the normal field M, and it is irreducible of degree d > 1 over
    the image of the level below, so none of its roots is an image of a
    lower generator.  So the candidates -- the roots, less those images --
    hold exactly d roots of m_phi: a scan tests them in order and takes the
    next untested one unevaluated once they are as many as the roots still
    missing.  `from_permutations` closes the generators into the group, and
    each element's generator images, stored roots, are read off its root
    permutation."""
    field, roots = sf.field, sf.roots
    gens = [roots.index(g) for g in field.generators()]
    group, perms = from_permutations(_searched(sf, gens) if sf.frobenius is None else [sf.frobenius])
    if group.order != field.absolute_degree():
        raise InternalInvariant(f"|Gal| = {group.order} but [M:K] = {field.absolute_degree()}")
    elems = [Automorphism(field, tuple(roots[p[i]] for i in gens), p) for p in perms]
    return GaloisGroup(sf, group.table, elems)


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
    t = G.table
    inv = {a: G.inverse(a) for a in mem}
    comms = set()
    for a in mem:
        for b in mem:
            # a b a^-1 b^-1
            comms.add(t[t[t[a][b]][inv[a]]][inv[b]])
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
    (24, (1,) + (2,) * 9 + (3,) * 8 + (4,) * 6): "S4",
    (60, (1,) + (2,) * 15 + (3,) * 20 + (5,) * 24): "A5",
    (120, (1,) + (2,) * 25 + (3,) * 20 + (4,) * 30 + (5,) * 24 + (6,) * 20): "S5",
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
    return _NONABELIAN_FINGERPRINTS.get((n, orders), f"unidentified group of order {n}")


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
