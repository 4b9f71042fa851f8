"""Splitting fields as explicit towers with all roots attached.

The construction is the classic induction: factor over the tower built so
far, adjoin a root of the lowest-degree nonlinear irreducible factor, and
repeat until everything splits.  Each irreducible factor of the input over
the base keeps its own remainder, which is factored on its own; the
remainders are coprime, so together they factor as their product would.
Each tower generator is by construction one of the stored roots, which is
what the automorphism enumeration in `galoiskit.galois` relies on.

Before paying for a factorization over the extension, a cheap pre-pass hunts
for roots among products, ratios and powers of roots already found, formed
around the depressed-form center c (so shifted binomials like (t - c)^n + a
are caught).  It is a worklist closure over the level, as `closure` is for
orbits: each root is combined once with each root before it, each distinct
candidate is tested once, and a hit joins the worklist.  It ends where a
restart after every hit would: remainders only lose roots, so a failed
candidate stays failed.  In characteristic p the conjugates alpha^q,
alpha^(q^2), ... of each adjoined root alpha (q the order of the coefficient
field) are divided out the same way.  One synthetic-division pass gives
both rem div (t - c) and rem(c), and a hit is certified by a zero remainder,
so this is purely a shortcut.  A root is found in its factor's remainder,
so it carries that factor's degree and multiplicity.  Over F_p the
permutation x -> x^p makes of the roots is computed once and kept for the
Galois group as `SplittingField.frobenius`; its cycles are the factors'
root sets.
"""

from __future__ import annotations

import functools

from .errors import DegreeCap, InternalInvariant, ZeroPolynomial
from .numbers import QQ, PrimeField
from .poly import Poly
from .factor import factor_over_extension, field_order
from .tower import adjoin_root, level_label

SPLITTING_DEGREE_CAP = 24


class SplittingField:
    __slots__ = ("field", "roots", "multiplicities", "source", "unit", "frobenius")

    def __init__(self, field, roots: list, multiplicities: list, source: Poly, unit,
                 frobenius: tuple = None):
        self.field = field  # base field or Tower
        self.roots = roots  # distinct roots, canonical order
        self.multiplicities = multiplicities
        self.source = source
        self.unit = unit
        self.frobenius = frobenius  # root i goes to root frobenius[i] under x -> x^p; None over Q

    def degree(self) -> int:
        return self.field.absolute_degree()

    def to_json(self):
        return {
            "degree": self.degree(),
            "tower": self.field.describe(),
            "roots": [self.field.element_str(r) for r in self.roots],
            "multiplicities": list(self.multiplicities),
            "polynomial": str(self.source),
        }


def _synthetic_division(f: Poly, c):
    """(f div (t - c), f(c)) for deg f >= 1 by one synthetic-division pass:
    Horner's running values are the quotient's coefficients, then f(c)."""
    run = [f.coeffs[-1]]
    for a in reversed(f.coeffs[:-1]):
        run.append(a + c * run[-1])
    return Poly(f.dom, run[-2::-1], normalize=False), run[-1]


def _take(rems, found, c) -> bool:
    """Divide t - c out of the remainder c is a root of, if any."""
    for i, g in enumerate(rems):
        if g.degree > 0:
            quot, value = _synthetic_division(g, c)
            if not value:
                rems[i] = quot
                found[i].append(c)
                return True
    return False


def _close_roots(rems, found, center):
    """The pre-pass over the level of `center`: with s = r - center, a root
    adds -s, s^2 and, with each earlier nonzero s_j, s*s_j, s/s_j, s^2/s_j,
    s_j/s and s_j^2/s (shifted back), formed when reached; a root is inverted
    when a ratio first needs it, and it stops once no remainder is nonlinear."""
    work = [r for rs in found for r in rs]
    tested, earlier = set(work), []  # earlier: (s, s^2) per nonzero s so far
    inverse = functools.cache(lambda s: s.inv())

    def candidates(s, s2):
        yield from (-s, s2)
        if s:
            for sj, sj2 in earlier:
                yield from (s * sj, s * inverse(sj), s2 * inverse(sj))
                yield from (sj * inverse(s), sj2 * inverse(s))
            earlier.append((s, s2))

    while work:  # the caller leaves some remainder nonlinear
        s = work.pop(0) - center
        for x in candidates(s, s * s):
            if (x := x + center) not in tested:
                tested.add(x)
                if _take(rems, found, x):
                    work.append(x)
                    if all(g.degree < 2 for g in rems):
                        return


def _split_factors(factors, cap: int):
    """Split the distinct monic irreducible `factors` of a polynomial over
    their domain; returns (field, the roots of each factor)."""
    current = base = factors[0][0].dom
    rems = [g for g, _ in factors]  # what is left of each factor: monic, pairwise coprime
    found = [[] for _ in rems]
    # x -> x^order fixes the factors' coefficients (order 0 over Q), so permutes their roots
    order = field_order(base)

    # depressed-form center of the factors' product: pre-pass combinations
    # are formed around it
    center = base.zero()
    if base == QQ:
        center = -sum(g.coeff(g.degree - 1) for g in rems) / sum(g.degree for g in rems)

    while True:
        for i, g in enumerate(rems):  # a monic remainder of degree 1 is t - root
            if g.degree == 1:
                found[i].append(-g.coeff(0))
                rems[i] = Poly.one(current)
        if all(g.degree == 0 for g in rems):
            return current, found

        # candidate pre-pass over the current field; at the base every root
        # found is rational and a root of a linear factor, so none are combined
        if current.characteristic == 0 and current is not base:
            _close_roots(rems, found, center)
            if all(g.degree < 2 for g in rems):
                continue

        # any nonlinear adjunction at least doubles the degree, so bail out
        # before paying for a factorization that cannot be used
        if current.characteristic == 0 and 2 * current.absolute_degree() > cap:
            raise DegreeCap(f"splitting degree would exceed cap {cap}")

        # each remainder is factored on its own: they are coprime, so the
        # union of their factorizations is the factorization of the product
        nonlinear = []
        for g in [g for g in rems if g.degree > 1]:
            # the base factors are irreducible
            for h, _ in ((g, 1),) if current is base else factor_over_extension(g).factors:
                if h.degree > 1:
                    nonlinear.append(h)
                elif not _take(rems, found, -h.coeff(0)):
                    raise InternalInvariant("division is not exact")
        if not nonlinear:
            continue

        g = min(nonlinear, key=lambda h: h.sort_key())
        new_degree = current.absolute_degree() * g.degree
        if new_degree > cap:
            raise DegreeCap(f"splitting degree would reach {new_degree} > cap {cap}")
        current, alpha = adjoin_root(current, g, level_label(len(current.chain())), certify=False)
        found[:] = [[current.coerce(r) for r in rs] for rs in found]
        rems[:] = [g.map_domain(current, current.coerce) for g in rems]
        if not _take(rems, found, alpha):
            raise InternalInvariant("division is not exact")
        center = current.coerce(center)

        # Frobenius pre-pass: alpha's conjugates are roots of the same base
        # factor, and none of them lies in the previous field
        if order:
            c = alpha**order
            while c != alpha:
                _take(rems, found, c)
                c = c**order


def _build(f: Poly, cap: int) -> SplittingField:
    if f.is_zero():
        raise ZeroPolynomial("splitting field of the zero polynomial")
    unit = f.lc()
    if f.degree == 0:
        return SplittingField(f.dom, [], [], f, unit, () if f.dom.characteristic else None)
    fact = factor_over_extension(f)
    field, found = _split_factors(fact.factors, cap)
    # a root has its factor's multiplicity, and its degree over the base is
    # its factor's degree: roots sort by that degree, then by coordinates
    ranked = sorted(
        (g.degree, field.sort_key(r), r, mult)
        for (g, mult), roots in zip(fact.factors, found)
        for r in roots
    )
    roots = [r for *_, r, _ in ranked]
    p = field.characteristic
    frobenius = None
    if p:
        index = {key: i for i, (_, key, _, _) in enumerate(ranked)}
        frobenius = root_permutation(index, (field.sort_key(r**p) for r in roots))
    return SplittingField(field, roots, [mult for *_, mult in ranked], f, unit, frobenius)


def closure(start, gens, act):
    """Every point reachable from `start` by act(g, .) for g in `gens`: the
    orbit of `start` under the group they generate (Holt, Eick & O'Brien,
    Handbook of Computational Group Theory, 4.1)."""
    seen, frontier = {start}, [start]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = act(g, x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def root_permutation(index, keys):
    """The root indices `index` gives the images' `keys`; they must be a
    permutation of the roots."""
    perm = tuple(index.get(key, -1) for key in keys)
    if sorted(perm) != list(range(len(index))):
        raise InternalInvariant("the images do not permute the roots")
    return perm


def splitting_field_q(f: Poly, max_degree: int = SPLITTING_DEGREE_CAP) -> SplittingField:
    """The splitting field of a nonzero rational polynomial, as a tower whose
    generators are roots, with all distinct roots listed."""
    if f.dom != QQ:
        raise TypeError("splitting_field_q expects rational coefficients")
    return _build(f, max_degree)


def splitting_field_fp(f: Poly, max_degree: int = SPLITTING_DEGREE_CAP) -> SplittingField:
    """The splitting field of a nonzero polynomial over F_p; the result is
    the field of order p^d with d the lcm of the irreducible factor degrees."""
    if not isinstance(f.dom, PrimeField):
        raise TypeError("splitting_field_fp expects prime-field coefficients")
    return _build(f, max_degree)


def verify_splits(sf: SplittingField) -> bool:
    """Re-multiply the linear factors exactly and check minimality (every
    tower generator is one of the roots)."""
    field = sf.field
    t = Poly.t(field)
    prod = Poly.constant(field, field.coerce(sf.unit))
    for r, m in zip(sf.roots, sf.multiplicities):
        prod = prod * (t - Poly.constant(field, r)) ** m
    root_keys = {field.sort_key(r) for r in sf.roots}
    return prod == sf.source.map_domain(field, field.coerce) and all(
        field.sort_key(g) in root_keys for g in field.generators()
    )
