"""Splitting fields as explicit towers with all roots attached.

The construction is the classic induction: factor the polynomial over the
tower built so far, adjoin a root of the lowest-degree nonlinear irreducible
factor, and repeat until everything splits.  Each tower generator is by
construction one of the stored roots, which is what the automorphism
enumeration in `galoiskit.galois` relies on.

Before paying for a factorization over the extension, a cheap pre-pass hunts
for roots among products, ratios and powers of roots already found
(computed around the depressed-form center, so shifted binomials like
(t - c)^n + a are caught).  In characteristic p the conjugates alpha^q,
alpha^(q^2), ... of each adjoined root alpha (q the order of the coefficient
field) are divided out the same way.  One synthetic-division pass gives
both rem div (t - c) and rem(c), and a hit is certified by a zero remainder,
so this is purely a shortcut.  Roots are then matched to the irreducible
factors over the base.  Over F_p that reads the cycles of the permutation
x -> x^p makes of the roots, computed here once and kept for the Galois
group as `SplittingField.frobenius`.
"""

from __future__ import annotations

from .errors import DegreeCap, InternalInvariant, ZeroPolynomial
from .numbers import QQ, PrimeField
from .poly import Poly
from .factor import factor_over_extension, field_order
from .tower import adjoin_root

SPLITTING_DEGREE_CAP = 24
_LABELS = "abcdefghijkl"


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


def _candidate_roots(field, roots, center):
    """Cheap candidate roots: negations, pairwise products/ratios and small
    power combinations of the roots found so far, formed around `center`."""
    c = field.coerce(center)
    shifted = [r - c for r in roots]
    cands = []
    for s in shifted:
        cands.append(-s)
        cands.append(s * s)
    nonzero = [s for s in shifted if s]
    # one tower inversion per root, not per pair; none when there is no pair
    invs = [s.inv() for s in nonzero] if len(nonzero) > 1 else []
    for i, si in enumerate(nonzero):
        for j, sj in enumerate(nonzero):
            if i == j:
                continue
            cands.append(si * sj)
            cands.append(si * invs[j])
            cands.append(si * si * invs[j])
    return list(dict.fromkeys(s + c for s in cands))  # distinct, in order


def _synthetic_division(f: Poly, c):
    """(f div (t - c), f(c)) for deg f >= 1 by one synthetic-division pass:
    Horner's running values are the quotient's coefficients, then f(c)."""
    run = [f.coeffs[-1]]
    for a in reversed(f.coeffs[:-1]):
        run.append(a + c * run[-1])
    return Poly(f.dom, run[-2::-1], normalize=False), run[-1]


def _split_squarefree(sq: Poly, cap: int, factors):
    """Split a squarefree polynomial whose factorization over its domain has
    the `factors`; returns (field, roots in found order)."""
    current = base = sq.dom
    rem = sq.monic()
    roots = []
    level = 0
    # x -> x^order fixes sq's coefficients (order 0 over Q), so permutes roots
    order = field_order(base)

    def take(c) -> bool:  # divide out t - c and record the root c if rem(c) = 0
        nonlocal rem
        quot, value = _synthetic_division(rem, c)
        if value:
            return False
        rem = quot
        roots.append(c)
        return True

    # depressed-form center: pre-pass combinations are formed around it
    if base == QQ and sq.degree >= 1:
        center = -sq.coeff(sq.degree - 1) / (QQ.from_int(sq.degree) * sq.lc())
    else:
        center = base.zero()

    while rem.degree > 0:
        if rem.degree == 1:
            roots.append(-rem.coeff(0) / rem.coeff(1))
            break

        # candidate pre-pass over the current field
        if current.characteristic == 0:
            while rem.degree > 1 and any(take(c) for c in _candidate_roots(current, roots, center)):
                pass
            if rem.degree == 1:
                continue

        # any nonlinear adjunction at least doubles the degree, so bail out
        # before paying for a factorization that cannot be used; the first
        # round holds the base factorization and bails only if it must adjoin
        if (
            rem.degree >= 2
            and current.characteristic == 0
            and 2 * current.absolute_degree() > cap
            and (factors is None or any(g.degree > 1 for g, _ in factors))
        ):
            raise DegreeCap(
                f"splitting degree would exceed cap {cap}", partial=current
            )

        nonlinear = []
        for g, _ in factors or factor_over_extension(rem).factors:
            if g.degree > 1:
                nonlinear.append(g)
            elif not take(-g.coeff(0)):
                raise InternalInvariant("division is not exact")
        factors = None  # the base factors serve the first round only
        if not nonlinear:
            continue

        g = min(nonlinear, key=lambda h: h.sort_key())
        new_degree = current.absolute_degree() * g.degree
        if new_degree > cap:
            raise DegreeCap(
                f"splitting degree would reach {new_degree} > cap {cap}",
                partial=current,
            )
        label = _LABELS[level] if level < len(_LABELS) else f"g{level}"
        level += 1
        current, alpha = adjoin_root(current, g, label, certify=False)
        roots = [current.coerce(r) for r in roots]
        rem = rem.map_domain(current, current.coerce)
        if not take(alpha):
            raise InternalInvariant("division is not exact")
        center = current.coerce(center)

        # Frobenius pre-pass: alpha's conjugates are roots of sq, and none of
        # them lies in the previous field
        if order:
            c = alpha**order
            while c != alpha:
                take(c)
                c = c**order

    return current, roots


def _build(f: Poly, cap: int) -> SplittingField:
    if f.is_zero():
        raise ZeroPolynomial("splitting field of the zero polynomial")
    unit = f.lc()
    if f.degree == 0:
        return SplittingField(f.dom, [], [], f, unit, () if f.dom.characteristic else None)
    fact = factor_over_extension(f)
    sq = Poly.one(f.dom)
    for g, _ in fact.factors:
        sq = sq * g
    field, roots = _split_squarefree(sq, cap, fact.factors)
    # multiplicity of a root = multiplicity of its irreducible factor; roots
    # sort by that factor's degree (= the root's degree over the base), then
    # by coordinates.  The factors are distinct separable irreducibles, so a
    # factor of degree d owns exactly d roots and is not tested once it has
    # them.  Over F_p they are one cycle of the step x -> x^p (over Q the
    # step is the identity), which goes whole to the one unmatched factor of
    # the cycle's size that vanishes at one of them
    lifted = [[g.map_domain(field, field.coerce), mult, g.degree] for g, mult in fact.factors]
    p = field.characteristic
    index = {field.sort_key(r): i for i, r in enumerate(roots)}
    step = root_permutation(index, (field.sort_key(r**p if p else r) for r in roots))
    owner = [None] * len(roots)
    for i, r in enumerate(roots):
        if owner[i]:
            continue
        orbit = [i]
        while step[orbit[-1]] != i:
            orbit.append(step[orbit[-1]])
        for entry in lifted:
            g, _, missing = entry
            if missing and (not p or g.degree == len(orbit)) and not g.eval(r):
                entry[2] -= len(orbit)
                break
        else:
            raise ZeroPolynomial("root does not belong to any factor")
        for j in orbit:
            owner[j] = entry
    order = sorted(range(len(roots)), key=lambda i: (owner[i][0].degree, field.sort_key(roots[i])))
    place = {i: k for k, i in enumerate(order)}  # step, re-indexed to the canonical order
    frobenius = tuple(place[step[i]] for i in order) if p else None
    return SplittingField(field, [roots[i] for i in order], [owner[i][1] for i in order], f, unit, frobenius)


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
