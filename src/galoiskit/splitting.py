"""Splitting fields as explicit towers with all roots attached.

The construction is the classic induction: factor the polynomial over the
tower built so far, adjoin a root of the lowest-degree nonlinear irreducible
factor, and repeat until everything splits.  Each tower generator is by
construction one of the stored roots, which is what the automorphism
enumeration in `galoiskit.galois` relies on.

Before paying for a factorization over the extension, a cheap evaluation
pre-pass hunts for roots among products, ratios and powers of roots already
found (computed around the depressed-form center, so shifted binomials like
(t - c)^n + a are caught).  In characteristic p the conjugates alpha^q,
alpha^(q^2), ... of each adjoined root alpha (q the order of the coefficient
field) are divided out the same way.  Any hit is certified by evaluation, so
this is purely a shortcut; the factor-and-adjoin loop is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegreeCap, ZeroPolynomial
from .numbers import QQ, PrimeField
from .poly import Poly
from .factor import factor_over_extension, field_order
from .tower import adjoin_root

SPLITTING_DEGREE_CAP = 24
_LABELS = "abcdefghijkl"


@dataclass
class SplittingField:
    field: object  # base field or Tower
    roots: list  # distinct roots, canonical order
    multiplicities: list
    source: Poly
    unit: object

    def degree(self) -> int:
        return self.field.absolute_degree()

    def root_min_polys(self):
        return [self.field.min_poly_over_base(r) for r in self.roots]

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
    seen = set()
    out = []
    for s in cands:
        v = s + c
        key = field.sort_key(v)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def _split_squarefree(sq: Poly, cap: int):
    """Split a squarefree polynomial; returns (field, roots in found order)."""
    current = base = sq.dom
    rem = sq.monic()
    roots = []
    level = 0
    # x -> x^order fixes sq's coefficients (order 0 over Q), so permutes roots
    order = field_order(base)

    # depressed-form center: pre-pass combinations are formed around it
    if base == QQ and sq.degree >= 1:
        center = -sq.coeff(sq.degree - 1) / (QQ.from_int(sq.degree) * sq.lc())
    else:
        center = base.zero()

    while rem.degree > 0:
        if rem.degree == 1:
            roots.append(-rem.coeff(0) / rem.coeff(1))
            break

        # evaluation pre-pass over the current field
        if current.characteristic == 0:
            progress = True
            while progress and rem.degree > 0:
                progress = False
                if rem.degree == 1:
                    roots.append(-rem.coeff(0) / rem.coeff(1))
                    rem = Poly.one(current)
                    break
                for cand in _candidate_roots(current, roots, center):
                    if not rem.eval(cand):
                        t = Poly.t(current)
                        rem = rem.exact_div(t - Poly.constant(current, cand))
                        roots.append(cand)
                        progress = True
                        break
        if rem.degree == 0:
            break

        # any nonlinear adjunction at least doubles the degree, so bail out
        # before paying for a factorization that cannot be used
        if (
            rem.degree >= 2
            and current.characteristic == 0
            and 2 * current.absolute_degree() > cap
        ):
            raise DegreeCap(
                f"splitting degree would exceed cap {cap}", partial=current
            )

        nonlinear = []
        for g, _ in factor_over_extension(rem).factors:
            if g.degree == 1:
                roots.append(-g.coeff(0))
                rem = rem.exact_div(g)
            else:
                nonlinear.append(g)
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
        t = Poly.t(current)
        rem = rem.exact_div(t - Poly.constant(current, alpha))
        roots.append(alpha)
        center = current.coerce(center)

        # Frobenius pre-pass: alpha's conjugates are roots of sq, and none of
        # them lies in the previous field; each hit is certified by evaluation
        if order:
            c = alpha**order
            while c != alpha:
                if not rem.eval(c):
                    rem = rem.exact_div(t - Poly.constant(current, c))
                    roots.append(c)
                c = c**order

    return current, roots


def _build(f: Poly, cap: int) -> SplittingField:
    if f.is_zero():
        raise ZeroPolynomial("splitting field of the zero polynomial")
    unit = f.lc()
    if f.degree == 0:
        return SplittingField(f.dom, [], [], f, unit)
    fact = factor_over_extension(f)
    sq = Poly.one(f.dom)
    for g, _ in fact.factors:
        sq = sq * g
    field, roots = _split_squarefree(sq, cap)
    # multiplicity of a root = multiplicity of its irreducible factor; roots
    # sort by that factor's degree (= the root's degree over the base), then
    # by coordinates.  The factors are distinct separable irreducibles, so a
    # factor of degree d owns exactly d roots and is not tested once it has them
    lifted = [[g.map_domain(field, field.coerce), mult, g.degree] for g, mult in fact.factors]
    mults, keys = [], []
    for r in roots:
        for entry in lifted:
            g_up, mult, missing = entry
            if missing and not g_up.eval(r):
                entry[2] -= 1
                break
        else:
            raise ZeroPolynomial("root does not belong to any factor")
        mults.append(mult)
        keys.append((g_up.degree, field.sort_key(r)))
    order = sorted(range(len(roots)), key=keys.__getitem__)
    roots = [roots[i] for i in order]
    mults = [mults[i] for i in order]
    return SplittingField(field, roots, mults, f, unit)


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
