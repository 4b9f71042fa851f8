"""Classical verdicts on top of the engine: solvability by radicals,
real-root counting, ruler-and-compass impossibility results.

Real roots are counted exactly by Sturm's theorem on the signed remainder
sequence of (f, f'), computed on primitive integer lists (`poly._sturm_ints`)
with no squarefree part, and with signs at +-infinity read off the leading
coefficient and degree parity; no floating point anywhere.  Counting in an
interval divides the sequence by its last element, gcd(f, f'), first.
Solvability is decided by the cheapest sound route: the prime-degree
real-root criterion (giving S_p), the degree <= 4 rule, or an explicit
Galois group within the splitting cap.  Constructibility checks are
one-directional degree criteria: a non-power-of-2 degree refutes
constructibility, a power of 2 only leaves the necessary condition standing.
"""

from __future__ import annotations

from math import isqrt

from .errors import InternalInvariant, InvalidPolygon, NotIrreducible, ZeroPolynomial
from .numbers import QQ, TowerElem, is_prime
from .poly import (
    Poly,
    _positive_primitive,
    _pseudo_divmod,
    _sturm_ints,
    discriminant,
    render,
)
from .factor import FACTOR_DEGREE_CAP, factor_over_extension, is_irreducible_q
from .galois import (
    automorphisms,
    derived_series,
    from_permutations,
    is_solvable,
    isomorphism_type,
    subgroups,
    subgroup_table,
)
from .splitting import SPLITTING_DEGREE_CAP, splitting_field_q
from .tower import adjoin_root

SOLVABLE = "solvable_by_radicals"
NOT_SOLVABLE = "not_solvable_by_radicals"
NOT_CONSTRUCTIBLE = "not_constructible"
NECESSARY_HOLDS = "necessary_condition_holds"


# ---------------------------------------------------------------------------
# Sturm chains
# ---------------------------------------------------------------------------


def _sturm_sequence(f: Poly):
    """`poly._sturm_ints` of f's numerators made primitive: a positive
    multiple of f, of f', and of each signed remainder after them."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    return _sturm_ints(_positive_primitive(list(QQ._concat(f.coeffs)[:-1])))


def sturm_chain(f: Poly):
    """The Sturm chain of a rational polynomial: f, f', then each signed
    remainder -(f_(i-1) mod f_i) up to a positive factor, which keeps all
    its signs.  It ends at gcd(f, f') up to a nonzero factor."""
    seq = _sturm_sequence(f)
    return [f, f.derivative()][: len(seq)] + [Poly(QQ, g) for g in seq[2:]]


def _variations(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_real_roots(f: Poly) -> int:
    """Exact number of distinct real roots: the sign variations of the Sturm
    chain at -infinity less those at +infinity, read off each element's
    leading coefficient and degree parity.  No squarefree part is needed:
    up to positive factors the chain of f is gcd(f, f') times a Sturm chain
    of f / gcd(f, f'), and gcd(f, f') has one sign at each infinity, so it
    moves no variation."""
    seq = _sturm_sequence(f)
    neg = _variations([g[-1] if len(g) % 2 else -g[-1] for g in seq])
    return neg - _variations([g[-1] for g in seq])


def count_real_roots_in(f: Poly, lo, hi) -> int:
    """Distinct real roots in the half-open interval (lo, hi] of rationals
    (ints, `Fraction`s or rational scalars).  At a multiple
    root every element of the chain vanishes, so each is first divided by
    the last one, gcd(f, f'): exactly over Z, since both are primitive."""
    seq = _sturm_sequence(f)
    if len(seq[-1]) > 1:
        seq = [_pseudo_divmod(g, seq[-1], exact=True)[0] for g in seq]
    chain = [Poly(QQ, g) for g in seq]
    return _variations([g.eval(lo) for g in chain]) - _variations([g.eval(hi) for g in chain])


# ---------------------------------------------------------------------------
# solvability by radicals
# ---------------------------------------------------------------------------


class SolvabilityVerdict:
    __slots__ = ("polynomial", "verdict", "evidence_kind", "evidence")

    def __init__(self, polynomial: Poly, verdict: str, evidence_kind: str, evidence: dict):
        self.polynomial = polynomial
        self.verdict = verdict
        self.evidence_kind = evidence_kind  # "sp_criterion" | "degree_rule" | "group_computed"
        self.evidence = evidence

    @property
    def solvable(self) -> bool:
        return self.verdict == SOLVABLE

    def to_json(self):
        return {
            "input": render(self.polynomial),
            "verdict": self.verdict,
            "evidence_kind": self.evidence_kind,
            "evidence_data": self.evidence,
            "axioms": [],
        }


def sp_criterion(f: Poly, max_degree: int = FACTOR_DEGREE_CAP):
    """Some(p) iff deg f = p is prime, f is irreducible over Q, and f has
    exactly p - 2 distinct real roots; then Gal(f) = S_p.  `max_degree`
    caps the factorization that irreducibility may need."""
    if f.is_zero() or f.degree < 2:
        return None
    p = f.degree
    if not is_prime(p):
        return None
    if not is_irreducible_q(f, max_degree=max_degree).irreducible:
        return None
    if count_real_roots(f) != p - 2:
        return None
    return p


def solvable_by_radicals(
    f: Poly, max_degree: int = SPLITTING_DEGREE_CAP
) -> SolvabilityVerdict:
    """Solvability verdict with re-checkable evidence.

    Route 1: degree <= 4 is always solvable (the group embeds in S_4).
    Route 2: the S_p criterion, here with p >= 5, refutes solvability
    outright; its irreducibility test factors up to the larger of
    `FACTOR_DEGREE_CAP` and the cap.  Route 3: build the Galois group within
    the cap and test its derived series.  DegreeCap propagates when no route
    applies."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    if f.degree <= 4:
        return SolvabilityVerdict(
            f,
            SOLVABLE,
            "degree_rule",
            {"degree": f.degree, "reason": "group embeds in the solvable S4"},
        )
    p = sp_criterion(f, max(FACTOR_DEGREE_CAP, max_degree))
    if p is not None:
        return SolvabilityVerdict(
            f,
            NOT_SOLVABLE,
            "sp_criterion",
            {"prime": p, "real_roots": p - 2, "group": f"S{p}"},
        )
    sf = splitting_field_q(f, max_degree=max_degree)
    G = automorphisms(sf)
    series = [s.order for s in derived_series(G)]
    solvable = series[-1] == 1
    return SolvabilityVerdict(
        f,
        SOLVABLE if solvable else NOT_SOLVABLE,
        "group_computed",
        {
            "group_order": G.order,
            "group_type": isomorphism_type(G),
            "derived_series_orders": series,
        },
    )


def kummer_abelian_checks():
    """Abelian-Galois-group checks for t^n - 1 (n <= 12) and, over the field
    generated by the relevant roots of unity, for t^n - a with (n, a) in
    (2, 2), (3, 2), (4, 3)."""
    report = {"roots_of_unity": [], "binomials": []}
    for n in range(2, 13):
        f = Poly(QQ, [-1] + [0] * (n - 1) + [1])
        G = automorphisms(splitting_field_q(f))
        report["roots_of_unity"].append(
            {"n": n, "order": G.order, "abelian": G.is_abelian()}
        )
    from .correspondence import gal_over, subfield_generated_by

    for n, a in ((2, 2), (3, 2), (4, 3)):
        f = Poly(QQ, [-a] + [0] * (n - 1) + [1])
        sf = splitting_field_q(f)
        G = automorphisms(sf)
        nonzero = [r for r in sf.roots if r]
        base_root = nonzero[0]
        ratios = [r / base_root for r in nonzero]
        L = subfield_generated_by(sf, ratios)
        H = gal_over(L, G)
        table = subgroup_table(G, H)
        report["binomials"].append(
            {
                "n": n,
                "a": a,
                "order_over_unity_field": H.order,
                "abelian": table.is_abelian(),
            }
        )
    return report


# ---------------------------------------------------------------------------
# ruler and compass
# ---------------------------------------------------------------------------


class ConstructibilityVerdict:
    __slots__ = ("target", "degree", "verdict")

    def __init__(self, target: str, degree: int, verdict: str):
        self.target = target
        self.degree = degree
        self.verdict = verdict

    def to_json(self):
        return {"target": self.target, "degree": self.degree, "verdict": self.verdict}


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def constructible_degree_check(
    m: Poly, target: str = "", max_degree: int = FACTOR_DEGREE_CAP
) -> ConstructibilityVerdict:
    """Degree criterion: a constructible coordinate has degree a power of 2
    over Q, so any other degree refutes constructibility (one direction
    only: a power of 2 proves nothing).  `max_degree` caps the
    factorization that the irreducibility of m may need."""
    cert = is_irreducible_q(m, max_degree=max_degree)
    if not cert.irreducible:
        raise NotIrreducible("the minimal polynomial must be irreducible")
    verdict = NECESSARY_HOLDS if _is_power_of_two(m.degree) else NOT_CONSTRUCTIBLE
    return ConstructibilityVerdict(target or render(m), m.degree, verdict)


def ngon_constructible(n: int) -> bool:
    """Gauss-Wantzel rule: the regular n-gon is constructible iff the odd
    part m of n is a product of distinct Fermat primes.  Fermat numbers
    F_k = 2^(2^k) + 1 are pairwise coprime, so every Fermat prime dividing m
    is an F_k <= m that divides it, and a composite F_k dividing m brings a
    prime that is no Fermat prime; no factoring is needed."""
    if n < 3:
        raise InvalidPolygon(f"a polygon needs at least 3 vertices, got {n}")
    m, k = n // (n & -n), 0
    while (f := (1 << (1 << k)) + 1) <= m:
        if m % f == 0:
            if not is_prime(f):
                return False
            m //= f
            if m % f == 0:
                return False
        k += 1
    return m == 1


def trisection_min_poly() -> Poly:
    """Minimal polynomial of cos(pi/9): t^3 - (3/4) t - 1/8, from the triple
    angle identity with cos(pi/3) = 1/2."""
    return Poly(QQ, [TowerElem(QQ, (-1, 8)), TowerElem(QQ, (-3, 4)), 0, 1])


def classic_problems():
    """The three ancient impossibility verdicts."""
    duplication = constructible_degree_check(
        Poly(QQ, [-2, 0, 0, 1]), target="duplicate the cube (cbrt 2)"
    )
    trisection = constructible_degree_check(
        trisection_min_poly(), target="trisect 60 degrees (cos(pi/9))"
    )
    return {
        "duplicate_cube": duplication.to_json(),
        "trisect_angle": trisection.to_json(),
        "square_circle": {
            "target": "square the circle (sqrt pi)",
            "verdict": NOT_CONSTRUCTIBLE,
            "axioms": ["pi is transcendental over Q (recorded axiom, not computed)"],
        },
        "axioms": ["pi is transcendental over Q"],
    }


# ---------------------------------------------------------------------------
# stretch: a quintic with group A5, without building the degree-60 tower
# ---------------------------------------------------------------------------


def _is_rational_square(x) -> bool:
    n, d = QQ.coerce(x).v
    if n < 0:
        return False
    rn, rd = isqrt(n), isqrt(d)
    return rn * rn == n and rd * rd == d


def quintic_a5_certificate(f: Poly):
    """For an irreducible quintic with square discriminant whose stem-field
    quartic cofactor stays irreducible: Gal(f) has order 60, acts
    transitively, and is A5 (hence not solvable).

    The order argument: [Q(r1, r2) : Q] = 20 divides |Gal|, |Gal| divides
    120, and a square discriminant forces Gal inside A5, whose subgroup
    orders (computed from its table) do not include 20 -- so |Gal| = 60.
    """
    if f.degree != 5:
        raise ValueError("this certificate is for quintics")
    cert = is_irreducible_q(f)
    if not cert.irreducible:
        raise NotIrreducible("quintic must be irreducible")
    disc = discriminant(f)
    if not _is_rational_square(disc):
        return None
    T1, r1 = adjoin_root(QQ, f.monic(), "a", certify=False)
    lifted = f.monic().map_domain(T1, T1.coerce)
    t = Poly.t(T1)
    quartic = lifted.exact_div(t - Poly.constant(T1, r1))
    fact = factor_over_extension(quartic)
    if not fact.is_irreducible():
        return None
    # |Gal| is divisible by [Q(r1, r2):Q] = 20 and lies inside A5
    a5, _ = from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2), (1, 0, 3, 2, 4)])
    a5_orders = sorted({h.order for h in subgroups(a5)})
    if 20 in a5_orders:
        raise InternalInvariant("A5 has a subgroup of order 20")
    return {
        "order": 60,
        "type": "A5",
        "transitive": True,
        "solvable": is_solvable(a5),
        "discriminant": str(disc),
        "a5_subgroup_orders": a5_orders,
    }
