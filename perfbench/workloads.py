"""The benchmark's inputs, drawn from a seed.

A query is a dict with an ``id``, a ``kind`` that tells the worker how to
ask it (``cli``: argv for ``galoiskit --json``; ``sturm``: a polynomial for
``count_real_roots``; ``ladder``: a polynomial for the Galois-group chain),
``args``, and ``expect``: what the construction guarantees about the answer.
Nothing here imports galoiskit; the expectations come from how each input
was built.

Every workload repeats a fixed list of query *shapes* (kind, degrees,
prime), and the seed fills in the coefficients and the order.  The cost of
a run then depends on the shapes, not on the luck of the draw.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracle

WORKLOADS = ("verdicts", "galois_ladder", "correspondence", "ff_structure")

# --seconds buys round(seconds / ROUND_S) rounds, at least one, so that a
# run lasts about --seconds on the reference machine (ff_structure's gf
# shapes are asked once per run and are counted in its ROUND_S).
# galois_ladder and correspondence are fixed lists asked once, since a
# second pass would repeat queries.
ROUND_S = {"verdicts": 0.23, "ff_structure": 2.5}

# Wall-clock limit per query, in seconds.
QUERY_LIMIT_S = {"verdicts": 5, "galois_ladder": 20, "correspondence": 15, "ff_structure": 15}


# -- rendering ------------------------------------------------------------


def render(coeffs) -> str:
    """Integer coefficients, lowest first, as parser input: "3*t^2 - t + 5"."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        mag = abs(c)
        mono = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        sign = "-" if c < 0 else "+"
        terms.append(("-" if c < 0 else "") + body if not terms else f"{sign} {body}")
    return " ".join(terms) or "0"


def render_product(factors) -> str:
    """(f1)*(f2)^2 form of a list of (coeffs, multiplicity)."""
    return "*".join(f"({render(f)})" + (f"^{m}" if m > 1 else "") for f, m in factors)


# -- building blocks ------------------------------------------------------


def eisenstein_poly(rng, d, lead_choices=(1,)):
    """An integer polynomial of degree d that is Eisenstein at some prime,
    hence irreducible over Q."""
    p = rng.choice((2, 3, 5, 7))
    lead = rng.choice([c for c in lead_choices if c % p])
    u = rng.choice([u for u in (1, -1, 2, -2, 3, -3) if u % p])
    middle = [p * rng.randint(-2, 2) for _ in range(d - 1)]
    return [p * u] + middle + [lead]


def distinct_eisenstein(rng, degrees, lead_choices=(1,)):
    """Eisenstein polynomials no two of which are associates (scalar multiples)."""
    out, seen = [], set()
    for d in degrees:
        while True:
            f = eisenstein_poly(rng, d, lead_choices)
            monic = tuple(Fraction(c, f[-1]) for c in f)
            if monic not in seen:
                break
        seen.add(monic)
        out.append(f)
    return out


def random_irreducible_fp(rng, p, d, avoid=()):
    """A monic irreducible of degree d over F_p, by rejection with Rabin's test."""
    while True:
        f = [rng.randrange(p) for _ in range(d)] + [1]
        # a root means reducible: a cheap test before Rabin's
        has_root = d > 1 and any(sum(c * pow(x, i, p) for i, c in enumerate(f)) % p == 0 for x in range(p))
        if not has_root and f not in avoid and oracle.rabin_irreducible(f, p):
            return f


# -- verdicts -------------------------------------------------------------

FACTOR_Q_SHAPES = ([1, 2], [2, 3], [4, 4], [3, 3, 3], [2, 5], [1, 1, 4], [6, 5], [2, 2, 2, 2])
FACTOR_FP_SHAPES = ((2, 12), (3, 10), (5, 8), (7, 8), (11, 7), (13, 6), (2, 9), (3, 12))
IRREDUCIBLE_SHAPES = ("eisenstein", "eisenstein", "shifted", "shifted", "mod_p", "rational_root", "rational_root", "no_rational_root")
# (linear factors, t^2 - b factors, t^2 + bt + c factors with no real root)
STURM_SHAPES = ((3, 1, 1), (2, 2, 1), (4, 0, 2), (1, 3, 0), (5, 1, 0), (2, 1, 2))


def _factor_q(rng, degrees):
    lead_choices = (1, 1, 2, 3)
    factors = distinct_eisenstein(rng, degrees, lead_choices)
    mults = [1] * len(factors)
    if sum(degrees) + min(degrees) <= 12 and rng.random() < 0.25:
        mults[degrees.index(min(degrees))] = 2
    pairs = list(zip(factors, mults))
    expanded = oracle.pprod([oracle.ppow(f, m) for f, m in pairs])
    text = render_product(pairs) if rng.random() < 0.5 else render(expanded)
    return {
        "kind": "cli",
        "args": ["factor", text],
        "expect": {"check": "factor_q", "poly": expanded, "shape": sorted(zip(degrees, mults))},
    }


def _factor_fp(rng, p, d):
    f = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
    return {
        "kind": "cli",
        "args": ["--field", f"F{p}", "factor", render(f)],
        "expect": {"check": "factor_fp", "p": p, "poly": f},
    }


def _irreducible(rng, shape):
    if shape == "eisenstein":
        f = eisenstein_poly(rng, rng.randint(4, 10), (1, 2, 3))
    elif shape == "shifted":
        f = oracle.shift(eisenstein_poly(rng, rng.randint(4, 8)), rng.choice((-2, -1, 1, 2)))
    elif shape == "mod_p":
        p, d = rng.choice((2, 3, 5)), rng.randint(4, 8)
        f = [c + p * rng.randint(-1, 1) for c in random_irreducible_fp(rng, p, d)]
        f[-1] = 1
    elif shape == "rational_root":
        f = oracle.pmul([-rng.randint(-4, 4), 1], eisenstein_poly(rng, rng.randint(3, 8)))
    else:  # reducible with no rational root: no witness is cheap
        f = oracle.pprod(distinct_eisenstein(rng, rng.choice(([2, 3], [3, 4], [2, 2, 3], [4, 5]))))
    return {
        "kind": "cli",
        "args": ["irreducible", render(f)],
        "expect": {"check": "irreducible", "poly": f, "irreducible": shape in ("eisenstein", "shifted", "mod_p")},
    }


def _sturm(rng, n_linear, n_real_quadratic, n_complex_quadratic):
    roots = rng.sample(range(-9, 10), n_linear)
    bs = rng.sample((2, 3, 5, 6, 7, 8, 10, 11, 12), n_real_quadratic)  # no squares
    factors = [[-r, 1] for r in roots] + [[-b, 0, 1] for b in bs]
    for _ in range(n_complex_quadratic):
        b = rng.randint(-2, 2)
        factors.append([b * b + rng.randint(1, 9), b, 1])  # b^2 - 4c < 0
    if roots and rng.random() < 0.5:
        factors.append([-roots[0], 1])  # a repeated root is still counted once
    return {
        "kind": "sturm",
        "args": render(oracle.pprod(factors)),
        "expect": {"check": "sturm", "count": n_linear + 2 * n_real_quadratic},
    }


def _solvable(rng, quintic):
    if not quintic:
        d = rng.randint(2, 4)
        f = [rng.randint(-9, 9) for _ in range(d)] + [rng.choice((1, 2, 3))]
        return {
            "kind": "cli",
            "args": ["solvable", render(f)],
            "expect": {"check": "solvable", "solvable": True},
        }
    # t^5 - A t + B, Eisenstein at q, with 3125 B^4 < 256 A^5: three real
    # roots, so the group is S5 (Gal of an irreducible prime-degree p
    # polynomial with exactly p - 2 real roots is S_p).
    q = rng.choice((2, 3, 5, 7))
    while True:
        b = q * rng.choice([u for u in range(-6, 7) if u % q])
        a = q * rng.randint(1, 8)
        if 3125 * b**4 < 256 * a**5:
            break
    return {
        "kind": "cli",
        "args": ["solvable", render([b, -a, 0, 0, 0, 1])],
        "expect": {"check": "solvable", "solvable": False},
    }


def _construct_degree(rng):
    d = rng.randint(2, 12)
    return {
        "kind": "cli",
        "args": ["construct", "degree", render(eisenstein_poly(rng, d))],
        "expect": {"check": "construct_degree", "degree": d},
    }


def _ngon(rng, constructible):
    if constructible:  # 2^k times distinct Fermat primes, below 10^12
        n = 2 ** rng.randint(0, 20)
        for q in oracle.FERMAT_PRIMES:
            if rng.random() < 0.5 and n * q < 10**12:
                n *= q
        n = n if n >= 3 else 2**21
    else:
        n = rng.randint(3, 10**6)
    return {"kind": "cli", "args": ["construct", "ngon", str(n)], "expect": {"check": "ngon", "n": n}}


# One round of verdicts: each slot draws one query.
VERDICT_SLOTS = (
    [lambda rng, s=s: _factor_q(rng, list(s)) for s in FACTOR_Q_SHAPES]
    + [lambda rng, s=s: _factor_fp(rng, *s) for s in FACTOR_FP_SHAPES]
    + [lambda rng, s=s: _irreducible(rng, s) for s in IRREDUCIBLE_SHAPES]
    + [lambda rng, s=s: _sturm(rng, *s) for s in STURM_SHAPES]
    + [lambda rng, q=q: _solvable(rng, q) for q in (False, False, True, True)]
    + [_construct_degree] * 4
    + [lambda rng, c=c: _ngon(rng, c) for c in (True, True, False, False)]
)


# -- galois_ladder --------------------------------------------------------

# The ROADMAP ladder with each Galois group as the literature gives it.
LADDER = (
    ("t^3 - 2", "S3", True),
    ("t^4 - 2", "D4", True),
    ("(t^2 - 2)*(t^2 - 3)*(t^2 - 5)", "C2 x C2 x C2", False),
    ("t^5 - 5*t + 12", "D5", True),
    ("t^6 - 2", "D6", True),
    ("t^5 - 2", "F20", True),
    ("t^4 - t - 1", "S4", True),
)


def galois_ladder(rng):
    out = [
        {"kind": "ladder", "args": f, "expect": {"check": "ladder", "type": g, "irreducible": irr}}
        for f, g, irr in LADDER
    ]
    rng.shuffle(out)
    return out


# -- correspondence -------------------------------------------------------

# Splitting fields of degree <= 8 with their groups, and each group's
# number of subgroups and of normal subgroups.
SUBGROUP_COUNTS = {
    "C2": (2, 2), "C3": (2, 2), "S3": (6, 3), "C2 x C2": (5, 5),
    "C4": (3, 3), "D4": (10, 6), "C2 x C2 x C2": (16, 16),
}
# Five cheap fields, five S3 fields and five of degree 8, so that the median
# query is an S3 field and not the edge between two groups of costs.
CORRESPONDENCE = (
    ("t^2 - 2", "C2", 2),
    ("t^3 - 3*t + 1", "C3", 3),
    ("(t^2 - 2)*(t^2 - 3)", "C2 x C2", 4),
    ("t^4 - 4*t^2 + 2", "C4", 4),
    ("t^4 + 5*t^2 + 5", "C4", 4),
    ("t^3 - 2", "S3", 6),
    ("t^3 - 3", "S3", 6),
    ("t^3 - 5", "S3", 6),
    ("t^3 - 7", "S3", 6),
    ("t^3 - t - 1", "S3", 6),
    ("t^4 - 2", "D4", 8),
    ("t^4 + 2", "D4", 8),
    ("t^4 - 3", "D4", 8),
    ("(t^2 - 2)*(t^2 - 3)*(t^2 - 5)", "C2 x C2 x C2", 8),
    ("(t^2 + 1)*(t^2 - 2)*(t^2 - 3)", "C2 x C2 x C2", 8),
)


def correspondence(rng):
    out = []
    for f, group, degree in CORRESPONDENCE:
        subs, normal = SUBGROUP_COUNTS[group]
        out.append({
            "kind": "cli",
            "args": ["correspondence", f],
            "expect": {"check": "correspondence", "degree": degree, "subgroups": subs, "normal": normal},
        })
    rng.shuffle(out)
    return out


# -- ff_structure ---------------------------------------------------------

# Field shapes for `gf p n`, all asked in every run in a seeded order: orders
# from 2^5 up to GF(2^20) at the element budget.
GF_SHAPES = (
    (2, 5), (3, 3), (7, 2),
    (2, 10), (5, 4), (31, 2), (4099, 1),
    (2, 14), (3, 9), (5, 6), (127, 2), (16381, 1),
    (2, 20),
)
# (command, p, degrees of the distinct irreducible factors) over F_p; the
# splitting degree is the lcm of the degrees.  Each shape has at least 18
# distinct inputs, and its cost varies by at most 4x with the draw (F_5
# shapes of degrees (2, 4) vary by 10% per run with the draw and were left
# out; F_2
# shapes with a sextic beside a quadratic or cubic factor were left out: a
# few of those sextics take 25x longer than the rest).  Two cheap, two small
# and eight shapes of 0.2-0.5 s, so that the median query falls among many
# of similar cost.
FP_SPLIT_SHAPES = (
    ("splitting-field", 11, (1, 2)), ("splitting-field", 5, (1, 2, 2)),
    ("galois", 7, (3,)), ("galois", 2, (1, 6)),
    ("galois", 2, (8,)), ("galois", 2, (8,)), ("splitting-field", 2, (1, 8)), ("splitting-field", 3, (1, 6)),
    ("galois", 3, (2, 3)), ("galois", 3, (1, 2, 3)), ("splitting-field", 2, (8,)), ("galois", 2, (1, 8)),
)


def _gf(p, n):
    return {"kind": "cli", "args": ["gf", str(p), str(n), "--subfields", "--generator"],
            "expect": {"check": "gf", "p": p, "n": n}}


def _fp_split(rng, command, p, degrees):
    factors = []
    for d in degrees:
        factors.append(random_irreducible_fp(rng, p, d, avoid=factors))
    poly = oracle.pprod(factors, p)
    return {
        "kind": "cli",
        "args": ["--field", f"F{p}", command, render(poly)],
        "expect": {"check": command, "p": p, "poly": poly, "degrees": sorted(degrees)},
    }


# One round of ff_structure beyond the gf shapes.
FF_SLOTS = [lambda rng, s=s: _fp_split(rng, *s) for s in FP_SPLIT_SHAPES]


# -- assembly -------------------------------------------------------------


def build(workload: str, seed: int, seconds: float):
    """The run's queries, in order.  Same (workload, seed, seconds), same queries."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "galois_ladder":
        queries = galois_ladder(rng)
    elif workload == "correspondence":
        queries = correspondence(rng)
    else:
        rounds = max(1, round(seconds / ROUND_S[workload]))
        queries = [_gf(p, n) for p, n in GF_SHAPES] if workload == "ff_structure" else []
        slots = VERDICT_SLOTS if workload == "verdicts" else FF_SLOTS
        seen = set()
        for _ in range(rounds):
            for slot in slots:
                for _ in range(1000):  # no query repeats within a run
                    q = slot(rng)
                    if _key(q) not in seen:
                        break
                else:
                    raise ValueError(f"{workload}: a query shape has too few distinct inputs for {rounds} rounds; use fewer --seconds")
                seen.add(_key(q))
                queries.append(q)
        rng.shuffle(queries)
    for i, q in enumerate(queries):
        q["id"] = f"{workload}-{i}"
    return queries


def _key(q):
    return (q["kind"], str(q["args"]))
