"""Independent checks for the benchmark's answers.

Nothing here imports galoiskit.  Polynomials are coefficient lists, lowest
degree first, over the integers, the rationals or Z/p; permutation groups
are tuples of images.  Every check returns a list of problems, empty when
the answer is right.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import permutations as _perms
from math import gcd

FERMAT_PRIMES = (3, 5, 17, 257, 65537)


# -- integers -------------------------------------------------------------


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1 by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def ngon_rule(n: int) -> bool:
    """Gauss-Wantzel: the odd part of n is a product of distinct Fermat primes."""
    while n % 2 == 0:
        n //= 2
    for q in FERMAT_PRIMES:
        if n % q == 0:
            n //= q
    return n == 1


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def lcm(values) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


# -- dense polynomials ----------------------------------------------------


def trim(a, p=None):
    a = [c % p for c in a] if p else list(a)
    while a and not a[-1]:
        a.pop()
    return a


def pmul(a, b, p=None):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out, p)


def pprod(factors, p=None):
    out = [1]
    for f in factors:
        out = pmul(out, f, p)
    return out


def ppow(a, e, p=None):
    out = [1]
    for _ in range(e):
        out = pmul(out, a, p)
    return out


def padd(a, b, p=None):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)], p)


def shift(f, c):
    """f(t + c), by Horner's rule."""
    out = []
    for k in range(len(f) - 1, -1, -1):
        out = padd(pmul(out, [c, 1]), [f[k]])
    return out


def pmod(a, m, p):
    """a mod m over Z/p, m nonzero."""
    a = trim(a, p)
    inv = pow(m[-1], -1, p)
    while len(a) >= len(m):
        c = a[-1] * inv % p
        shift = len(a) - len(m)
        for i, mc in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mc) % p
        a = trim(a)
    return a


def pgcd(a, b, p):
    a, b = trim(a, p), trim(b, p)
    while b:
        a, b = b, pmod(a, b, p)
    return a


def mulmod(a, b, m, p):
    return pmod(pmul(a, b), m, p)


def powmod(a, e, m, p):
    out, base = [1], pmod(a, m, p)
    while e:
        if e & 1:
            out = mulmod(out, base, m, p)
        base = mulmod(base, base, m, p)
        e >>= 1
    return pmod(out, m, p)


def rabin_irreducible(f, p) -> bool:
    """Rabin's test: f of degree n is irreducible over F_p iff
    t^(p^n) = t mod f and gcd(t^(p^(n/q)) - t, f) = 1 for every prime q | n."""
    f = trim(f, p)
    n = len(f) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    frob = [[0, 1]]  # frob[k] = t^(p^k) mod f
    for _ in range(n):
        frob.append(powmod(frob[-1], p, f, p))
    if padd(frob[n], [0, -1], p) != []:
        return False
    return all(len(pgcd(padd(frob[n // q], [0, -1], p), f, p)) == 1 for q in prime_factors(n))


def multiplicative_order_is(g, m, p, order) -> bool:
    """g^order = 1 in F_p[t]/(m), and g^(order/q) != 1 for each prime q | order."""
    if powmod(g, order, m, p) != [1]:
        return False
    return all(powmod(g, order // q, m, p) != [1] for q in prime_factors(order))


# -- the program's text forms ---------------------------------------------

_TERM = re.compile(r"^(?:(?P<c>\d+(?:/\d+)?)(?:\*(?=[a-z])|$))?(?:(?P<v>[a-z])(?:\^(?P<e>\d+))?)?$")


def parse_poly(text: str, var: str = "t"):
    """Coefficient list of a rendered polynomial such as "t^3 - 1/2*t + 5".
    Coefficients are int or Fraction.  Raises ValueError on anything else."""
    text = text.strip()
    if text == "0":
        return []
    if text.startswith("-"):
        text = "- " + text[1:]
    else:
        text = "+ " + text
    parts = text.split(" ")
    if len(parts) % 2:
        raise ValueError(f"malformed polynomial {text!r}")
    coeffs: dict[int, Fraction] = {}
    for sign, term in zip(parts[::2], parts[1::2]):
        m = _TERM.match(term)
        if sign not in "+-" or not m or (m["c"] is None and m["v"] is None):
            raise ValueError(f"malformed term {term!r}")
        if m["v"] is not None and m["v"] != var:
            raise ValueError(f"unexpected variable in {term!r}")
        c = Fraction(m["c"]) if m["c"] else Fraction(1)
        e = 0 if m["v"] is None else int(m["e"] or 1)
        if e in coeffs:
            raise ValueError(f"repeated degree {e}")
        coeffs[e] = -c if sign == "-" else c
    out = [coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)]
    out = [int(c) if c.denominator == 1 else c for c in out]
    return trim(out)


def parse_cycles(text: str, n: int) -> tuple:
    """Permutation of 0..n-1 from 1-based cycle notation; "()" is the identity."""
    perm = list(range(n))
    for cyc in re.findall(r"\(([^()]*)\)", text):
        pts = [int(x) - 1 for x in cyc.split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            perm[a] = b
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation: {text!r}")
    return tuple(perm)


# -- permutation groups ---------------------------------------------------


def compose(a, b):
    """Apply a, then b."""
    return tuple(b[x] for x in a)


def group_problems(perms) -> list[str]:
    """Group axioms on a list of permutations: distinct, identity present,
    closed under composition and inverses."""
    elems = set(perms)
    n = len(perms[0])
    problems = []
    if len(elems) != len(perms):
        problems.append("repeated group elements")
    if tuple(range(n)) not in elems:
        problems.append("no identity")
    if any(compose(a, b) not in elems for a in elems for b in elems):
        problems.append("not closed under composition")
    if any(inverse(a) not in elems for a in elems):
        problems.append("not closed under inverses")
    return problems


def table_problems(table, perms) -> list[str]:
    """The composition table is a group table with identity 0 that agrees
    with composing the listed permutations (in one of the two conventions)."""
    k = len(perms)
    idx = {g: i for i, g in enumerate(perms)}
    if len(table) != k or any(sorted(row) != list(range(k)) for row in table):
        return ["composition table is not a Latin square"]
    if table[0] != list(range(k)) or [row[0] for row in table] != list(range(k)):
        return ["element 0 is not the table's identity"]
    conventions = (
        lambda i, j: idx.get(compose(perms[j], perms[i])),
        lambda i, j: idx.get(compose(perms[i], perms[j])),
    )
    if not any(all(table[i][j] == op(i, j) for i in range(k) for j in range(k)) for op in conventions):
        return ["composition table disagrees with the permutations"]
    return []


def element_orders(perms) -> list[int]:
    ident = tuple(range(len(perms[0])))
    out = []
    for g in perms:
        x, k = g, 1
        while x != ident:
            x, k = compose(x, g), k + 1
        out.append(k)
    return sorted(out)


def orbit_sizes(perms) -> list[int]:
    n = len(perms[0])
    seen, sizes = set(), []
    for start in range(n):
        if start in seen:
            continue
        orbit = {g[start] for g in perms}
        seen |= orbit
        sizes.append(len(orbit))
    return sorted(sizes)


def inverse(a):
    return tuple(sorted(range(len(a)), key=a.__getitem__))


def derived_orders(perms) -> list[int]:
    """Orders along G >= G' >= G'' ... computed from the permutations."""
    current = set(perms)
    orders = [len(current)]
    while len(current) > 1:
        comms = {compose(compose(compose(a, b), inverse(a)), inverse(b)) for a in current for b in current}
        nxt = set(closure_of(list(comms)))
        if len(nxt) == len(current):
            break
        current = nxt
        orders.append(len(current))
    return orders


def dihedral(n: int):
    """D_n acting on n points."""
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    return [rot, ref]


def closure_of(gens):
    n = len(gens[0])
    group, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in group:
                    group.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(group)


def _affine(p):
    """The Frobenius group F_{p(p-1)}: t -> a t + b on Z/p."""
    gens = [tuple((i + 1) % p for i in range(p))]
    g = next(a for a in range(2, p) if len({pow(a, k, p) for k in range(p - 1)}) == p - 1) if p > 2 else 1
    gens.append(tuple(g * i % p for i in range(p)))
    return gens


def _cyclic(n):
    return [tuple((i + 1) % n for i in range(n))]


def _product(*factors):
    """Direct product of permutation groups given by generators, on disjoint points."""
    gens, offset, total = [], 0, sum(len(f[0]) for f in factors)
    for f in factors:
        k = len(f[0])
        for g in f:
            perm = list(range(total))
            for i in range(k):
                perm[offset + i] = offset + g[i]
            gens.append(tuple(perm))
        offset += k
    return gens


# Reference permutation groups for the named types, built from generators by
# the textbook constructions; their element-order multisets identify the
# groups of the benchmark's orders (each is determined among groups of its
# order by that multiset).
REFERENCE_GROUPS = {
    "C2 x C2 x C2": lambda: closure_of(_product(_cyclic(2), _cyclic(2), _cyclic(2))),
    "S3": lambda: [tuple(p) for p in _perms(range(3))],
    "D4": lambda: closure_of(dihedral(4)),
    "D5": lambda: closure_of(dihedral(5)),
    "D6": lambda: closure_of(dihedral(6)),
    "F20": lambda: closure_of(_affine(5)),
    "S4": lambda: [tuple(p) for p in _perms(range(4))],
}

# Names the program may print for each type besides the honest
# "unidentified ... of order n".
TYPE_ALIASES = {
    "C2 x C2 x C2": {"C2 x C2 x C2", "C2^3", "C2 x C2 x C2 (elementary abelian)"},
    "D5": {"D5", "D10"},
    "D6": {"D6", "D12"},
    "F20": {"F20", "F5", "AGL(1,5)"},
}


def group_type_problems(name: str, printed_type: str, perms) -> list[str]:
    """The permutations form a group of the named type (compared by order
    and element-order multiset with the reference group), and the printed
    type is that name, an alias of it, or an honest 'unidentified'."""
    ref = REFERENCE_GROUPS[name]()
    problems = []
    if len(perms) != len(ref) or element_orders(perms) != element_orders(ref):
        problems.append(f"group is not of type {name}")
    allowed = TYPE_ALIASES.get(name, {name})
    honest = printed_type.startswith("unidentified") and printed_type.endswith(f"order {len(ref)}")
    if printed_type not in allowed and not honest:
        problems.append(f"type printed as {printed_type!r}, expected {name}")
    return problems
