"""Check each answer against what its input's construction guarantees.

``problems(expect, answer)`` returns a list of what is wrong with one
answer, empty when it is right.  Only oracle.py's own arithmetic is used.
"""

from __future__ import annotations

from fractions import Fraction

import oracle

VERDICT_IRREDUCIBLE = "irreducible"
SOLVABLE = "solvable_by_radicals"
NOT_SOLVABLE = "not_solvable_by_radicals"
NOT_CONSTRUCTIBLE = "not_constructible"
NECESSARY_HOLDS = "necessary_condition_holds"


def _factor_pairs(answer, p=None):
    return [(oracle.trim(oracle.parse_poly(f["poly"]), p), f["multiplicity"]) for f in answer["factors"]]


def _expand(unit, pairs, p=None):
    return oracle.trim(oracle.pmul([unit], oracle.pprod([oracle.ppow(f, m, p) for f, m in pairs], p), p), p)


def factor_q(expect, answer):
    pairs = _factor_pairs(answer)
    out = []
    if _expand(Fraction(answer["unit"]), pairs) != expect["poly"]:
        out.append("factors do not multiply back to the input")
    # The input's irreducible factors have this degree/multiplicity multiset;
    # a factorization with the same multiset that multiplies back is it.
    if sorted((len(f) - 1, m) for f, m in pairs) != expect["shape"]:
        out.append(f"factor degrees {[(len(f) - 1, m) for f, m in pairs]}, built from {expect['shape']}")
    return out


def factor_fp(expect, answer):
    p = expect["p"]
    pairs = _factor_pairs(answer, p)
    out = []
    if _expand(int(answer["unit"]), pairs, p) != oracle.trim(expect["poly"], p):
        out.append("factors do not multiply back to the input mod p")
    if any(f[-1] != 1 or not oracle.rabin_irreducible(f, p) for f, _ in pairs):
        out.append("a factor is not monic irreducible (Rabin)")
    if len({tuple(f) for f, _ in pairs}) != len(pairs):
        out.append("repeated factor")
    return out


def _eval(f, x):
    out = Fraction(0)
    for c in reversed(f):
        out = out * x + c
    return out


def irreducible(expect, answer):
    f = expect["poly"]
    got = answer["verdict"] == VERDICT_IRREDUCIBLE
    if got != expect["irreducible"]:
        return [f"verdict {answer['verdict']}, but the input was built {'ir' * expect['irreducible']}reducible"]
    kind, data = answer["witness_kind"], answer["witness_data"]
    if kind == "eisenstein":
        p, g = data["prime"], oracle.shift(f, data["shift"])
        ok = g[-1] % p and all(c % p == 0 for c in g[:-1]) and g[0] % (p * p)
    elif kind == "mod_p":
        p = data["prime"]
        ok = f[-1] % p and oracle.rabin_irreducible(f, p)
    elif kind == "rational_root":
        ok = _eval(f, Fraction(data["root"])) == 0
    elif kind == "low_degree":
        ok = data["degree"] == len(f) - 1 <= 3
    elif kind == "full_factorization":
        ok = not factor_q({"poly": f, "shape": _shape(data["factorization"])}, data["factorization"])
    else:
        ok = False
    return [] if ok else [f"witness {kind} {data} does not hold"]


def _shape(factorization):
    return sorted((len(oracle.parse_poly(g["poly"])) - 1, g["multiplicity"]) for g in factorization["factors"])


def sturm(expect, answer):
    return [] if answer == expect["count"] else [f"{answer} real roots, built with {expect['count']}"]


def solvable(expect, answer):
    want = SOLVABLE if expect["solvable"] else NOT_SOLVABLE
    if answer["verdict"] != want:
        return [f"verdict {answer['verdict']}, expected {want}"]
    if not expect["solvable"]:
        ev = answer["evidence_data"]
        if answer["evidence_kind"] != "sp_criterion" or ev.get("group") != "S5" or ev.get("real_roots") != 3:
            return [f"evidence {answer['evidence_kind']} {ev}, expected S5 with three real roots"]
    return []


def construct_degree(expect, answer):
    d = expect["degree"]
    want = NECESSARY_HOLDS if d & (d - 1) == 0 else NOT_CONSTRUCTIBLE
    if answer["degree"] != d or answer["verdict"] != want:
        return [f"degree {answer['degree']} verdict {answer['verdict']}, expected {d} {want}"]
    return []


def ngon(expect, answer):
    want = oracle.ngon_rule(expect["n"])
    return [] if answer["constructible"] == want and answer["n"] == expect["n"] else [f"n-gon verdict {answer}"]


def ladder(expect, answer):
    group = answer["group"]
    nroots = len(group["action"])
    perms = [oracle.parse_cycles(e, nroots) for e in group["elements"]]
    out = oracle.group_problems(perms) + oracle.table_problems(answer["table"], perms)
    if out:
        return out
    if not group["order"] == len(perms) == answer["degree"]:
        out.append(f"|G| = {group['order']}, {len(perms)} elements, splitting degree {answer['degree']}")
    out += oracle.group_type_problems(expect["type"], group["type"], perms)
    orbits = oracle.orbit_sizes(perms)
    if expect["irreducible"] and orbits != [nroots]:
        out.append(f"not transitive: orbits {orbits}")
    if not expect["irreducible"] and orbits != [2, 2, 2]:
        out.append(f"orbits {orbits}, expected one per quadratic factor")
    gens = [oracle.parse_cycles(g, nroots) for g in group["generators"]] or [tuple(range(nroots))]
    if oracle.closure_of(gens) != sorted(perms):
        out.append("generators do not generate the group")
    if answer["derived"] != oracle.derived_orders(perms):
        out.append(f"derived series orders {answer['derived']}, computed {oracle.derived_orders(perms)}")
    return out


def correspondence(expect, answer):
    n = expect["degree"]
    pairs = answer["pairs"]
    out = []
    if not answer["degree"] == answer["group_order"] == n:
        out.append(f"degree {answer['degree']} and |G| {answer['group_order']}, expected {n}")
    if not answer["pair_count"] == len(pairs) == expect["subgroups"]:
        out.append(f"{len(pairs)} subgroups, the group has {expect['subgroups']}")
    normal = sum(1 for pair in pairs if pair["normal"])
    if normal != expect["normal"]:
        out.append(f"{normal} normal subgroups, the group has {expect['normal']}")
    for pair in pairs:
        ff = pair["fixed_field"]
        if ff["dim"] * pair["order"] != n:
            out.append(f"dim {ff['dim']} * |H| {pair['order']} != {n}")
        if len(oracle.parse_poly(ff["primitive_min_poly"])) - 1 != ff["dim"]:
            out.append(f"primitive element of degree other than dim {ff['dim']}")
        if not pair["gal_over_matches"]:
            out.append("Gal(M:Fix(H)) != H")
    if answer["mutually_inverse"] is not True:
        out.append("correspondence maps not mutually inverse")
    return out


def gf(expect, answer):
    p, n = expect["p"], expect["n"]
    q = p**n
    modulus = oracle.parse_poly(answer["modulus"])
    gen = oracle.trim(oracle.parse_poly(answer["generator"], "a"), p)
    sub_orders = [p**d for d in oracle.divisors(n)]
    out = []
    if answer["order"] != q or len(modulus) - 1 != n or modulus[-1] != 1:
        out.append(f"order {answer['order']} modulus {answer['modulus']} for GF({p}^{n})")
    elif not oracle.rabin_irreducible(modulus, p):
        out.append("modulus is reducible (Rabin)")
    elif not oracle.multiplicative_order_is(gen, modulus, p, q - 1):
        out.append(f"generator {answer['generator']} does not have order {q - 1}")
    if answer["frobenius_order"] != n:
        out.append(f"Frobenius order {answer['frobenius_order']}, expected {n}")
    if answer["subfield_orders"] != sub_orders or [s["order"] for s in answer["subfields"]] != sub_orders:
        out.append(f"subfield orders {answer['subfield_orders']}, expected {sub_orders}")
    return out


def splitting_field(expect, answer):
    p, degrees = expect["p"], expect["degrees"]
    d = oracle.lcm(degrees)
    roots, tower = answer["roots"], answer["tower"]
    out = []
    if answer["degree"] != d:
        out.append(f"splitting degree {answer['degree']}, expected lcm {d}")
    if len(roots) != sum(degrees) or len(set(roots)) != len(roots) or set(answer["multiplicities"]) != {1}:
        out.append(f"{len(roots)} roots for a squarefree input of degree {sum(degrees)}")
    if len(tower) <= 1 and not out:  # roots are polynomials in a: substitute them
        m = oracle.trim(oracle.parse_poly(tower[0]["min_poly"]), p) if tower else [0, 1]
        if len(m) - 1 != d or not oracle.rabin_irreducible(m, p):
            out.append(f"tower level {tower} is not irreducible of degree {d}")
        else:
            f = expect["poly"]
            for r in roots:
                x = oracle.trim(oracle.parse_poly(r, "a"), p)
                val = []
                for c in reversed(f):
                    val = oracle.padd(oracle.mulmod(val, x, m, p), [c], p)
                if val:
                    out.append(f"root {r} does not satisfy the input")
    return out


def galois_fp(expect, answer):
    degrees = expect["degrees"]
    nroots = len(answer["action"])
    perms = [oracle.parse_cycles(e, nroots) for e in answer["elements"]]
    out = oracle.group_problems(perms)
    order = oracle.lcm(degrees)
    if answer["order"] != order or len(perms) != order:
        out.append(f"|G| = {answer['order']}, expected lcm {order}")
    # Gal over F_p is cyclic, generated by Frobenius, whose orbits on the
    # roots are the roots of each irreducible factor.
    if max(oracle.element_orders(perms)) != order or answer["type"] != f"C{order}":
        out.append(f"type {answer['type']}, expected cyclic C{order}")
    if oracle.orbit_sizes(perms) != degrees:
        out.append(f"orbits {oracle.orbit_sizes(perms)}, factor degrees {degrees}")
    gens = [oracle.parse_cycles(g, nroots) for g in answer["generators"]] or [tuple(range(nroots))]
    if oracle.closure_of(gens) != sorted(perms):
        out.append("generators do not generate the group")
    return out


CHECKS = {
    "factor_q": factor_q,
    "factor_fp": factor_fp,
    "irreducible": irreducible,
    "sturm": sturm,
    "solvable": solvable,
    "construct_degree": construct_degree,
    "ngon": ngon,
    "ladder": ladder,
    "correspondence": correspondence,
    "gf": gf,
    "splitting-field": splitting_field,
    "galois": galois_fp,
}


def problems(expect, answer):
    """What is wrong with one answer; a malformed answer is one problem."""
    try:
        return CHECKS[expect["check"]](expect, answer)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed answer: {type(exc).__name__}: {exc}"]
