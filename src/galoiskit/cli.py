"""Command-line front end: parse polynomial expressions, dispatch, render.

The expression grammar is deliberately small: integers, rationals a/b, the
indeterminate t, + - * ^ with nonnegative integer exponents, parentheses.
`^` binds tighter than unary minus and implicit multiplication is rejected,
so every well-formed input has exactly one reading.  Parentheses and unary
minus nest at most MAX_NESTING levels deep.  Exit codes: 0 success,
2 parse/usage error, 3 a configured cap was exceeded, 4 internal invariant
violation (a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .errors import (
    CapExceeded,
    DegreeCap,
    GaloisKitError,
    InternalInvariant,
    ParseError,
    ZeroInverse,
)
from .numbers import QQ, PrimeField
from .poly import Poly, render
from . import apps, correspondence, factor, finitefield, galois, splitting, tower

# ---------------------------------------------------------------------------
# expression parser (recursive descent)
# ---------------------------------------------------------------------------

_TOKEN_CHARS = {"+", "-", "*", "^", "(", ")", "/"}
# Each level of parentheses costs five parser frames, so this bound keeps the
# recursive descent well inside Python's default recursion limit.
MAX_NESTING = 100


def _tokenize(src: str):
    tokens = []
    i = 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            tokens.append(("int", int(src[i:j]), i))
            i = j
            continue
        if c == "t":
            tokens.append(("t", "t", i))
            i += 1
            continue
        if c in _TOKEN_CHARS:
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(
            f"unexpected character {c!r} at position {i}",
            position=i,
            expected=["digit", "t", "+", "-", "*", "^", "(", ")"],
        )
    tokens.append(("end", None, len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, dom):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.dom = dom
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(
                f"expected {kind!r} at position {tok[2]}, found {tok[0]!r}",
                position=tok[2],
                expected=[kind],
            )
        self.pos += 1
        return tok

    def nested(self, tok, parse):
        """Parse one level opened by `tok` ('(' or unary '-')."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"nesting deeper than {MAX_NESTING} levels at position {tok[2]}",
                position=tok[2],
                expected=[f"at most {MAX_NESTING} nested '(' or unary '-'"],
            )
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def parse(self) -> Poly:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(
                f"trailing input at position {tok[2]}: {tok[0]!r}",
                position=tok[2],
                expected=["end", "+", "-", "*", "^"],
            )
        return value

    def expr(self) -> Poly:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take(self.peek()[0])[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Poly:
        value = self.factor()
        while self.peek()[0] == "*":
            self.take("*")
            value = value * self.factor()
        return value

    def factor(self) -> Poly:
        if self.peek()[0] == "-":
            return -self.nested(self.take("-"), self.factor)
        return self.power()

    def power(self) -> Poly:
        base = self.atom()
        if self.peek()[0] == "^":
            self.take("^")
            k = self.take("int")[1]
            if sum(1 for c in base.coeffs if c) == 1:  # (c*t^j)^k = c^k*t^(jk)
                j = len(base.coeffs) - 1
                return Poly(self.dom, [self.dom.zero()] * (j * k) + [base.coeffs[j] ** k])
            return base ** k
        return base

    def atom(self) -> Poly:
        tok = self.peek()
        if tok[0] == "int":
            self.take("int")
            value = Fraction(tok[1])
            if self.peek()[0] == "/":
                self.take("/")
                den = self.take("int")
                if den[1] == 0:
                    raise ParseError(
                        f"zero denominator at position {den[2]}",
                        position=den[2],
                        expected=["nonzero integer"],
                    )
                value = Fraction(tok[1], den[1])
            try:
                return Poly.constant(self.dom, self.dom.coerce(value))
            except ZeroInverse:
                raise ParseError(
                    f"denominator not invertible in the field at position {tok[2]}",
                    position=tok[2],
                    expected=["denominator coprime to p"],
                )
        if tok[0] == "t":
            self.take("t")
            return Poly.t(self.dom)
        if tok[0] == "(":
            value = self.nested(self.take("("), self.expr)
            self.take(")")
            return value
        raise ParseError(
            f"expected a number, 't' or '(' at position {tok[2]}",
            position=tok[2],
            expected=["int", "t", "("],
        )


def parse_poly(src: str, field=QQ) -> Poly:
    """Parse an expression into an exact polynomial over the given field."""
    return _Parser(src, field).parse()


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _field_from_flag(flag: str):
    if flag == "Q":
        return QQ
    if flag.startswith("F"):
        try:
            p = int(flag[1:])
        except ValueError:
            raise ParseError(f"bad field {flag!r}", expected=["Q", "F<p>"])
        return PrimeField(p)
    raise ParseError(f"bad field {flag!r}", expected=["Q", "F<p>"])


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _cmd_factor(args, dom):
    f = parse_poly(args.poly, dom)
    if dom == QQ:
        fact = factor.factor_q(f, max_degree=args.max_degree)
    else:
        fact = factor.factor_fp(f)
    lines = [f"unit: {fact.unit}"] + [
        f"({render(g)})^{m}" for g, m in fact.factors
    ]
    _emit(args, fact.to_json(), lines)


def _cmd_irreducible(args, dom):
    f = parse_poly(args.poly, dom)
    if dom == QQ:
        cert = factor.is_irreducible_q(f, max_degree=args.max_degree)
        _emit(
            args,
            cert.to_json(),
            [f"{cert.verdict} (witness: {cert.witness_kind} {cert.witness_data})"],
        )
    else:
        verdict = factor.is_irreducible_ff(f)
        _emit(
            args,
            {"verdict": "irreducible" if verdict else "reducible"},
            ["irreducible" if verdict else "reducible"],
        )


def _cmd_minpoly(args, dom):
    if dom != QQ:
        raise ParseError("minpoly towers are built over Q", expected=["--field Q"])
    current = QQ
    labels = "abcdefgh"
    for i, src in enumerate(args.polys):
        f = parse_poly(src, QQ).map_domain(current, current.coerce)
        fact = factor.factor_over_extension(f)
        nonlinear = [g for g, _ in fact.factors if g.degree > 1]
        if not nonlinear:
            continue
        g = min(nonlinear, key=lambda h: h.sort_key())
        new_degree = current.absolute_degree() * g.degree
        if new_degree > args.max_degree:
            raise DegreeCap(f"tower degree would reach {new_degree} > cap {args.max_degree}")
        current, _ = tower.adjoin_root(current, g, labels[i], certify=False)
    if current == QQ:
        _emit(args, {"degree": 1, "tower": []}, ["degree 1 (everything split)"])
        return
    gamma, mp = current.primitive_element()
    payload = {
        "degree": current.absolute_degree(),
        "tower": current.describe(),
        "primitive_element": current.element_str(gamma),
        "primitive_min_poly": render(mp),
    }
    _emit(
        args,
        payload,
        [
            f"degree {payload['degree']}",
            f"primitive element: {payload['primitive_element']}",
            f"minimal polynomial: {payload['primitive_min_poly']}",
        ],
    )


def _split(args, dom):
    f = parse_poly(args.poly, dom)
    if dom == QQ:
        return splitting.splitting_field_q(f, max_degree=args.max_degree)
    return splitting.splitting_field_fp(f, max_degree=args.max_degree)


def _cmd_splitting_field(args, dom):
    sf = _split(args, dom)
    payload = sf.to_json()
    lines = [f"degree {payload['degree']}"]
    for level in payload["tower"]:
        lines.append(f"adjoin {level['label']}: root of {level['min_poly']}")
    lines.append("roots: " + ", ".join(payload["roots"]))
    lines.append("multiplicities: " + ", ".join(map(str, payload["multiplicities"])))
    _emit(args, payload, lines)


def _cmd_galois(args, dom):
    sf = _split(args, dom)
    G = galois.automorphisms(sf)
    payload = G.to_json()
    lines = [
        f"order {payload['order']}, type {payload['type']}",
        "generators: " + (", ".join(payload["generators"]) or "()"),
        "roots: " + ", ".join(payload["action"]),
    ]
    _emit(args, payload, lines)


def _cmd_correspondence(args, dom):
    sf = _split(args, dom)
    report = correspondence.verify_correspondence(sf)
    lines = [
        f"degree {report['degree']}, group order {report['group_order']}",
        f"{report['pair_count']} subgroup/fixed-field pairs; "
        f"mutually inverse: {report['mutually_inverse']}",
    ]
    for pair in report["pairs"]:
        flag = "normal" if pair["normal"] else "      "
        ff = pair["fixed_field"]
        lines.append(
            f"  |H|={pair['order']:<3} {flag} fixed field dim {ff['dim']}: "
            f"minpoly {ff['primitive_min_poly']}"
        )
    _emit(args, report, lines)


def _cmd_solvable(args, dom):
    if dom != QQ:
        raise ParseError("solvability is decided over Q", expected=["--field Q"])
    f = parse_poly(args.poly, QQ)
    verdict = apps.solvable_by_radicals(f, max_degree=args.max_degree)
    if verdict.solvable:
        text = "solvable by radicals"
    else:
        group = verdict.evidence.get("group") or verdict.evidence.get("group_type")
        text = f"NOT solvable by radicals (Galois group {group})"
    _emit(args, verdict.to_json(), [text, f"evidence: {verdict.evidence_kind} {verdict.evidence}"])


def _cmd_construct(args, dom):
    if args.what == "classic":
        report = apps.classic_problems()
        lines = []
        for key in ("duplicate_cube", "trisect_angle", "square_circle"):
            entry = report[key]
            lines.append(f"{entry['target']}: {entry['verdict']}")
        _emit(args, report, lines)
    elif args.what == "ngon":
        try:
            n = int(args.arg)
        except ValueError:
            raise ParseError(f"bad vertex count {args.arg!r}", expected=["an integer"])
        ok = apps.ngon_constructible(n)
        _emit(
            args,
            {"n": n, "constructible": ok},
            [f"regular {n}-gon constructible: {ok}"],
        )
    elif args.what == "degree":
        m = parse_poly(args.arg, QQ)
        verdict = apps.constructible_degree_check(m)
        _emit(args, verdict.to_json(), [f"{verdict.target}: {verdict.verdict}"])
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown construct target {args.what!r}")


def _cmd_gf(args, dom):
    F = finitefield.gf(args.p, args.n)
    payload = F.to_json()
    lines = [f"GF({args.p}^{args.n}), modulus {payload['modulus']}"]
    if args.subfields:
        subs = finitefield.subfields(F)
        payload["subfields"] = [
            {"m": m, "order": s.order} for m, s in subs
        ]
        lines.append(
            "subfield orders: " + ", ".join(str(s.order) for _, s in subs)
        )
    if args.generator:
        lines.append(f"multiplicative generator: {payload['generator']}")
    _emit(args, payload, lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after;
    not at import, which would add its cost to every `import galoiskit`."""
    ap = argparse.ArgumentParser(
        prog="galoiskit",
        description="Exact Galois theory: factorization, splitting fields, "
        "Galois groups, the Galois correspondence, solvability and "
        "constructibility verdicts, finite fields.",
    )
    ap.add_argument("--field", default="Q", help="coefficient field: Q or F<p>")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument(
        "--max-degree",
        type=int,
        default=None,
        help="override the degree caps (splitting field, minpoly tower, factor)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, fn, needs_poly in [
        ("factor", _cmd_factor, True),
        ("irreducible", _cmd_irreducible, True),
        ("splitting-field", _cmd_splitting_field, True),
        ("galois", _cmd_galois, True),
        ("correspondence", _cmd_correspondence, True),
        ("solvable", _cmd_solvable, True),
    ]:
        p = sub.add_parser(name)
        p.add_argument("poly", help="polynomial expression in t")
        p.set_defaults(fn=fn)

    p = sub.add_parser("minpoly")
    p.add_argument("polys", nargs="+", help="adjoin a root of each polynomial")
    p.set_defaults(fn=_cmd_minpoly)

    p = sub.add_parser("construct")
    p.add_argument("what", choices=["classic", "ngon", "degree"])
    p.add_argument("arg", nargs="?", help="N for ngon, a polynomial for degree")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("gf")
    p.add_argument("p", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--subfields", action="store_true")
    p.add_argument("--generator", action="store_true")
    p.set_defaults(fn=_cmd_gf)
    return ap


def dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        dom = _field_from_flag(args.field)
        if args.max_degree is None:
            args.max_degree = splitting.SPLITTING_DEGREE_CAP if args.command in (
                "splitting-field",
                "galois",
                "correspondence",
                "solvable",
                "minpoly",
            ) else factor.FACTOR_DEGREE_CAP
        if args.command == "construct" and args.what in ("ngon", "degree") and args.arg is None:
            raise ParseError(f"construct {args.what} needs an argument")
        args.fn(args, dom)
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalInvariant as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4
    except GaloisKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
