"""Command-line front end: parse polynomial expressions, dispatch, render.

The expression grammar is deliberately small: integers (ASCII digits),
rationals a/b, the indeterminate t, + - * ^ with nonnegative integer exponents, parentheses.
`^` binds tighter than unary minus and implicit multiplication is rejected,
so every well-formed input has exactly one reading.  Parentheses and unary
minus nest at most MAX_NESTING levels deep.

The parser reads a run of simple factors (t, an integer literal not followed
by '/', either with ^k) as one monomial held as scalars, evaluates the rest
onto sparse maps {exponent: coefficient}, and builds one dense Poly per
input, at the end.  Before a product or a power is expanded it computes the
degree and (over Q) a coefficient height bound of the result,
and refuses with ShapeCap (exit 3) past MAX_PARSE_DEGREE or
MAX_PARSE_HEIGHT_BITS, so that an input such as t^N or 2^N with a huge N
costs nothing; so is an integer literal of more than MAX_LITERAL_DIGITS
significant digits.  Exit codes: 0 success, 2 parse/usage error, 3 a configured
cap was exceeded (also while parsing), 4 internal invariant violation (a
bug).
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .errors import (
    CapExceeded,
    DegreeCap,
    GaloisKitError,
    InternalInvariant,
    ParseError,
    ShapeCap,
)
from .numbers import QQ, PrimeField
from .poly import Poly, _from_residues, _numerators, _power, render
from . import apps, correspondence, factor, finitefield, galois, splitting, tower

# ---------------------------------------------------------------------------
# expression parser (recursive descent)
# ---------------------------------------------------------------------------

_TOKEN_CHARS = frozenset("t+-*^()/")  # each its own token
_DIGITS = frozenset("0123456789")  # ASCII only: str.isdigit also takes "²"
# Each level of parentheses costs five parser frames, so this bound keeps the
# recursive descent well inside Python's default recursion limit.
MAX_NESTING = 100
# Shape limits, checked before a product or power is expanded: the degree of
# the result, and over Q the bits b of a bound 2^b on its coefficients (taken
# over their common denominator, which 2^b also bounds).  The densest
# expansions inside both limits cost a few seconds of parsing and about 1 MiB;
# products are quadratic, so doubling either limit would quadruple that.
MAX_PARSE_DEGREE = 4096
MAX_PARSE_HEIGHT_BITS = 1024
# Significant digits of one integer literal: the least limit Python's int()
# can be set to (sys.set_int_max_str_digits), so int() never refuses a literal
# that this limit lets through.  It is far above the height limit's 309 digits.
MAX_LITERAL_DIGITS = 640


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c in _TOKEN_CHARS:
            tokens.append((c, c, i))
            i += 1
        elif c in _DIGITS:
            j = i + 1
            while j < n and src[j] in _DIGITS:
                j += 1
            digits = src[i:j].lstrip("0") or "0"
            if len(digits) > MAX_LITERAL_DIGITS:
                raise ShapeCap(
                    f"parsing: integer literal at position {i} has {len(digits)} digits "
                    f"> limit {MAX_LITERAL_DIGITS} (MAX_LITERAL_DIGITS)"
                )
            tokens.append(("int", int(digits), i))
            i = j
        elif c.isspace():
            i += 1
        else:
            raise ParseError(
                f"unexpected character {c!r} at position {i}",
                position=i,
                expected=["digit", "t", "+", "-", "*", "^", "(", ")"],
            )
    tokens.append(("end", None, n))
    return tokens


def _bits(x: int) -> int:
    """ceil(log2 x) for x >= 1: the bits of a height bound 2^b >= x."""
    return (x - 1).bit_length()


def _height_bits(terms) -> int:
    """Height bits of rational coefficients written over their common
    denominator D: _bits(max(D, max |c*D|)), which bounds every reduced
    numerator and denominator."""
    ints, den = _numerators(terms.values())
    return _bits(max(den, *map(abs, ints)))


def _convolve(a, b, p):
    """The product of two nonzero sparse maps, reduced mod p when p > 0."""
    out = {}
    get = out.get
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = get(i + j, 0) + x * y
    if p:
        return {e: c % p for e, c in out.items() if c % p}
    return {e: c for e, c in out.items() if c}


class _Parser:
    """Recursive descent onto sparse maps {exponent: nonzero coefficient}
    (a run of simple factors in `term` on scalars first): over Q the
    coefficients are ints, or Fractions where a literal a/b needs one; over
    F_p (p = self.p) they are int residues, reduced after every operation.
    The one dense Poly is built in `parse`."""

    def __init__(self, src: str, dom):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.dom = dom
        self.p = dom.characteristic
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

    def check_shape(self, tok, degree, height):
        """Refuse, before it is expanded, an operation at `tok` whose result
        would have this degree and (over Q) this coefficient height bound."""
        if degree > MAX_PARSE_DEGREE:
            need = f"degree {degree} > limit {MAX_PARSE_DEGREE} (MAX_PARSE_DEGREE)"
        elif height > MAX_PARSE_HEIGHT_BITS:
            need = f"coefficient height 2^{height} > limit 2^{MAX_PARSE_HEIGHT_BITS} (MAX_PARSE_HEIGHT_BITS)"
        else:
            return
        raise ShapeCap(f"parsing: '{tok[0]}' at position {tok[2]} would need {need}")

    def parse(self) -> Poly:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(
                f"trailing input at position {tok[2]}: {tok[0]!r}",
                position=tok[2],
                expected=["end", "+", "-", "*", "^"],
            )
        dense = [0] * (max(value) + 1 if value else 0)
        for e, c in value.items():
            dense[e] = c
        return _from_residues(self.dom, dense) if self.p else Poly(QQ, list(map(Fraction, dense)), normalize=False)

    def expr(self):
        value = self.term()
        tokens, p = self.tokens, self.p
        op = tokens[self.pos][0]
        while op == "+" or op == "-":
            self.pos += 1
            for e, c in self.term().items():
                c = value.get(e, 0) + c if op == "+" else value.get(e, 0) - c
                if p:
                    c %= p
                if c:
                    value[e] = c
                else:
                    del value[e]
            op = tokens[self.pos][0]
        return value

    def simple_at(self, i):
        """Whether a simple factor starts at token i: t, or an integer
        literal not followed by '/' (either may carry ^k)."""
        kind = self.tokens[i][0]
        return kind == "t" or kind == "int" and self.tokens[i + 1][0] != "/"

    def simple(self):
        """Read a simple factor as (e, c), the monomial c*t^e (c = 0 for
        zero), with the checks and the values of `power` on its map: t^k has
        height 0 and c^k height k*_bits(|c|)."""
        tokens, p = self.tokens, self.p
        tok = tokens[self.pos]
        e, c = (1, 1) if tok[0] == "t" else (0, tok[1] % p if p else tok[1])
        self.pos += 1
        hat = tokens[self.pos]
        if hat[0] != "^":
            return e, c
        self.pos += 1
        k = self.take("int")[1]
        if not k:
            return 0, 1
        if not c:
            return e, c
        self.check_shape(hat, k * e, 0 if p else k * _bits(c))
        return e * k, pow(c, k, p) if p else c**k

    def term(self):
        """A product of factors.  A leading run of simple factors is one
        monomial held as scalars, with the degree and height of each product
        checked as on maps; a map is built where the run meets a
        parenthesis, a unary minus or a rational literal, and that factor
        and the rest of the product take the general path."""
        tokens, p = self.tokens, self.p
        if self.simple_at(self.pos):
            e, c = self.simple()
            while tokens[self.pos][0] == "*" and self.simple_at(self.pos + 1):
                tok = tokens[self.pos]
                self.pos += 1
                e2, c2 = self.simple()
                if c and c2:
                    self.check_shape(tok, e + e2, 0 if p else _bits(c) + _bits(c2))
                    e, c = e + e2, c * c2 % p if p else c * c2
                else:
                    c = 0
            value = {e: c} if c else {}
        else:
            value = self.factor()
        while self.peek()[0] == "*":
            tok = self.take("*")
            rhs = self.factor()
            if not value or not rhs:
                value = {}
                continue
            height = 0
            if not self.p:
                height = _height_bits(value) + _height_bits(rhs) + _bits(min(len(value), len(rhs)))
            self.check_shape(tok, max(value) + max(rhs), height)
            value = _convolve(value, rhs, self.p)
        return value

    def factor(self):
        if self.peek()[0] == "-":
            value = self.nested(self.take("-"), self.factor)
            return {e: -c % self.p if self.p else -c for e, c in value.items()}
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        tok = self.take("^")
        k = self.take("int")[1]
        if k == 0:
            return {0: 1}
        if not base:
            return base
        p = self.p
        # A^k has coefficients of height at most H^k * len(A)^(k-1)
        height = 0 if p else k * _height_bits(base) + (k - 1) * _bits(len(base))
        self.check_shape(tok, k * max(base), height)
        if len(base) == 1:  # (c*t^j)^k = c^k*t^(jk)
            ((j, c),) = base.items()
            return {j * k: pow(c, k, p) if p else c**k}
        return _power(base, k, lambda a, b: _convolve(a, b, p), None)

    def atom(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take("int")
            value = tok[1]
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
                if self.p and value.denominator % self.p == 0:
                    raise ParseError(
                        f"denominator not invertible in the field at position {tok[2]}",
                        position=tok[2],
                        expected=["denominator coprime to p"],
                    )
                if value.denominator == 1:
                    value = value.numerator
                elif self.p:
                    value = value.numerator * pow(value.denominator, -1, self.p)
            if self.p:
                value %= self.p
            return {0: value} if value else {}
        if tok[0] == "t":
            self.take("t")
            return {1: 1}
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
    """Parse an expression into an exact polynomial over QQ or a PrimeField;
    ShapeCap (a CapExceeded) if a product or power in it would pass the
    parser's shape limits."""
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
        import json  # here, not at the top: output without --json never loads it

        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _cmd_factor(args, dom):
    f = parse_poly(args.poly, dom)
    if dom == QQ:
        fact = factor.factor_q(f, max_degree=args.max_degree)
    else:
        fact = factor.factor_fp(f, max_degree=args.max_degree)
    lines = [f"unit: {fact.unit}"] + [
        f"({render(g)})^{m}" for g, m in fact.factors
    ]
    _emit(args, fact.to_json(), lines)


def _witness_str(value):
    """A `to_json` witness entry as text; a factorization as unit*(f)^m*..., 1s left out."""
    if not isinstance(value, dict):
        return value
    unit, parts = value["unit"], [(g["poly"], g["multiplicity"]) for g in value["factors"]]
    return "*".join([unit] * (unit != "1") + [f"({f})" + f"^{m}" * (m > 1) for f, m in parts])


def _cmd_irreducible(args, dom):
    f = parse_poly(args.poly, dom)
    if dom == QQ:
        cert = factor.is_irreducible_q(f, max_degree=args.max_degree).to_json()
        witness = ", ".join(f"{k}={_witness_str(v)}" for k, v in cert["witness_data"].items())
        _emit(args, cert, [f"{cert['verdict']} (witness: {cert['witness_kind']} {witness})"])
    else:
        _explicit_cap(args, f.degree)
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
        # a level is labelled by its argument's position
        current, _ = tower.adjoin_root(current, g, tower.level_label(i), certify=False)
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
        _explicit_cap(args, m.degree)
        verdict = apps.constructible_degree_check(m)
        _emit(args, verdict.to_json(), [f"{verdict.target}: {verdict.verdict}"])
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown construct target {args.what!r}")


def _explicit_cap(args, degree):
    """An explicit --max-degree, before any work; these have no default cap."""
    if args.max_degree is not None and degree > args.max_degree:
        raise DegreeCap(f"degree {degree} exceeds cap {args.max_degree}")


def _cmd_gf(args, dom):
    _explicit_cap(args, args.n)
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
        explicit = args.command in ("gf", "construct") or (dom != QQ and args.command in ("factor", "irreducible"))
        if args.max_degree is None and not explicit:  # those take only an explicit --max-degree
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
