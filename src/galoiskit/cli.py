"""Command-line front end: parse polynomial expressions, dispatch, render.

The expression grammar is deliberately small: integers (ASCII digits),
rationals a/b, the indeterminate t, + - * ^ with nonnegative integer exponents, parentheses.
`^` binds tighter than unary minus and implicit multiplication is rejected,
so every well-formed input has exactly one reading.  a/b is one literal of
two integers: 3/2^2 is (3/2)^2 = 9/4, and 3/(2^2) is a parse error.
Parentheses and unary minus nest at most MAX_NESTING levels deep.  On the
command line, argparse reads an input that begins with '-' as an option:
write `galoiskit factor -- -t^2+1` or `galoiskit factor " -t^2+1"`.

The parser reads every literal and t as a monomial held as scalars, and so
every power, negation and product of monomials; only a sum of terms becomes
a sparse map {exponent: coefficient}, and so does what a parenthesised sum
enters.  It builds one dense Poly per input, at the end.  Before a product
or a power is expanded it computes the degree and (over Q) a coefficient
height bound of the result, and refuses with ShapeCap (exit 3) past
MAX_PARSE_DEGREE or MAX_PARSE_HEIGHT_BITS, so that an input such as t^N or
2^N with a huge N costs nothing; so is an integer literal of more than
MAX_LITERAL_DIGITS significant digits.  Exit codes: 0 success, 2
parse/usage error, 3 a configured cap was exceeded (also while parsing), 4
internal invariant violation (a bug).

A well-formed command line (options before the command, then its
positionals; gf's flags anywhere after gf) is read by _read_argv without
argparse.  argparse is imported only for what _read_argv declines, so it
prints usage errors and help, and reads the forms it reads in its own way.

Each command is one row of _COMMANDS: its handler, its positionals and
flags (which both argv readers read), its field rule and its default caps.
dispatch applies the row, so it names no command: a command that reads only
Q refuses another --field (exit 2) before its arguments are read, and
--max-degree, if not given, takes the row's default over Q or over F_p.
"""

from __future__ import annotations

import functools
import math
import sys
from types import SimpleNamespace

from .errors import (
    CapExceeded,
    DegreeCap,
    GaloisKitError,
    InternalInvariant,
    ParseError,
    ShapeCap,
)
from .numbers import QQ, PrimeField, TowerElem
from .poly import Poly, _from_residues, _power, render
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
    *ints, den = QQ._concat(terms.values())
    return _bits(max(den, *map(abs, ints)))


def _scalar_bits(c) -> int:
    """_height_bits({e: c}) of a nonzero rational c, without the map."""
    if type(c) is int:
        return (abs(c) - 1).bit_length()
    return _bits(max(abs(c.v[0]), c.v[1]))


def _as_map(value):
    """A value as a sparse map: a monomial (e, c) becomes {e: c}, or {}."""
    if type(value) is dict:
        return value
    e, c = value
    return {e: c} if c else {}


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
    """Recursive descent.  A factor's value is a monomial (e, c), the scalar
    c times t^e (c = 0 for zero): every literal and t, and every power,
    negation and product of monomials.  A sum of two or more terms is a
    sparse map {exponent: nonzero coefficient}, and so is every product or
    power that involves one.  Over Q the coefficients are ints, or rational
    scalars where a literal a/b needs one; over F_p (p = self.p) they are int
    residues, reduced after every operation.  The one dense Poly is built in
    `parse`."""

    def __init__(self, src: str, dom):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.dom = dom
        self.p = dom.characteristic
        self.depth = 0

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
        value = _as_map(self.expr())
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            raise ParseError(
                f"trailing input at position {tok[2]}: {tok[0]!r}",
                position=tok[2],
                expected=["end", "+", "-", "*", "^"],
            )
        dense = [0] * (max(value) + 1 if value else 0)
        for e, c in value.items():
            dense[e] = c
        if self.p:
            return _from_residues(self.dom, dense)
        return Poly(QQ, [c if type(c) is TowerElem else TowerElem(QQ, (c, 1)) for c in dense], normalize=False)

    def expr(self):
        """A sum of terms: one term as it is, two or more on a map, to which
        a monomial term adds its one coefficient."""
        value = self.term()
        tokens, p = self.tokens, self.p
        op = tokens[self.pos][0]
        if op != "+" and op != "-":
            return value
        value = _as_map(value)
        while op == "+" or op == "-":
            self.pos += 1
            rhs = self.term()
            for e, c in rhs.items() if type(rhs) is dict else (rhs,):
                c = value.get(e, 0) + c if op == "+" else value.get(e, 0) - c
                if p:
                    c %= p
                if c:
                    value[e] = c
                else:
                    value.pop(e, None)
            op = tokens[self.pos][0]
        return value

    def term(self):
        """A product of factors, left to right: monomials multiply as scalars
        and a map as a map, each product checked at its '*' with the degree
        and height it would have on maps (a monomial's height is its one
        coefficient's)."""
        value = self.factor()
        tokens, p = self.tokens, self.p
        while tokens[self.pos][0] == "*":
            tok = tokens[self.pos]
            self.pos += 1
            rhs = self.factor()
            if type(value) is tuple and type(rhs) is tuple:
                e, c = value
                e2, c2 = rhs
                if c and c2:
                    self.check_shape(tok, e + e2, 0 if p else _scalar_bits(c) + _scalar_bits(c2))
                    value = e + e2, c * c2 % p if p else c * c2
                else:
                    value = 0, 0
                continue
            value, rhs = _as_map(value), _as_map(rhs)
            if not value or not rhs:
                value = {}
                continue
            height = 0 if p else _height_bits(value) + _height_bits(rhs) + _bits(min(len(value), len(rhs)))
            self.check_shape(tok, max(value) + max(rhs), height)
            value = _convolve(value, rhs, p)
        return value

    def factor(self):
        """'-' factor, or an atom with an optional '^k'."""
        tokens, p = self.tokens, self.p
        tok = tokens[self.pos]
        if tok[0] == "-":
            self.pos += 1
            value = self.nested(tok, self.factor)
            if type(value) is tuple:
                return value[0], -value[1] % p if p else -value[1]
            return {e: -c % p if p else -c for e, c in value.items()}
        base = self.atom()
        tok = tokens[self.pos]
        if tok[0] != "^":
            return base
        self.pos += 1
        k = self.take("int")[1]
        if k == 0:
            return 0, 1
        if type(base) is tuple:  # (c*t^e)^k = c^k*t^(ek)
            e, c = base
            if not c:
                return base
            self.check_shape(tok, k * e, 0 if p else k * _scalar_bits(c))
            return e * k, pow(c, k, p) if p else c**k
        if not base:
            return base
        # A^k has coefficients of height at most H^k * len(A)^(k-1)
        height = 0 if p else k * _height_bits(base) + (k - 1) * _bits(len(base))
        self.check_shape(tok, k * max(base), height)
        return _power(base, k, lambda a, b: _convolve(a, b, p), None)

    def atom(self):
        tok = self.tokens[self.pos]
        if tok[0] == "t":
            self.pos += 1
            return 1, 1
        if tok[0] == "int":
            self.pos += 1
            value = tok[1]
            if self.tokens[self.pos][0] == "/":
                self.pos += 1
                den = self.take("int")
                if den[1] == 0:
                    raise ParseError(
                        f"zero denominator at position {den[2]}",
                        position=den[2],
                        expected=["nonzero integer"],
                    )
                g = math.gcd(value, den[1])  # a/b in lowest terms, then read in the field
                value, d = value // g, den[1] // g
                if self.p and d % self.p == 0:
                    raise ParseError(
                        f"denominator not invertible in the field at position {tok[2]}",
                        position=tok[2],
                        expected=["denominator coprime to p"],
                    )
                if d != 1:
                    value = value * pow(d, -1, self.p) if self.p else TowerElem(QQ, (value, d))
            return 0, value % self.p if self.p else value
        if tok[0] == "(":
            self.pos += 1
            value = self.nested(tok, self.expr)
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
    f = parse_poly(args.poly, QQ)
    verdict = apps.solvable_by_radicals(f, max_degree=args.max_degree)
    if verdict.solvable:
        text = "solvable by radicals"
    else:
        group = verdict.evidence.get("group") or verdict.evidence.get("group_type")
        text = f"NOT solvable by radicals (Galois group {group})"
    _emit(args, verdict.to_json(), [text, f"evidence: {verdict.evidence_kind} {verdict.evidence}"])


def _cmd_construct(args, dom):
    if args.what == "classic" and args.arg is not None:
        raise ParseError("construct classic takes no argument")
    if args.what != "classic" and args.arg is None:
        raise ParseError(f"construct {args.what} needs an argument")
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
    else:  # degree: the command table allows no other choice
        m = parse_poly(args.arg, QQ)
        _explicit_cap(args, m.degree)
        verdict = apps.constructible_degree_check(m)
        _emit(args, verdict.to_json(), [f"{verdict.target}: {verdict.verdict}"])


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


_POLY = (("poly", None, {"help": "polynomial expression in t"}),)

# Every subcommand, in help order: name -> (handler, positionals, flags,
# field rule, default caps).  A positional is (dest, nargs, further
# add_argument keywords); a flag is a store_true option that may stand
# anywhere after the command.  build_parser and _read_argv both read these.
# The field rule is None for a command that reads --field, else its parse
# error for any field but Q.  The default caps are the --max-degree a command
# gets over Q and over F_p when none is given; None leaves only an explicit
# one, which the handler checks.  dispatch applies both, in that order.
_COMMANDS = {
    "factor": (_cmd_factor, _POLY, (), None, (factor.FACTOR_DEGREE_CAP, None)),
    "irreducible": (_cmd_irreducible, _POLY, (), None, (factor.FACTOR_DEGREE_CAP, None)),
    "splitting-field": (_cmd_splitting_field, _POLY, (), None, (splitting.SPLITTING_DEGREE_CAP,) * 2),
    "galois": (_cmd_galois, _POLY, (), None, (splitting.SPLITTING_DEGREE_CAP,) * 2),
    "correspondence": (_cmd_correspondence, _POLY, (), None, (splitting.SPLITTING_DEGREE_CAP,) * 2),
    "solvable": (_cmd_solvable, _POLY, (),
                 "solvability is decided over Q", (splitting.SPLITTING_DEGREE_CAP, None)),
    "minpoly": (_cmd_minpoly, (("polys", "+", {"help": "adjoin a root of each polynomial"}),), (),
                "minpoly towers are built over Q", (splitting.SPLITTING_DEGREE_CAP, None)),
    "construct": (_cmd_construct, (("what", None, {"choices": ["classic", "ngon", "degree"]}),
                                   ("arg", "?", {"help": "N for ngon, a polynomial for degree"})), (),
                  "constructibility is decided over Q", (None, None)),
    "gf": (_cmd_gf, (("p", None, {"type": int}), ("n", None, {"type": int})), ("--subfields", "--generator"),
           "gf takes its field from p and n, not from --field", (None, None)),
}


def _read_argv(argv):
    """The namespace argparse would build for a plain command line, or None.

    Plain means: --json, --field X and --max-degree N before the command
    (the last of a repeated option wins), then exactly the command's
    positionals, with its flags anywhere after it.  Every other form gives
    None and is left to argparse, because argparse reads it in its own way:
    an option prefix (--js), --opt=value, '--', -h, any other argument that
    begins with '-' (-1 is a positional to argparse, -t^2+1 an option), or a
    wrong count of positionals."""
    ns = {"field": "Q", "json": False, "max_degree": None}
    i = 0
    while i < len(argv) and argv[i] in ("--json", "--field", "--max-degree"):
        if argv[i] == "--json":
            ns["json"] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        if argv[i] == "--field":
            ns["field"] = argv[i + 1]
        else:
            try:
                ns["max_degree"] = int(argv[i + 1])  # as argparse's type=int: "+5", " 5", "1_0"
            except ValueError:
                return None
        i += 2
    if i == len(argv) or argv[i] not in _COMMANDS:
        return None
    _, positionals, flags, _, _ = _COMMANDS[argv[i]]
    ns["command"] = argv[i]
    ns.update((flag[2:], False) for flag in flags)
    words = []
    for word in argv[i + 1 :]:
        if word in flags:
            ns[word[2:]] = True
        elif word.startswith("-"):
            return None
        else:
            words.append(word)
    for dest, nargs, extra in positionals:
        if not words:
            if nargs != "?":
                return None
            ns[dest] = None
        elif nargs == "+":
            ns[dest], words = words, []
        else:
            try:
                value = extra.get("type", str)(words.pop(0))
            except ValueError:
                return None
            if "choices" in extra and value not in extra["choices"]:
                return None
            ns[dest] = value
    return None if words else SimpleNamespace(**ns)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after.
    It reads only what _read_argv declines: usage errors, help and the forms
    argparse reads in its own way; so argparse is imported here, and a
    well-formed command line never loads it."""
    import argparse

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
    for name, (_, positionals, flags, _, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        for dest, nargs, extra in positionals:
            p.add_argument(dest, nargs=nargs, **extra)
        for flag in flags:
            p.add_argument(flag, action="store_true")
    return ap


def dispatch(argv) -> int:
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        dom = _field_from_flag(args.field)
        fn, _, _, q_only, caps = _COMMANDS[args.command]
        if q_only and dom != QQ:
            raise ParseError(q_only, expected=["--field Q"])
        if args.max_degree is None:
            args.max_degree = caps[dom != QQ]
        fn(args, dom)
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
