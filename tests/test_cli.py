"""CLI: expression parsing, dispatch, exit codes, JSON determinism."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import string
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import galoiskit
from fractions import Fraction

from galoiskit.errors import ParseError, ShapeCap, ZeroInverse
from galoiskit.numbers import QQ, PrimeField
from galoiskit.poly import Poly, render
from galoiskit.cli import (
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_PARSE_DEGREE,
    MAX_PARSE_HEIGHT_BITS,
    _COMMANDS,
    _read_argv,
    _tokenize,
    build_parser,
    dispatch,
    parse_poly,
)
from galoiskit.tower import level_label


F7 = PrimeField(7)


def q(coeffs):
    return Poly(QQ, coeffs)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def test_parse_basic():
    assert parse_poly("t^4 - 2") == q([-2, 0, 0, 0, 1])
    assert parse_poly("9 + 14*t - 8*t^3") == q([9, 14, 0, -8])
    assert parse_poly("t^2 - 2", PrimeField(3)) == Poly(PrimeField(3), [1, 0, 1])
    assert parse_poly("1/2*t + 1/3") == q([__import__("fractions").Fraction(1, 3), __import__("fractions").Fraction(1, 2)])
    assert parse_poly("(t - 1)*(t + 1)") == q([-1, 0, 1])
    assert parse_poly("-t^2") == -q([0, 0, 1])
    assert parse_poly("2^3") == q([8])
    assert parse_poly("0") == q([])


def test_powers_match_repeated_products():
    # monomial bases (c*t^j), constants, zero and general bases, over Q and
    # F_7, against the product of k copies of the parsed base
    rng = random.Random(13)
    bases = ["t", "-t", "2/3", "-1/2*t^3", "0", "0*t", "7*t^2", "(t+1)", "(1/2*t-3)", "(t^2+t+1)"]
    for field in (QQ, PrimeField(7)):
        for base in bases:
            for k in [0, 1, 2, 3] + [rng.randint(4, 12) for _ in range(2)]:
                want = Poly.one(field)
                for _ in range(k):
                    want = want * parse_poly(f"({base})", field)
                got = parse_poly(f"({base})^{k}", field)
                assert got == want, (field, base, k)
                assert got.coeffs == want.coeffs and all(type(c) is type(field.one()) for c in got.coeffs)
    assert parse_poly("(3*t^2)^2") == q([0, 0, 0, 0, 9])
    assert parse_poly("(-2*t)^3 + 8*t^3") == q([])


def test_unary_minus_binds_looser_than_power():
    # -2^2 parses as -(2^2) = -4
    assert parse_poly("-2^2") == q([-4])


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2t")
    with pytest.raises(ParseError):
        parse_poly("t t")


def test_parse_errors_carry_position_and_expected():
    try:
        parse_poly("t + ")
        assert False
    except ParseError as exc:
        assert exc.position == 4
        assert exc.expected
    with pytest.raises(ParseError):
        parse_poly("t ^ t")  # exponent must be a nonnegative integer literal
    with pytest.raises(ParseError):
        parse_poly("t / 2")  # '/' only inside rational literals
    with pytest.raises(ParseError):
        parse_poly("1/0")
    with pytest.raises(ParseError):
        parse_poly("x + 1")
    # a/b is one literal of two integers: ^ applies to the whole of it, and
    # a denominator is never a parenthesised expression
    assert parse_poly("3/2^2") == q([Fraction(9, 4)])
    with pytest.raises(ParseError) as info:
        parse_poly("3/(2^2)")
    assert info.value.position == 2 and info.value.expected == ("int",)


def test_parse_render_roundtrip_random():
    rng = random.Random(3)
    for _ in range(60):
        deg = rng.randint(0, 6)
        f = q([rng.randint(-9, 9) for _ in range(deg + 1)])
        assert parse_poly(render(f)) == f
    F5 = PrimeField(5)
    for _ in range(30):
        f = Poly(F5, [rng.randrange(5) for _ in range(rng.randint(1, 6))])
        assert parse_poly(render(f), F5) == f


def test_parser_fuzz_never_crashes():
    rng = random.Random(11)
    alphabet = "0123456789t+-*^()/ " + string.ascii_lowercase
    for _ in range(300):
        src = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 25)))
        try:
            parse_poly(src)
        except ParseError:
            pass  # only controlled failures


# ---------------------------------------------------------------------------
# the dense parser as an oracle for parse_poly
# ---------------------------------------------------------------------------


class _DenseParser:
    """The grammar evaluated on dense `Poly` values at every `+`, `*` and
    `^`, literals coerced through the field: the reference that parse_poly
    must match, value for value and error for error."""

    def __init__(self, src, dom):
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

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(
                f"trailing input at position {tok[2]}: {tok[0]!r}",
                position=tok[2],
                expected=["end", "+", "-", "*", "^"],
            )
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take(self.peek()[0])[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            self.take("*")
            value = value * self.factor()
        return value

    def factor(self):
        if self.peek()[0] == "-":
            return -self.nested(self.take("-"), self.factor)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take("^")
            return base ** self.take("int")[1]
        return base

    def atom(self):
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


def _outcome(parse, src, field):
    """What parsing src gives: the exact coefficients with their types, or the
    error with everything a caller can read from it."""
    try:
        f = parse(src, field)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.position, exc.expected)
    return ("value", f.dom, [(type(c), c) for c in f.coeffs])


_FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(7))
# literals that are reduced before their denominator meets p, cancellations,
# unary minus under `^`, and digits outside ASCII (parse errors)
_PARSER_CASES = [
    "12/2", "1211/7", "0/6", "14/21", "12/2*t + 1211/7", "t^2 + 14/21*t - 0/6",
    "-2^2", "(-2*t)^3 + 8*t^3", "(t-1)*(t+1) - t^2 + 1", "(t^2-t)*0", "0^0",
    "(0*t)^0", "0^3", "(2/3)^0", "(7*t)^2", "(2*t+14/21)*(3*t-2)", "(t+1)^7",
    "(1/2*t^2-3)^3*(t+1/3)^2", "-(-(t))", "--t", "t^2-2^2*t", "3/7*t-3/7*t",
    "\u0663*t^\u0662 + \u0665", "\uff17*t", "t^\u00b2", "\u00b2", "t + 1/\u00b3",
]
_ALPHABET = "0123456789tt+-*^()/ " * 4 + "\u0663\uff15\u00b2x"
_ATOMS = ["t"] * 8 + ["0", "1", "2", "3", "5", "7", "12/2", "1211/7", "0/6", "14/21", "2/3", "5/7", "\u0663"]


def _random_string(rng):
    src = "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(1, 25)))
    # exponents stay one digit long, so nothing expands far
    return re.sub(r"\^(\s*)(\d)\d+", r"^\1\2", src)


def _random_expr(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.3:
        return rng.choice(_ATOMS)
    if r < 0.45:
        return f"({_random_expr(rng, depth - 1)})^{rng.randint(0, 4)}"
    if r < 0.55:
        return f"-{_random_expr(rng, depth - 1)}"
    op = rng.choice(["+", "-", "*", "*"])
    return f"({_random_expr(rng, depth - 1)}){op}{_random_expr(rng, depth - 1)}"


def _random_dense_sum(rng):
    """A sum written the way verdict queries are: degree <= 12, literals of
    up to 20 digits (most at least p), c*t^k, a/b*t^k, bare t^k and runs of
    simple factors such as c*t^j*t^(k-j)."""
    terms = []
    for k in sorted(rng.sample(range(13), rng.randint(1, 6)), reverse=True):
        literal = str(rng.randint(0, 10 ** rng.randint(1, 20)))
        r = rng.random()
        coeff = f"{literal}/{rng.randint(1, 10 ** rng.randint(1, 3))}" if r < 0.2 else literal if r < 0.7 else ""
        mono = "" if k == 0 else "t" if k == 1 else f"t^{k}"
        if mono and rng.random() < 0.15:
            j = rng.randint(0, k)
            mono = f"t^{j}*{rng.randint(0, 99)}^{rng.randint(0, 2)}*t^{k - j}"
        terms.append("*".join(x for x in (coeff, mono) if x) or literal)
    src = rng.choice(["", "-"]) + terms[0]
    for term in terms[1:]:
        src += rng.choice([" + ", " - ", "+", "-"]) + term
    return src


def _compare_with_dense_parser(seed, rounds):
    rng = random.Random(seed)
    sources = list(_PARSER_CASES)
    for _ in range(rounds):
        sources.append(_random_string(rng))
        sources.append(_random_expr(rng, 4))
    dense = random.Random(f"dense sums:{seed}")
    sources += [_random_dense_sum(dense) for _ in range(rounds)]
    for field in _FIELDS:
        oracle = lambda src, dom: _DenseParser(src, dom).parse()
        for src in sources:
            assert _outcome(parse_poly, src, field) == _outcome(oracle, src, field), (src, field)


def test_parser_matches_the_dense_oracle():
    _compare_with_dense_parser(seed=16, rounds=500)


@pytest.mark.slow
def test_parser_matches_the_dense_oracle_at_length():
    _compare_with_dense_parser(seed=1016, rounds=10_000)


# ---------------------------------------------------------------------------
# parse-outcome digest: every outcome of a seeded sweep, hashed and pinned
# ---------------------------------------------------------------------------

_DIGEST_FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(13))
# zero, and multiples of each prime of _DIGEST_FIELDS (not invertible there)
_DIGEST_DENOMINATORS = ["0", "00", "1", "2", "3", "4", "6", "7", "9", "13", "14", "17", "21", "26", "39", "91", "1001"]
_DIGEST_CAP_EXPONENTS = ["1024", "1025", "4095", "4096", "4097", "5000"]
_DIGEST_MUTATIONS = "0123456789t+-*^()/ x"


def _digest_literal(rng):
    if rng.random() < 0.95:
        return rng.choice(["", "", "", "0"]) + str(rng.randint(0, 20))
    digits = rng.randint(1, 40)
    return str(rng.randint(10 ** (digits - 1), 10**digits - 1))


def _digest_exponent(rng, big):
    if rng.random() < big:
        return rng.choice(_DIGEST_CAP_EXPONENTS + [str(rng.randint(0, 5000))])
    return str(rng.randint(0, 5))


def _digest_factor(rng, depth):
    r = rng.random()
    if depth and r < 0.12:
        return "-" + _digest_factor(rng, depth - 1)
    if depth and r < 0.24:  # a parenthesised sum takes only small exponents
        group = f"({_digest_expr(rng, depth - 1)})"
        return group + (f"^{rng.randint(0, 5)}" if rng.random() < 0.4 else "")
    if r < 0.40:
        atom, big = f"{_digest_literal(rng)}/{rng.choice(_DIGEST_DENOMINATORS)}", 0.2
    elif r < 0.70:
        atom, big = "t", 0.005
    else:
        atom, big = _digest_literal(rng), 0.3
    return atom + (f"^{_digest_exponent(rng, big)}" if rng.random() < 0.35 else "")


def _digest_expr(rng, depth):
    def term():
        return "*".join(_digest_factor(rng, depth) for _ in range(rng.randint(1, 2)))

    src = term()
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2])):
        src += rng.choice([" + ", " - ", "+", "-"]) + term()
    return src


def _digest_source(rng):
    """A seeded input: integer literals of up to 40 digits, a/b with zero and
    non-invertible denominators, t, unary minus, parentheses and exponents up
    to 5000 (at the caps too), and in a quarter of them one character
    replaced, inserted or deleted."""
    src = _digest_expr(rng, 1)
    if rng.random() < 0.25:
        i = rng.randint(0, len(src))
        edit = rng.random()
        if edit < 0.4:
            src = src[:i] + rng.choice(_DIGEST_MUTATIONS) + src[i + 1 :]
        elif edit < 0.7:
            src = src[:i] + rng.choice(_DIGEST_MUTATIONS) + src[i:]
        else:
            src = src[:i] + src[i + 1 :]
    return src


def _digest_features(src):
    """Which of a unary minus, an a/b literal, and t or an integer literal
    right after a parenthesised factor (`(...)*c`, `(...)^k*t`) src holds."""
    try:
        kinds = [tok[0] for tok in _tokenize(src)]
    except (ParseError, ShapeCap):
        return set()
    found = set()
    for i, kind in enumerate(kinds):
        if kind == "-" and (i == 0 or kinds[i - 1] in "(+-*"):
            found.add("unary minus")
        if kinds[i : i + 3] == ["int", "/", "int"]:
            found.add("a/b")
        if kind == ")":
            j = i + 3 if kinds[i + 1 : i + 3] == ["^", "int"] else i + 1
            if kinds[j : j + 1] == ["*"] and kinds[j + 1] in ("t", "int"):
                found.add("simple after parenthesis")
    return found


def _parse_digest(count):
    """sha256 over every (input, field, outcome) of `count` seeded inputs,
    with the tallies of outcomes and input features.  An outcome is the
    nonzero coefficients (exponent with numerator and denominator over Q, or
    with the residue over F_p),
    or the error's class, message, position and expected tokens."""
    rng = random.Random(count)
    digest = hashlib.sha256()
    tally = Counter()
    for _ in range(count):
        src = _digest_source(rng)
        tally.update(_digest_features(src))
        outcomes = []
        for field in _DIGEST_FIELDS:
            try:
                f = parse_poly(src, field)
            except (ParseError, ShapeCap) as exc:
                outcome = (type(exc).__name__, str(exc), getattr(exc, "position", None), getattr(exc, "expected", None))
            else:
                outcome = [(e, *c.v) if field is QQ else (e, c.v[0]) for e, c in enumerate(f.coeffs) if c]
            tally["value" if isinstance(outcome, list) else outcome[0]] += 1
            outcomes.append(outcome)
        digest.update(repr((src, outcomes)).encode())
    return digest.hexdigest(), tally


def _check_parse_digest(count, expected, floors):
    digest, tally = _parse_digest(count)
    for name, floor in floors.items():
        assert tally[name] >= floor, (name, tally)
    assert digest == expected, tally


def test_parse_outcomes_match_the_pinned_digest():
    # recorded when a run of simple factors was read on scalars and every
    # other factor on sparse maps; any change of value, error or message
    # anywhere in the sweep changes the digest
    floors = {"value": 45_000, "ParseError": 20_000, "ShapeCap": 1_500}
    floors |= {"unary minus": 3_500, "a/b": 7_000, "simple after parenthesis": 1_000}
    _check_parse_digest(15_000, "070bbee92e23aa4b87e873faf8891e10e44dad73099174a359b76c07dc90461f", floors)


@pytest.mark.slow
def test_parse_outcomes_match_the_pinned_digest_at_length():
    floors = {"value": 600_000, "ParseError": 270_000, "ShapeCap": 20_000}
    floors |= {"unary minus": 45_000, "a/b": 95_000, "simple after parenthesis": 12_000}
    _check_parse_digest(200_000, "748facb0d5d628d30dfc4223a3e2d2535f5acaa35a2f7c699f820eca231f76f8", floors)


# ---------------------------------------------------------------------------
# dispatch + exit codes
# ---------------------------------------------------------------------------


def test_galois_command(capsys):
    assert dispatch(["galois", "t^4-2"]) == 0
    out = capsys.readouterr().out
    assert "order 8, type D4" in out


def test_solvable_command(capsys):
    assert dispatch(["solvable", "t^5-6*t+3"]) == 0
    out = capsys.readouterr().out
    assert "NOT solvable by radicals (Galois group S5)" in out


def test_gf_command(capsys):
    assert dispatch(["gf", "2", "2", "--generator"]) == 0
    out = capsys.readouterr().out
    assert "t^2 + t + 1" in out
    assert "generator: a" in out


def test_irreducible_text_prints_the_factorization_witness(capsys):
    assert dispatch(["irreducible", "(t^2+1)^2"]) == 0
    assert capsys.readouterr().out == "reducible (witness: full_factorization factorization=(t^2 + 1)^2)\n"
    for poly, line in [
        ("3*(t^2+1)*(t^2+2)", "reducible (witness: full_factorization factorization=3*(t^2 + 1)*(t^2 + 2))"),
        ("2*t^2+3*t", "reducible (witness: rational_root root=-3/2)"),
        ("t^4+2", "irreducible (witness: eisenstein prime=2, shift=0)"),
    ]:
        assert dispatch(["irreducible", poly]) == 0
        assert capsys.readouterr().out == line + "\n"


def test_factor_command_fp(capsys):
    assert dispatch(["--field", "F3", "factor", "t^2-2"]) == 0
    out = capsys.readouterr().out
    assert "t^2 + 1" in out


def test_factor_fp_honours_an_explicit_max_degree(capsys):
    # refused before factoring; without the flag there is no cap over F_p
    t0 = time.monotonic()
    assert dispatch(["--max-degree", "100", "--field", "F2", "factor", "t^2048+t+1"]) == 3
    assert time.monotonic() - t0 < 1.0
    assert "degree 2048 exceeds factor cap 100" in capsys.readouterr().err
    assert dispatch(["--max-degree", "5", "--field", "F2", "factor", "t^5+t^2+1"]) == 0
    assert dispatch(["--field", "F2", "factor", "t^13+t+1"]) == 0  # above the Q default of 12
    assert "(t^8 + t^7 + t^5 + t^3 + 1)^1" in capsys.readouterr().out


@pytest.mark.parametrize("argv, degree", [
    (["gf", "2", "4"], 4),
    (["gf", "3", "10000000"], 10000000),
    (["construct", "degree", "t^3-2"], 3),
    (["--field", "F2", "irreducible", "t^5+t^2+1"], 5),
    (["--field", "F3", "irreducible", "t^13+2*t+1"], 13),
])
def test_an_explicit_max_degree_caps_gf_construct_and_fp_irreducible(capsys, argv, degree):
    # refused before any work just over the cap, answered at the cap; these
    # commands have no default cap, so `gf 2 20` still runs without the flag
    t0 = time.monotonic()
    assert dispatch(["--max-degree", str(degree - 1)] + argv) == 3
    assert time.monotonic() - t0 < 1.0
    assert capsys.readouterr().err == f"cap exceeded: degree {degree} exceeds cap {degree - 1}\n"
    if degree < 100:
        assert dispatch(["--max-degree", str(degree)] + argv) == 0
        with_cap = capsys.readouterr()
        assert dispatch(argv) == 0
        assert capsys.readouterr() == with_cap


def test_gf_has_no_default_degree_cap(capsys):
    assert dispatch(["gf", "2", "20"]) == 0  # past FACTOR_DEGREE_CAP and SPLITTING_DEGREE_CAP
    assert capsys.readouterr().out == "GF(2^20), modulus t^20 + t^3 + 1\n"


def test_irreducible_command(capsys):
    assert dispatch(["irreducible", "t^3 - 10"]) == 0
    out = capsys.readouterr().out
    assert "irreducible" in out


@pytest.mark.parametrize("poly, answer", [
    # a constant term past the trial-division cap
    ("t^4+3*t+1000000000000000000000000000000",
     '{"verdict":"irreducible","witness_data":{"prime":31},"witness_kind":"mod_p"}'),
    # 6,720 x 6,720 candidate rational roots
    ("963761198400*t^4+t+963761198400",
     '{"verdict":"irreducible","witness_data":{"factorization":{"factors":[{"multiplicity":1,'
     '"poly":"t^4 + 1/963761198400*t + 1"}],"unit":"963761198400"}},"witness_kind":"full_factorization"}'),
], ids=["constant_past_cap", "many_divisors"])
def test_irreducible_skips_a_rational_root_search_past_its_bound(capsys, poly, answer):
    t0 = time.monotonic()
    assert dispatch(["--json", "irreducible", poly]) == 0
    assert time.monotonic() - t0 < 2.0
    assert capsys.readouterr().out == answer + "\n"


def test_minpoly_command(capsys):
    assert dispatch(["minpoly", "t^2-2", "t^2-3"]) == 0
    out = capsys.readouterr().out
    assert "degree 4" in out
    assert "t^4 - 10*t^2 + 1" in out


def test_minpoly_labels_a_ninth_argument(capsys):
    # a level is labelled by its argument's position; the ninth is "i"
    argv = ["minpoly"] + [f"t-{k}" for k in range(1, 9)] + ["t^2-2"]
    assert dispatch(argv) == 0
    assert "primitive element: i" in capsys.readouterr().out
    assert dispatch(["--json"] + argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tower"] == [{"label": "i", "min_poly": "t^2 - 2"}]
    assert payload["primitive_element"] == "i"


def test_level_labels():
    assert [level_label(k) for k in range(12)] == list("abcdefghijkl")
    assert [level_label(k) for k in (12, 13, 40)] == ["g12", "g13", "g40"]


def test_minpoly_honours_max_degree(capsys):
    # refused before the level that would pass the cap is adjoined
    assert dispatch(["--json", "--max-degree", "1", "minpoly", "t^2-2", "t^3-2"]) == 3
    assert "tower degree would reach 2 > cap 1" in capsys.readouterr().err
    assert dispatch(["--json", "--max-degree", "5", "minpoly", "t^2-2", "t^3-2"]) == 3
    assert "tower degree would reach 6 > cap 5" in capsys.readouterr().err
    # the default is the splitting-field cap, 24
    assert dispatch(["--json", "minpoly", "t^5-2", "t^7-2"]) == 3
    assert "tower degree would reach 35 > cap 24" in capsys.readouterr().err


@pytest.mark.parametrize("args, out", [
    (["splitting-field", "(t-1)*(t-2)"], "degree 1\nroots: 1, 2\nmultiplicities: 1, 1\n"),
    (["splitting-field", "t^3-t"], "degree 1\nroots: -1, 0, 1\nmultiplicities: 1, 1, 1\n"),
    (["galois", "t^2-4"], "order 1, type C1\ngenerators: ()\nroots: -2, 2\n"),
    (["--json", "galois", "t^2-4"],
     '{"action":["-2","2"],"elements":["()"],"generators":[],"order":1,"type":"C1"}\n'),
], ids=["two_roots", "three_roots", "galois_text", "galois_json"])
def test_a_cap_of_one_splits_what_factors_into_linear_factors(capsys, args, out):
    # the splitting field is Q: nothing is adjoined, so a cap of 1 holds
    assert dispatch(["--max-degree", "1"] + args) == 0
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("cap, poly", [("1", "t^2-2"), ("1", "(t-1)*(t^2-2)"), ("2", "(t^2-2)*(t^2-3)")],
                         ids=["quadratic", "linear_times_quadratic", "second_quadratic"])
def test_a_cap_below_the_first_adjunction_still_bails_early(capsys, cap, poly):
    assert dispatch(["--max-degree", cap, "galois", poly]) == 3
    assert capsys.readouterr() == ("", f"cap exceeded: splitting degree would exceed cap {cap}\n")


def test_a_product_names_the_splitting_cap(capsys):
    # each factor's remainder is factored on its own, so the hidden norm cap
    # is not met on a norm of their product (degree 72) before the splitting
    # cap is
    assert dispatch(["splitting-field", "(t^2-3)*(t^2-5)*(t^3-3*t+1)*(t^4-2)"]) == 3
    assert capsys.readouterr() == ("", "cap exceeded: splitting degree would reach 48 > cap 24\n")


def test_splitting_field_command(capsys):
    assert dispatch(["splitting-field", "t^3-2"]) == 0
    out = capsys.readouterr().out
    assert "degree 6" in out


def test_correspondence_command(capsys):
    assert dispatch(["correspondence", "(t^2+1)*(t^2-2)"]) == 0
    out = capsys.readouterr().out
    assert "mutually inverse: True" in out


def test_construct_commands(capsys):
    assert dispatch(["construct", "classic"]) == 0
    assert dispatch(["construct", "ngon", "17"]) == 0
    out = capsys.readouterr().out
    assert "True" in out
    assert dispatch(["construct", "degree", "t^3-2"]) == 0
    out = capsys.readouterr().out
    assert "not_constructible" in out


@pytest.mark.parametrize("argv, message", [
    (["solvable", "t^2-2"], "solvability is decided over Q"),
    (["minpoly", "t^2-2"], "minpoly towers are built over Q"),
    (["construct", "degree", "t^2-2"], "constructibility is decided over Q"),
    (["construct", "classic"], "constructibility is decided over Q"),
    (["construct", "ngon", "17"], "constructibility is decided over Q"),
    (["gf", "2", "4"], "gf takes its field from p and n, not from --field"),
])
def test_commands_decided_over_q_refuse_another_field(capsys, argv, message):
    assert dispatch(["--field", "F3", *argv]) == 2
    assert capsys.readouterr() == ("", f"parse error: {message}\n")
    # the default field, named, is no other field
    assert dispatch(["--field", "Q", *argv]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["construct", "classic", "junk"], "construct classic takes no argument"),
    (["construct", "ngon"], "construct ngon needs an argument"),
    (["construct", "degree"], "construct degree needs an argument"),
])
def test_construct_takes_an_argument_exactly_when_it_uses_one(capsys, argv, message):
    assert dispatch(argv) == 2
    assert capsys.readouterr() == ("", f"parse error: {message}\n")
    # as for every command decided over Q, another field is refused first
    assert dispatch(["--field", "F3", *argv]) == 2
    assert capsys.readouterr() == ("", "parse error: constructibility is decided over Q\n")


# Per command: words of a valid command line, the same with an unparsable
# polynomial (None for gf, which reads none), and the default caps over Q and
# over F_p.
_ROWS = {
    "factor": (["t^2-2"], ["t^"], (12, None)),
    "irreducible": (["t^2-2"], ["t^"], (12, None)),
    "splitting-field": (["t^3-2"], ["t^"], (24, 24)),
    "galois": (["t^3-2"], ["t^"], (24, 24)),
    "correspondence": (["t^2-2"], ["t^"], (24, 24)),
    "solvable": (["t^4-2"], ["t^"], (24, None)),
    "minpoly": (["t^2-2", "t^2-3"], ["t^2-2", "t^"], (24, None)),
    "construct": (["degree", "t^3-2"], ["degree", "t^"], (None, None)),
    "gf": (["2", "4", "--subfields"], None, (None, None)),
}


def _record_into(seen, name, monkeypatch):
    """Replace the handler in `name`'s row by one that records (max_degree, field)."""
    row = _COMMANDS[name]
    monkeypatch.setitem(_COMMANDS, name, (lambda args, dom: seen.append((args.max_degree, dom)),) + row[1:])


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_each_command_row_decides_the_field_and_default_cap(capsys, monkeypatch, name):
    words, unparsable, caps = _ROWS[name]
    q_only = _COMMANDS[name][3]
    assert _COMMANDS[name][4] == caps
    if q_only:  # refused before the handler parses anything
        for argv in filter(None, (words, unparsable)):
            assert dispatch(["--field", "F3", name, *argv]) == 2
            assert capsys.readouterr() == ("", f"parse error: {q_only}\n")
    seen = []
    _record_into(seen, name, monkeypatch)
    for field, dom, cap in [("Q", QQ, caps[0]), ("F3", PrimeField(3), caps[1])]:
        for head, want in [([], cap), (["--max-degree", "7"], 7)]:
            code = dispatch(["--field", field, *head, name, *words])
            if q_only and field == "F3":
                assert code == 2 and not seen
            else:
                assert code == 0 and seen.pop() == (want, dom)
    assert capsys.readouterr().err.count("parse error") == 2 * bool(q_only)


def test_a_new_row_needs_no_edit_to_dispatch(capsys, monkeypatch):
    monkeypatch.setitem(_COMMANDS, "group", (None, _COMMANDS["galois"][1], (), "groups are named over Q", (24, None)))
    seen = []
    _record_into(seen, "group", monkeypatch)
    assert dispatch(["--field", "F3", "group", "t^3-2"]) == 2
    assert capsys.readouterr() == ("", "parse error: groups are named over Q\n")
    assert dispatch(["group", "t^3-2"]) == 0 and seen == [(24, QQ)]


def test_ngon_verdict_past_the_trial_division_cap(capsys):
    # 5^2 divides 10^40: decided without factoring; F_7 = 2^128 + 1 needs a
    # primality proof past the strong-test bound
    assert dispatch(["construct", "ngon", str(10**40)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("constructible: False")
    assert dispatch(["construct", "ngon", str(2**128 + 1)]) == 3
    assert capsys.readouterr().err.startswith("cap exceeded: primality is proved only below")


def test_exit_codes(capsys):
    assert dispatch(["factor", "2t"]) == 2  # parse error
    capsys.readouterr()
    # argparse reads a polynomial that begins with '-' as an option: a usage
    # error, unless '--' ends the options or the argument begins otherwise
    assert dispatch(["factor", "-t^2+1"]) == 2
    assert "usage: galoiskit factor" in capsys.readouterr().err
    for argv in (["factor", "--", "-t^2+1"], ["factor", " -t^2+1"]):
        assert dispatch(argv) == 0
        assert capsys.readouterr().out == "unit: -1\n(t - 1)^1\n(t + 1)^1\n"
    assert dispatch(["solvable", "t^7 - 2*t + 2"]) == 3  # degree cap
    capsys.readouterr()
    assert dispatch(["--json", "galois", "t^4-2"]) == 0


_USAGE = (
    "usage: galoiskit [-h] [--field FIELD] [--json] [--max-degree MAX_DEGREE]\n"
    "                 {factor,irreducible,splitting-field,galois,correspondence,solvable,minpoly,construct,gf}\n"
    "                 ...\n"
)
_GF_USAGE = "usage: galoiskit gf [-h] [--subfields] [--generator] p n\n"

# Exact (exit code, stdout, stderr) of argparse's reading of command lines
# that are usage errors, help, or a form argparse reads in its own way (an
# option prefix, an int that begins with '-'); recorded with a help width of
# 80 columns.
ARGPARSE_BYTES = [
    ([], 2, "", _USAGE + "galoiskit: error: the following arguments are required: command\n"),
    (
        ["-h"], 0,
        _USAGE + "\n"
        "Exact Galois theory: factorization, splitting fields, Galois groups, the\n"
        "Galois correspondence, solvability and constructibility verdicts, finite\n"
        "fields.\n"
        "\n"
        "positional arguments:\n"
        "  {factor,irreducible,splitting-field,galois,correspondence,solvable,minpoly,construct,gf}\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --field FIELD         coefficient field: Q or F<p>\n"
        "  --json                machine-readable output\n"
        "  --max-degree MAX_DEGREE\n"
        "                        degree cap, by command: factor, irreducible: the\n"
        "                        degree to factor (default 12 over Q, none over F_p);\n"
        "                        splitting-field, galois, correspondence, solvable: the\n"
        "                        splitting field (24); minpoly: the tower (24);\n"
        "                        construct degree: the input; gf: n (no default)\n",
        "",
    ),
    (
        ["factor", "-h"], 0,
        "usage: galoiskit factor [-h] poly\n"
        "\n"
        "positional arguments:\n"
        "  poly        polynomial expression in t\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n",
        "",
    ),
    (
        ["gf", "-h"], 0,
        _GF_USAGE + "\n"
        "positional arguments:\n"
        "  p\n"
        "  n\n"
        "\n"
        "options:\n"
        "  -h, --help   show this help message and exit\n"
        "  --subfields\n"
        "  --generator\n",
        "",
    ),
    (
        ["factor"], 2, "",
        "usage: galoiskit factor [-h] poly\n"
        "galoiskit factor: error: the following arguments are required: poly\n",
    ),
    (["factor", "a", "b"], 2, "", _USAGE + "galoiskit: error: unrecognized arguments: b\n"),
    (
        ["factor", "-t^2+1"], 2, "",
        "usage: galoiskit factor [-h] poly\n"
        "galoiskit factor: error: the following arguments are required: poly\n",
    ),
    (["--js", "factor", "t"], 0, '{"factors":[{"multiplicity":1,"poly":"t"}],"unit":"1"}\n', ""),
    (["--field"], 2, "", _USAGE + "galoiskit: error: argument --field: expected one argument\n"),
    (
        ["--max-degree", "x", "factor", "t"], 2, "",
        _USAGE + "galoiskit: error: argument --max-degree: invalid int value: 'x'\n",
    ),
    (
        ["construct", "foo"], 2, "",
        "usage: galoiskit construct [-h] {classic,ngon,degree} [arg]\n"
        "galoiskit construct: error: argument what: invalid choice: 'foo' "
        "(choose from 'classic', 'ngon', 'degree')\n",
    ),
    (["gf", "2"], 2, "", _GF_USAGE + "galoiskit gf: error: the following arguments are required: n\n"),
    (["gf", "2", "3", "--bogus"], 2, "", _USAGE + "galoiskit: error: unrecognized arguments: --bogus\n"),
    (["--json", "factor", "--json", "t"], 2, "", _USAGE + "galoiskit: error: unrecognized arguments: --json\n"),
    # argparse reads -1 as the positional n = -1
    (["gf", "2", "-1"], 2, "", "error: field degree must be at least 1, got -1\n"),
]


@pytest.mark.parametrize("argv, code, out, err", ARGPARSE_BYTES)
def test_argparse_usage_and_help_bytes_are_pinned(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    assert dispatch(argv) == code
    assert capsys.readouterr() == (out, err)


# One well-formed command line of every subcommand, each quick.
_ONE_COMMAND_EACH = [
    ["--json", "factor", "t^2-2"],
    ["--field", "F5", "irreducible", "t^2+2"],
    ["--max-degree", "8", "splitting-field", "t^2-2"],
    ["--json", "galois", "t^3-2"],
    ["correspondence", "t^2-2"],
    ["solvable", "t^4-2"],
    ["minpoly", "t^2-2", "t^2-3"],
    ["construct", "classic"],
    ["construct", "ngon", "17"],
    ["--json", "construct", "degree", "t^3-2"],
    ["gf", "2", "4", "--subfields", "--generator"],
]


_COMMAND_NAMES = [
    "factor", "irreducible", "splitting-field", "galois", "correspondence", "solvable", "minpoly",
    "construct", "gf",
]
# every subcommand and option, option prefixes, --opt=value, '--', -h,
# negative numbers, int spellings and arguments with spaces
_ARGV_TOKENS = _COMMAND_NAMES + [
    "classic", "ngon", "degree", "foo",
    "--json", "--field", "--max-degree", "--subfields", "--generator",
    "--js", "--fi", "--max", "--sub", "--gen", "--help", "-h", "--", "-",
    "--json=1", "--field=F2", "--max-degree=5", "--subfields=1",
    "F2", "F3", "Q", "x", "5", "12", "0", "+5", " 5", "1_0", "-1", "-5",
    "t", "t^2-2", "t^2 - 2", " -t^2+1", "-t^2+1", "-t^2 + 1", "a b", "",
]
_ARGV_POLYS = ["t^2-2", "t", "t^2 - 2", " -t^2+1", "", "5", "a b"]
_ARGV_INTS = ["2", "5", "12", "+5", " 5", "1_0", "x", "5.0"]


def _command_words(rng, name):
    """Words after the command, of the command's own shape."""
    if name == "minpoly":
        return [rng.choice(_ARGV_POLYS) for _ in range(rng.randint(1, 3))]
    if name == "construct":
        what = rng.choice(["classic", "ngon", "degree", "foo"])
        return [what] + [rng.choice(_ARGV_POLYS + _ARGV_INTS)] * rng.randint(0, 1)
    if name == "gf":
        words = [rng.choice(_ARGV_INTS), rng.choice(_ARGV_INTS)]
        for flag in rng.sample(["--subfields", "--generator", "--subfields"], rng.randint(0, 3)):
            words.insert(rng.randint(0, len(words)), flag)
        return words
    return [rng.choice(_ARGV_POLYS)]


def _random_argv(rng):
    """Half the time any tokens; else options, a command and words of its shape, perhaps one token
    replaced, inserted or removed."""
    if rng.random() < 0.5:
        return [rng.choice(_ARGV_TOKENS) for _ in range(rng.randint(0, 6))]
    argv = []
    for _ in range(rng.randint(0, 3)):
        argv += rng.choice((
            ["--json"],
            ["--field", rng.choice(["F2", "F3", "Q", "x", "-1", "", "t"])],
            ["--max-degree", rng.choice(_ARGV_INTS + ["-1"])],
        ))
    name = rng.choice(_COMMAND_NAMES)
    argv += [name, *_command_words(rng, name)]
    edit = rng.randrange(6)
    if edit == 0:
        argv[rng.randrange(len(argv))] = rng.choice(_ARGV_TOKENS)
    elif edit == 1:
        argv.insert(rng.randint(0, len(argv)), rng.choice(_ARGV_TOKENS))
    elif edit == 2:
        del argv[rng.randrange(len(argv))]
    return argv


def _argparse_reading(argv):
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def test_read_argv_agrees_with_argparse_on_random_command_lines():
    rng = random.Random(45)
    outcomes = Counter()
    for _ in range(12000):
        argv = _random_argv(rng)
        ours, theirs = _read_argv(argv), _argparse_reading(argv)
        if ours is not None:
            assert vars(ours) == theirs, argv
        outcomes["read" if ours else "argparse reads" if theirs else "usage error"] += 1
    # every outcome is well represented (2,633, 470 and 8,897 of them when
    # written): argparse also reads forms the reader declines (--js, -1 as
    # gf's n, -t^2+1 after --)
    assert outcomes["read"] >= 2000 and outcomes["argparse reads"] >= 350, outcomes
    assert outcomes["usage error"] >= 5000, outcomes


def test_read_argv_reads_every_workload_shape():
    samples = {
        "factor": ["t^2-2"], "irreducible": ["t^2-2"], "splitting-field": ["t^3-2"],
        "galois": ["t^4-2"], "correspondence": ["t^4-t-1"], "solvable": ["t^5-5*t+12"],
        "minpoly": ["t^2-2", "t^2-3"], "construct": ["degree", "t^3-2"], "gf": ["2", "4"],
    }
    argvs = [["construct", "classic"], ["construct", "ngon", "17"],
             ["gf", "2", "4", "--subfields", "--generator"], ["gf", "2", "4", "--generator", "--subfields"],
             ["--json", "gf", "3", "2", "--subfields", "--generator"], ["gf", "--subfields", "2", "4"]]
    for name, words in samples.items():
        for head in ([], ["--json"], ["--field", "F7"], ["--max-degree", "12"],
                     ["--json", "--field", "F2", "--max-degree", "48"]):
            argvs.append([*head, name, *words])
    for argv in argvs:
        ours = _read_argv(argv)
        assert ours is not None, argv
        assert vars(ours) == _argparse_reading(argv), argv


def _run_cli(*argv):
    """Run `galoiskit.cli.main` in a fresh interpreter, from the package under test."""
    src = str(Path(galoiskit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", "from galoiskit.cli import main; main()", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_import_loads_no_dataclasses_inspect_or_json():
    # these cost most of a process's start-up; only --json output needs json,
    # and only a usage error or help needs argparse (and its gettext)
    src = str(Path(galoiskit.__file__).resolve().parent.parent)
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "json", "argparse", "gettext"}
    code = f"""
import contextlib, io, sys
sys.path.insert(0, {src!r})
import galoiskit
print(sorted({heavy!r} & set(sys.modules)))
galoiskit.cli.dispatch(["factor", "t^2-2"])
print(sorted({heavy!r} & set(sys.modules)))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [galoiskit.cli.dispatch(argv) for argv in {_ONE_COMMAND_EACH!r}]
print(codes, sorted({{"argparse", "gettext"}} & set(sys.modules)))
"""
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"[]\nunit: 1\n(t^2 - 2)^1\n[]\n{[0] * len(_ONE_COMMAND_EACH)} []\n"
    # nor fractions, with its decimal, numbers and re: a rational is a
    # TowerElem.  -S keeps `site` from importing re itself.
    rational = {"fractions", "decimal", "numbers", "re"}
    plain = [argv for argv in _ONE_COMMAND_EACH if "--json" not in argv]
    code = f"""
import contextlib, io, sys
sys.path.insert(0, {src!r})
import galoiskit
print(sorted({rational!r} & set(sys.modules)))
for argv in {plain!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = galoiskit.cli.dispatch(argv)
    print(code, sorted({rational!r} & set(sys.modules)))
"""
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n" + "0 []\n" * len(plain)
    usage = _run_cli("factor")
    assert usage.returncode == 2 and usage.stderr.startswith("usage: galoiskit factor")


def test_python_m_galoiskit_runs_the_cli():
    src = str(Path(galoiskit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    for argv, out in (
        (["--json", "factor", "t^2-2"], '{"factors":[{"multiplicity":1,"poly":"t^2 - 2"}],"unit":"1"}\n'),
        (["factor", "t^2-2"], "unit: 1\n(t^2 - 2)^1\n"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "galoiskit", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", out)


def test_python_m_galoiskit_cli_runs_without_a_warning():
    # the package leaves cli unloaded until it is used, so runpy does not warn
    # that it found galoiskit.cli in sys.modules before running it
    src = str(Path(galoiskit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    cli_run, package_run = (
        subprocess.run([sys.executable, "-m", module, "irreducible", "t^4-1"],
                       capture_output=True, text=True, env=env, timeout=60)
        for module in ("galoiskit.cli", "galoiskit")
    )
    assert (cli_run.returncode, cli_run.stderr) == (0, "")
    assert cli_run.stdout == package_run.stdout and package_run.stdout.startswith("reducible")
    assert galoiskit.parse_poly is galoiskit.cli.parse_poly


def test_gf_degree_below_one_is_an_input_error():
    for n in ("0", "-1"):
        proc = _run_cli("gf", "2", n)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and "degree" in proc.stderr
        assert proc.stdout == ""


def test_ngon_below_three_vertices_is_an_input_error():
    for n, message in (("2", "error: a polygon"), ("0", "error: a polygon"), ("abc", "parse error: bad vertex")):
        proc = _run_cli("construct", "ngon", n)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(message)
        assert proc.stdout == ""


def test_irreducible_refuses_zero_and_constants_over_every_field(capsys):
    # neither reducible nor irreducible: the same exit and message over Q and F_p
    for field in ([], ["--field", "F2"], ["--field", "F7"]):
        for poly, message in (
            ("0", "error: zero polynomial is neither reducible nor irreducible\n"),
            ("1", "error: constants are neither reducible nor irreducible\n"),
            ("3", "error: constants are neither reducible nor irreducible\n"),
        ):
            assert dispatch([*field, "irreducible", poly]) == 2, (field, poly)
            out, err = capsys.readouterr()
            assert (out, err) == ("", message), (field, poly)


def test_gf_huge_degree_is_refused_before_any_work(capsys):
    t0 = time.monotonic()
    assert dispatch(["gf", "3", "10000000"]) == 3
    assert time.monotonic() - t0 < 1.0
    assert "field order 3^10000000 exceeds budget" in capsys.readouterr().err


def test_json_byte_determinism(capsys):
    outputs = []
    for _ in range(2):
        assert dispatch(["--json", "galois", "t^4-2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["order"] == 8
    assert payload["type"] == "D4"


# Exact `--json` bytes, recorded before automorphisms were stored as
# matrices; any change to canonical orderings, root order or presentation
# shows up here.
GOLDEN_JSON = [
    (
        ["--json", "galois", "t^4-2"],
        '{"action":["-a","-b","b","a"],"elements":["()","(2 3)","(1 2)(3 '
        '4)","(1 2 4 3)","(1 3 4 2)","(1 3)(2 4)","(1 4)","(1 4)(2 3)"],"'
        'generators":["(1 2 4 3)","(2 3)"],"order":8,"type":"D4"}\n',
    ),
    (
        ["--json", "correspondence", "t^4-2"],
        '{"degree":8,"group_order":8,"mutually_inverse":true,"pair_count"'
        ':10,"pairs":[{"fixed_field":{"dim":8,"primitive":"a*b + a","prim'
        'itive_min_poly":"t^8 + 8*t^6 + 20*t^4 + 80*t^2 + 4"},"gal_over_m'
        'atches":true,"normal":true,"order":1,"subgroup":[0]},{"fixed_fie'
        'ld":{"dim":4,"primitive":"a","primitive_min_poly":"t^4 - 2"},"ga'
        'l_over_matches":true,"normal":false,"order":2,"subgroup":[0,1]},'
        '{"fixed_field":{"dim":4,"primitive":"b + a","primitive_min_poly"'
        ':"t^4 + 8"},"gal_over_matches":true,"normal":false,"order":2,"su'
        'bgroup":[0,2]},{"fixed_field":{"dim":4,"primitive":"-b + a","pri'
        'mitive_min_poly":"t^4 + 8"},"gal_over_matches":true,"normal":fal'
        'se,"order":2,"subgroup":[0,5]},{"fixed_field":{"dim":4,"primitiv'
        'e":"b","primitive_min_poly":"t^4 - 2"},"gal_over_matches":true,"'
        'normal":false,"order":2,"subgroup":[0,6]},{"fixed_field":{"dim":'
        '4,"primitive":"a*b + a^2","primitive_min_poly":"t^4 + 16"},"gal_'
        'over_matches":true,"normal":true,"order":2,"subgroup":[0,7]},{"f'
        'ixed_field":{"dim":2,"primitive":"a^2","primitive_min_poly":"t^2'
        ' - 2"},"gal_over_matches":true,"normal":true,"order":4,"subgroup'
        '":[0,1,6,7]},{"fixed_field":{"dim":2,"primitive":"a*b","primitiv'
        'e_min_poly":"t^2 + 2"},"gal_over_matches":true,"normal":true,"or'
        'der":4,"subgroup":[0,2,5,7]},{"fixed_field":{"dim":2,"primitive"'
        ':"a^3*b","primitive_min_poly":"t^2 + 4"},"gal_over_matches":true'
        ',"normal":true,"order":4,"subgroup":[0,3,4,7]},{"fixed_field":{"'
        'dim":1,"primitive":"1","primitive_min_poly":"t - 1"},"gal_over_m'
        'atches":true,"normal":true,"order":8,"subgroup":[0,1,2,3,4,5,6,7'
        ']}]}\n',
    ),
    (
        ["--json", "--field", "F2", "galois", "t^6+t^4+t^2+t+1"],
        '{"action":["a^4","a^2","a","a^4 + a","a^3 + a + 1","a^3 + a^2 + '
        'a + 1"],"elements":["()","(1 2 3 6 4 5)","(1 3 4)(2 6 5)","(1 4 '
        '3)(2 5 6)","(1 5 4 6 3 2)","(1 6)(2 4)(3 5)"],"generators":["(1 '
        '2 3 6 4 5)"],"order":6,"type":"C6"}\n',
    ),
    (
        ["--json", "--field", "F2", "splitting-field", "t^17+t^3+1"],
        '{"degree":17,"multiplicities":[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1'
        '],"polynomial":"t^17 + t^3 + 1","roots":["a^16","a^8","a^15 + a^'
        '13 + a^10 + a^9 + a^6 + a^5","a^4","a^16 + a^15 + a^13 + a^11 + '
        'a^9 + a^8 + a^6 + a^5 + a^4 + a^3","a^2","a^9 + a^2","a^16 + a^1'
        '3 + a^8 + a^2","a^16 + a^15 + a^13 + a^10 + a^7 + a^2","a^16 + a'
        '^15 + a^14 + a^13 + a^11 + a^10 + a^9 + a^7 + a^6 + a^2","a^15 +'
        ' a^9 + a^8 + a^3 + a^2","a","a^16 + a^15 + a^12 + a^9 + a","a^13'
        ' + a^6 + a","a^15 + a^4 + a","a^16 + a^15 + a^14 + a^13 + a^12 +'
        ' a^9 + a^6 + a^3 + a","a^16 + a^13 + a^10 + a^9 + a^6 + a^4 + a^'
        '3 + a"],"tower":[{"label":"a","min_poly":"t^17 + t^3 + 1"}]}\n',
    ),
    # recorded before polynomials over F_p multiplied on int residues
    (
        ["--json", "--field", "F13", "factor", "3*(t^8+3*t^5+t+2)*(t+1)^2"],
        '{"factors":[{"multiplicity":2,"poly":"t + 1"},{"multiplicity":1,"'
        'poly":"t + 9"},{"multiplicity":1,"poly":"t^2 + 3*t + 10"},{"multi'
        'plicity":1,"poly":"t^2 + 8*t + 11"},{"multiplicity":1,"poly":"t^3'
        ' + 6*t^2 + 9*t + 1"}],"unit":"3"}\n',
    ),
    (
        ["--json", "irreducible", "t^5-t-1"],
        '{"verdict":"irreducible","witness_data":{"prime":3},"witness_kind"'
        ':"mod_p"}\n',
    ),
    (
        ["--json", "factor", "(t^3-2)*(t^4+3*t+3)*(t^2+1)^2"],
        '{"factors":[{"multiplicity":2,"poly":"t^2 + 1"},{"multiplicity":1,'
        '"poly":"t^3 - 2"},{"multiplicity":1,"poly":"t^4 + 3*t + 3"}],"uni'
        't":"1"}\n',
    ),
    # recorded before polynomials over Q multiplied on integer numerators
    (
        ["--json", "galois", "t^6-2"],
        '{"action":["-a","b - a","-b","b","-b + a","a"],"elements":["()","('
        '2 3)(4 5)","(1 2)(3 4)(5 6)","(1 2 4 6 5 3)","(1 3 5 6 4 2)","(1 3'
        ')(2 5)(4 6)","(1 4)(3 6)","(1 4 5)(2 6 3)","(1 5 4)(2 3 6)","(1 5)'
        '(2 6)","(1 6)(2 4)(3 5)","(1 6)(2 5)(3 4)"],"generators":["(1 2 4 '
        '6 5 3)","(2 3)(4 5)"],"order":12,"type":"unidentified group of ord'
        'er 12"}\n',
    ),
    (
        ["--json", "factor", "(1/2*t+1/3)*(t^2-2/5)"],
        '{"factors":[{"multiplicity":1,"poly":"t + 2/3"},{"multiplicity":1,'
        '"poly":"t^2 - 2/5"}],"unit":"1/2"}\n',
    ),
    (
        ["--json", "factor", "(1/2*t+1/3)*(3/4*t^2-2/5)^2"],
        '{"factors":[{"multiplicity":1,"poly":"t + 2/3"},{"multiplicity":2,'
        '"poly":"t^2 - 8/15"}],"unit":"9/32"}\n',
    ),
    (
        ["--json", "irreducible", "(t^3-2)*(t^4+3*t+3)"],
        '{"verdict":"reducible","witness_data":{"factorization":{"factors":'
        '[{"multiplicity":1,"poly":"t^3 - 2"},{"multiplicity":1,"poly":"t^4'
        ' + 3*t + 3"}],"unit":"1"}},"witness_kind":"full_factorization"}\n',
    ),
    # recorded before subfields were tested by Frobenius instead of listed
    (
        ["--json", "gf", "2", "20", "--subfields", "--generator"],
        '{"frobenius_order":20,"generator":"a^19","modulus":"t^20 + t^3 + 1'
        '","n":20,"order":1048576,"p":2,"subfield_orders":[2,4,16,32,1024,1'
        '048576],"subfields":[{"m":1,"order":2},{"m":2,"order":4},{"m":4,"o'
        'rder":16},{"m":5,"order":32},{"m":10,"order":1024},{"m":20,"order"'
        ':1048576}]}\n',
    ),
    (
        ["--json", "gf", "3", "9", "--subfields", "--generator"],
        '{"frobenius_order":9,"generator":"2*a^8","modulus":"t^9 + 2*t^3 + '
        't^2 + 1","n":9,"order":19683,"p":3,"subfield_orders":[3,27,19683],'
        '"subfields":[{"m":1,"order":3},{"m":3,"order":27},{"m":9,"order":1'
        '9683}]}\n',
    ),
    (
        ["--json", "gf", "2", "12", "--subfields"],
        '{"frobenius_order":12,"generator":"a^11 + a^10","modulus":"t^12 + '
        't^3 + 1","n":12,"order":4096,"p":2,"subfield_orders":[2,4,8,16,64,'
        '4096],"subfields":[{"m":1,"order":2},{"m":2,"order":4},{"m":3,"ord'
        'er":8},{"m":4,"order":16},{"m":6,"order":64},{"m":12,"order":4096}'
        ']}\n',
    ),
    # recorded before Zassenhaus chose its prime from the distinct-degree
    # pattern and F_p gcd and powmod ran on int residues
    (
        ["--json", "factor", "t^4-10*t^2+1"],
        '{"factors":[{"multiplicity":1,"poly":"t^4 - 10*t^2 + 1"}],"unit":"1"}\n',
    ),
    (
        ["--json", "factor", "t^8-40*t^6+352*t^4-960*t^2+576"],
        '{"factors":[{"multiplicity":1,"poly":"t^8 - 40*t^6 + 352*t^4 - 960*t^'
        '2 + 576"}],"unit":"1"}\n',
    ),
    (
        ["--json", "--field", "F3", "factor", "(t^2+1)^3*(t+1)*(t^3-t+1)^3"],
        '{"factors":[{"multiplicity":1,"poly":"t + 1"},{"multiplicity":3,"pol'
        'y":"t^2 + 1"},{"multiplicity":3,"poly":"t^3 + 2*t + 1"}],"unit":"1"}\n',
    ),
    (
        ["--json", "--field", "F1031", "factor", "t^9+5*t^4+1000*t+7"],
        '{"factors":[{"multiplicity":1,"poly":"t^2 + 114*t + 93"},{"multiplic'
        'ity":1,"poly":"t^7 + 917*t^6 + 531*t^5 + 587*t^4 + 202*t^3 + 742*t^2 '
        '+ 757*t + 377"}],"unit":"1"}\n',
    ),
    (
        ["--json", "--field", "F2", "irreducible", "t^17+t^3+1"],
        '{"verdict":"irreducible"}\n',
    ),
    (
        ["--json", "--field", "F13", "irreducible", "t^12+t+2"],
        '{"verdict":"reducible"}\n',
    ),
    # recorded before Trager factoring moved into the primitive element's field
    (
        ["--json", "galois", "t^5-5*t+12"],
        '{"action":["(1/2*a + 1/2)*b + 1/4*a^4 + 1/4*a^3 + 1/4*a^2 - 1/4*a '
        '- 3/2","b","a","(-1/2*a - 1/2)*b + -1/2*a + 1/2","-b + -1/4*a^4 - '
        '1/4*a^3 - 1/4*a^2 - 1/4*a + 1"],"elements":["()","(2 4)(3 5)","(1 '
        '2)(3 4)","(1 2 3 5 4)","(1 3)(4 5)","(1 3 4 2 5)","(1 4 5 3 2)","('
        '1 4)(2 5)","(1 5)(2 3)","(1 5 2 4 3)"],"generators":["(1 2 3 5 4)"'
        ',"(2 4)(3 5)"],"order":10,"type":"unidentified group of order 10"}\n',
    ),
    (
        ["--json", "galois", "t^4-t-1"],
        '{"action":["-c + -b - a","c","b","a"],"elements":["()","(3 4)","(2'
        ' 3)","(2 3 4)","(2 4 3)","(2 4)","(1 2)","(1 2)(3 4)","(1 2 3)","('
        '1 2 3 4)","(1 2 4 3)","(1 2 4)","(1 3 2)","(1 3 4 2)","(1 3)","(1 '
        '3 4)","(1 3)(2 4)","(1 3 2 4)","(1 4 3 2)","(1 4 2)","(1 4 3)","(1'
        ' 4)","(1 4 2 3)","(1 4)(2 3)"],"generators":["(1 2 3 4)","(1 2 4 3'
        ')"],"order":24,"type":"S4"}\n',
    ),
    (
        ["--json", "minpoly", "t^2-2", "t^2-3", "t^2-5"],
        '{"degree":8,"primitive_element":"c + b + a","primitive_min_poly":"'
        't^8 - 40*t^6 + 352*t^4 - 960*t^2 + 576","tower":[{"label":"a","min'
        '_poly":"t^2 - 2"},{"label":"b","min_poly":"t^2 - 3"},{"label":"c",'
        '"min_poly":"t^2 - 5"}]}\n',
    ),
    # recorded before tower products ran on the int kernels and before the
    # Trager shift was chosen mod p
    (
        ["--json", "--field", "F3", "galois", "t^6+2*t^5+t^4+t^3+2*t^2+t+1"],
        '{"action":["1","a","2*a + 2","b","b^2 + 2","2*b^2 + 2*b + 2"],"elem'
        'ents":["()","(4 5 6)","(4 6 5)","(2 3)","(2 3)(4 5 6)","(2 3)(4 6 5'
        ')"],"generators":["(2 3)(4 5 6)"],"order":6,"type":"C6"}\n',
    ),
    (
        ["--json", "splitting-field", "(2*t^2-1)*(3*t^2-5)"],
        '{"degree":4,"multiplicities":[1,1,1,1],"polynomial":"6*t^4 - 13*t^2'
        ' + 5","roots":["-a","-b","b","a"],"tower":[{"label":"a","min_poly":'
        '"t^2 - 5/3"},{"label":"b","min_poly":"t^2 - 1/2"}]}\n',
    ),
    # recorded before equal-degree splitting swept only monic witnesses
    (
        ["--json", "--field", "F1031", "galois", "t^4+3"],
        '{"action":["a","1030*a","a + 319","1030*a + 712"],"elements":["()",'
        '"(1 4)(2 3)"],"generators":["(1 4)(2 3)"],"order":2,"type":"C2"}\n',
    ),
    # recorded before the base fields spoke the tower protocol: degree-1
    # splitting fields over Q and F_p
    (
        ["--json", "splitting-field", "t-1"],
        '{"degree":1,"multiplicities":[1],"polynomial":"t - 1","roots":["1"],'
        '"tower":[]}\n',
    ),
    (
        ["--json", "galois", "t^2-1"],
        '{"action":["-1","1"],"elements":["()"],"generators":[],"order":1,"type":"C1"}\n',
    ),
    (
        ["--json", "correspondence", "(t-1)*(t-2)"],
        '{"degree":1,"group_order":1,"mutually_inverse":true,"pair_count":1,"pairs":'
        '[{"fixed_field":{"dim":1,"primitive":"1","primitive_min_poly":"t - 1"},'
        '"gal_over_matches":true,"normal":true,"order":1,"subgroup":[0]}]}\n',
    ),
    (
        ["--json", "--field", "F5", "correspondence", "t^2-1"],
        '{"degree":1,"group_order":1,"mutually_inverse":true,"pair_count":1,"pairs":'
        '[{"fixed_field":{"dim":1,"primitive":"1","primitive_min_poly":"t + 4"},'
        '"gal_over_matches":true,"normal":true,"order":1,"subgroup":[0]}]}\n',
    ),
    (["--json", "minpoly", "t-1"], '{"degree":1,"tower":[]}\n'),
    # recorded before Zassenhaus's modular stage ran on residue lists: a
    # squared factor, a squarefree input that is not squarefree mod 2, 3 or
    # 5, one that is not squarefree mod any prime <= 31 (the rational
    # squarefree part runs), a repeated factor over F_3 (multiplicity p)
    # and a mod-p witness for a non-monic input
    (
        ["--json", "factor", "(t^2+1)^2*(t^3-2)*(2*t-3)"],
        '{"factors":[{"multiplicity":1,"poly":"t - 3/2"},{"multiplicity":2,'
        '"poly":"t^2 + 1"},{"multiplicity":1,"poly":"t^3 - 2"}],"unit":"2"}\n',
    ),
    (
        ["--json", "factor", "(t^2-30)*(t^3-2)"],
        '{"factors":[{"multiplicity":1,"poly":"t^2 - 30"},{"multiplicity":1,'
        '"poly":"t^3 - 2"}],"unit":"1"}\n',
    ),
    (
        [
            "--json",
            "--max-degree",
            "22",
            "factor",
            "(t^2-2)*(t^2-3)*(t^2-5)*(t^2-7)*(t^2-11)*(t^2-13)*(t^2-17)"
            "*(t^2-19)*(t^2-23)*(t^2-29)*(t^2-31)",
        ],
        '{"factors":[{"multiplicity":1,"poly":"t^2 - 31"},{"multiplicity":1,'
        '"poly":"t^2 - 29"},{"multiplicity":1,"poly":"t^2 - 23"},{"multiplicity":1,'
        '"poly":"t^2 - 19"},{"multiplicity":1,"poly":"t^2 - 17"},{"multiplicity":1,'
        '"poly":"t^2 - 13"},{"multiplicity":1,"poly":"t^2 - 11"},{"multiplicity":1,'
        '"poly":"t^2 - 7"},{"multiplicity":1,"poly":"t^2 - 5"},{"multiplicity":1,'
        '"poly":"t^2 - 3"},{"multiplicity":1,"poly":"t^2 - 2"}],"unit":"1"}\n',
    ),
    (
        ["--json", "--field", "F3", "factor", "(t^2+1)^3*(t+2)^2*(t^3-t+1)"],
        '{"factors":[{"multiplicity":2,"poly":"t + 2"},{"multiplicity":3,'
        '"poly":"t^2 + 1"},{"multiplicity":1,"poly":"t^3 + 2*t + 1"}],"unit":"1"}\n',
    ),
    (
        ["--json", "irreducible", "3*t^4-t^2+t+1"],
        '{"verdict":"irreducible","witness_data":{"prime":11},"witness_kind":"mod_p"}\n',
    ),
    (
        ["--json", "--max-degree", "6", "minpoly", "t^2-2", "t^3-2"],
        '{"degree":6,"primitive_element":"b + a","primitive_min_poly":"t^6 - 6*t^4 '
        '- 4*t^3 + 12*t^2 - 24*t - 4","tower":[{"label":"a","min_poly":"t^2 - 2"},'
        '{"label":"b","min_poly":"t^3 - 2"}]}\n',
    ),
    # recorded before the parser built sparse exponent maps: a factored input
    # with squared and cubed factors, literals that are reduced as fractions
    # before their denominator is tested against p (12/2 = 0 in F_2,
    # 1211/7 = 173 = 5 in F_7) and a rational constructibility target
    (
        ["--json", "factor", "(t-1)^2*(t^2+t+1)^3*(3*t^2+2)"],
        '{"factors":[{"multiplicity":2,"poly":"t - 1"},{"multiplicity":1,"poly":'
        '"t^2 + 2/3"},{"multiplicity":3,"poly":"t^2 + t + 1"}],"unit":"3"}\n',
    ),
    (
        ["--json", "--field", "F2", "factor", "t^4 + 12/2*t^3 + (t+1)^2"],
        '{"factors":[{"multiplicity":2,"poly":"t^2 + t + 1"}],"unit":"1"}\n',
    ),
    (
        ["--json", "--field", "F7", "factor", "t^3 + 1211/7*t + 3/5"],
        '{"factors":[{"multiplicity":1,"poly":"t^3 + 5*t + 2"}],"unit":"1"}\n',
    ),
    (
        ["--json", "construct", "degree", "t^3 - 3/4*t - 1/8"],
        '{"degree":3,"target":"t^3 - 3/4*t - 1/8","verdict":"not_constructible"}\n',
    ),
    # recorded before tower elements were stored as flat coordinate tuples:
    # two two-level finite towers and three levels over Q
    (
        ["--json", "--field", "F3", "splitting-field", "(t^2+1)*(t^3-t+1)"],
        '{"degree":6,"multiplicities":[1,1,1,1,1],"polynomial":"t^5 + t^2 +'
        ' 2*t + 1","roots":["a","2*a","b","b + 1","b + 2"],"tower":[{"label'
        '":"a","min_poly":"t^2 + 1"},{"label":"b","min_poly":"t^3 + 2*t + 1'
        '"}]}\n',
    ),
    (
        ["--json", "--field", "F5", "splitting-field", "(t^2+2)*(t^4+t+2)"],
        '{"degree":6,"multiplicities":[1,1,1,1,1,1],"polynomial":"t^6 + 2*t'
        '^4 + t^3 + 2*t^2 + 2*t + 4","roots":["2","a","4*a","b","4*b^2 + 3*'
        'b","b^2 + b + 3"],"tower":[{"label":"a","min_poly":"t^2 + 2"},{"la'
        'bel":"b","min_poly":"t^3 + 2*t^2 + 4*t + 4"}]}\n',
    ),
    (
        ["--json", "correspondence", "(t^2-2)*(t^2-3)*(t^2-5)"],
        '{"degree":8,"group_order":8,"mutually_inverse":true,"pair_count":1'
        '6,"pairs":[{"fixed_field":{"dim":8,"primitive":"((a + 1)*b + a)*c"'
        ',"primitive_min_poly":"t^8 - 184*t^6 + 8376*t^4 - 107104*t^2 + 193'
        '6"},"gal_over_matches":true,"normal":true,"order":1,"subgroup":[0]'
        '},{"fixed_field":{"dim":4,"primitive":"b + a","primitive_min_poly"'
        ':"t^4 - 16*t^2 + 4"},"gal_over_matches":true,"normal":true,"order"'
        ':2,"subgroup":[0,1]},{"fixed_field":{"dim":4,"primitive":"c + a","'
        'primitive_min_poly":"t^4 - 14*t^2 + 9"},"gal_over_matches":true,"n'
        'ormal":true,"order":2,"subgroup":[0,2]},{"fixed_field":{"dim":4,"p'
        'rimitive":"b*c + a","primitive_min_poly":"t^4 - 22*t^2 + 1"},"gal_'
        'over_matches":true,"normal":true,"order":2,"subgroup":[0,3]},{"fix'
        'ed_field":{"dim":4,"primitive":"c + b","primitive_min_poly":"t^4 -'
        ' 10*t^2 + 1"},"gal_over_matches":true,"normal":true,"order":2,"sub'
        'group":[0,4]},{"fixed_field":{"dim":4,"primitive":"a*c + b","primi'
        'tive_min_poly":"t^4 - 26*t^2 + 49"},"gal_over_matches":true,"norma'
        'l":true,"order":2,"subgroup":[0,5]},{"fixed_field":{"dim":4,"primi'
        'tive":"c + a*b","primitive_min_poly":"t^4 - 34*t^2 + 169"},"gal_ov'
        'er_matches":true,"normal":true,"order":2,"subgroup":[0,6]},{"fixed'
        '_field":{"dim":4,"primitive":"a*c + a*b","primitive_min_poly":"t^4'
        ' - 50*t^2 + 25"},"gal_over_matches":true,"normal":true,"order":2,"'
        'subgroup":[0,7]},{"fixed_field":{"dim":2,"primitive":"a","primitiv'
        'e_min_poly":"t^2 - 5"},"gal_over_matches":true,"normal":true,"orde'
        'r":4,"subgroup":[0,1,2,3]},{"fixed_field":{"dim":2,"primitive":"b"'
        ',"primitive_min_poly":"t^2 - 3"},"gal_over_matches":true,"normal":'
        'true,"order":4,"subgroup":[0,1,4,5]},{"fixed_field":{"dim":2,"prim'
        'itive":"a*b","primitive_min_poly":"t^2 - 15"},"gal_over_matches":t'
        'rue,"normal":true,"order":4,"subgroup":[0,1,6,7]},{"fixed_field":{'
        '"dim":2,"primitive":"c","primitive_min_poly":"t^2 - 2"},"gal_over_'
        'matches":true,"normal":true,"order":4,"subgroup":[0,2,4,6]},{"fixe'
        'd_field":{"dim":2,"primitive":"a*c","primitive_min_poly":"t^2 - 10'
        '"},"gal_over_matches":true,"normal":true,"order":4,"subgroup":[0,2'
        ',5,7]},{"fixed_field":{"dim":2,"primitive":"b*c","primitive_min_po'
        'ly":"t^2 - 6"},"gal_over_matches":true,"normal":true,"order":4,"su'
        'bgroup":[0,3,4,7]},{"fixed_field":{"dim":2,"primitive":"a*b*c","pr'
        'imitive_min_poly":"t^2 - 30"},"gal_over_matches":true,"normal":tru'
        'e,"order":4,"subgroup":[0,3,5,6]},{"fixed_field":{"dim":1,"primiti'
        've":"1","primitive_min_poly":"t - 1"},"gal_over_matches":true,"nor'
        'mal":true,"order":8,"subgroup":[0,1,2,3,4,5,6,7]}]}\n',
    ),
    # the correspondence of a finite field (C6), of F20 (degree 20) and of
    # S4 (degree 24, about a second)
    (
        ["--json", "--field", "F3", "correspondence", "(t^2+1)*(t^3+2*t+1)"],
        '{"degree":6,"group_order":6,"mutually_inverse":true,"pair_count":4'
        ',"pairs":[{"fixed_field":{"dim":6,"primitive":"a*b","primitive_min'
        '_poly":"t^6 + 2*t^4 + t^2 + 1"},"gal_over_matches":true,"normal":t'
        'rue,"order":1,"subgroup":[0]},{"fixed_field":{"dim":3,"primitive":'
        '"b","primitive_min_poly":"t^3 + 2*t + 1"},"gal_over_matches":true,'
        '"normal":true,"order":2,"subgroup":[0,3]},{"fixed_field":{"dim":2,'
        '"primitive":"a","primitive_min_poly":"t^2 + 1"},"gal_over_matches"'
        ':true,"normal":true,"order":3,"subgroup":[0,1,2]},{"fixed_field":{'
        '"dim":1,"primitive":"1","primitive_min_poly":"t + 2"},"gal_over_ma'
        'tches":true,"normal":true,"order":6,"subgroup":[0,1,2,3,4,5]}]}\n',
    ),
    (
        ["--json", "correspondence", "t^5-2"],
        '{"degree":20,"group_order":20,"mutually_inverse":true,"pair_count"'
        ':14,"pairs":[{"fixed_field":{"dim":20,"primitive":"-b + a","primit'
        'ive_min_poly":"t^20 + 2500*t^10 + 50000"},"gal_over_matches":true,'
        '"normal":true,"order":1,"subgroup":[0]},{"fixed_field":{"dim":10,"'
        'primitive":"1/2*a^3*b^3 + a","primitive_min_poly":"t^10 + 22*t^5 -'
        ' 4"},"gal_over_matches":true,"normal":false,"order":2,"subgroup":['
        '0,3]},{"fixed_field":{"dim":10,"primitive":"1/2*a^4*b^2 + a","prim'
        'itive_min_poly":"t^10 + 22*t^5 - 4"},"gal_over_matches":true,"norm'
        'al":false,"order":2,"subgroup":[0,4]},{"fixed_field":{"dim":10,"pr'
        'imitive":"b + a","primitive_min_poly":"t^10 + 22*t^5 - 4"},"gal_ov'
        'er_matches":true,"normal":false,"order":2,"subgroup":[0,9]},{"fixe'
        'd_field":{"dim":10,"primitive":"1/2*a^4*b^3 + b^2","primitive_min_'
        'poly":"t^10 + 44*t^5 - 16"},"gal_over_matches":true,"normal":false'
        ',"order":2,"subgroup":[0,14]},{"fixed_field":{"dim":10,"primitive"'
        ':"1/2*a^4*b^3 + a^2","primitive_min_poly":"t^10 + 44*t^5 - 16"},"g'
        'al_over_matches":true,"normal":false,"order":2,"subgroup":[0,19]},'
        '{"fixed_field":{"dim":5,"primitive":"1/2*a^3*b^3 + 1/2*a^4*b^2 + b'
        ' + a","primitive_min_poly":"t^5 + 2"},"gal_over_matches":true,"nor'
        'mal":false,"order":4,"subgroup":[0,1,2,3]},{"fixed_field":{"dim":5'
        ',"primitive":"a*b^3 + a^2*b^2 + a^3*b + a^4","primitive_min_poly":'
        '"t^5 + 16"},"gal_over_matches":true,"normal":false,"order":4,"subg'
        'roup":[0,4,11,18]},{"fixed_field":{"dim":5,"primitive":"a","primit'
        'ive_min_poly":"t^5 - 2"},"gal_over_matches":true,"normal":false,"o'
        'rder":4,"subgroup":[0,6,8,14]},{"fixed_field":{"dim":5,"primitive"'
        ':"1/2*a^4*b^3 + b^2 + a*b + a^2","primitive_min_poly":"t^5 + 4"},"'
        'gal_over_matches":true,"normal":false,"order":4,"subgroup":[0,7,12'
        ',19]},{"fixed_field":{"dim":5,"primitive":"b^3 + a*b^2 + a^2*b + a'
        '^3","primitive_min_poly":"t^5 + 8"},"gal_over_matches":true,"norma'
        'l":false,"order":4,"subgroup":[0,9,13,17]},{"fixed_field":{"dim":4'
        ',"primitive":"a^4*b","primitive_min_poly":"t^4 + 2*t^3 + 4*t^2 + 8'
        '*t + 16"},"gal_over_matches":true,"normal":true,"order":5,"subgrou'
        'p":[0,5,10,15,16]},{"fixed_field":{"dim":2,"primitive":"a^2*b^3 + '
        'a^3*b^2","primitive_min_poly":"t^2 + 2*t - 4"},"gal_over_matches":'
        'true,"normal":true,"order":10,"subgroup":[0,3,4,5,9,10,14,15,16,19'
        ']},{"fixed_field":{"dim":1,"primitive":"1","primitive_min_poly":"t'
        ' - 1"},"gal_over_matches":true,"normal":true,"order":20,"subgroup"'
        ':[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19]}]}\n',
    ),
    (
        ["--json", "correspondence", "t^4-t-1"],
        '{"degree":24,"group_order":24,"mutually_inverse":true,"pair_count"'
        ':30,"pairs":[{"fixed_field":{"dim":24,"primitive":"a^3*b^2*c","pri'
        'mitive_min_poly":"t^24 + 3*t^23 + 10*t^22 + 14*t^21 + 17*t^20 + 4*'
        't^19 + 18*t^18 + 13*t^17 + 142*t^16 + 79*t^15 + 295*t^14 + 59*t^13'
        ' + 362*t^12 - 59*t^11 + 295*t^10 - 79*t^9 + 142*t^8 - 13*t^7 + 18*'
        't^6 - 4*t^5 + 17*t^4 - 14*t^3 + 10*t^2 - 3*t + 1"},"gal_over_match'
        'es":true,"normal":true,"order":1,"subgroup":[0]},{"fixed_field":{"'
        'dim":12,"primitive":"(b + a)*c","primitive_min_poly":"t^12 - t^9 +'
        ' 8*t^8 - 2*t^7 - t^6 + 4*t^5 + 18*t^4 + 9*t^3 + 2*t^2 - 1"},"gal_o'
        'ver_matches":true,"normal":false,"order":2,"subgroup":[0,1]},{"fix'
        'ed_field":{"dim":12,"primitive":"a*c + a*b","primitive_min_poly":"'
        't^12 - t^9 + 8*t^8 - 2*t^7 - t^6 + 4*t^5 + 18*t^4 + 9*t^3 + 2*t^2 '
        '- 1"},"gal_over_matches":true,"normal":false,"order":2,"subgroup":'
        '[0,2]},{"fixed_field":{"dim":12,"primitive":"(-a^2*b^2 - a^3*b)*c '
        '+ a","primitive_min_poly":"t^12 + t^10 - 4*t^9 - 4*t^8 + 2*t^7 + 4'
        '*t^6 + 3*t^5 - 3*t^4 - 7*t^3 - 6*t^2 - 3*t - 1"},"gal_over_matches'
        '":true,"normal":false,"order":2,"subgroup":[0,5]},{"fixed_field":{'
        '"dim":12,"primitive":"a^2*b","primitive_min_poly":"t^12 + 3*t^11 +'
        ' 6*t^10 + 7*t^9 + 3*t^8 - 3*t^7 - 4*t^6 - 2*t^5 + 4*t^4 + 4*t^3 - '
        't^2 - 1"},"gal_over_matches":true,"normal":false,"order":2,"subgro'
        'up":[0,6]},{"fixed_field":{"dim":12,"primitive":"(2*a*b^2 + 2*a^3 '
        '- 1)*c + a","primitive_min_poly":"t^12 + 32*t^10 + 252*t^8 - 66*t^'
        '6 + 1104*t^4 + 4*t^2 + 1"},"gal_over_matches":true,"normal":false,'
        '"order":2,"subgroup":[0,7]},{"fixed_field":{"dim":12,"primitive":"'
        '((a^3 - 1)*b)*c + (a^3 - 1)*b^2 + b","primitive_min_poly":"t^12 + '
        't^10 - 4*t^9 - 4*t^8 + 2*t^7 + 4*t^6 + 3*t^5 - 3*t^4 - 7*t^3 - 6*t'
        '^2 - 3*t - 1"},"gal_over_matches":true,"normal":false,"order":2,"s'
        'ubgroup":[0,14]},{"fixed_field":{"dim":12,"primitive":"-2*b*c + -b'
        '^2 + a^2","primitive_min_poly":"t^12 + 8*t^10 - 2*t^9 + 80*t^8 + 4'
        '0*t^7 + 540*t^6 + 128*t^5 + 976*t^4 + 970*t^3 + 576*t^2 + 283"},"g'
        'al_over_matches":true,"normal":false,"order":2,"subgroup":[0,16]},'
        '{"fixed_field":{"dim":12,"primitive":"-a*b^2*c + a^3*b","primitive'
        '_min_poly":"t^12 + 8*t^11 + 32*t^10 + 79*t^9 + 130*t^8 + 142*t^7 +'
        ' 93*t^6 + 16*t^5 - 32*t^4 - 35*t^3 - 18*t^2 - 6*t - 1"},"gal_over_'
        'matches":true,"normal":false,"order":2,"subgroup":[0,21]},{"fixed_'
        'field":{"dim":12,"primitive":"(a*b^2 - a^3)*c + 2*a^2*b^2 + a","pr'
        'imitive_min_poly":"t^12 - 8*t^10 - 32*t^9 + 107*t^8 + 155*t^7 + 17'
        '5*t^6 - 715*t^5 + 1426*t^4 - 611*t^3 - 30*t^2 + 849*t + 283"},"gal'
        '_over_matches":true,"normal":false,"order":2,"subgroup":[0,23]},{"'
        'fixed_field":{"dim":8,"primitive":"((-3*a^3 - a^2)*b^2 - 2*a^3*b +'
        ' 1)*c + -3*a^3*b^2 + a","primitive_min_poly":"t^8 - 3*t^7 + 31*t^6'
        ' + 218*t^5 + 791*t^4 + 2734*t^3 + 6438*t^2 + 8000*t + 3977"},"gal_'
        'over_matches":true,"normal":false,"order":3,"subgroup":[0,3,4]},{"'
        'fixed_field":{"dim":8,"primitive":"((3*a^3 - 3)*b^2 + 2*b + a)*c +'
        ' b^2","primitive_min_poly":"t^8 - 3*t^7 + 21*t^6 + 55*t^5 + 56*t^4'
        ' + 377*t^3 + 523*t^2 + 98*t + 773"},"gal_over_matches":true,"norma'
        'l":false,"order":3,"subgroup":[0,8,12]},{"fixed_field":{"dim":8,"p'
        'rimitive":"(-a^2*b^2 + (2*a^3 - 1)*b + 1)*c + a^3*b^2 + a*b + a","'
        'primitive_min_poly":"t^8 + 2*t^6 + 2*t^5 + 151*t^4 + 2*t^3 + 151*t'
        '^2 - 133*t + 4493"},"gal_over_matches":true,"normal":false,"order"'
        ':3,"subgroup":[0,11,19]},{"fixed_field":{"dim":8,"primitive":"(-a^'
        '2*b^2 - 2*a^3*b - a)*c + (a^3 - 1)*b^2 + a","primitive_min_poly":"'
        't^8 - 7*t^6 + 20*t^5 + 34*t^4 - 70*t^3 + 130*t^2 - 490*t + 671"},"'
        'gal_over_matches":true,"normal":false,"order":3,"subgroup":[0,15,2'
        '0]},{"fixed_field":{"dim":6,"primitive":"b + a","primitive_min_pol'
        'y":"t^6 + 4*t^2 - 1"},"gal_over_matches":true,"normal":false,"orde'
        'r":4,"subgroup":[0,1,6,7]},{"fixed_field":{"dim":6,"primitive":"a*'
        'c + a*b + a^2","primitive_min_poly":"t^6 + t^4 + t^3 - t^2 - 1"},"'
        'gal_over_matches":true,"normal":false,"order":4,"subgroup":[0,2,21'
        ',23]},{"fixed_field":{"dim":6,"primitive":"c + a","primitive_min_p'
        'oly":"t^6 + 4*t^2 - 1"},"gal_over_matches":true,"normal":false,"or'
        'der":4,"subgroup":[0,5,14,16]},{"fixed_field":{"dim":6,"primitive"'
        ':"(-2*b + 2*a)*c + -b^2 + a^2","primitive_min_poly":"t^6 + 24*t^4 '
        '+ 144*t^2 + 283"},"gal_over_matches":true,"normal":true,"order":4,'
        '"subgroup":[0,7,16,23]},{"fixed_field":{"dim":6,"primitive":"(2*a*'
        'b^2 + 2*a^3 - 1)*c + a^2*b^2 + a","primitive_min_poly":"t^6 + 2*t^'
        '5 + 15*t^4 + 62*t^3 + 97*t^2 + 53*t + 10"},"gal_over_matches":true'
        ',"normal":false,"order":4,"subgroup":[0,7,17,22]},{"fixed_field":{'
        '"dim":6,"primitive":"(2*a^2*b^2 + a)*c + (2*a^3 - 1)*b^2 + a^2","p'
        'rimitive_min_poly":"t^6 - t^4 + 34*t^3 + 71*t^2 - 17*t + 6"},"gal_'
        'over_matches":true,"normal":false,"order":4,"subgroup":[0,9,16,18]'
        '},{"fixed_field":{"dim":6,"primitive":"(2*a*b^2 + a^2*b + -a^3 + 1'
        ')*c + 2*a^2*b^2 + a^3*b + a","primitive_min_poly":"t^6 - 2*t^5 + 1'
        '5*t^4 - 62*t^3 + 97*t^2 - 53*t + 10"},"gal_over_matches":true,"nor'
        'mal":false,"order":4,"subgroup":[0,10,13,23]},{"fixed_field":{"dim'
        '":4,"primitive":"c + b + a","primitive_min_poly":"t^4 + t - 1"},"g'
        'al_over_matches":true,"normal":false,"order":6,"subgroup":[0,1,2,3'
        ',4,5]},{"fixed_field":{"dim":4,"primitive":"(b + a)*c + b^2 + a*b '
        '+ a^2","primitive_min_poly":"t^4 - 2*t^2 + t + 1"},"gal_over_match'
        'es":true,"normal":false,"order":6,"subgroup":[0,1,14,15,20,21]},{"'
        'fixed_field":{"dim":4,"primitive":"a","primitive_min_poly":"t^4 - '
        't - 1"},"gal_over_matches":true,"normal":false,"order":6,"subgroup'
        '":[0,2,6,8,12,14]},{"fixed_field":{"dim":4,"primitive":"a*b^2 + a^'
        '2*b + a^3","primitive_min_poly":"t^4 - t^3 - 1"},"gal_over_matches'
        '":true,"normal":false,"order":6,"subgroup":[0,5,6,11,19,21]},{"fix'
        'ed_field":{"dim":3,"primitive":"2*a^2*b^2 + b + a","primitive_min_'
        'poly":"t^3 + 2*t^2 - 4*t - 9"},"gal_over_matches":true,"normal":fa'
        'lse,"order":8,"subgroup":[0,1,6,7,16,17,22,23]},{"fixed_field":{"d'
        'im":3,"primitive":"(-b + a)*c + a*b + a^2","primitive_min_poly":"t'
        '^3 + 4*t + 1"},"gal_over_matches":true,"normal":false,"order":8,"s'
        'ubgroup":[0,2,7,10,13,16,21,23]},{"fixed_field":{"dim":3,"primitiv'
        'e":"(2*a^2*b + 2*a^3 - 1)*c + 2*a^2*b^2 + 2*a^3*b + a","primitive_'
        'min_poly":"t^3 + 4*t^2 + 1"},"gal_over_matches":true,"normal":fals'
        'e,"order":8,"subgroup":[0,5,7,9,14,16,18,23]},{"fixed_field":{"dim'
        '":2,"primitive":"((-3*a^3 + 3/4)*b^2 + (-3/2*a - 2)*b + -3/4*a^2 -'
        ' a)*c + (-3/4*a - 1)*b^2 + -3/4*a^3 + a^2","primitive_min_poly":"t'
        '^2 + 3/4*t + 73/16"},"gal_over_matches":true,"normal":true,"order"'
        ':12,"subgroup":[0,3,4,7,8,11,12,15,16,19,20,23]},{"fixed_field":{"'
        'dim":1,"primitive":"1","primitive_min_poly":"t - 1"},"gal_over_mat'
        'ches":true,"normal":true,"order":24,"subgroup":[0,1,2,3,4,5,6,7,8,'
        '9,10,11,12,13,14,15,16,17,18,19,20,21,22,23]}]}\n',
    ),
    # recorded before the F_p extension product ran on packed integers:
    # wide slots (p = 127, 16381) and degrees 1, 2 and 6
    (
        ["--json", "gf", "127", "2", "--subfields", "--generator"],
        '{"frobenius_order":2,"generator":"8*a + 1","modulus":"t^2 + 1","n'
        '":2,"order":16129,"p":127,"subfield_orders":[127,16129],"subfield'
        's":[{"m":1,"order":127},{"m":2,"order":16129}]}\n',
    ),
    (
        ["--json", "gf", "16381", "1", "--subfields", "--generator"],
        '{"frobenius_order":1,"generator":"2","modulus":"t","n":1,"order":1'
        '6381,"p":16381,"subfield_orders":[16381],"subfields":[{"m":1,"orde'
        'r":16381}]}\n',
    ),
    (
        ["--json", "gf", "5", "6", "--subfields", "--generator"],
        '{"frobenius_order":6,"generator":"a^5","modulus":"t^6 + t + 2","n"'
        ':6,"order":15625,"p":5,"subfield_orders":[5,25,125,15625],"subfie'
        'lds":[{"m":1,"order":5},{"m":2,"order":25},{"m":3,"order":125},{"'
        'm":6,"order":15625}]}\n',
    ),
    # recorded before tower elements over Q stored integer numerators over
    # one denominator: the three ladder rungs not pinned above
    (
        ["--json", "galois", "t^3-2"],
        '{"action":["-b - a","b","a"],"elements":["()","(2 3)","(1 2)","(1 '
        '2 3)","(1 3 2)","(1 3)"],"generators":["(1 2 3)","(2 3)"],"order":'
        '6,"type":"S3"}\n',
    ),
    (
        ["--json", "galois", "(t^2-2)*(t^2-3)*(t^2-5)"],
        '{"action":["-a","-b","-c","c","b","a"],"elements":["()","(3 4)","('
        '2 5)","(2 5)(3 4)","(1 6)","(1 6)(3 4)","(1 6)(2 5)","(1 6)(2 5)(3'
        ' 4)"],"generators":["(3 4)","(2 5)","(1 6)"],"order":8,"type":"uni'
        'dentified abelian group of order 8"}\n',
    ),
    (
        ["--json", "galois", "t^5-2"],
        '{"action":["-1/2*a^3*b^3 - 1/2*a^4*b^2 - b - a","1/2*a^3*b^3","1/2'
        '*a^4*b^2","b","a"],"elements":["()","(2 3 5 4)","(2 4 5 3)","(2 5)'
        '(3 4)","(1 2)(3 5)","(1 2 3 4 5)","(1 2 4 3)","(1 2 5 4)","(1 3 4 '
        '2)","(1 3)(4 5)","(1 3 5 2 4)","(1 3 2 5)","(1 4 5 2)","(1 4 3 5)"'
        ',"(1 4)(2 3)","(1 4 2 5 3)","(1 5 4 3 2)","(1 5 3 4)","(1 5 2 3)",'
        '"(1 5)(2 4)"],"generators":["(1 2 3 4 5)","(2 3 5 4)"],"order":20,'
        '"type":"unidentified group of order 20"}\n',
    ),
    # recorded before Trager's method took Q(gamma)'s kernel tuples: towers
    # whose m_gamma has denominators
    (
        ["--json", "minpoly", "t^2-1/2", "t^3-1/3", "t^2+1/5"],
        '{"degree":12,"primitive_element":"c + b + a","primitive_min_poly":'
        '"t^12 - 9/5*t^10 - 4/3*t^9 + 51/20*t^8 - 197/150*t^6 + 178/25*t^5 '
        '+ 3699/2000*t^4 - 7952/3375*t^3 + 198173/150000*t^2 - 5557/7500*t '
        '+ 16523569/81000000","tower":[{"label":"a","min_poly":"t^2 - 1/2"}'
        ',{"label":"b","min_poly":"t^3 - 1/3"},{"label":"c","min_poly":"t^2'
        ' + 1/5"}]}\n',
    ),
    (
        ["--json", "correspondence", "(t^2-1/2)*(t^2-1/3)*(t^2-1/5)"],
        '{"degree":8,"group_order":8,"mutually_inverse":true,"pair_count":1'
        '6,"pairs":[{"fixed_field":{"dim":8,"primitive":"((a + 1)*b + a)*c"'
        ',"primitive_min_poly":"t^8 - 4/5*t^6 + 32/225*t^4 - 8/1125*t^2 + 4'
        '/50625"},"gal_over_matches":true,"normal":true,"order":1,"subgroup'
        '":[0]},{"fixed_field":{"dim":4,"primitive":"b + a","primitive_min_'
        'poly":"t^4 - 5/3*t^2 + 1/36"},"gal_over_matches":true,"normal":tru'
        'e,"order":2,"subgroup":[0,1]},{"fixed_field":{"dim":4,"primitive":'
        '"c + a","primitive_min_poly":"t^4 - 7/5*t^2 + 9/100"},"gal_over_ma'
        'tches":true,"normal":true,"order":2,"subgroup":[0,2]},{"fixed_fiel'
        'd":{"dim":4,"primitive":"b*c + a","primitive_min_poly":"t^4 - 17/1'
        '5*t^2 + 169/900"},"gal_over_matches":true,"normal":true,"order":2,'
        '"subgroup":[0,3]},{"fixed_field":{"dim":4,"primitive":"c + b","pri'
        'mitive_min_poly":"t^4 - 16/15*t^2 + 4/225"},"gal_over_matches":tru'
        'e,"normal":true,"order":2,"subgroup":[0,4]},{"fixed_field":{"dim":'
        '4,"primitive":"a*c + b","primitive_min_poly":"t^4 - 13/15*t^2 + 49'
        '/900"},"gal_over_matches":true,"normal":true,"order":2,"subgroup":'
        '[0,5]},{"fixed_field":{"dim":4,"primitive":"c + a*b","primitive_mi'
        'n_poly":"t^4 - 11/15*t^2 + 1/900"},"gal_over_matches":true,"normal'
        '":true,"order":2,"subgroup":[0,6]},{"fixed_field":{"dim":4,"primit'
        'ive":"a*c + a*b","primitive_min_poly":"t^4 - 8/15*t^2 + 1/225"},"g'
        'al_over_matches":true,"normal":true,"order":2,"subgroup":[0,7]},{"'
        'fixed_field":{"dim":2,"primitive":"a","primitive_min_poly":"t^2 - '
        '1/2"},"gal_over_matches":true,"normal":true,"order":4,"subgroup":['
        '0,1,2,3]},{"fixed_field":{"dim":2,"primitive":"b","primitive_min_p'
        'oly":"t^2 - 1/3"},"gal_over_matches":true,"normal":true,"order":4,'
        '"subgroup":[0,1,4,5]},{"fixed_field":{"dim":2,"primitive":"a*b","p'
        'rimitive_min_poly":"t^2 - 1/6"},"gal_over_matches":true,"normal":t'
        'rue,"order":4,"subgroup":[0,1,6,7]},{"fixed_field":{"dim":2,"primi'
        'tive":"c","primitive_min_poly":"t^2 - 1/5"},"gal_over_matches":tru'
        'e,"normal":true,"order":4,"subgroup":[0,2,4,6]},{"fixed_field":{"d'
        'im":2,"primitive":"a*c","primitive_min_poly":"t^2 - 1/10"},"gal_ov'
        'er_matches":true,"normal":true,"order":4,"subgroup":[0,2,5,7]},{"f'
        'ixed_field":{"dim":2,"primitive":"b*c","primitive_min_poly":"t^2 -'
        ' 1/15"},"gal_over_matches":true,"normal":true,"order":4,"subgroup"'
        ':[0,3,4,7]},{"fixed_field":{"dim":2,"primitive":"a*b*c","primitive'
        '_min_poly":"t^2 - 1/30"},"gal_over_matches":true,"normal":true,"or'
        'der":4,"subgroup":[0,3,5,6]},{"fixed_field":{"dim":1,"primitive":"'
        '1","primitive_min_poly":"t - 1"},"gal_over_matches":true,"normal":'
        'true,"order":8,"subgroup":[0,1,2,3,4,5,6,7]}]}\n',
    ),
    # a repeated F_p factor: each distinct factor is split on its own, and
    # the square's roots keep multiplicity 2
    (
        ["--json", "--field", "F3", "splitting-field", "(t^2+1)^2*(t^3-t+1)"],
        '{"degree":6,"multiplicities":[2,2,1,1,1],"polynomial":"t^7 + t^5 +'
        ' t^4 + 2*t^3 + 2*t^2 + 2*t + 1","roots":["a","2*a","b","b + 1","b '
        '+ 2"],"tower":[{"label":"a","min_poly":"t^2 + 1"},{"label":"b","mi'
        'n_poly":"t^3 + 2*t + 1"}]}\n',
    ),
    # non-monic rational factors, split one monic factor at a time over QQ
    (
        ["--json", "splitting-field", "(2*t^2-1)*(t^3-2)*(3*t-1)"],
        '{"degree":12,"multiplicities":[1,1,1,1,1,1],"polynomial":"6*t^6 - '
        '2*t^5 - 3*t^4 - 11*t^3 + 4*t^2 + 6*t - 2","roots":["1/3","-a","a",'
        '"-c - b","c","b"],"tower":[{"label":"a","min_poly":"t^2 - 1/2"},{"'
        'label":"b","min_poly":"t^3 - 2"},{"label":"c","min_poly":"t^2 + b*'
        't + b^2"}]}\n',
    ),
    # over F_4 a later round factors two remainders, the cubic's (still
    # irreducible) and the quartic's (two quadratics)
    (
        ["--json", "--field", "F2", "galois", "(t^2+t+1)*(t^3+t+1)*(t^4+t+1)"],
        '{"action":["a","a + 1","c^2","c","c^2 + c","b","b + a","b + 1","b +'
        ' a + 1"],"elements":["()","(6 8)(7 9)","(3 4 5)","(3 4 5)(6 8)(7 9)'
        '","(3 5 4)","(3 5 4)(6 8)(7 9)","(1 2)(6 7 8 9)","(1 2)(6 9 8 7)","'
        '(1 2)(3 4 5)(6 7 8 9)","(1 2)(3 4 5)(6 9 8 7)","(1 2)(3 5 4)(6 7 8 '
        '9)","(1 2)(3 5 4)(6 9 8 7)"],"generators":["(1 2)(3 4 5)(6 7 8 9)"]'
        ',"order":12,"type":"C12"}\n',
    ),
    # the quadratic's roots lie in the cubic's splitting field, and the
    # cubic's roots have multiplicity 2
    (
        ["--json", "splitting-field", "(t^2+3)*(t^3-2)^2"],
        '{"degree":6,"multiplicities":[1,1,2,2,2],"polynomial":"t^8 + 3*t^6 '
        '- 4*t^5 - 12*t^3 + 4*t^2 + 12","roots":["-a","a","(-1/2*a - 1/2)*b"'
        ',"(1/2*a - 1/2)*b","b"],"tower":[{"label":"a","min_poly":"t^2 + 3"}'
        ',{"label":"b","min_poly":"t^3 - 2"}]}\n',
    ),
]


@pytest.mark.parametrize("argv, expected", GOLDEN_JSON)
def test_json_golden_bytes(capsys, argv, expected):
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == expected


# The F42 correspondence of t^7 - 2 (degree 42, 26 subgroups): a few seconds.
SLOW_GOLDEN_JSON = (
    ["--json", "--max-degree", "48", "correspondence", "t^7-2"],
    '{"degree":42,"group_order":42,"mutually_inverse":true,"pair_count"'
    ':26,"pairs":[{"fixed_field":{"dim":42,"primitive":"-b + a","primit'
    'ive_min_poly":"t^42 + 48020*t^28 + 96001584*t^14 + 52706752"},"gal'
    '_over_matches":true,"normal":true,"order":1,"subgroup":[0]},{"fixe'
    'd_field":{"dim":21,"primitive":"1/2*a^3*b^5 + a","primitive_min_po'
    'ly":"t^21 + 114*t^14 - 1156*t^7 - 8"},"gal_over_matches":true,"nor'
    'mal":false,"order":2,"subgroup":[0,5]},{"fixed_field":{"dim":21,"p'
    'rimitive":"1/2*a^4*b^4 + a","primitive_min_poly":"t^21 + 114*t^14 '
    '- 1156*t^7 - 8"},"gal_over_matches":true,"normal":false,"order":2,'
    '"subgroup":[0,6]},{"fixed_field":{"dim":21,"primitive":"1/2*a^5*b^'
    '3 + a","primitive_min_poly":"t^21 + 114*t^14 - 1156*t^7 - 8"},"gal'
    '_over_matches":true,"normal":false,"order":2,"subgroup":[0,13]},{"'
    'fixed_field":{"dim":21,"primitive":"1/2*a^6*b^2 + a","primitive_mi'
    'n_poly":"t^21 + 114*t^14 - 1156*t^7 - 8"},"gal_over_matches":true,'
    '"normal":false,"order":2,"subgroup":[0,20]},{"fixed_field":{"dim":'
    '21,"primitive":"b + a","primitive_min_poly":"t^21 + 114*t^14 - 115'
    '6*t^7 - 8"},"gal_over_matches":true,"normal":false,"order":2,"subg'
    'roup":[0,27]},{"fixed_field":{"dim":21,"primitive":"1/2*a^4*b^5 + '
    'b^2","primitive_min_poly":"t^21 + 228*t^14 - 4624*t^7 - 64"},"gal_'
    'over_matches":true,"normal":false,"order":2,"subgroup":[0,34]},{"f'
    'ixed_field":{"dim":21,"primitive":"1/2*a^4*b^5 + a^2","primitive_m'
    'in_poly":"t^21 + 228*t^14 - 4624*t^7 - 64"},"gal_over_matches":tru'
    'e,"normal":false,"order":2,"subgroup":[0,41]},{"fixed_field":{"dim'
    '":14,"primitive":"1/2*a^5*b^3 + b + a","primitive_min_poly":"t^14 '
    '- 26*t^7 + 512"},"gal_over_matches":true,"normal":false,"order":3,'
    '"subgroup":[0,1,3]},{"fixed_field":{"dim":14,"primitive":"1/2*a^4*'
    'b^4 + 1/2*a^6*b^2 + b","primitive_min_poly":"t^14 - 26*t^7 + 512"}'
    ',"gal_over_matches":true,"normal":false,"order":3,"subgroup":[0,8,'
    '18]},{"fixed_field":{"dim":14,"primitive":"1/2*a^5*b^3 + 1/2*a^6*b'
    '^2 + a","primitive_min_poly":"t^14 - 26*t^7 + 512"},"gal_over_matc'
    'hes":true,"normal":false,"order":3,"subgroup":[0,10,30]},{"fixed_f'
    'ield":{"dim":14,"primitive":"1/2*a^4*b^5 + a*b + a^2","primitive_m'
    'in_poly":"t^14 - 52*t^7 + 2048"},"gal_over_matches":true,"normal":'
    'false,"order":3,"subgroup":[0,15,39]},{"fixed_field":{"dim":14,"pr'
    'imitive":"1/2*a^3*b^5 + b + a","primitive_min_poly":"t^14 - 26*t^7'
    ' + 512"},"gal_over_matches":true,"normal":false,"order":3,"subgrou'
    'p":[0,17,22]},{"fixed_field":{"dim":14,"primitive":"1/2*a^4*b^5 + '
    '1/2*a^5*b^4 + a^2","primitive_min_poly":"t^14 - 52*t^7 + 2048"},"g'
    'al_over_matches":true,"normal":false,"order":3,"subgroup":[0,25,37'
    ']},{"fixed_field":{"dim":14,"primitive":"1/2*a^3*b^5 + 1/2*a^4*b^4'
    ' + a","primitive_min_poly":"t^14 - 26*t^7 + 512"},"gal_over_matche'
    's":true,"normal":false,"order":3,"subgroup":[0,29,32]},{"fixed_fie'
    'ld":{"dim":7,"primitive":"1/2*a^3*b^5 + 1/2*a^4*b^4 + 1/2*a^5*b^3 '
    '+ 1/2*a^6*b^2 + b + a","primitive_min_poly":"t^7 + 2"},"gal_over_m'
    'atches":true,"normal":false,"order":6,"subgroup":[0,1,2,3,4,5]},{"'
    'fixed_field":{"dim":7,"primitive":"1/2*a^5*b^5 + 1/2*a^6*b^4 + b^3'
    ' + a*b^2 + a^2*b + a^3","primitive_min_poly":"t^7 + 8"},"gal_over_'
    'matches":true,"normal":false,"order":6,"subgroup":[0,6,17,22,33,38'
    ']},{"fixed_field":{"dim":7,"primitive":"a","primitive_min_poly":"t'
    '^7 - 2"},"gal_over_matches":true,"normal":false,"order":6,"subgrou'
    'p":[0,8,16,18,26,34]},{"fixed_field":{"dim":7,"primitive":"1/2*a^4'
    '*b^5 + 1/2*a^5*b^4 + 1/2*a^6*b^3 + b^2 + a*b + a^2","primitive_min'
    '_poly":"t^7 + 4"},"gal_over_matches":true,"normal":false,"order":6'
    ',"subgroup":[0,9,12,29,32,41]},{"fixed_field":{"dim":7,"primitive"'
    ':"b^5 + a*b^4 + a^2*b^3 + a^3*b^2 + a^4*b + a^5","primitive_min_po'
    'ly":"t^7 + 32"},"gal_over_matches":true,"normal":false,"order":6,"'
    'subgroup":[0,10,23,27,30,40]},{"fixed_field":{"dim":7,"primitive":'
    '"a*b^5 + a^2*b^4 + a^3*b^3 + a^4*b^2 + a^5*b + a^6","primitive_min'
    '_poly":"t^7 + 64"},"gal_over_matches":true,"normal":false,"order":'
    '6,"subgroup":[0,11,15,20,24,39]},{"fixed_field":{"dim":7,"primitiv'
    'e":"1/2*a^6*b^5 + b^4 + a*b^3 + a^2*b^2 + a^3*b + a^4","primitive_'
    'min_poly":"t^7 + 16"},"gal_over_matches":true,"normal":false,"orde'
    'r":6,"subgroup":[0,13,19,25,31,37]},{"fixed_field":{"dim":6,"primi'
    'tive":"a^6*b","primitive_min_poly":"t^6 + 2*t^5 + 4*t^4 + 8*t^3 + '
    '16*t^2 + 32*t + 64"},"gal_over_matches":true,"normal":true,"order"'
    ':7,"subgroup":[0,7,14,21,28,35,36]},{"fixed_field":{"dim":3,"primi'
    'tive":"a^2*b^5 + a^5*b^2","primitive_min_poly":"t^3 + 2*t^2 - 8*t '
    '- 8"},"gal_over_matches":true,"normal":true,"order":14,"subgroup":'
    '[0,5,6,7,13,14,20,21,27,28,34,35,36,41]},{"fixed_field":{"dim":2,"'
    'primitive":"a^3*b^4 + a^5*b^2 + a^6*b","primitive_min_poly":"t^2 +'
    ' 2*t + 8"},"gal_over_matches":true,"normal":true,"order":21,"subgr'
    'oup":[0,1,3,7,8,10,14,15,17,18,21,22,25,28,29,30,32,35,36,37,39]},'
    '{"fixed_field":{"dim":1,"primitive":"1","primitive_min_poly":"t - '
    '1"},"gal_over_matches":true,"normal":true,"order":42,"subgroup":[0'
    ',1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25'
    ',26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41]}]}\n',
)


@pytest.mark.slow
def test_json_golden_bytes_at_degree_42(capsys):
    argv, expected = SLOW_GOLDEN_JSON
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == expected


def test_galois_over_f1031_is_quick(capsys):
    # a monic witness early in the sweep splits the factors of t^4 + 3 over
    # F_(1031^2); the bound fails a sweep that tries the 1031 scalar
    # multiples a*(t + c), none of which splits them, before it
    t0 = time.monotonic()
    assert dispatch(["--json", "--field", "F1031", "galois", "t^4+3"]) == 0
    assert time.monotonic() - t0 < 2.0
    assert '"order":2' in capsys.readouterr().out


def test_json_schema_fields(capsys):
    assert dispatch(["--json", "splitting-field", "t^3-2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"degree", "tower", "roots", "multiplicities", "polynomial"}
    assert dispatch(["--json", "solvable", "t^5-6*t+3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"input", "verdict", "evidence_kind", "evidence_data", "axioms"}


def test_cli_fuzz_returns_clean_codes(capsys):
    rng = random.Random(23)
    alphabet = "0123456789t+-*^()/xyz "
    sources = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 15))) for _ in range(40)]
    # shapes just below and just above the parser's limits
    d, h = MAX_PARSE_DEGREE, MAX_PARSE_HEIGHT_BITS
    sources += [f"t^{d}", f"t^{d + 1}", f"t^{d - 1}*t", f"t^{d}*t", f"2^{h}", f"2^{h + 1}"]
    sources += [f"(3*t+5)^{(h + 1) // 4}", f"(3*t+5)^{(h + 1) // 4 + 1}", f"(t^2+1)^{d}", f"(1/2)^{h}"]
    # a digit outside ASCII, and a literal past int()'s default 4300 digits
    sources += ["t^\u00b2", "1" * 4301]
    t0 = time.monotonic()
    for src in sources:
        code = dispatch(["factor", src])
        capsys.readouterr()
        assert code in (0, 2, 3)
    assert time.monotonic() - t0 < 5.0


def test_parser_shape_limits():
    d, h = MAX_PARSE_DEGREE, MAX_PARSE_HEIGHT_BITS
    F2 = PrimeField(2)
    below = [
        (f"t^{d}", QQ, d),
        (f"t^{d - 100}*t^100", QQ, d),
        (f"(t^2+1)^{d // 2}", F2, d),  # no height over F_p
        (f"2^{h}", QQ, 0),
        (f"(2*t)^{h}", QQ, h),
        (f"2^{h - 24}*2^24", QQ, 0),
        (f"(1/2)^{h}", QQ, 0),
        (f"(3*t+5)^{(h + 1) // 4}", QQ, (h + 1) // 4),  # height bound 4k - 1
    ]
    for src, field, degree in below:
        assert parse_poly(src, field).degree == degree, src
    # powers of 0 and 1 expand nothing, whatever the exponent
    assert parse_poly(f"0^{d + 1} + (0*t)^{d + 1} + (-1)^{h + 1}") == q([-1])
    above = [
        (f"t^{d + 1}", QQ, "'^' at position 1 would need degree"),
        (f"t^{d - 100}*t^101", QQ, "'*' at position"),
        (f"(t^2+1)^{d // 2 + 1}", F2, "degree"),
        (f"2^{h + 1}", QQ, f"coefficient height 2^{h + 1} > limit 2^{h}"),
        (f"(2*t)^{h + 1}", QQ, "coefficient height"),
        (f"2^{h - 24}*2^25", QQ, "'*' at position"),
        (f"(1/2)^{h + 1}", QQ, "coefficient height"),
        (f"(3*t+5)^{(h + 1) // 4 + 1}", QQ, "coefficient height"),
    ]
    for src, field, message in above:
        with pytest.raises(ShapeCap) as info:
            parse_poly(src, field)
        assert str(info.value).startswith("parsing: ") and message in str(info.value), src
    # literals: leading zeros are not significant digits
    assert parse_poly("0" * 5000 + "7*t") == q([0, 7])
    assert parse_poly("9" * MAX_LITERAL_DIGITS) == q([int("9" * MAX_LITERAL_DIGITS)])
    with pytest.raises(ShapeCap) as info:
        parse_poly("t + " + "1" * (MAX_LITERAL_DIGITS + 1))
    assert f"position 4 has {MAX_LITERAL_DIGITS + 1} digits" in str(info.value)
    assert "MAX_LITERAL_DIGITS" in str(info.value)
    # a parse error before the refused expansion still wins
    with pytest.raises(ParseError):
        parse_poly(f") + t^{d + 1}")


# ShapeCap messages as the parser gave them when it built one sparse map per
# factor (or the value, rendered, where F_7 needs no cap): a run of simple
# factors must refuse at the same token, with the same degree and height
_CAP_OUTCOMES = [
    ("t^4097", "'^' at position 1 would need degree 4097 > limit 4096 (MAX_PARSE_DEGREE)", None),
    ("3*t^4097", "'^' at position 3 would need degree 4097 > limit 4096 (MAX_PARSE_DEGREE)", None),
    ("-3*t^4097", "'^' at position 4 would need degree 4097 > limit 4096 (MAX_PARSE_DEGREE)", None),
    ("2^1025", "'^' at position 1 would need coefficient height 2^1025 > limit 2^1024 (MAX_PARSE_HEIGHT_BITS)", "4"),
    ("7^400*t", "'^' at position 1 would need coefficient height 2^1200 > limit 2^1024 (MAX_PARSE_HEIGHT_BITS)", "0"),
    ("t^2048*t^2049", "'*' at position 6 would need degree 4097 > limit 4096 (MAX_PARSE_DEGREE)", None),
    ("2^1000*2^30*t", "'*' at position 6 would need coefficient height 2^1030 > limit 2^1024 (MAX_PARSE_HEIGHT_BITS)", "2*t"),
    ("0^5000*t + t^4097", "'^' at position 12 would need degree 4097 > limit 4096 (MAX_PARSE_DEGREE)", None),
    ("2*3*t^4096*t", "'*' at position 10 would need degree 4097 > limit 4096 (MAX_PARSE_DEGREE)", None),
    ("3^646*3", "'^' at position 1 would need coefficient height 2^1292 > limit 2^1024 (MAX_PARSE_HEIGHT_BITS)", "5"),
    ("2^1024*3^0*2", "'*' at position 10 would need coefficient height 2^1025 > limit 2^1024 (MAX_PARSE_HEIGHT_BITS)", "4"),
    ("3*2^1023*t", "'*' at position 1 would need coefficient height 2^1025 > limit 2^1024 (MAX_PARSE_HEIGHT_BITS)", "3*t"),
    ("7^365*7^5", "'^' at position 1 would need coefficient height 2^1095 > limit 2^1024 (MAX_PARSE_HEIGHT_BITS)", "0"),
    ("5*7^364", "'^' at position 3 would need coefficient height 2^1092 > limit 2^1024 (MAX_PARSE_HEIGHT_BITS)", "0"),
    ("1/2*t^4097", "'^' at position 5 would need degree 4097 > limit 4096 (MAX_PARSE_DEGREE)", None),
    ("(2*t)^1025", "'^' at position 5 would need coefficient height 2^1025 > limit 2^1024 (MAX_PARSE_HEIGHT_BITS)", "4*t^1025"),
    ("-(3*t)*t^4096", "'*' at position 6 would need degree 4097 > limit 4096 (MAX_PARSE_DEGREE)", None),
    ("t^4096*0*t^5000", "'^' at position 10 would need degree 5000 > limit 4096 (MAX_PARSE_DEGREE)", None),
]


@pytest.mark.parametrize("src, message, over_f7", _CAP_OUTCOMES, ids=[c[0] for c in _CAP_OUTCOMES])
def test_cap_messages_are_pinned(src, message, over_f7):
    with pytest.raises(ShapeCap) as info:
        parse_poly(src)
    assert str(info.value) == "parsing: " + message
    if over_f7 is None:  # a degree cap holds over every field
        with pytest.raises(ShapeCap) as info:
            parse_poly(src, F7)
        assert str(info.value) == "parsing: " + message
    else:
        assert render(parse_poly(src, F7)) == over_f7


def test_a_flat_monomial_sum_builds_no_map_per_factor(monkeypatch):
    # every literal, a/b and t is a monomial of scalars, and so is every
    # power, negation and product of monomials: no sparse product and no
    # height of a map, whatever the field; a product of parenthesised sums
    # is expanded on maps
    import galoiskit.cli as cli

    calls = Counter()
    for name in ("_convolve", "_height_bits"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _name=name, _real=real: calls.update([_name]) or _real(*a))
    flat = ["t^9 + 4*t^8 - 12345678901234567890*t^3 + 7", "3*t^2 + 2*3*t^5*t - 0*t^4 - 13^2", "t"]
    flat += ["-t^3 + 1/2*t^2*3/4 - 5", "-3^2*t"]
    for src in flat:
        for field in (QQ, F7):
            parse_poly(src, field)
    assert calls == Counter()
    parse_poly("(t + 1)*(t - 1)")
    assert calls == Counter({"_convolve": 1, "_height_bits": 2})


def test_internal_failure_exits_4(monkeypatch, capsys):
    # a synthetic division that never divides exactly breaks an invariant
    import galoiskit.splitting as splitting

    divide = splitting._synthetic_division
    monkeypatch.setattr(splitting, "_synthetic_division", lambda f, c: (divide(f, c)[0], f.dom.one()))
    assert dispatch(["splitting-field", "t^2-2"]) == 4
    assert "internal invariant violated: division is not exact" in capsys.readouterr().err


def test_shape_limit_is_a_cap_exit_code(capsys):
    t0 = time.monotonic()
    assert dispatch(["--json", "factor", f"t^{MAX_PARSE_DEGREE + 1} + 1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("cap exceeded: parsing: ") and "MAX_PARSE_DEGREE" in err
    assert dispatch(["--json", "--field", "F7", "irreducible", f"(t+1)^{MAX_PARSE_DEGREE + 1}"]) == 3
    assert "MAX_PARSE_DEGREE" in capsys.readouterr().err
    assert time.monotonic() - t0 < 1.0


def test_nesting_past_the_bound_is_a_parse_error(capsys):
    n = MAX_NESTING
    parens = "(" * (n + 1) + "t" + ")" * (n + 1)
    minuses = "t+" + "-" * (n + 1) + "t"
    for src in (parens, minuses):
        assert dispatch(["--json", "factor", src]) == 2
        assert "nesting deeper than" in capsys.readouterr().err
        with pytest.raises(ParseError) as info:
            parse_poly(src)
        assert info.value.position == src.index("(" if src is parens else "-") + n
    # exactly at the bound still parses
    assert parse_poly("(" * n + "t" + ")" * n) == q([0, 1])
    assert parse_poly("t+" + "-" * n + "t") == q([0, 2])
    assert parse_poly("-(" * (n // 2) + "t" + ")" * (n // 2)) == q([0, 1])
