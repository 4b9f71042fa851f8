"""Each check accepts a right answer and rejects a wrong one.

    python3 -m pytest perfbench/test_oracle.py

The right answers here are worked out by hand, not copied from galoiskit.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def ok(expect, answer):
    return checks.problems(expect, answer) == []


def test_rabin():
    assert oracle.rabin_irreducible([1, 1, 0, 0, 1], 2)  # t^4 + t + 1
    assert not oracle.rabin_irreducible([1, 0, 0, 0, 1], 2)  # (t + 1)^4
    assert not oracle.rabin_irreducible([1, 0, 1, 0, 1], 2)  # (t^2 + t + 1)^2
    assert oracle.rabin_irreducible([1, 0, 1], 3)  # t^2 + 1
    assert not oracle.rabin_irreducible([1, 0, 1], 5)  # (t - 2)(t + 2)


def test_parse_poly():
    assert oracle.parse_poly("t^3 - 1/2*t + 5") == [5, oracle.Fraction(-1, 2), 0, 1]
    assert oracle.parse_poly("-t") == [0, -1]
    assert oracle.parse_poly("3*a^2 + a", "a") == [0, 1, 3]


def test_factor_q():
    expect = {"check": "factor_q", "poly": [-6, 2, -3, 1], "shape": [(1, 1), (2, 1)]}  # (t - 3)(t^2 + 2)
    right = {"unit": "1", "factors": [{"poly": "t - 3", "multiplicity": 1}, {"poly": "t^2 + 2", "multiplicity": 1}]}
    assert ok(expect, right)
    wrong_factor = json.loads(json.dumps(right).replace("t - 3", "t + 3"))
    assert not ok(expect, wrong_factor)
    wrong_unit = dict(right, unit="2")
    assert not ok(expect, wrong_unit)
    # multiplies back, but splits nothing: the degree multiset catches it
    unsplit = {"unit": "1", "factors": [{"poly": "t^3 - 3*t^2 + 2*t - 6", "multiplicity": 1}]}
    assert not ok(expect, unsplit)


def test_factor_fp():
    expect = {"check": "factor_fp", "p": 5, "poly": [4, 0, 1]}  # t^2 + 4 = (t + 1)(t + 4) mod 5
    assert ok(expect, {"unit": "1", "factors": [{"poly": "t + 1", "multiplicity": 1}, {"poly": "t + 4", "multiplicity": 1}]})
    assert not ok(expect, {"unit": "1", "factors": [{"poly": "t^2 + 4", "multiplicity": 1}]})  # reducible factor
    assert not ok(expect, {"unit": "1", "factors": [{"poly": "t + 1", "multiplicity": 2}]})


def test_irreducible():
    f = [2, 0, 0, 1]  # t^3 + 2, Eisenstein at 2
    expect = {"check": "irreducible", "poly": f, "irreducible": True}
    assert ok(expect, {"verdict": "irreducible", "witness_kind": "eisenstein", "witness_data": {"prime": 2, "shift": 0}})
    assert not ok(expect, {"verdict": "reducible", "witness_kind": "rational_root", "witness_data": {"root": "1"}})
    assert not ok(expect, {"verdict": "irreducible", "witness_kind": "eisenstein", "witness_data": {"prime": 3, "shift": 0}})
    g = [-2, -1, 1]  # (t - 2)(t + 1)
    red = {"check": "irreducible", "poly": g, "irreducible": False}
    assert ok(red, {"verdict": "reducible", "witness_kind": "rational_root", "witness_data": {"root": "-1"}})
    assert not ok(red, {"verdict": "reducible", "witness_kind": "rational_root", "witness_data": {"root": "1"}})


def test_scalar_verdicts():
    assert ok({"check": "sturm", "count": 3}, 3)
    assert not ok({"check": "sturm", "count": 3}, 1)
    s5 = {"verdict": "not_solvable_by_radicals", "evidence_kind": "sp_criterion",
          "evidence_data": {"prime": 5, "real_roots": 3, "group": "S5"}}
    assert ok({"check": "solvable", "solvable": False}, s5)
    assert not ok({"check": "solvable", "solvable": True}, s5)
    assert ok({"check": "construct_degree", "degree": 3}, {"degree": 3, "verdict": "not_constructible"})
    assert not ok({"check": "construct_degree", "degree": 4}, {"degree": 4, "verdict": "not_constructible"})
    assert ok({"check": "ngon", "n": 17 * 4}, {"n": 68, "constructible": True})
    assert not ok({"check": "ngon", "n": 9}, {"n": 9, "constructible": True})  # 3 twice
    assert oracle.ngon_rule(257 * 65537) and not oracle.ngon_rule(7)


def _s3_answer():
    # Gal(t^3 - 2) acting on three roots: all of S3, elements as cycles.
    elems = ["()", "(2 3)", "(1 2)", "(1 2 3)", "(1 3 2)", "(1 3)"]
    perms = [oracle.parse_cycles(e, 3) for e in elems]
    index = {g: i for i, g in enumerate(perms)}
    table = [[index[oracle.compose(b, a)] for b in perms] for a in perms]
    group = {"order": 6, "type": "S3", "generators": ["(1 2 3)", "(2 3)"], "elements": elems,
             "action": ["r1", "r2", "r3"]}
    return {"degree": 6, "group": group, "table": table, "derived": [6, 3, 1]}


def test_ladder():
    expect = {"check": "ladder", "type": "S3", "irreducible": True}
    right = _s3_answer()
    assert ok(expect, right)
    assert not ok(expect, dict(right, degree=3))  # |G| != splitting degree
    assert not ok(expect, dict(right, derived=[6, 1]))
    wrong_type = json.loads(json.dumps(right))
    wrong_type["group"]["type"] = "C6"
    assert not ok(expect, wrong_type)
    not_group = json.loads(json.dumps(right))
    not_group["group"]["elements"][3] = "(1 3)"
    assert not ok(expect, not_group)
    assert not ok({"check": "ladder", "type": "D5", "irreducible": True}, right)


def test_correspondence():
    expect = {"check": "correspondence", "degree": 4, "subgroups": 3, "normal": 3}  # C4

    def pair(order, dim, minpoly):
        return {"order": order, "normal": True, "gal_over_matches": True,
                "fixed_field": {"dim": dim, "primitive_min_poly": minpoly}}

    right = {"degree": 4, "group_order": 4, "pair_count": 3, "mutually_inverse": True,
             "pairs": [pair(1, 4, "t^4 - 4*t^2 + 2"), pair(2, 2, "t^2 - 2"), pair(4, 1, "t")]}
    assert ok(expect, right)
    assert not ok(expect, dict(right, mutually_inverse=False))
    bad_dim = json.loads(json.dumps(right))
    bad_dim["pairs"][1]["fixed_field"]["dim"] = 3
    assert not ok(expect, bad_dim)
    assert not ok(dict(expect, subgroups=5, normal=5), right)  # C2 x C2 has five


def test_gf():
    expect = {"check": "gf", "p": 2, "n": 4}
    right = {"p": 2, "n": 4, "order": 16, "modulus": "t^4 + t + 1", "generator": "a", "frobenius_order": 4,
             "subfield_orders": [2, 4, 16], "subfields": [{"m": 1, "order": 2}, {"m": 2, "order": 4}, {"m": 4, "order": 16}]}
    assert ok(expect, right)
    assert not ok(expect, dict(right, modulus="t^4 + t^3 + t^2 + t + 1", generator="a"))  # a has order 5 there
    assert not ok(expect, dict(right, generator="a^3"))  # order 5
    assert not ok(expect, dict(right, modulus="t^4 + 1"))
    assert not ok(expect, dict(right, frobenius_order=2))
    assert not ok(expect, dict(right, subfield_orders=[2, 16]))


def test_fp_splitting_and_galois():
    # (t + 1)(t^2 + t + 1) over F_2 splits in F_4 = F_2[a]/(a^2 + a + 1).
    poly = oracle.pmul([1, 1], [1, 1, 1], 2)
    expect = {"check": "splitting-field", "p": 2, "poly": poly, "degrees": [1, 2]}
    right = {"degree": 2, "tower": [{"label": "a", "min_poly": "t^2 + t + 1"}], "roots": ["1", "a", "a + 1"],
             "multiplicities": [1, 1, 1]}
    assert ok(expect, right)
    assert not ok(expect, dict(right, roots=["1", "a", "0"]))
    assert not ok(expect, dict(right, degree=4))
    gal = {"check": "galois", "p": 2, "poly": poly, "degrees": [1, 2]}
    right_gal = {"order": 2, "type": "C2", "generators": ["(2 3)"], "elements": ["()", "(2 3)"], "action": ["1", "a", "a + 1"]}
    assert ok(gal, right_gal)
    assert not ok(gal, dict(right_gal, order=1, type="C1", generators=[], elements=["()"]))
    # two quadratic factors: Frobenius must swap the roots of each
    two = {"check": "galois", "p": 3, "poly": [], "degrees": [2, 2]}
    swap_both = {"order": 2, "type": "C2", "generators": ["(1 2)(3 4)"], "elements": ["()", "(1 2)(3 4)"],
                 "action": ["a", "2*a", "a + 1", "2*a + 2"]}
    assert ok(two, swap_both)
    assert not ok(two, dict(swap_both, generators=["(1 2)"], elements=["()", "(1 2)"]))


def test_inputs_repeat_with_the_seed_and_never_within_a_run():
    for w in workloads.WORKLOADS:
        a, b = workloads.build(w, 7, 10), workloads.build(w, 7, 10)
        assert a == b
        keys = [workloads._key(q) for q in a]
        assert len(keys) == len(set(keys))
    assert workloads.build("verdicts", 7, 10) != workloads.build("verdicts", 8, 10)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names() + ["trace.wall_s", "trace.overhead_pct"]
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "query_p50_ms", "peak_rss_mb"]
