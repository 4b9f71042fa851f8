"""Spans and call counts around galoiskit's public functions, from outside.

``Tracer.install()`` replaces each traced function with a wrapper in every
place it is bound: the defining module, every galoiskit module that did
``from .x import f``, and the class for methods (including aliases such as
``__rmul__ = __mul__``).  Spanned functions record (name, start, end,
parent) in memory; counted methods only bump a counter, because they run
hundreds of thousands of times per query.  Nothing is written until
``summary()`` and ``dump()`` are called at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (layer, qualified name) of functions timed with spans.
SPANNED = (
    ("cli", "parse_poly"),
    ("cli", "dispatch"),
    ("factor", "factor_q"),
    ("factor", "is_irreducible_q"),
    ("factor", "factor_over_extension"),
    ("factor", "factor_ff"),
    ("apps", "count_real_roots"),
    ("apps", "solvable_by_radicals"),
    ("poly", "resultant"),
    ("splitting", "splitting_field_q"),
    ("splitting", "splitting_field_fp"),
    ("galois", "automorphisms"),
    ("galois", "isomorphism_type"),
    ("galois", "subgroups"),
    ("galois", "GaloisGroup.matrix_of"),
    ("tower", "Tower.min_poly_over_base"),
    ("correspondence", "fixed_field"),
    ("correspondence", "gal_over"),
    ("correspondence", "verify_correspondence"),
    ("linalg", "nullspace"),
    ("linalg", "rref"),
    ("finitefield", "gf"),
    ("finitefield", "multiplicative_generator"),
    ("finitefield", "subfields"),
)

# (layer, qualified name, metric name) of hot methods that are only counted.
COUNTED = (
    ("tower", "TowerElem.__mul__", "TowerElem.mul"),
    ("tower", "TowerElem.inv", "TowerElem.inv"),
    ("poly", "Poly.__mul__", "Poly.mul"),
    ("poly", "Poly.__divmod__", "Poly.divmod"),
    ("finitefield", "GF.mul", "GF.mul"),
    ("numbers", "FpElem.__mul__", "FpElem.mul"),
)


def span_metric_names():
    return [f"{layer}.{name}" for layer, name in SPANNED]


def count_metric_names():
    return [f"{layer}.{metric}" for layer, _, metric in COUNTED]


class Tracer:
    def __init__(self):
        self.names = []  # span name per name index
        self.spans = []  # [name index, start, end, parent span index or -1]
        self.stack = []
        self.counts = {}
        self.missing = []

    # -- recording --------------------------------------------------------

    def _name_index(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def span(self, name):
        """Context manager for a span the benchmark opens itself (one per query)."""
        return _Span(self, self._name_index(name))

    def _span_wrapper(self, name, fn):
        idx = self._name_index(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [idx, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def _count_wrapper(self, name, fn):
        cell = self.counts[name] = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        for layer, qualname in SPANNED:
            self._replace(layer, qualname, lambda fn, n=f"{layer}.{qualname}": self._span_wrapper(n, fn))
        for layer, qualname, metric in COUNTED:
            self._replace(layer, qualname, lambda fn, n=f"{layer}.{metric}": self._count_wrapper(n, fn))

    def _replace(self, layer, qualname, make):
        module = sys.modules.get(f"galoiskit.{layer}")
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{layer}.{qualname}")
            return
        wrapper = make(original)
        if owner_name:  # a method: every alias in the class body
            targets = [owner]
        else:  # a function: every galoiskit module that bound it
            targets = [m for n, m in list(sys.modules.items()) if n == "galoiskit" or n.startswith("galoiskit.")]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)

    # -- results ----------------------------------------------------------

    def summary(self):
        """Per-layer metrics: calls, inclusive seconds (outermost call of a
        recursion only) and self seconds (minus traced children) per spanned
        function; calls per counted method; min_poly_over_base calls inside
        fixed_field per fixed_field call."""
        names, spans = self.names, self.spans
        calls = {n: 0 for n in span_metric_names()}
        inclusive = dict.fromkeys(calls, 0.0)
        self_s = dict.fromkeys(calls, 0.0)
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        in_fixed_field = 0
        for i, (idx, start, end, parent) in enumerate(spans):
            name = names[idx]
            if name not in calls:
                continue
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            ancestors, p = set(), parent
            while p >= 0:
                ancestors.add(names[spans[p][0]])
                p = spans[p][3]
            if name == "tower.Tower.min_poly_over_base" and "correspondence.fixed_field" in ancestors:
                in_fixed_field += 1
            if name not in ancestors:
                inclusive[name] += end - start
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = inclusive[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in count_metric_names():
            out[f"{name}.calls"] = self.counts.get(name, [0])[0]
        ff_calls = calls["correspondence.fixed_field"]
        out["correspondence.candidates_per_subfield"] = in_fixed_field / ff_calls if ff_calls else 0.0
        return out

    def dump(self, path):
        """Write every span as [name, start, end, parent] in one JSON document."""
        with open(path, "w") as fh:
            json.dump({"spans": [[self.names[i], s, e, p] for i, s, e, p in self.spans]}, fh)


class _Span:
    def __init__(self, tracer, idx):
        self.tracer, self.idx = tracer, idx

    def __enter__(self):
        t = self.tracer
        self.rec = [self.idx, perf_counter(), 0.0, t.stack[-1] if t.stack else -1]
        t.stack.append(len(t.spans))
        t.spans.append(self.rec)

    def __exit__(self, *exc):
        self.rec[2] = perf_counter()
        self.tracer.stack.pop()
