"""One workload process: import galoiskit, load the inputs, ask every query.

Started by run.py, never by hand:

    python3 -I -S perfbench/worker.py ROOT INPUTS MODE T0 [TRACE_OUT]

INPUTS is the JSON file of queries run.py built from the seed (without the
expected answers) and the per-query time limit.  MODE is ``setup`` (stop
where the first query would start), ``run`` or ``trace`` (run with the
tracer installed, spans written to TRACE_OUT).  T0 is the parent's
``time.monotonic()`` just before it started this process, so that set-up
time covers interpreter start, the galoiskit import and loading the inputs.
One JSON document goes to stdout; answers are checked by the parent.
"""

import bisect
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction


# Speed probes.  This host's speed drifts by a third and more within a
# minute, because other machines' work shares its cores and caches.  So a
# fixed unit of reference work -- Fraction products, a small polynomial
# remainder over Q and products of mod-p residue objects, like galoiskit's
# own inner loops -- runs every PROBE_EVERY_S of CPU time, from a SIGVTALRM
# handler, in the middle of whatever query is running.  Each query's time,
# less the probes inside it, is scaled by REFERENCE_PROBE_S over the mean
# time of those probes (of the probes within PROBE_WINDOW_S of the query
# when fewer than PROBE_MIN ran inside): seconds at the reference speed.
# The raw times are reported too.
PROBE_EVERY_S = 0.01
PROBE_MIN = 5
PROBE_WINDOW_S = 0.25
REFERENCE_PROBE_S = 0.0003
SETUP_PROBE_S = 0.03  # set-up is scaled by probes run right after it


class _Residue:
    __slots__ = ("r", "p")

    def __init__(self, r, p):
        self.r, self.p = r % p, p

    def __add__(self, other):
        return _Residue(self.r + other.r, self.p)

    def __mul__(self, other):
        return _Residue(self.r * other.r, self.p)


_QA = [Fraction(i, 7) for i in range(1, 7)]
_QB = [Fraction(7, i + 2) for i in range(1, 7)]
_QM = [Fraction(-2), Fraction(0), Fraction(1, 3), Fraction(0), Fraction(1)]
_FA = [_Residue(i, 7) for i in range(1, 9)]
_FB = [_Residue(3 * i + 1, 7) for i in range(1, 9)]


def _unit():
    prod = [Fraction(0)] * 11
    for i, x in enumerate(_QA):
        for j, y in enumerate(_QB):
            prod[i + j] += x * y
    while len(prod) >= len(_QM):  # remainder mod a monic quartic
        c, k = prod.pop(), len(prod) - len(_QM) + 1
        for i, m in enumerate(_QM[:-1]):
            prod[k + i] -= c * m
    res = [_Residue(0, 7)] * 15
    for i, x in enumerate(_FA):
        for j, y in enumerate(_FB):
            res[i + j] = res[i + j] + x * y
    return prod, res


def probe_time(seconds):
    """Mean time of the probe unit, run back to back for about `seconds`."""
    n, start = 0, time.perf_counter()
    while time.perf_counter() - start < seconds:
        _unit()
        n += 1
    return (time.perf_counter() - start) / n


class Probes:
    def __init__(self):
        self.at, self.took = [], []

    def _probe(self, signum, frame):
        start = time.perf_counter()
        _unit()
        self.took.append(time.perf_counter() - start)
        self.at.append(start)

    def start(self):
        signal.signal(signal.SIGVTALRM, self._probe)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def scale(self, lo, hi):
        """Reference speed over measured speed during [lo, hi], or around it
        when too few probes ran inside."""
        i, j = bisect.bisect_left(self.at, lo), bisect.bisect_right(self.at, hi)
        if j - i < PROBE_MIN:
            i = bisect.bisect_left(self.at, lo - PROBE_WINDOW_S)
            j = bisect.bisect_right(self.at, hi + PROBE_WINDOW_S)
        took = self.took[i:j] or self.took
        return REFERENCE_PROBE_S * len(took) / sum(took)


class QueryTimeout(BaseException):
    """Raised by the alarm; a BaseException so that no handler in the
    program swallows it."""


def _alarm(signum, frame):
    raise QueryTimeout()


def ask(galoiskit, query):
    """Ask one query the way a user would; return a JSON-able answer (for a
    CLI query, its standard output, parsed later by the parent)."""
    cli = galoiskit.cli
    kind, args = query["kind"], query["args"]
    if kind == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.dispatch(["--json"] + args)
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        return out.getvalue()
    if kind == "sturm":
        return galoiskit.count_real_roots(cli.parse_poly(args))
    if kind == "ladder":  # what `galoiskit galois` does, plus the derived series
        sf = galoiskit.splitting_field_q(cli.parse_poly(args))
        G = galoiskit.automorphisms(sf)
        return {
            "degree": sf.degree(),
            "group": G.to_json(),
            "table": [list(row) for row in G.table],
            "derived": [H.order for H in galoiskit.derived_series(G)],
        }
    raise ValueError(f"unknown query kind {kind!r}")


def main():
    root, inputs, mode, t0 = sys.argv[1:5]
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    galoiskit = importlib.import_module("galoiskit")
    with open(inputs) as fh:
        spec = json.load(fh)
    queries, limit = spec["queries"], spec["limit_s"]
    tracer = None
    if mode == "trace":
        tracer = importlib.import_module("tracer").Tracer()
        tracer.install()
    raw_setup_s = time.monotonic() - float(t0)
    setup_s = raw_setup_s * REFERENCE_PROBE_S / probe_time(SETUP_PROBE_S)
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return
    signal.signal(signal.SIGALRM, _alarm)
    records = []
    probes = Probes()
    probes.start()
    for q in queries:
        # Every query starts with an empty young generation and without the
        # run's earlier objects to scan, as it would in a fresh process.
        gc.collect()
        gc.freeze()
        answer, error = None, None
        n0 = len(probes.took)
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            if tracer:
                with tracer.span(f"query:{q['id']}"):
                    answer = ask(galoiskit, q)
            else:
                answer = ask(galoiskit, q)
        except QueryTimeout:
            error = f"over the {limit} s limit"
        except Exception as exc:  # a failed query is counted, and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        net = end - start - sum(probes.took[n0:])
        records.append({"id": q["id"], "raw_s": net, "start": start, "end": end, "answer": answer, "error": error})
    probes.stop()
    for r in records:
        r["s"] = r["raw_s"] * probes.scale(r.pop("start"), r.pop("end"))
    result = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": sum(r["s"] for r in records),
        "raw_wall_s": sum(r["raw_s"] for r in records),
        "probe_mean_s": sum(probes.took) / len(probes.took),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records": records,
    }
    if tracer:
        result["layers"] = tracer.summary()
        result["missing"] = tracer.missing
        tracer.dump(sys.argv[5])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
