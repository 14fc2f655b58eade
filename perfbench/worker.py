"""One exact-workload process: imports, warm-up, then a closed loop of checks.

Run by ``run.py`` in a fresh interpreter.  It prints ``ready`` once imports
are done and the caches are warm (the parent times set-up up to that line),
then, unless ``--setup-only``, reads the generated points from ``--inputs``
and checks them one op at a time.  Each op's stream line is compared with the
oracle's after the op's clock stops.  The last stdout line is a JSON summary.

    python perfbench/worker.py --inputs FILE [--seconds S] [--min-ops N]
                               [--first I] [--all-points] [--trace-out FILE]
                               [--setup-only]
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
from fractions import Fraction
from time import perf_counter, perf_counter_ns

from ybverify import relations
from ybverify.clifford import build_gamma
from ybverify.rmatrix import Normalization, RepChoice, so_defining_rep, so_spinor_rep

import oracle
import spans

NORM = Normalization.PRODUCT_FORM
REP = RepChoice.PRIMED
BUDGET_D8 = 100_000
WARMUP_POINT = {"u": "1/2", "v": "1/3", "signs": "+-+", "perturb_k": 2}
BASIS_DIMS = (4, 6, 8)


# the recorded FAIL that does not depend on the spectral point; checked once,
# in the warm-up, so that a point's mix holds only point-dependent ops
ASYM_OP = {"check": "asym", "d": 4, "quantum": "spinor"}


def point_ops(p: dict) -> list[dict]:
    """The check mix of one spectral point: six ordinary checks, the
    perturb_k negative control and the recorded spinor RLL FAIL."""
    uv = {"u": p["u"], "v": p["v"]}
    return [
        {"check": "ybe", "d": 6, **uv},
        {"check": "three_term", "d": 6, **uv, "signs": p["signs"]},
        {"check": "rll_fundamental", "d": 6, **uv},
        {"check": "rll_quantum", "d": 6, **uv, "quantum": "defining"},
        {"check": "unitarity", "d": 6, "u": p["u"]},
        {"check": "ybe", "d": 8, **uv, "budget": BUDGET_D8},
        {"check": "ybe", "d": 6, **uv, "perturb_k": p["perturb_k"]},
        {"check": "rll_quantum", "d": 6, **uv, "quantum": "spinor"},
    ]


def op_label(op: dict) -> str:
    extra = op.get("quantum") or ("perturb" if "perturb_k" in op else "")
    return f"{op['check']}/d{op['d']}" + (f"/{extra}" if extra else "")


def run_op(op: dict, bases: dict):
    """Call the program for one op; returns its CheckReport."""
    check, d = op["check"], op["d"]
    u, v = Fraction(op.get("u", 0)), Fraction(op.get("v", 0))
    if check == "ybe":
        return relations.check_ybe(d, u, v, NORM, REP, op.get("budget"),
                                   perturb_k=op.get("perturb_k"))
    if check == "three_term":
        return relations.check_three_term(d, u, v, op["signs"], NORM, REP)
    if check == "rll_fundamental":
        return relations.check_rll_fundamental(d, u, v, NORM, REP)
    if check == "rll_quantum":
        q = so_defining_rep(d) if op["quantum"] == "defining" else so_spinor_rep(bases[d])
        return relations.check_rll_quantum(d, u, v, q, op["quantum"], NORM, REP)
    if check == "unitarity":
        return relations.check_unitarity(d, u, NORM)
    if check == "asym":
        return relations.check_asym(so_spinor_rep(bases[d]), op["quantum"])
    raise ValueError(f"unknown op {op}")


def timed_op(op: dict, bases: dict):
    """(CheckReport or the exception it raised, elapsed ns)."""
    start = perf_counter_ns()
    try:
        rep = run_op(op, bases)
    except Exception as exc:  # a raising op is a failed op, not a crash
        rep = exc
    return rep, perf_counter_ns() - start


class Loop:
    """Runs points, times each op, and checks every stream line."""

    def __init__(self, bases, tracer=None):
        self.bases = bases
        self.tracer = tracer
        self.lat_ms, self.labels, self.point_ms = [], [], []
        self.attempted = self.failed = 0
        self.problems = []

    def point(self, p: dict):
        ops = point_ops(p)
        results = [timed_op(op, self.bases) for op in ops]
        self.verify(ops, [rep for rep, _ in results])
        ms = [ns / 1e6 for _, ns in results]
        self.lat_ms.extend(ms)
        self.labels.extend(op_label(op) for op in ops)
        self.point_ms.append(sum(ms))

    def verify(self, ops, reports):
        """Compare each report with the oracle, outside every span."""
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            for op, rep in zip(ops, reports):
                self._verify(op, rep)
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True

    def _verify(self, op, rep):
        self.attempted += 1
        if isinstance(rep, Exception):
            got = f"raised {type(rep).__name__}: {rep}"
        else:
            got = json.dumps(rep.to_json_dict(with_timing=False))
        want = oracle.expected_line(op, self.bases)
        if got != want:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append({"op": op, "got": got, "want": want})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--min-ops", type=int, default=100)
    ap.add_argument("--first", type=int, default=0,
                    help="index of the first point to check")
    ap.add_argument("--all-points", action="store_true",
                    help="check every input point instead of stopping on time")
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace_out:
        spans.import_layers()
        tracer = spans.Tracer()
        tracer.install()
    bases = {d: build_gamma(d) for d in BASIS_DIMS}
    warm = Loop(bases, tracer)
    warm_ops = point_ops(WARMUP_POINT) + [ASYM_OP]
    warm_results = [timed_op(op, bases)[0] for op in warm_ops]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    warm.verify(warm_ops, warm_results)
    with open(args.inputs) as fh:
        points = json.load(fh)["points"]
    loop = Loop(bases, tracer)
    start = perf_counter()
    # the points repeat when a fast program runs out of them before time
    points = points[args.first:] + points[:args.first]
    for p in (points if args.all_points else itertools.cycle(points)):
        loop.point(p)
        if (not args.all_points and loop.attempted >= args.min_ops
                and perf_counter() - start >= args.seconds):
            break
    wall_s = perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
        tracer.write(args.trace_out)
    print(json.dumps({
        "lat_ms": loop.lat_ms, "labels": loop.labels, "point_ms": loop.point_ms,
        "attempted": loop.attempted, "failed": loop.failed,
        "warmup_attempted": warm.attempted, "warmup_failed": warm.failed,
        "problems": warm.problems + loop.problems,
        "op_s": sum(loop.lat_ms) / 1e3, "wall_s": wall_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
