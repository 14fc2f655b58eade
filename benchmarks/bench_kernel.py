"""Benchmark the Yang-Baxter and RLL residuals: orbit-reduced, streamed, stored.

``--relation ybe`` (the default) takes the residual of the spinor
Yang-Baxter equation, R12(u) R23(u+v) R12(v) - R23(v) R12(u+v) R23(u) at
u = 1/2, v = 1/3 on V (x) V (x) V (dimension 512 at d=6, 4096 at d=8), once
as it holds and once with R_2(u) perturbed by 1 (the ``perturb_k=2``
negative control):

- ``orbit-reduced``: ``kernel.yb_first_row`` with the basis row symmetry:
  the certificate on the three operands, then one row per orbit of the
  monomial Weyl lifts, stopping at the first nonzero row;
- ``streamed``: ``_core.slot_rows`` over every row of V (x) V (x) V, stored;
- ``kron chain``: six stored Kronecker factors, four sparse products
  (``_core.mul_grid`` behind ``@``) and one subtraction.

``--relation rll`` takes the residual of the RLL relation,
R12(u-v) L13(u) L23(v) - L13(v) L23(u) R12(u-v) at u = 1/2, v = 1/3 on
V (x) V (x) W, with W the defining representation (as it holds, and with
R_2(u-v) perturbed by 1) and the spinor representation (its recorded FAIL
at d=6):

- ``orbit-reduced``: ``kernel.rll_first_row`` with the symmetry of the
  quantum lifts: the certificate on R, L(u) and L(v), then one row per
  orbit, stopping at the first nonzero row; L13 streams as u 1 + K13, with
  K13 embedded at the first call and kept, so the best of ``--repeat``
  runs times the cached path;
- ``ordered stream``: ``kernel.rll_first_row`` without a symmetry, every
  row in order until the first nonzero one;
- ``materialized``: the five embedded operators, four sparse products and
  one subtraction.

All methods must agree on the verdict and the first residual entry, or the
script exits non-zero.  Times are the best of ``--repeat`` runs, labelled
with the kernel backend; the operands are built once, outside the timed
region, and the orbit minima once per symmetry (reported as
``symmetry_ms``).  ``--json PATH`` also writes the figures with the machine
they came from.

Usage: python benchmarks/bench_kernel.py [--relation ybe|rll] [--d 6[,8]]
       [--repeat 5] [--json PATH]
"""

import argparse
import json
import os
import platform
import time
from fractions import Fraction

from ybverify import _core
from ybverify.clifford import build_gamma
from ybverify.kernel import (BACKEND, SparseOperator, embed_pair, kron, rll_first_row,
                             yb_first_row)
from ybverify.rmatrix import (Normalization, RepChoice, assemble_spinor_R,
                              coefficients, quantum_L, so_defining_rep, so_spinor_rep)

U, V = Fraction(1, 2), Fraction(1, 3)


def spinor_R(basis, x, perturb_k=None):
    table = coefficients(basis.d, x, Normalization.PRODUCT_FORM)
    if perturb_k is not None:
        table = table.perturbed(perturb_k)
    return assemble_spinor_R(basis, table, RepChoice.PRIMED)


def streamed(a, b, c, n):
    left, right = (0, 1), (1, 2)
    rows = _core.slot_rows(((((a._rows, left), (b._rows, right), (c._rows, left)), 1),
                            (((c._rows, right), (b._rows, left), (a._rows, right)), -1)),
                           (n, n, n), range(n ** 3))
    return SparseOperator(n ** 3, dict(rows), a._den * b._den * c._den)


def kron_chain(a, b, c, n):
    ident = SparseOperator.identity(n)
    lhs = kron(a, ident) @ kron(ident, b) @ kron(c, ident)
    rhs = kron(ident, c) @ kron(b, ident) @ kron(ident, a)
    return lhs - rhs


def materialized(R, Lu, Lv, n, m):
    dims = [n, n, m]
    R12 = embed_pair(R, (0, 1), dims)
    lhs = R12 @ embed_pair(Lu, (0, 2), dims) @ embed_pair(Lv, (1, 2), dims)
    rhs = embed_pair(Lv, (0, 2), dims) @ embed_pair(Lu, (1, 2), dims) @ R12
    return lhs - rhs


def best_of(fn, args, repeat):
    best, result = float("inf"), None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def first_residual(op):
    loc = op.first_nonzero()
    if loc is None:
        return None
    (r, c), value = loc
    return f"{value} at entry ({r},{c})"


def timed_symmetry(build):
    start = time.perf_counter()
    symmetry = build()
    return symmetry, round((time.perf_counter() - start) * 1000, 3)


def compare(label, methods, ops, repeat):
    """Time every method on the operands; the verdict, the first residual
    and the times per method."""
    ms, firsts = {}, {}
    for name, fn in methods:
        seconds, residual = best_of(fn, ops, repeat)
        ms[name] = round(seconds * 1000, 3)
        firsts[name] = first_residual(residual)
    if len(set(firsts.values())) != 1:
        raise SystemExit(f"{label}: first residuals differ: {firsts}")
    first = firsts[methods[-1][0]]
    verdict = "pass" if first is None else "fail"
    print(f"  {label}: {verdict}" + (f", first residual {first}" if first else ""))
    for name, value in ms.items():
        print(f"    {BACKEND} : {name:<14} {value:9.2f} ms")
    return verdict, first, ms


def bench_ybe(d, repeat):
    basis = build_gamma(d)
    n = basis.dim
    symmetry, symmetry_ms = timed_symmetry(basis.row_symmetry)
    print(f"d={d}: YBE residual on dimension {n ** 3}, {len(symmetry.rows)} orbits "
          f"({symmetry_ms:.1f} ms to build), best of {repeat}")
    methods = (("orbit-reduced", lambda a, b, c: yb_first_row(a, b, c, n, symmetry)),
               ("streamed", lambda a, b, c: streamed(a, b, c, n)),
               ("kron chain", lambda a, b, c: kron_chain(a, b, c, n)))
    results = []
    for case, perturb_k in (("holds", None), ("perturb_k=2", 2)):
        ops = [spinor_R(basis, U, perturb_k), spinor_R(basis, U + V), spinor_R(basis, V)]
        verdict, first, ms = compare(case, methods, ops, repeat)
        results.append({"d": d, "case": case, "rows": n ** 3,
                        "orbits": len(symmetry.rows), "symmetry_ms": symmetry_ms,
                        "verdict": verdict, "first_residual": first, "ms": ms})
    return results


def bench_rll(d, repeat):
    basis = build_gamma(d)
    n = basis.dim
    results = []
    for quantum, q, cases in (("defining", so_defining_rep(d),
                               (("holds", None), ("perturb_k=2", 2))),
                              ("spinor", so_spinor_rep(basis), (("recorded", None),))):
        m = q.m
        symmetry, symmetry_ms = timed_symmetry(lambda: basis.row_symmetry(q))
        print(f"d={d}: RLL residual, {quantum} W, on dimension {n * n * m}, "
              f"{len(symmetry.rows)} orbits ({symmetry_ms:.1f} ms to build), "
              f"best of {repeat}")
        methods = (("orbit-reduced", lambda R, Lu, Lv: rll_first_row(R, Lu, Lv, n, m, symmetry)),
                   ("ordered stream", lambda R, Lu, Lv: rll_first_row(R, Lu, Lv, n, m)),
                   ("materialized", lambda R, Lu, Lv: materialized(R, Lu, Lv, n, m)))
        for case, perturb_k in cases:
            ops = [spinor_R(basis, U - V, perturb_k), quantum_L(basis, U, q),
                   quantum_L(basis, V, q)]
            verdict, first, ms = compare(case, methods, ops, repeat)
            results.append({"d": d, "quantum": quantum, "case": case, "rows": n * n * m,
                            "orbits": len(symmetry.rows), "symmetry_ms": symmetry_ms,
                            "verdict": verdict, "first_residual": first, "ms": ms})
    return results


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--relation", choices=("ybe", "rll"), default="ybe")
    parser.add_argument("--d", default="6", help="comma-separated even d values")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--json", metavar="PATH", help="also write the results as JSON")
    args = parser.parse_args()

    bench = bench_ybe if args.relation == "ybe" else bench_rll
    results = [row for d in args.d.split(",") for row in bench(int(d), args.repeat)]
    if args.json:
        record = {
            "bench": f"{args.relation}_orbits", "u": str(U), "v": str(V),
            "best_of": args.repeat, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "backend": BACKEND,
            "results": results,
        }
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
