"""Benchmark the Yang-Baxter residual: orbit-reduced, streamed, kron chain.

The workload is the residual of the spinor Yang-Baxter equation,
R12(u) R23(u+v) R12(v) - R23(v) R12(u+v) R23(u) at u = 1/2, v = 1/3 on
V (x) V (x) V (dimension 512 at d=6, 4096 at d=8), once as it holds and once
with R_2(u) perturbed by 1 (the ``perturb_k=2`` negative control):

- ``orbit-reduced``: ``kernel.yb_first_row`` with the basis row symmetry:
  the certificate on the three operands, then one row per orbit of the
  monomial Weyl lifts, stopping at the first nonzero row;
- ``streamed``: ``_core.yb_rows`` over every row of V (x) V (x) V, stored;
- ``kron chain``: six stored Kronecker factors, four sparse products
  (``_core.mul_grid`` behind ``@``) and one subtraction.

All three must agree on the verdict and the first residual entry, or the
script exits non-zero.  Times are the best of ``--repeat`` runs, labelled
with the kernel backend; the R-matrices are built once, outside the timed
region, and the orbit minima once per basis (reported as ``symmetry_ms``).
``--json PATH`` also writes the figures with the machine they came from.

Usage: python benchmarks/bench_kernel.py [--d 6[,8]] [--repeat 5] [--json PATH]
"""

import argparse
import json
import os
import platform
import time
from fractions import Fraction

from ybverify import _core
from ybverify.clifford import build_gamma
from ybverify.kernel import BACKEND, SparseOperator, kron, yb_first_row
from ybverify.rmatrix import (Normalization, RepChoice, assemble_spinor_R,
                              coefficients)

U, V = Fraction(1, 2), Fraction(1, 3)
CASES = (("holds", None), ("perturb_k=2", 2))


def operands(basis, perturb_k):
    tables = [coefficients(basis.d, x, Normalization.PRODUCT_FORM) for x in (U, U + V, V)]
    if perturb_k is not None:
        tables[0] = tables[0].perturbed(perturb_k)
    return [assemble_spinor_R(basis, t, RepChoice.PRIMED) for t in tables]


def streamed(a, b, c, n):
    rows = _core.yb_rows(a._rows, b._rows, c._rows, n, range(n ** 3))
    return SparseOperator(n ** 3, dict(rows), a._den * b._den * c._den)


def kron_chain(a, b, c, n):
    ident = SparseOperator.identity(n)
    lhs = kron(a, ident) @ kron(ident, b) @ kron(c, ident)
    rhs = kron(ident, c) @ kron(b, ident) @ kron(ident, a)
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


def bench(d, repeat):
    basis = build_gamma(d)
    n = basis.dim
    start = time.perf_counter()
    symmetry = basis.row_symmetry()
    symmetry_ms = (time.perf_counter() - start) * 1000
    print(f"d={d}: YBE residual on dimension {n ** 3}, {len(symmetry.rows)} orbits "
          f"({symmetry_ms:.1f} ms to build), best of {repeat}")
    methods = (("orbit-reduced", lambda a, b, c: yb_first_row(a, b, c, n, symmetry)),
               ("streamed", lambda a, b, c: streamed(a, b, c, n)),
               ("kron chain", lambda a, b, c: kron_chain(a, b, c, n)))
    results = []
    for case, perturb_k in CASES:
        ops = operands(basis, perturb_k)
        ms, firsts = {}, {}
        for label, fn in methods:
            seconds, residual = best_of(fn, ops, repeat)
            ms[label] = round(seconds * 1000, 3)
            firsts[label] = first_residual(residual)
        if len(set(firsts.values())) != 1:
            raise SystemExit(f"d={d} {case}: first residuals differ: {firsts}")
        first = firsts["kron chain"]
        verdict = "pass" if first is None else "fail"
        print(f"  {case}: {verdict}" + (f", first residual {first}" if first else ""))
        for label, value in ms.items():
            print(f"    {BACKEND} : {label:<13} {value:9.2f} ms")
        results.append({"d": d, "case": case, "rows": n ** 3,
                        "orbits": len(symmetry.rows), "symmetry_ms": round(symmetry_ms, 3),
                        "verdict": verdict, "first_residual": first, "ms": ms})
    return results


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--d", default="6", help="comma-separated even d values")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--json", metavar="PATH", help="also write the results as JSON")
    args = parser.parse_args()

    results = [row for d in args.d.split(",") for row in bench(int(d), args.repeat)]
    if args.json:
        record = {
            "bench": "ybe_orbits", "u": str(U), "v": str(V),
            "best_of": args.repeat, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "backend": BACKEND,
            "results": results,
        }
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
