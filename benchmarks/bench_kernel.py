"""Benchmark the streamed Yang-Baxter residual against the Kronecker chain.

The workload is the residual of the spinor Yang-Baxter equation,
R12(u) R23(u+v) R12(v) - R23(v) R12(u+v) R23(u) at u = 1/2, v = 1/3 on
V (x) V (x) V (dimension 512 at d=6, 4096 at d=8):

- ``streamed``: ``kernel.yb_difference``, one row of V (x) V (x) V at a time;
- ``kron chain``: six stored Kronecker factors, four sparse products
  (``_core.mul_grid`` behind ``@``) and one subtraction.

Both must give the same operator.  Times are the best of ``--repeat`` runs,
labelled with the kernel backend; the R-matrices are built once, outside the
timed region.

Usage: python benchmarks/bench_kernel.py [--d 6] [--repeat 5]
"""

import argparse
import time
from fractions import Fraction

from ybverify.clifford import build_gamma
from ybverify.kernel import BACKEND, SparseOperator, kron, yb_difference
from ybverify.rmatrix import (Normalization, RepChoice, assemble_spinor_R,
                              coefficients)


def operands(d):
    basis = build_gamma(d)
    u, v = Fraction(1, 2), Fraction(1, 3)
    Rs = [assemble_spinor_R(basis, coefficients(d, x, Normalization.PRODUCT_FORM),
                            RepChoice.PRIMED) for x in (u, u + v, v)]
    return (*Rs, basis.dim)


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


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--d", type=int, default=6)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    a, b, c, n = operands(args.d)
    print(f"d={args.d}: YBE residual on dimension {n ** 3}, R nnz {a.nnz}, "
          f"best of {args.repeat}")
    t_stream, streamed = best_of(yb_difference, (a, b, c, n), args.repeat)
    t_chain, chained = best_of(kron_chain, (a, b, c, n), args.repeat)
    if streamed != chained:
        raise SystemExit("streamed residual differs from the kron chain")
    for label, seconds in (("streamed", t_stream), ("kron chain", t_chain)):
        print(f"  {BACKEND} : {label:<10} {seconds * 1000:8.2f} ms")
    print(f"  residual nnz {streamed.nnz}")


if __name__ == "__main__":
    main()
