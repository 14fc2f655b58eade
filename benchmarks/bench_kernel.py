"""Benchmark the exact sparse product kernel ``_core.mul_grid``.

The workload is the hot loop of the exact checks: the product R12 R23 of
spinorial R-matrix embeddings on the triple tensor space (dimension 512 at
the default d=6, 4096 at d=8).

Usage: python benchmarks/bench_kernel.py [--d 6] [--repeat 5]
"""

import argparse
import time
from fractions import Fraction

from ybverify import _core
from ybverify.clifford import build_gamma
from ybverify.kernel import SparseOperator, kron
from ybverify.rmatrix import Normalization, assemble_spinor_R, coefficients


def workload(d):
    basis = build_gamma(d)
    table = coefficients(d, Fraction(1, 2), Normalization.PRODUCT_FORM)
    R = assemble_spinor_R(basis, table)
    ident = SparseOperator.identity(basis.dim)
    r12 = kron(R, ident)
    r23 = kron(ident, R)
    return r12._rows, r23._rows


def bench(arows, brows, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        _core.mul_grid(arows, brows)
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--d", type=int, default=6)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    arows, brows = workload(args.d)
    nnz = sum(len(r) for r in arows.values())
    print(f"d={args.d}: multiplying two {len(arows)}-row grids, {nnz} nonzeros each")

    t_py = bench(arows, brows, args.repeat)
    print(f"  python : {t_py * 1000:8.2f} ms")


if __name__ == "__main__":
    main()
