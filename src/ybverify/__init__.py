"""ybverify: exact verification toolkit for the spinorial so(d) R-matrix."""

from .kernel import BACKEND, ExactScalar, SparseOperator, embed_pair, kron

__all__ = [
    "BACKEND",
    "ExactScalar",
    "SparseOperator",
    "embed_pair",
    "kron",
]

__version__ = "0.1.0"
