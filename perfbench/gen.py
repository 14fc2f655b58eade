"""Seeded input generator for the exact workloads.

A point is one spectral pair (u, v) plus the per-point choices of the check
mix: the three-term sign triple and the coefficient index that the
``perturb_k`` negative control corrupts.  The same seed always gives the same
points.  A draw is rejected when u, v, u+v or u-v is zero, or when the
program raises ``PoleError`` for the coefficient table at one of those values
(or at -u, which the unitarity check evaluates).  It is also rejected when a
coefficient of one of those tables vanishes: the R-matrix is then sparser and
its checks cost about half as much, and a seed-dependent share of such cheap
points would move the run medians from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from ybverify.rmatrix import Normalization, PoleError, coefficients

# small height: |numerator| and denominator <= 12
SMALL = (1, 12)
# wide: numerator and denominator magnitudes with 9 or 10 digits
WIDE = (10 ** 8, 10 ** 10 - 1)
HEIGHTS = {"exact_sweep": SMALL, "exact_wide": WIDE}

SIGN_TRIPLES = tuple(a + b + c for a in "+-" for b in "+-" for c in "+-")
PERTURB_D = 6
POLE_DIMS = (6, 8)


def _rational(rng: random.Random, height) -> Fraction:
    lo, hi = height
    num = rng.randint(0, hi) if lo == 1 else rng.randint(lo, hi)
    if rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(lo, hi))


def _admissible(u: Fraction, v: Fraction) -> bool:
    values = (u, v, u + v, u - v)
    if any(x == 0 for x in values):
        return False
    try:
        for d in POLE_DIMS:
            for x in values + (-u,):
                table = coefficients(d, x, Normalization.PRODUCT_FORM)
                if not all(table[k] for k in range(len(table))):
                    return False
    except PoleError:
        return False
    return True


def points(workload: str, seed: int, count: int) -> list[dict]:
    """``count`` admissible points for ``workload``; JSON-ready (fractions
    as strings)."""
    height = HEIGHTS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out = []
    while len(out) < count:
        u, v = _rational(rng, height), _rational(rng, height)
        signs = rng.choice(SIGN_TRIPLES)
        k = rng.randrange(PERTURB_D + 1)
        if not _admissible(u, v):
            continue
        out.append({"u": str(u), "v": str(v), "signs": signs, "perturb_k": k})
    return out


def digest(inputs) -> str:
    """sha256 of the canonical JSON form of the inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
