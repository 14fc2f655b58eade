"""Verdict oracle: the expected stream line of every op, computed without the
program's product kernel.

Ordinary checks must PASS with their convention string; the unitarity detail
carries h+ and h-, recomputed here from the closed-form product
coefficients.  The negative controls and the recorded FAILs must FAIL at the
first nonzero residual entry, which is found independently: a random integer
vector w locates the first nonzero row of (lhs - rhs) w, and that row is then
computed exactly as a row-vector chain.  Both steps apply each factor on its
two tensor slots directly, so they share no code with ``mul_grid``,
``kron_grid`` or ``add_grids``; only the factors themselves come from the
program.  The suite stream is compared with a recording: exact reports byte
for byte, float reports by status and residual below tolerance.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb, lcm

from ybverify.rmatrix import (Normalization, RepChoice, assemble_spinor_R,
                              coefficients, quantum_L, so_spinor_rep)

NORM = "product"
REP = "primed"
YBE_CONVENTION = "spectral placement (u, u+v, v)"
RLL_CONVENTION = "spectral placement u-v"
# recorded verdict of `ybv check asym --d 4 --quantum spinor`
ASYM_SPINOR_D4 = "nonzero antisymmetrization for (a,b,c,d)=(1,2,3,4): 3 at (0,0)"


# ---------------------------------------------------------------------------
# stream lines
# ---------------------------------------------------------------------------

def line(check, params, status, detail) -> str:
    """One default-stream JSON line, as ``ybv`` prints it without --timings."""
    return json.dumps({
        "schema": 1, "check": check,
        "params": {k: params[k] for k in sorted(params)},
        "status": status, "exact": True, "max_residual": None,
        "elapsed_ms": 0, "detail": detail,
    })


def gauss_str(re: Fraction, im: Fraction) -> str:
    """Gaussian rational in the stream's "p/q", "r/s*i", "p/q+r/s*i" form."""
    if not im:
        return str(re)
    if not re:
        return f"{im}*i"
    return f"{re}+{im}*i" if im > 0 else f"{re}{im}*i"


def _poch(x, n):
    out = Fraction(1)
    for j in range(n):
        out *= x + j
    return out


def product_coefficient(d: int, k: int, u: Fraction) -> Fraction:
    """Closed-form product-normalization coefficient R_k(u)."""
    half, j = d // 2, k // 2
    sign = -1 if j % 2 else 1
    if k % 2 == 0:
        return sign * _poch(u / 2, j) * _poch(u / 2, half - j)
    return sign * _poch((u + 1) / 2, j) * _poch((u + 1) / 2, half - 1 - j) / 2


def h_factors(d: int, u: Fraction):
    """h+ and h- as the binomial sums of R_k(u) R_k(-u)."""
    h = [Fraction(0), Fraction(0)]
    for k in range(d + 1):
        h[k % 2] += comb(d, k) * product_coefficient(d, k, u) * product_coefficient(d, k, -u)
    return 2 * h[0], 2 * h[1]


# ---------------------------------------------------------------------------
# first nonzero residual entry of a chain of two-slot factors
# ---------------------------------------------------------------------------

class _Factor:
    """A two-slot operator as integer rows over one denominator."""

    def __init__(self, op, slots, dims):
        entries = list(op.items())
        den = 1
        for _, val in entries:
            den = lcm(den, val.re.denominator, val.im.denominator)
        rows = {}
        for (r, c), val in entries:
            rows.setdefault(r, []).append((c, int(val.re * den), int(val.im * den)))
        self.rows, self.den = rows, den
        self.slots, self.dims = slots, dims
        self.strides = [1] * len(dims)
        for s in range(len(dims) - 2, -1, -1):
            self.strides[s] = self.strides[s + 1] * dims[s + 1]

    def _split(self, idx):
        s1, s2 = self.slots
        i1 = idx // self.strides[s1] % self.dims[s1]
        i2 = idx // self.strides[s2] % self.dims[s2]
        base = idx - i1 * self.strides[s1] - i2 * self.strides[s2]
        return i1 * self.dims[s2] + i2, base

    def _target(self, base, c):
        c1, c2 = divmod(c, self.dims[self.slots[1]])
        return base + c1 * self.strides[self.slots[0]] + c2 * self.strides[self.slots[1]]

    def times_vector(self, vec, total):
        """F w for a column vector w of Gaussian integers."""
        out = [(0, 0)] * total
        for i in range(total):
            r, base = self._split(i)
            sre = sim = 0
            for c, ar, ai in self.rows.get(r, ()):
                wr, wi = vec[self._target(base, c)]
                sre += ar * wr - ai * wi
                sim += ar * wi + ai * wr
            out[i] = (sre, sim)
        return out

    def row_times(self, row):
        """x F for a sparse row vector x of Gaussian integers."""
        out = {}
        for i, (xr, xi) in row.items():
            r, base = self._split(i)
            for c, ar, ai in self.rows.get(r, ()):
                j = self._target(base, c)
                cr, ci = out.get(j, (0, 0))
                out[j] = (cr + xr * ar - xi * ai, ci + xr * ai + xi * ar)
        return out


def _chain_den(factors):
    den = 1
    for f in factors:
        den *= f.den
    return den


def first_residual(lhs, rhs, total):
    """((row, col), (re, im)) of the first nonzero entry of
    prod(lhs) - prod(rhs), or None when the difference vanishes."""
    rng = random.Random(20240901)
    w = [(rng.randrange(1, 2 ** 32), 0) for _ in range(total)]
    lw, rw = w, w
    for f in reversed(lhs):
        lw = f.times_vector(lw, total)
    for f in reversed(rhs):
        rw = f.times_vector(rw, total)
    dl, dr = _chain_den(lhs), _chain_den(rhs)
    row = next((i for i in range(total)
                if lw[i][0] * dr != rw[i][0] * dl or lw[i][1] * dr != rw[i][1] * dl),
               None)
    if row is None:
        return None
    lrow, rrow = {row: (1, 0)}, {row: (1, 0)}
    for f in lhs:
        lrow = f.row_times(lrow)
    for f in rhs:
        rrow = f.row_times(rrow)
    for col in sorted(set(lrow) | set(rrow)):
        (lr, li), (rr, ri) = lrow.get(col, (0, 0)), rrow.get(col, (0, 0))
        re = Fraction(lr, dl) - Fraction(rr, dr)
        im = Fraction(li, dl) - Fraction(ri, dr)
        if re or im:
            return (row, col), (re, im)
    raise AssertionError("projection found a nonzero row the exact row lacks")


def _residual_detail(label, lhs, rhs, total):
    found = first_residual(lhs, rhs, total)
    if found is None:
        return "pass", None
    (r, c), (re, im) = found
    return "fail", f"{label}: first residual {gauss_str(re, im)} at entry ({r},{c})"


# ---------------------------------------------------------------------------
# expected lines of the exact check mix
# ---------------------------------------------------------------------------

def _spinor_R(basis, d, u, perturb_k=None):
    table = coefficients(d, u, Normalization.PRODUCT_FORM)
    if perturb_k is not None:
        table = table.perturbed(perturb_k)
    return assemble_spinor_R(basis, table, RepChoice.PRIMED)


def expected_line(op: dict, bases: dict) -> str:
    """The stream line the op must produce; see ``worker.point_ops``."""
    check, d = op["check"], op["d"]
    u, v = Fraction(op.get("u", 0)), Fraction(op.get("v", 0))
    uv = {"d": d, "u": str(u), "v": str(v), "norm": NORM, "rep": REP}
    if check == "ybe":
        k = op.get("perturb_k")
        if k is None:
            return line("ybe", uv, "pass", YBE_CONVENTION)
        basis = bases[d]
        n = basis.dim
        dims = [n, n, n]
        Ru, Ruv, Rv = (_spinor_R(basis, d, u, k), _spinor_R(basis, d, u + v),
                       _spinor_R(basis, d, v))
        lhs = [_Factor(Ru, (0, 1), dims), _Factor(Ruv, (1, 2), dims),
               _Factor(Rv, (0, 1), dims)]
        rhs = [_Factor(Rv, (1, 2), dims), _Factor(Ruv, (0, 1), dims),
               _Factor(Ru, (1, 2), dims)]
        status, detail = _residual_detail("YBE", lhs, rhs, n ** 3)
        return line("ybe", {**uv, "perturb_k": k}, status, detail or YBE_CONVENTION)
    if check == "three_term":
        return line("three_term", {**uv, "signs": op["signs"]}, "pass", YBE_CONVENTION)
    if check == "rll_fundamental":
        return line("rll_fundamental", uv, "pass", RLL_CONVENTION)
    if check == "rll_quantum":
        quantum = op["quantum"]
        if quantum == "defining":
            return line("rll_quantum", {**uv, "quantum": quantum, "m": d}, "pass",
                        RLL_CONVENTION)
        basis = bases[d]
        n = basis.dim
        q = so_spinor_rep(basis)
        dims = [n, n, q.m]
        R = _spinor_R(basis, d, u - v)
        Lu, Lv = quantum_L(basis, u, q), quantum_L(basis, v, q)
        lhs = [_Factor(R, (0, 1), dims), _Factor(Lu, (0, 2), dims),
               _Factor(Lv, (1, 2), dims)]
        rhs = [_Factor(Lv, (0, 2), dims), _Factor(Lu, (1, 2), dims),
               _Factor(R, (0, 1), dims)]
        status, detail = _residual_detail("RLL", lhs, rhs, n * n * q.m)
        return line("rll_quantum", {**uv, "quantum": quantum, "m": q.m}, status,
                    detail or RLL_CONVENTION)
    if check == "unitarity":
        hp, hm = h_factors(d, u)
        return line("unitarity", {"d": d, "u": str(u), "norm": NORM}, "pass",
                    f"h+ = {hp}, h- = {hm} (naive matrix convention)")
    if check == "asym":
        if (d, op["quantum"]) != (4, "spinor"):
            raise ValueError(f"no recorded asym verdict for {op}")
        return line("asym", {"d": d, "m": 4, "quantum": "spinor"}, "fail", ASYM_SPINOR_D4)
    raise ValueError(f"no oracle for check {check!r}")


# ---------------------------------------------------------------------------
# suite stream against its recording
# ---------------------------------------------------------------------------

# sampled coordinates that move with --seed; compared by verdict only
SAMPLED = ("seed", "x", "y", "z")
# stated default tolerance of checks whose report does not carry one
DEFAULT_TOL = {"unitarity_integral": 1e-3}


def _float_key(rec):
    params = {k: v for k, v in rec["params"].items() if k not in SAMPLED}
    return rec["check"], json.dumps(params, sort_keys=True)


def _tolerance(rec):
    params = rec["params"]
    return params.get("tol", params.get("rel_tol", DEFAULT_TOL.get(rec["check"])))


def compare_suite(stream: str, recorded: str) -> list[str]:
    """Mismatches between a default suite stream and the recorded one."""
    got = [ln for ln in stream.splitlines() if ln]
    want = [ln for ln in recorded.splitlines() if ln]
    problems = []
    try:
        got_recs = [json.loads(ln) for ln in got]
    except json.JSONDecodeError as exc:
        return [f"unparsable stream: {exc}"]
    want_recs = [json.loads(ln) for ln in want]
    got_exact = [ln for ln, rec in zip(got, got_recs) if rec.get("exact")]
    want_exact = [ln for ln, rec in zip(want, want_recs) if rec.get("exact")]
    if got_exact != want_exact:
        diff = next((i for i, (a, b) in enumerate(zip(got_exact, want_exact)) if a != b),
                    min(len(got_exact), len(want_exact)))
        problems.append(f"exact reports differ from the recording at exact line {diff}")
    got_float = sorted((_float_key(r), r["status"]) for r in got_recs if not r.get("exact"))
    want_float = sorted((_float_key(r), r["status"]) for r in want_recs if not r.get("exact"))
    if got_float != want_float:
        problems.append("float report checks or statuses differ from the recording")
    for rec in got_recs:
        if rec.get("exact") or rec["status"] != "pass":
            continue
        tol, res = _tolerance(rec), rec["max_residual"]
        if tol is None or res is None or not res < tol:
            problems.append(f"{rec['check']} residual {res} not below tolerance {tol}")
    return problems
