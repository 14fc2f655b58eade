"""Command-line entry point: run suites of checks, run one named check, or
dump constructed objects as JSON.

Reports stream as JSON lines on stdout (one object per check, fixed key
order plus a schema field); a human-readable table goes to stderr.  Exit
codes: 0 all pass (skips allowed), 1 any check failed, 2 usage/config error.
Wall-clock timings are zeroed in the stream unless --timings is given, so
repeated runs with the same configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import relations
from .clifford import DEFAULT_MAX_D, build_gamma
from .kernel import SparseOperator
from .relations import DEFAULT_SEED, DEFAULT_SPECTRAL_POINTS, CheckReport, Status
from .rmatrix import (Normalization, RepChoice, coefficients,
                      so_defining_rep, so_spinor_rep)

_NORMS = {n.value: n for n in Normalization}
_REPS = {r.value: r for r in RepChoice}
# option keys of ``check`` that only it has; a suite file's params take these
# and the common ones
_CHECK_KEYS = ("signs", "quantum", "k", "parity", "points", "y", "perturb_k")
_PARAM_KEYS = {"d", "u", "v", "norm", "rep", "tol", "seed", "budget_dim", *_CHECK_KEYS}


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _points(value) -> int:
    """Validate a sample count: with 0 points a float check reports no line,
    which reads as a PASS."""
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ValueError(f"points must be a positive integer, got {value!r}")
    return value


def _quantum_rep(name: str, d: int):
    if name == "defining":
        return so_defining_rep(d)
    if name == "spinor":
        return so_spinor_rep(relations._basis(d))
    raise ValueError(f"unknown quantum representation {name!r}")


# ---------------------------------------------------------------------------
# check registry: id -> callable(args-namespace-like dict) -> [CheckReport]
# ---------------------------------------------------------------------------

def _run_named_check(check_id: str, opts: dict) -> list[CheckReport]:
    d = opts.get("d", 4)
    u = opts.get("u", Fraction(1, 2))
    v = opts.get("v", Fraction(1, 3))
    norm = opts.get("norm", Normalization.PRODUCT_FORM)
    rep = opts.get("rep", RepChoice.PRIMED)
    budget = opts.get("budget_dim")
    seed = opts.get("seed", DEFAULT_SEED)
    tol = opts.get("tol")

    if check_id == "ybe":
        return [relations.check_ybe(d, u, v, norm, rep, budget,
                                    perturb_k=opts.get("perturb_k"))]
    if check_id == "three_term":
        signs = opts.get("signs")
        if signs:
            return [relations.check_three_term(d, u, v, signs, norm, rep, budget)]
        return [relations.check_three_term(d, u, v, (a, b, c), norm, rep, budget)
                for a in "+-" for b in "+-" for c in "+-"]
    if check_id == "fundamental_ybe":
        return [relations.check_fundamental_ybe(d, u, v, budget)]
    if check_id == "rll_fundamental":
        return [relations.check_rll_fundamental(d, u, v, norm, rep, budget)]
    if check_id == "rll_quantum":
        name = opts.get("quantum", "defining")
        q = _quantum_rep(name, d)
        return [relations.check_rll_quantum(d, u, v, q, name, norm, rep, budget)]
    if check_id == "asym":
        name = opts.get("quantum", "defining")
        return [relations.check_asym(_quantum_rep(name, d), name)]
    if check_id == "unitarity":
        return [relations.check_unitarity(d, u, norm)]
    if check_id == "symmetries":
        return [relations.check_symmetries(d, u, norm, rep)]
    if check_id == "epsilon_projector_limit":
        return [relations.check_epsilon_projector_limit(d)]
    if check_id == "d6_reduction":
        return [relations.check_d6_reduction(u)]
    if check_id == "exchange_identities":
        return [relations.check_exchange_identities(d, budget)]
    if check_id == "generating_product":
        x = opts.get("u", Fraction(1, 2))
        y = opts.get("v", Fraction(1, 3))
        return [relations.check_generating_product(d, x, y)]
    if check_id == "local_ybe":
        n3 = 2 ** (3 * d // 2)
        cap = relations.budget_dim(budget)
        if n3 >= cap:
            return [relations._skip("local_ybe", {"d": d, "seed": seed}, n3, cap,
                                    exact=False)]
        from . import localyb

        rng = random.Random(seed)
        basis = relations._basis(d)
        out = []
        for region in localyb.all_regions():
            for _ in range(opts.get("points", 5)):
                p = localyb.sample_triple(rng, region)
                report = localyb.check_local_ybe(basis, p, tol or 1e-9)
                report.params["seed"] = seed
                out.append(report)
        return out
    if check_id == "integrand_symmetry":
        from . import localyb

        rng = random.Random(seed)
        out = []
        for region in localyb.all_regions():
            for _ in range(opts.get("points", 5)):
                p = localyb.sample_triple(rng, region)
                report = localyb.integrand_symmetry_check(
                    d, float(u), float(v), 1.0, 2.0, 3.0, p, tol or 1e-8)
                report.params["seed"] = seed
                out.append(report)
        return out
    # numpy (localyb) and scipy (quadrature) are imported in the branches of
    # the float checks, so exact-only commands never load them; every check
    # below is a quadrature check
    from . import quadrature

    if check_id == "beta_integral":
        parity = opts.get("parity", "even")
        return [quadrature.check_beta_integral(d, float(u), opts.get("k", 0), parity,
                                               rel_tol=tol or 1e-8)]
    if check_id == "rfun":
        y = opts.get("y", -1.0)
        return [quadrature.check_rfun(d, float(u), y, rel_tol=tol or 1e-7)]
    if check_id == "unitarity_integral":
        return [quadrature.check_unitarity_integral(d, float(u), opts.get("k", 0),
                                                    tol=tol)]
    if check_id == "triple_integral":
        return [quadrature.check_triple_integral(d, float(u), float(v), 0.3, 0.1, 0.7,
                                                 rel_tol=tol or 1e-3)]
    raise KeyError(check_id)


CHECK_IDS = (
    "ybe", "three_term", "fundamental_ybe", "rll_fundamental", "rll_quantum",
    "asym", "unitarity", "symmetries", "epsilon_projector_limit",
    "d6_reduction", "exchange_identities", "generating_product", "local_ybe",
    "integrand_symmetry", "beta_integral", "rfun", "unitarity_integral",
    "triple_integral",
)


def default_suite(d_list) -> list[tuple[str, dict]]:
    """The --all suite: every registered check over the requested d values at
    pole-free points from the default spectral sample set."""
    u, v, u2, v2 = DEFAULT_SPECTRAL_POINTS[:4]
    jobs = []
    for d in d_list:
        jobs.append(("ybe", {"d": d, "u": u, "v": v}))
        jobs.append(("ybe", {"d": d, "u": u2, "v": v2}))
        jobs.append(("three_term", {"d": d, "u": u, "v": v}))
        jobs.append(("fundamental_ybe", {"d": d, "u": u, "v": v}))
        jobs.append(("rll_fundamental", {"d": d, "u": Fraction(1), "v": u}))
        jobs.append(("rll_quantum", {"d": d, "u": Fraction(1), "v": v,
                                     "quantum": "defining"}))
        # the spinor-rep asym verdict is a recorded FAIL (sufficient condition
        # only), so the default suite keeps the defining rep; run
        # `check asym --quantum spinor` to record the other verdict
        jobs.append(("asym", {"d": d, "quantum": "defining"}))
        jobs.append(("unitarity", {"d": d, "u": v}))
        jobs.append(("symmetries", {"d": d, "u": u}))
        jobs.append(("epsilon_projector_limit", {"d": d}))
        jobs.append(("exchange_identities", {"d": d}))
        jobs.append(("generating_product", {"d": d, "u": u, "v": v}))
        jobs.append(("local_ybe", {"d": d, "points": 3}))
        jobs.append(("beta_integral", {"d": d, "u": Fraction(1), "k": 0}))
        jobs.append(("rfun", {"d": d, "u": Fraction(1), "y": -1.0}))
    jobs.append(("d6_reduction", {"u": Fraction(1)}))
    jobs.append(("unitarity_integral", {"d": 2, "u": Fraction(1, 2), "k": 0}))
    return jobs


def _execute(job):
    check_id, opts = job
    try:
        return _run_named_check(check_id, opts)
    except (ValueError, ArithmeticError) as exc:  # pole or domain error in one job
        return [CheckReport(check_id, {k: str(v) for k, v in opts.items()},
                            Status.FAIL, detail=f"error: {exc}")]


def _emit(reports, args) -> int:
    failed = 0
    with_timing = getattr(args, "timings", False)
    for rep in reports:
        if rep.status is Status.FAIL:
            failed += 1
        mark = {"pass": "ok ", "fail": "FAIL", "skipped": "skip"}[rep.status.value]
        params = " ".join(f"{k}={v}" for k, v in sorted(rep.params.items()))
        info = f" [{rep.detail}]" if rep.detail and rep.status is Status.FAIL else ""
        table_line = f"{mark}  {rep.check_id:<24} {params}{info}"
        if args.format == "json":
            print(json.dumps(rep.to_json_dict(with_timing=with_timing)))
            print(table_line, file=sys.stderr)
        else:
            print(table_line)
    return failed


def _suite_from_file(path) -> list[tuple[str, dict]]:
    with open(path) as fh:
        data = json.load(fh)
    jobs = []
    for item in data:
        check_id = item["check"]
        if check_id not in CHECK_IDS:
            raise KeyError(check_id)
        opts = dict(item.get("params", {}))
        unknown = sorted(set(opts) - _PARAM_KEYS)
        if unknown:
            raise ValueError(f"{check_id}: unknown params {', '.join(unknown)}")
        # parsed as the check options --u, --v and --y are
        for key in ("u", "v"):
            if key in opts:
                opts[key] = _frac(str(opts[key]))
        if "y" in opts:
            opts["y"] = float(opts["y"])
        if "points" in opts:
            opts["points"] = _points(opts["points"])
        if "norm" in opts:
            opts["norm"] = _NORMS[opts["norm"]]
        if "rep" in opts:
            opts["rep"] = _REPS[opts["rep"]]
        if "budget_dim" in opts:
            opts["budget_dim"] = relations.budget_dim(opts["budget_dim"])
        jobs.append((check_id, opts))
    return jobs


# ---------------------------------------------------------------------------
# dump
# ---------------------------------------------------------------------------

def _matrix_json(op: SparseOperator) -> dict:
    return {
        "dim": op.dim,
        "entries": [[r, c, str(v)] for (r, c), v in op.items()],
    }


def _dump(args) -> int:
    if args.object == "gamma":
        basis = build_gamma(args.d)
        out = {
            "d": basis.d,
            "dim": basis.dim,
            "alpha": str(basis.alpha),
            "gammas": [_matrix_json(g) for g in basis.gammas],
            "gamma5": _matrix_json(basis.gamma5),
        }
    elif args.object == "coeffs":
        table = coefficients(args.d, args.u, args.norm)
        out = {
            "d": table.d,
            "u": str(table.u),
            "norm": table.norm.value,
            "values": table.fraction_strings(),
        }
    elif args.object == "rmatrix":
        from .rmatrix import Parity, assemble_spinor_R

        basis = build_gamma(args.d)
        table = coefficients(args.d, args.u, args.norm)
        op = assemble_spinor_R(basis, table, args.rep, Parity.FULL)
        out = {
            "d": args.d,
            "u": str(args.u),
            "norm": args.norm.value,
            "rep": args.rep.value,
            "matrix": _matrix_json(op),
        }
    elif args.object == "report-schema":
        out = {
            "schema": 1,
            "fields": {
                "check": "str", "params": "object", "status": "pass|fail|skipped",
                "exact": "bool", "max_residual": "number|null",
                "elapsed_ms": "int", "detail": "str|null",
            },
        }
    else:
        raise KeyError(args.object)
    print(json.dumps(out, indent=None, separators=(",", ":")))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--d", type=int, default=4, help="even dimension")
    parser.add_argument("--u", type=_frac, default=Fraction(1, 2),
                        help="spectral point, rational like 1/2")
    parser.add_argument("--v", type=_frac, default=Fraction(1, 3))
    parser.add_argument("--norm", choices=sorted(_NORMS), default="product")
    parser.add_argument("--rep", choices=sorted(_REPS), default="primed")
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--budget-dim", type=int, default=None,
                        help="skip exact checks and local_ybe at or above this "
                             "dimension (default 4096; env YBV_BUDGET_DIM)")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--timings", action="store_true",
                        help="emit wall-clock elapsed_ms in the JSON stream")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ybv", description="spinorial R-matrix verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a suite of checks")
    group = runp.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="default suite")
    group.add_argument("--suite", help="JSON suite file")
    runp.add_argument("--d-list", default="2,4",
                      help="comma-separated d values for the default suite")
    _add_common(runp)

    checkp = sub.add_parser("check", help="run one named check")
    checkp.add_argument("id", choices=CHECK_IDS)
    _add_common(checkp)
    checkp.add_argument("--signs", default=None,
                        help="three of +/- for the three-term family")
    checkp.add_argument("--quantum", choices=("defining", "spinor"),
                        default="defining")
    checkp.add_argument("--k", type=int, default=0)
    checkp.add_argument("--parity", choices=("even", "odd"), default="even")
    checkp.add_argument("--points", type=int, default=5)
    checkp.add_argument("--y", type=float, default=-1.0)
    checkp.add_argument("--perturb-k", type=int, default=None,
                        help="corrupt R_k by 1 (negative control)")

    dumpp = sub.add_parser("dump", help="dump a constructed object as JSON")
    dumpp.add_argument("object", choices=("gamma", "coeffs", "rmatrix",
                                          "report-schema"))
    dumpp.add_argument("--d", type=int, default=2)
    dumpp.add_argument("--u", type=_frac, default=Fraction(1))
    dumpp.add_argument("--norm", type=lambda s: _NORMS[s], default=Normalization.UNIT)
    dumpp.add_argument("--rep", type=lambda s: _REPS[s], default=RepChoice.NAIVE)
    return parser


def _opts_from_args(args) -> dict:
    opts = {
        "d": args.d, "u": args.u, "v": args.v,
        "norm": _NORMS[args.norm], "rep": _REPS[args.rep],
        # resolved and validated once, before any job runs
        "budget_dim": relations.budget_dim(args.budget_dim),
        "seed": args.seed, "tol": args.tol,
    }
    for key in _CHECK_KEYS:
        if hasattr(args, key):
            opts[key] = getattr(args, key)
    if "points" in opts:
        opts["points"] = _points(opts["points"])
    return opts


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "dump":
            return _dump(args)
        if args.command == "check":
            reports = _run_named_check(args.id, _opts_from_args(args))
            failed = _emit(reports, args)
            return 1 if failed else 0
        # run
        if args.suite:
            jobs = _suite_from_file(args.suite)
        else:
            d_list = [int(x) for x in args.d_list.split(",") if x]
            if any(d % 2 or not 2 <= d <= DEFAULT_MAX_D for d in d_list):
                raise ValueError(f"d values must be even with 2 <= d <= "
                                 f"{DEFAULT_MAX_D}: {d_list}")
            jobs = default_suite(d_list)
        base = _opts_from_args(args)
        merged = [(cid, {**base, **opts}) for cid, opts in jobs]
        reports = [rep for job in merged for rep in _execute(job)]
        # the stream is ordered by check id and params, not by job order
        reports.sort(key=lambda r: (r.check_id,
                                    json.dumps(r.params, sort_keys=True, default=str)))
        failed = _emit(reports, args)
        return 1 if failed else 0
    except (KeyError, ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"ybv: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
