"""Command-line entry point: run suites of checks, run one named check, or
dump constructed objects as JSON.

Reports stream as JSON lines on stdout (one object per check, fixed key
order plus a schema field); a human-readable table goes to stderr.  Exit
codes: 0 all pass (skips allowed), 1 any check failed, 2 usage/config error,
3 a program bug (the traceback goes to stderr).
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
from .clifford import build_gamma
from .kernel import SparseOperator
from .relations import DEFAULT_SEED, DEFAULT_SPECTRAL_POINTS, CheckReport, Status
from .rmatrix import (Normalization, PoleError, RepChoice, coefficients,
                      so_defining_rep, so_spinor_rep)

_NORMS = {n.value: n for n in Normalization}
_REPS = {r.value: r for r in RepChoice}


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _quantum_rep(name: str, d: int):
    return so_spinor_rep(relations._basis(d)) if name == "spinor" else so_defining_rep(d)


# ---------------------------------------------------------------------------
# check registry: the parsed options of one ``check`` command line -> reports
# ---------------------------------------------------------------------------

def _run_named_check(args) -> list[CheckReport]:
    check_id, d, u, v, seed, tol = args.id, args.d, args.u, args.v, args.seed, args.tol
    norm, rep = _NORMS[args.norm], _REPS[args.rep]
    budget = relations.budget_dim(args.budget_dim)
    if args.points <= 0:
        # with 0 points a float check reports no line, which reads as a PASS
        raise ValueError(f"points must be a positive integer, got {args.points}")

    if check_id == "ybe":
        return [relations.check_ybe(d, u, v, norm, rep, budget, perturb_k=args.perturb_k)]
    if check_id == "three_term":
        if args.signs:
            return [relations.check_three_term(d, u, v, args.signs, norm, rep, budget)]
        return [relations.check_three_term(d, u, v, (a, b, c), norm, rep, budget)
                for a in "+-" for b in "+-" for c in "+-"]
    if check_id == "fundamental_ybe":
        return [relations.check_fundamental_ybe(d, u, v, budget)]
    if check_id == "rll_fundamental":
        return [relations.check_rll_fundamental(d, u, v, norm, rep, budget)]
    if check_id == "rll_quantum":
        q = _quantum_rep(args.quantum, d)
        return [relations.check_rll_quantum(d, u, v, q, args.quantum, norm, rep, budget)]
    if check_id == "asym":
        return [relations.check_asym(_quantum_rep(args.quantum, d), args.quantum)]
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
        return [relations.check_generating_product(d, u, v)]
    if check_id == "local_ybe":
        basis = relations._basis(d)
        if basis.dim ** 3 >= budget:
            return [relations._skip("local_ybe", {"d": d, "seed": seed}, basis.dim ** 3,
                                    budget, exact=False)]
        from . import localyb

        rng = random.Random(seed)
        out = []
        for region in localyb.all_regions():
            for _ in range(args.points):
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
            for _ in range(args.points):
                p = localyb.sample_triple(rng, region)
                report = localyb.integrand_symmetry_check(
                    d, float(u), float(v), 1.0, 2.0, 3.0, p, tol or 1e-8)
                report.params["seed"] = seed
                out.append(report)
        return out
    # localyb (numpy) and quadrature are imported in the branches of the
    # float checks, so exact-only commands never load them; every check
    # below is a quadrature check
    from . import quadrature

    if check_id == "beta_integral":
        return [quadrature.check_beta_integral(d, float(u), args.k, args.parity,
                                               rel_tol=tol or 1e-8)]
    if check_id == "rfun":
        return [quadrature.check_rfun(d, float(u), args.y, rel_tol=tol or 1e-7)]
    if check_id == "unitarity_integral":
        return [quadrature.check_unitarity_integral(d, float(u), args.k, tol=tol)]
    if check_id == "triple_integral":
        return [quadrature.check_triple_integral(d, float(u), float(v), 0.3, 0.1, 0.7,
                                                 rel_tol=tol or 1e-3)]
    raise ValueError(f"unknown check {check_id!r}")


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


def _parse_jobs(jobs, base) -> list:
    """Parse each suite job (check id, params) as ``ybv check`` parses the
    command line ``id --key=value ...``, starting from a copy of the ``run``
    options ``base``: an option the job does not set keeps the value ``run``
    gave.  Returns (parsed options, params) pairs."""
    parser = argparse.ArgumentParser(prog="ybv check", add_help=False,
                                     allow_abbrev=False, exit_on_error=False)
    _add_job_options(parser, check=True)
    keys = {option[2:].replace("-", "_") for option in parser._option_string_actions}
    parsed = []
    for check_id, params in jobs:
        unknown = sorted(set(params) - keys)
        if unknown:
            raise ValueError(f"{check_id}: unknown params {', '.join(unknown)}")
        argv = [str(check_id), *(f"--{key.replace('_', '-')}={value}"
                                 for key, value in params.items())]
        try:
            args = parser.parse_args(argv, argparse.Namespace(**vars(base)))
        except argparse.ArgumentError as exc:
            raise ValueError(f"{check_id}: {exc}") from exc
        parsed.append((args, params))
    return parsed


def _execute(args, params):
    try:
        return _run_named_check(args)
    except (PoleError, ArithmeticError) as exc:  # the job's point is a pole or non-finite
        return [CheckReport(args.id, {k: str(v) for k, v in params.items()},
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
    shape = 'a suite file is a list of {"check": id, "params": {...}} objects'
    if not isinstance(data, list):
        raise ValueError(f"{path}: {shape}")
    for index, item in enumerate(data):
        if not (isinstance(item, dict) and isinstance(item.get("params", {}), dict)):
            raise ValueError(f"{path}: {shape}; item {index} is not")
        if "check" not in item:
            raise ValueError(f'{path}: item {index} has no "check" key')
    return [(item["check"], item.get("params", {})) for item in data]


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
        table = coefficients(args.d, args.u, _NORMS[args.norm])
        out = {
            "d": table.d,
            "u": str(table.u),
            "norm": table.norm.value,
            "values": table.fraction_strings(),
        }
    elif args.object == "rmatrix":
        from .rmatrix import Parity, assemble_spinor_R

        basis = build_gamma(args.d)
        table = coefficients(args.d, args.u, _NORMS[args.norm])
        op = assemble_spinor_R(basis, table, _REPS[args.rep], Parity.FULL)
        out = {
            "d": args.d,
            "u": str(args.u),
            "norm": args.norm,
            "rep": args.rep,
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
        raise ValueError(f"unknown object {args.object!r}")
    print(json.dumps(out, indent=None, separators=(",", ":")))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_job_options(parser, check=False):
    """The options of a check job.  ``run`` takes the common ones, whose
    values its jobs inherit; ``check`` and each suite job take them all."""
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
    if not check:
        return
    parser.add_argument("id", choices=CHECK_IDS)
    parser.add_argument("--signs", default=None,
                        help="three of +/- for the three-term family")
    parser.add_argument("--quantum", choices=("defining", "spinor"),
                        default="defining")
    parser.add_argument("--k", type=int, default=0)
    parser.add_argument("--parity", choices=("even", "odd"), default="even")
    parser.add_argument("--points", type=int, default=5)
    parser.add_argument("--y", type=float, default=-1.0)
    parser.add_argument("--perturb-k", type=int, default=None,
                        help="corrupt R_k by 1 (negative control)")


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
    checkp = sub.add_parser("check", help="run one named check")
    for subparser, check in ((runp, False), (checkp, True)):
        _add_job_options(subparser, check)
        subparser.add_argument("--format", choices=("json", "table"), default="json")
        subparser.add_argument("--timings", action="store_true",
                               help="emit wall-clock elapsed_ms in the JSON stream")

    dumpp = sub.add_parser("dump", help="dump a constructed object as JSON")
    dumpp.add_argument("object", choices=("gamma", "coeffs", "rmatrix",
                                          "report-schema"))
    dumpp.add_argument("--d", type=int, default=2)
    dumpp.add_argument("--u", type=_frac, default=Fraction(1))
    dumpp.add_argument("--norm", choices=sorted(_NORMS), default=Normalization.UNIT.value)
    dumpp.add_argument("--rep", choices=sorted(_REPS), default=RepChoice.NAIVE.value)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "dump":
            return _dump(args)
        if args.command == "check":
            reports = _run_named_check(args)
        else:
            if args.suite:
                jobs = _suite_from_file(args.suite)
            else:
                jobs = default_suite([int(x) for x in args.d_list.split(",") if x])
            reports = [rep for job in _parse_jobs(jobs, args) for rep in _execute(*job)]
            # the stream is ordered by check id and params, not by job order
            reports.sort(key=lambda r: (r.check_id,
                                        json.dumps(r.params, sort_keys=True, default=str)))
        return 1 if _emit(reports, args) else 0
    except (ValueError, OSError) as exc:
        print(f"ybv: error: {exc}", file=sys.stderr)
        return 2


def console_main(argv=None) -> int:
    """The ``ybv`` entry point: ``main``, except that an exception it lets
    through, which is a program bug rather than a verdict or a
    configuration error, prints its traceback and exits 3."""
    try:
        return main(argv)
    except Exception:
        import traceback  # only a failing run pays for the import

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(console_main())
