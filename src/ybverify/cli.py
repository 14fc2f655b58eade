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
import functools
import importlib
import itertools
import json
import math
import random
import sys
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

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


def tolerance(text: str) -> float:
    """A tolerance: a finite positive float.  Every float check compares a
    residual against it, so 0, a negative value, nan or inf would make each
    verdict a constant, and a nan would be no JSON number."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and positive, got {text!r}")
    return value


def _quantum_rep(name: str, d: int):
    return so_spinor_rep(relations._basis(d)) if name == "spinor" else so_defining_rep(d)


# ---------------------------------------------------------------------------
# check registry
# ---------------------------------------------------------------------------

class Check(NamedTuple):
    exact: bool
    reads: str  # the job options the check reads, space-separated
    run: Callable  # (parsed options, budget dimension) -> reports


def _lazy(name):
    """The module ``ybverify.<name>``, imported when a float check first runs,
    so that exact-only commands never load ``localyb`` or ``quadrature``."""
    return importlib.import_module(f".{name}", __package__)


def _sampled(a, check):
    """``check(localyb, p)`` at ``a.points`` random triples p in each region
    of the local YBE, drawn from ``a.seed``; each report records the seed."""
    if a.points <= 0:
        # with 0 points a float check reports no line, which reads as a PASS
        raise ValueError(f"points must be a positive integer, got {a.points}")
    localyb, rng = _lazy("localyb"), random.Random(a.seed)
    reports = [check(localyb, localyb.sample_triple(rng, region))
               for region in localyb.all_regions() for _ in range(a.points)]
    for report in reports:
        report.params["seed"] = a.seed
    return reports


def _local_ybe(a, budget):
    basis = relations._basis(a.d)
    # points <= 0 goes to _sampled, which rejects it where the budget skips too
    if basis.dim ** 3 < budget or a.points <= 0:
        return _sampled(a, lambda localyb, p: localyb.check_local_ybe(basis, p, a.tol or 1e-9))
    return [relations._skip(a.id, {"d": a.d, "seed": a.seed}, basis.dim ** 3, budget,
                            exact=False)]


# each runner looks its check function up when it runs (never a stored
# reference), so a tracer that swaps module attributes sees every call
CHECKS = {
    "ybe": Check(True, "d u v norm rep budget_dim perturb_k", lambda a, budget: [
        relations.check_ybe(a.d, a.u, a.v, _NORMS[a.norm], _REPS[a.rep], budget,
                            perturb_k=a.perturb_k)]),
    "three_term": Check(True, "d u v signs norm rep budget_dim", lambda a, budget: [
        relations.check_three_term(a.d, a.u, a.v, signs, _NORMS[a.norm], _REPS[a.rep], budget)
        for signs in ([a.signs] if a.signs else itertools.product("+-", repeat=3))]),
    "fundamental_ybe": Check(True, "d u v budget_dim", lambda a, budget: [
        relations.check_fundamental_ybe(a.d, a.u, a.v, budget)]),
    "rll_fundamental": Check(True, "d u v norm rep budget_dim", lambda a, budget: [
        relations.check_rll_fundamental(a.d, a.u, a.v, _NORMS[a.norm], _REPS[a.rep], budget)]),
    "rll_quantum": Check(True, "d u v quantum norm rep budget_dim", lambda a, budget: [
        relations.check_rll_quantum(a.d, a.u, a.v, _quantum_rep(a.quantum, a.d), a.quantum,
                                    _NORMS[a.norm], _REPS[a.rep], budget)]),
    "asym": Check(True, "d quantum", lambda a, budget: [
        relations.check_asym(_quantum_rep(a.quantum, a.d), a.quantum)]),
    "unitarity": Check(True, "d u norm", lambda a, budget: [
        relations.check_unitarity(a.d, a.u, _NORMS[a.norm])]),
    "symmetries": Check(True, "d u norm rep", lambda a, budget: [
        relations.check_symmetries(a.d, a.u, _NORMS[a.norm], _REPS[a.rep])]),
    "epsilon_projector_limit": Check(True, "d", lambda a, budget: [
        relations.check_epsilon_projector_limit(a.d)]),
    "d6_reduction": Check(True, "u", lambda a, budget: [relations.check_d6_reduction(a.u)]),
    "exchange_identities": Check(True, "d budget_dim", lambda a, budget: [
        relations.check_exchange_identities(a.d, budget)]),
    "generating_product": Check(True, "d u v", lambda a, budget: [
        relations.check_generating_product(a.d, a.u, a.v)]),
    "local_ybe": Check(False, "d seed points tol budget_dim", _local_ybe),
    "integrand_symmetry": Check(False, "d u v seed points tol", lambda a, budget: _sampled(
        a, lambda localyb, p: localyb.integrand_symmetry_check(
            a.d, float(a.u), float(a.v), 1.0, 2.0, 3.0, p, a.tol or 1e-8))),
    "beta_integral": Check(False, "d u k parity tol", lambda a, budget: [
        _lazy("quadrature").check_beta_integral(a.d, float(a.u), a.k, a.parity,
                                                rel_tol=a.tol or 1e-8)]),
    "rfun": Check(False, "d u y tol", lambda a, budget: [
        _lazy("quadrature").check_rfun(a.d, float(a.u), a.y, rel_tol=a.tol or 1e-7)]),
    "unitarity_integral": Check(False, "d u k tol", lambda a, budget: [
        _lazy("quadrature").check_unitarity_integral(a.d, float(a.u), a.k, tol=a.tol)]),
    "triple_integral": Check(False, "d u v tol", lambda a, budget: [
        _lazy("quadrature").check_triple_integral(a.d, float(a.u), float(a.v), 0.3, 0.1, 0.7,
                                                  rel_tol=a.tol or 1e-3)]),
}


def _reject_unread(check_id, options):
    """Reject the options set on a ``check`` line or in a job's params that the
    check does not read: a negative control nothing reads would pass unperturbed."""
    unread = sorted(set(options) - set(CHECKS[check_id].reads.split()))
    if unread:
        raise ValueError(f"the {check_id} check does not read {', '.join(unread)}")


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
    parsed = []
    for check_id, params in jobs:
        unknown = sorted(set(params) - JOB_DEFAULTS.keys())
        if unknown:
            raise ValueError(f"{check_id}: unknown params {', '.join(unknown)}")
        argv = [str(check_id), *(f"--{key.replace('_', '-')}={value}"
                                 for key, value in params.items())]
        try:
            args = parser.parse_args(argv, argparse.Namespace(**vars(base)))
        except argparse.ArgumentError as exc:
            raise ValueError(f"{check_id}: {exc}") from exc
        _reject_unread(args.id, params)
        parsed.append((args, params))
    return parsed


def _execute(args, params, errors=(PoleError, ArithmeticError)):
    """The reports of one job; an exception in ``errors`` (the job's point is
    a pole, or a value there is not finite) becomes a FAIL line with the
    job's ``params``."""
    check = CHECKS[args.id]
    try:
        # resolving the budget validates YBV_BUDGET_DIM for every check
        return check.run(args, relations.budget_dim(args.budget_dim))
    except errors as exc:
        return [CheckReport(args.id, {k: str(v) for k, v in params.items()},
                            Status.FAIL, exact=check.exact, detail=f"error: {exc}")]


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

# each job option and its default, the value of an option set nowhere
JOB_DEFAULTS = dict(d=4, u=Fraction(1, 2), v=Fraction(1, 3), norm="product", rep="primed",
                    tol=None, seed=DEFAULT_SEED, budget_dim=None, signs=None,
                    quantum="defining", k=0, parity="even", points=5, y=-1.0, perturb_k=None)


def _add_job_options(parser, check=False):
    """The options of a check job.  ``run`` takes the common ones, whose
    values its jobs inherit; ``check`` and each suite job take them all.  An
    option not given stays out of the parsed namespace (see ``JOB_DEFAULTS``)."""
    add = functools.partial(parser.add_argument, default=argparse.SUPPRESS)
    add("--d", type=int, help="even dimension")
    add("--u", type=_frac, help="spectral point, rational like 1/2")
    add("--v", type=_frac)
    add("--norm", choices=sorted(_NORMS))
    add("--rep", choices=sorted(_REPS))
    add("--tol", type=tolerance)
    add("--seed", type=int)
    add("--budget-dim", type=int, help="skip exact checks and local_ybe at or above "
                                       "this dimension (default 4096; env YBV_BUDGET_DIM)")
    if not check:
        return
    parser.add_argument("id", choices=CHECKS)
    add("--signs", help="three of +/- for the three-term family")
    add("--quantum", choices=("defining", "spinor"))
    add("--k", type=int)
    add("--parity", choices=("even", "odd"))
    add("--points", type=int)
    add("--y", type=float)
    add("--perturb-k", type=int, help="corrupt R_k by 1 (negative control)")


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
        given = JOB_DEFAULTS.keys() & vars(args).keys()
        args = argparse.Namespace(**{**JOB_DEFAULTS, **vars(args)})
        if args.command == "check":
            _reject_unread(args.id, given)
            # a pole of a single check is a configuration error; the params
            # of a FAIL line are the options set away from their defaults
            params = {k: v for k, v in vars(args).items() if v != JOB_DEFAULTS.get(k, v)}
            reports = _execute(args, params, ArithmeticError)
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
