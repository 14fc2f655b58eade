"""ybverify benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (all closed loop, one op at a time, one process):

- ``exact_sweep``: exact checks at seeded small-height spectral points
  (|numerator|, denominator <= 12), d=6 mix plus YBE at d=8.
- ``exact_wide``: the same mix at points with 9-10 digit numerators and
  denominators, so products leave the machine-integer range.
- ``suite_cold``: fresh ``python -m ybverify.cli run --all --d-list 2,4,6``
  processes; set-up is a fresh ``dump report-schema`` process.

Every op's output is checked (``oracle.py``).  The last stdout line is the
result object; the line before it carries the seed, the input digest and the
provenance, and the whole record is saved under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

EXACT = ("exact_sweep", "exact_wide")
SUITE = "suite_cold"
WORKLOADS = EXACT + (SUITE,)
SETUP_SAMPLES = 11       # fresh processes timed for setup_s, per run
EXACT_CHUNKS = 3         # measuring processes an exact run's loop is split into
MIN_OPS = 100            # exact ops per run, so >= 10 lie beyond p90
MIN_SUITES = 3           # suite processes per run
INPUT_POINTS = 120       # generated per exact run; the loop cycles through them
TRACE_POINTS = 12        # fixed work of a traced exact run, so counts repeat
PROC_TIMEOUT = 150       # seconds; one run must end within 180
SUITE_ARGS = ["run", "--all", "--d-list", "2,4,6"]
SETUP_ARGS = ["dump", "report-schema"]
# the default suite has no FAIL to get wrong, so each suite_cold run also
# checks one negative control, untimed: `ybv check ybe --d 4 --perturb-k 2`
CONTROL_ARGS = ["check", "ybe", "--d", "4", "--perturb-k", "2"]
CONTROL_OP = {"check": "ybe", "d": 4, "u": "1/2", "v": "1/3", "perturb_k": 2}
# spans a traced exact run must record; a traced suite records every span
EXACT_SPANS = {
    "kernel.mul", "kernel.add", "kernel.scale", "kernel.kron", "kernel.embed_pair",
    "kernel.normalize", "kernel.zero_test", "clifford.build_gamma",
    "clifford.pair_contraction", "rmatrix.coefficients", "rmatrix.assemble_spinor_R",
    "rmatrix.quantum_L", "rmatrix.fundamental_L0", "rmatrix.projectors",
    "relations.ybe", "relations.three_term", "relations.rll_fundamental",
    "relations.rll_quantum", "relations.unitarity", "relations.asym",
}


class BenchError(Exception):
    """A process of the run failed to start or finish; no result is printed."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("YBV_BUDGET_DIM", None)
    return env


def _spawn(args):
    """Start a Python process; returns (process, start time)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    return proc, start


def _finish(proc):
    try:
        out, err = proc.communicate(timeout=PROC_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"process {proc.args} timed out")
    return out, err


def _timed(args):
    """Run a Python process to completion: (wall s, exit code, stdout, stderr)."""
    proc, start = _spawn(args)
    out, err = _finish(proc)
    return perf_counter() - start, proc.returncode, out, err


def _worker(args):
    """Run worker.py: (set-up s up to its ``ready`` line, summary dict)."""
    proc, start = _spawn([str(BENCH / "worker.py"), *args])
    ready = proc.stdout.readline()
    setup_s = perf_counter() - start
    out, err = _finish(proc)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def _p90(values):
    """90th percentile within the observed values (no extrapolation past the
    largest, which matters for the few suite processes of a run)."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _layers(counters, trace, workload, required):
    """Per-layer metrics of a traced process; a layer that the workload
    runs but that recorded no span means the tracer missed it."""
    import spans

    missing = sorted(required - spans.spans_seen(trace))
    if workload == SUITE and not counters["quad_evals"]:
        missing.append("quadrature.quad.evals")
    if missing:
        raise BenchError(f"traced {workload} run recorded nothing for: {', '.join(missing)}")
    return spans.aggregate(counters, trace)


# ---------------------------------------------------------------------------
# exact workloads
# ---------------------------------------------------------------------------

def _exact_inputs(workload, seed, count):
    import gen

    inputs = {"workload": workload, "seed": seed, "points": gen.points(workload, seed, count)}
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"inputs-{workload}-seed{seed}.json"
    path.write_text(json.dumps(inputs))
    return path, gen.digest(inputs["points"])


def run_exact(workload, seed, seconds, trace):
    if trace:
        path, digest = _exact_inputs(workload, seed, TRACE_POINTS)
        _setup, plain = _worker(["--inputs", str(path), "--all-points"])
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        _setup, traced = _worker(["--inputs", str(path), "--all-points",
                                  "--trace-out", str(spans_path)])
        import spans

        layers = _layers(*spans.read(spans_path), workload, EXACT_SPANS)
        layers.update({"cli.import_ms": 0.0, "cli.import_scipy_ms": 0.0,
                       "cli.import_numpy_ms": 0.0})
        # the checks only: the traced set-up also imports the float layers
        layers["trace.overhead_share"] = traced["op_s"] / plain["op_s"] - 1
        runs = [plain, traced]
        record = {"spans": str(spans_path.relative_to(ROOT)), "layers": layers}
    else:
        path, digest = _exact_inputs(workload, seed, INPUT_POINTS)
        # the loop runs in EXACT_CHUNKS measuring processes, each continuing
        # from the point where the last one stopped; set-up-only processes
        # go before, between and after them, so that the set-up samples
        # (theirs and the measuring processes') span the whole run
        gaps = EXACT_CHUNKS + 1
        extra = SETUP_SAMPLES - EXACT_CHUNKS
        setups, runs, lat, labels, points = [], [], [], [], []
        for gap in range(gaps):
            setups += [_worker(["--setup-only"])[0]
                       for _ in range(extra // gaps + (gap < extra % gaps))]
            if gap == EXACT_CHUNKS:
                break
            setup_s, summary = _worker([
                "--inputs", str(path), "--seconds", str(seconds / EXACT_CHUNKS),
                "--min-ops", str(-(-MIN_OPS // EXACT_CHUNKS)),
                "--first", str(len(points) % INPUT_POINTS)])
            setups.append(setup_s)
            runs.append(summary)
            lat += summary["lat_ms"]
            labels += summary["labels"]
            points += summary["point_ms"]
        record = {
            "setup_samples_s": setups,
            "metrics": {
                "setup_s": statistics.median(setups),
                "op_ms_p50": statistics.median(lat),
                "op_ms_p90": _p90(lat),
                "point_ms_p50": statistics.median(points),
                "suite_s_p50": statistics.median(points) / 1e3,
            },
            "ops": len(lat), "points": len(points),
            "op_ms_p50_by_check": _by_label(labels, lat),
        }
    attempted = sum(r["attempted"] + r["warmup_attempted"] for r in runs)
    failed = sum(r["failed"] + r["warmup_failed"] for r in runs)
    record.update({"digest": digest, "attempted": attempted, "failed": failed,
                   "problems": [p for r in runs for p in r["problems"]][:5]})
    return record


def _by_label(labels, lat):
    groups = {}
    for label, ms in zip(labels, lat):
        groups.setdefault(label, []).append(ms)
    return {label: statistics.median(v) for label, v in sorted(groups.items())}


# ---------------------------------------------------------------------------
# suite_cold
# ---------------------------------------------------------------------------

def _suite_once(seed, recorded, prefix, traced=False):
    import oracle
    import spans

    wall, code, out, err = _timed([*prefix, *SUITE_ARGS, "--seed", str(seed)])
    if traced and code == spans.INSTALL_FAILED:
        raise BenchError(err.strip()[-2000:])
    problems = oracle.compare_suite(out, recorded)
    if code != 0:
        problems.append(f"suite exited {code}")
    return wall, problems


def run_suite(seed, seconds, trace):
    recorded = (BENCH / "data" / "suite_d246.jsonl").read_text()
    schema = (BENCH / "data" / "report_schema.json").read_text()
    cli = ["-m", "ybverify.cli"]
    attempted = failed = 0
    problems = []

    def note(issues):
        nonlocal attempted, failed
        attempted += 1
        if issues:
            failed += 1
            problems.extend(issues[:2])

    import gen
    import oracle
    from ybverify.clifford import build_gamma

    _wall, code, out, _err = _timed([*cli, *CONTROL_ARGS])
    want = oracle.expected_line(CONTROL_OP, {4: build_gamma(4)})
    note([] if code == 1 and out.strip() == want else ["negative control did not FAIL as expected"])
    record = {"digest": gen.digest([*SUITE_ARGS, "--seed", str(seed)])}
    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
        plain_wall, issues = _suite_once(seed, recorded, cli)
        note(issues)
        spans_path = OUT / f"spans-{SUITE}-seed{seed}.jsonl"
        traced_wall, issues = _suite_once(
            seed, recorded, [str(BENCH / "traced_cli.py"), str(spans_path)], traced=True)
        note(issues)
        import spans

        layers = _layers(*spans.read(spans_path), SUITE, spans.span_names())
        imports = []
        for _ in range(3):
            proc, _start = _spawn(["-X", "importtime", "-c", "import ybverify.cli"])
            _out, err = _finish(proc)
            imports.append(spans.import_times(err))
        for key in imports[0]:
            layers[key] = statistics.median(i[key] for i in imports)
        layers["trace.overhead_share"] = traced_wall / plain_wall - 1
        record.update({"spans": str(spans_path.relative_to(ROOT)), "layers": layers})
    else:
        setups, walls = [], []

        def setup():
            wall, code, out, _err = _timed([*cli, *SETUP_ARGS])
            setups.append(wall)
            note([] if code == 0 and out == schema else ["report-schema output differs"])

        # set-up processes alternate with suite processes across the run
        start = perf_counter()
        while len(walls) < MIN_SUITES or perf_counter() - start < seconds:
            setup()
            wall, issues = _suite_once(seed, recorded, cli)
            walls.append(wall)
            note(issues)
        while len(setups) < SETUP_SAMPLES:
            setup()
        median = statistics.median(walls)
        record.update({
            "setup_samples_s": setups, "suite_samples_s": walls,
            "metrics": {
                "setup_s": statistics.median(setups),
                "op_ms_p50": median * 1e3,
                "op_ms_p90": _p90(walls) * 1e3,
                "point_ms_p50": median * 1e3,
                "suite_s_p50": median,
            },
            "ops": len(walls),
        })
    record.update({"attempted": attempted, "failed": failed, "problems": problems[:5]})
    return record


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------

def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(load_start):
    from ybverify import kernel

    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "backend": getattr(kernel, "BACKEND", None), "commit": _commit(),
        "loadavg_start": load_start,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_start = os.getloadavg()
    if not (SRC / "ybverify" / "__init__.py").is_file():
        print(f"perfbench: no ybverify sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.workload == SUITE:
            record = run_suite(args.seed, args.seconds, args.trace)
        else:
            record = run_exact(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    record.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "provenance": provenance(load_start),
                   "failed_share": record["failed"] / record["attempted"]})
    if args.trace:
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
        values = record["layers"]
    else:
        units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
        values = {**record["metrics"], "peak_rss_mb": peak_mb}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    out_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({**record, "result_metrics": metrics}, indent=1))
    details = {k: record[k] for k in ("workload", "seed", "digest", "attempted",
                                      "failed_share", "problems", "provenance")}
    print(json.dumps({"details": details, "record": str(out_path.relative_to(ROOT))}))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
