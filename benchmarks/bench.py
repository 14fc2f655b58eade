"""Interleaved parent/change runs of one perfbench workload, as a committed record.

The parent is a git revision, exported with ``git archive`` into a scratch
directory; the change is the working tree of this checkout.  Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, alternating which side goes first; T is the
``run_seconds`` of BENCHMARK.json.  The record holds, for every end-to-end
metric of BENCHMARK.json, each side's runs, median and quartiles and the
number of pairs the change won (ties count for neither side); whether the
gain claimed on ``point_ms_p50`` holds (on ``suite_cold`` a point is one
suite process); and the CPU count, the Python version
and the numpy and scipy versions when installed.  A run that prints no
result, or whose outputs perfbench found wrong, stops the script with exit 1.

Usage: python3 benchmarks/bench.py --base REV [--workload suite_cold]
       [--seed 1] [--pairs 10] [--workdir DIR]
       [--out benchmarks/BENCH_<workload>.json]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM = "point_ms_p50"


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """Write the tree of ``rev`` into the empty directory ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(checkout, args, seconds):
    """The result line of one untraced perfbench run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"bench: wrong output in {checkout}: {lines[-2]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the parent")
    ap.add_argument("--workload", default="suite_cold")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workdir", help="where the parent is exported (default: a temp dir)")
    ap.add_argument("--out", help="default: benchmarks/BENCH_<workload>.json")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    spec = {m["name"]: m for m in benchmark["end_to_end"]}

    with tempfile.TemporaryDirectory(dir=args.workdir) as parent:
        export(args.base, parent)
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(parent if side == "parent" else ROOT, args, seconds))
            print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} {runs[side][-1][CLAIM]:.4g}" for side in order), file=sys.stderr)

    metrics = {}
    for name, m in spec.items():
        old = [r[name] for r in runs["parent"]]
        new = [r[name] for r in runs["change"]]
        lower = m["better"] == "lower"
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": summary(old), "change": summary(new),
            "wins": sum((b < a) if lower else (b > a) for a, b in zip(old, new)),
            "ties": sum(a == b for a, b in zip(old, new)),
        }
    claimed = metrics[CLAIM]
    gap = claimed["parent"]["median"] - claimed["change"]["median"]
    record = {
        "bench": f"perfbench {args.workload}, interleaved parent/change pairs",
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "seconds": seconds,
        "base": git("rev-parse", args.base), "head": git("rev-parse", "HEAD"),
        "head_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "claim": {"metric": CLAIM, "wins": claimed["wins"], "pairs": args.pairs,
                  "median_gap": gap if claimed["better"] == "lower" else -gap,
                  "parent_iqr": claimed["parent"]["iqr"]},
        "metrics": metrics,
    }
    claim = record["claim"]
    claim["holds"] = (claim["wins"] >= 0.9 * args.pairs
                      and claim["median_gap"] > claim["parent_iqr"])
    out = Path(args.out) if args.out else ROOT / "benchmarks" / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(claim))
    return 0


if __name__ == "__main__":
    sys.exit(main())
