"""Compare two sets of saved benchmark results, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds ``result-*.json`` records as ``run.py`` saves them under
``.bench_build/perfbench/`` (copy that directory away between the two
sides).  Prints, per workload and metric, the median of each side and the
change as a share of the base median.  A comparison whose kernel backend
differs between the two sides is flagged, since its numbers compare two
different kernels rather than two versions of one.
"""

import json
import statistics
import sys
from pathlib import Path


def load(directory):
    """{(workload, trace): [record, ...]} from one directory."""
    groups = {}
    for path in sorted(Path(directory).glob("result-*.json")):
        rec = json.loads(path.read_text())
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def medians(records):
    values = {}
    for rec in records:
        for name, metric in rec["result_metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    flagged = False
    for key in sorted(set(base) & set(new)):
        backends = {side: {r["provenance"]["backend"] for r in recs}
                    for side, recs in (("base", base[key]), ("new", new[key]))}
        print(f"== {key[0]} (trace {key[1]}): {len(base[key])} vs {len(new[key])} runs")
        if backends["base"] != backends["new"]:
            flagged = True
            print(f"   BACKEND DIFFERS: base {sorted(backends['base'])}, "
                  f"new {sorted(backends['new'])}")
        mb, mn = medians(base[key]), medians(new[key])
        for name in mb:
            if name not in mn:
                continue
            change = (mn[name] - mb[name]) / mb[name] if mb[name] else float("nan")
            print(f"   {name:40s} {mb[name]:14.6g} {mn[name]:14.6g} {change:+8.1%}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
