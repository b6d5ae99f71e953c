#!/usr/bin/env python3
"""Summarises alternating wirebench pairs from committed result lines.

    python3 scripts/pair_stats.py bench/pairs/<dir> [--benchmark BENCHMARK.json]

Each input line (every *.jsonl file under the directory, or the files
given) is one wirebench run:

    {"side": "parent"|"change", "workload": ..., "seed": N, "trace": 0|1,
     "sha": "<tree sha>", "result": <the run's JSON result line>}

Runs pair up by (workload, trace, seed). For each (workload, trace,
metric) the script prints a markdown table row: the parent and change
medians, the parent IQR, and k/n, the pairs in which the change did
better. The better direction and the relative bound of each metric come
from BENCHMARK.json. A metric whose parent IQR exceeds its bound times the
parent median is marked "unresolved": its runs spread too widely to
judge it against that bound. A median that moved the wrong way by more
than its bound is marked "WORSE".
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_lines(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(sorted(glob.glob(os.path.join(p, "*.jsonl"))))
        else:
            files.append(p)
    runs = []
    for f in files:
        with open(f) as fh:
            for n, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    runs.append(json.loads(line))
                except ValueError as e:
                    sys.exit("%s:%d: %s" % (f, n, e))
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def fmt(x):
    if x == 0:
        return "0"
    a = abs(x)
    if a >= 100:
        return "%.1f" % x
    if a >= 1:
        return "%.3f" % x
    return "%.4f" % x


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="+", help="directories or .jsonl files")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as fh:
        bench = json.load(fh)
    better, bound = {}, {}
    for m in bench.get("end_to_end", []):
        better[m["name"]] = m["better"]
        bound[m["name"]] = m.get("bound")
    for m in bench.get("per_layer", []):
        better[m["name"]] = m["better"]

    runs = load_lines(args.paths)
    if not runs:
        sys.exit("no runs found")
    # (workload, trace) -> seed -> side -> result
    groups = {}
    for r in runs:
        key = (r["workload"], int(r.get("trace", 0)))
        groups.setdefault(key, {}).setdefault(r["seed"], {})[r["side"]] = r

    print("| workload | trace | metric | parent median | change median |"
          " parent IQR | change better | note |")
    print("|---|---|---|---|---|---|---|---|")
    for (workload, trace) in sorted(groups):
        seeds = groups[(workload, trace)]
        pairs = [s for s in sorted(seeds)
                 if "parent" in seeds[s] and "change" in seeds[s]]
        if not pairs:
            continue
        bad = [(s, side) for s in pairs for side in ("parent", "change")
               if not seeds[s][side]["result"].get("correct")
               or seeds[s][side]["result"].get("failed", 0) != 0]
        metrics = sorted(seeds[pairs[0]]["parent"]["result"]["metrics"])
        for name in metrics:
            par = [seeds[s]["parent"]["result"]["metrics"][name]["value"]
                   for s in pairs]
            chg = [seeds[s]["change"]["result"]["metrics"][name]["value"]
                   for s in pairs]
            pm, cm = statistics.median(par), statistics.median(chg)
            q1, q3 = quartiles(par)
            iqr = q3 - q1
            direction = better.get(name)
            if direction == "higher":
                wins = sum(c > p for p, c in zip(par, chg))
                worse_by = (pm - cm) / abs(pm) if pm else 0.0
            elif direction == "lower":
                wins = sum(c < p for p, c in zip(par, chg))
                worse_by = (cm - pm) / abs(pm) if pm else 0.0
            else:
                wins = None
                worse_by = 0.0
            notes = []
            b = bound.get(name)
            if b is not None and pm and iqr > b * abs(pm):
                notes.append("unresolved")
            if b is not None and worse_by > b:
                notes.append("WORSE")
            print("| %s | %d | `%s` | %s | %s | %s | %s | %s |" % (
                workload, trace, name, fmt(pm), fmt(cm), fmt(iqr),
                "-" if wins is None else "%d/%d" % (wins, len(pairs)),
                ", ".join(notes)))
        for s, side in bad:
            print("warning: %s trace %d seed %s (%s) was not correct or had "
                  "failed requests" % (workload, trace, s, side),
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
