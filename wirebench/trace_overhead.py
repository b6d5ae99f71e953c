#!/usr/bin/env python3
"""Tracing overhead of the wire-to-wire benchmark, from its results files.

    python3 wirebench/trace_overhead.py [RESULTS_DIR]

Every wirebench run writes result-<workload>-s<seed>-t<trace>-p<pid>.json
(by default under $CARGO_TARGET_DIR/wirebench/results, CARGO_TARGET_DIR
defaulting to .bench_build). For each workload this prints the median over
traced runs of trace.rtt_p50_us and trace.rtt_p99_us minus the median over
untraced runs of rtt_p50_us and rtt_p99_us, with the run counts. Spans are
recorded after the timed traffic, so the difference is expected to be
run-to-run noise.
"""

import glob
import json
import os
import statistics
import sys


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "wirebench", "results")
    runs = {}  # workload -> traced? -> quantile -> values
    for path in sorted(glob.glob(os.path.join(root, "result-*.json"))):
        with open(path) as f:
            r = json.load(f)
        traced = "-t1-" in os.path.basename(path)
        sides = runs.setdefault(r["workload"], {False: {}, True: {}})
        for q in ("p50", "p99"):
            m = (r["per_layer"]["trace.rtt_%s_us" % q] if traced
                 else r["end_to_end"]["rtt_%s_us" % q])
            sides[traced].setdefault(q, []).append(m["value"])
    if not runs:
        print("no results under " + root, file=sys.stderr)
        return 1
    for workload, sides in sorted(runs.items()):
        for q in ("p50", "p99"):
            on, off = sides[True].get(q, []), sides[False].get(q, [])
            if not on or not off:
                print("%-14s rtt_%s_us: needs traced and untraced runs (%d, %d)"
                      % (workload, q, len(on), len(off)))
                continue
            a, b = statistics.median(on), statistics.median(off)
            print("%-14s rtt_%s_us overhead %+9.2f us (traced median %.2f over %d "
                  "runs, untraced %.2f over %d)"
                  % (workload, q, a - b, a, len(on), b, len(off)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
