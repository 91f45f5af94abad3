"""Compare two suite result files, metric by metric.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Both files must come from runs of the same length.  For every workload in both files and every end-to-end metric of
BENCHMARK.json, prints both medians with their quartiles, the change of
the median as a share of BEFORE's (positive means worse), and a verdict
against the metric's bound:

- `unresolved`: either side's spread (distance between quartiles over the
  median) is wider than the bound, and not every AFTER run reads better
  than every BEFORE run;
- `worse`: AFTER's median is worse than BEFORE's by more than the bound;
- `better`: every AFTER run reads better than every BEFORE run, or the
  medians differ by more than BEFORE's spread in AFTER's favour;
- `same`: none of these.
"""

from __future__ import annotations

import json
import sys

from record import definition, spread


def verdict(metric, before, after):
    sign = 1 if metric["better"] == "lower" else -1
    change = sign * (after["median"] - before["median"]) / before["median"]
    all_better = all(sign * (a - b) < 0 for a in after["values"] for b in before["values"])
    if all_better:
        return change, "better"
    if max(spread(before), spread(after)) > metric["bound"]:
        return change, "unresolved"
    if change > metric["bound"]:
        return change, "worse"
    if -change > spread(before):
        return change, "better"
    return change, "same"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    before, after = (json.loads(open(p).read()) for p in argv)
    if before["seconds"] != after["seconds"]:
        sys.exit(f"compare: run lengths differ ({before['seconds']}s and {after['seconds']}s)")
    metrics = definition()["end_to_end"]
    for side, data in (("before", before), ("after", after)):
        m = data["machine"]
        print(f"{side}: {data['label']} commit {m['git_commit']} python {m['python']} "
              f"nproc {m['nproc']} {m['platform']}")
    print(f"\n{'workload':12s} {'metric':12s} {'before median [q1, q3]':>34s} "
          f"{'after median [q1, q3]':>34s} {'change':>8s} {'bound':>6s}  verdict")
    regressions = 0
    for w in before["workloads"]:
        if w not in after["workloads"]:
            continue
        for metric in metrics:
            b = before["workloads"][w]["metrics"][metric["name"]]
            a = after["workloads"][w]["metrics"][metric["name"]]
            change, v = verdict(metric, b, a)
            regressions += v == "worse"
            fmt = lambda s: f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
            print(f"{w:12s} {metric['name']:12s} {fmt(b):>34s} {fmt(a):>34s} "
                  f"{change:+8.3f} {metric['bound']:6.2f}  {v}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
