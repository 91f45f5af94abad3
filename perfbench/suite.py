"""Run every workload over several seeds and write one result file.

    python3 perfbench/suite.py [--runs 10] [--first-seed 1] [--trace] [--label NAME]

Each run is `run.py` in its own process, exactly as BENCHMARK.json's
command gives it, for BENCHMARK.json's `run_seconds`.  Runs go seed by
seed, every workload once per seed, so a slow spell on the machine spreads
over all workloads.  The result file `.perfbench_runs/BENCH_<label>.json`
records the machine, the commit, every run's values and, per workload and
metric, the median and quartiles over runs.  The printed table gives each end-to-end metric's
spread, the distance between its quartiles as a share of the median,
next to the metric's bound.  Feed two result files to `compare.py`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from record import OUT_DIR, ROOT, definition, machine, spread, summary


def main(argv=None):
    bench = definition()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--label", default=time.strftime("%Y%m%d-%H%M%S"))
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    runs = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(int(args.trace))]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            took = time.monotonic() - start
            if proc.returncode != 0:
                sys.exit(f"suite: {' '.join(cmd)} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[w].append({"seed": seed, "run_s": took, **result})
            for name in values[w]:
                values[w][name].append(result["metrics"][name]["value"])
            print(f"seed {seed} {w:12s} {took:5.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    out = {
        "label": args.label,
        "machine": machine(),
        "seconds": seconds,
        "trace": args.trace,
        "workloads": {
            w: {
                "runs": runs[w],
                "metrics": {
                    m["name"]: {"unit": m["unit"], **summary(values[w][m["name"]])} for m in metrics
                },
            }
            for w in workloads
        },
    }
    path = OUT_DIR / f"BENCH_{args.label}.json"
    OUT_DIR.mkdir(exist_ok=True)
    with open(path, "w") as f:
        json.dump(out, f, indent=1)

    print(f"\n{'workload':12s} {'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    steady = True
    for w in workloads:
        for m in metrics:
            s = out["workloads"][w]["metrics"][m["name"]]
            line = f"{w:12s} {m['name']:44s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {spread(s):7.3f}"
            if "bound" in m:
                line += f" {m['bound']:6.2f}"
                if spread(s) > m["bound"] / 3:
                    line += "  over a third of the bound"
                    steady = False
            print(line)
    print(f"\nwrote {path}; {'steady' if steady else 'NOT steady'}")


if __name__ == "__main__":
    main()
