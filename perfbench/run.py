"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measured pass over the workload's
job list is a fresh interpreter (`worker.py`), because the library memoizes
its builds: a second pass in the same process would time warm caches that
no command-line invocation gets.  Passes repeat until `--seconds` is used
up (at least three), and each metric is the median over passes.

On a shared 2-vCPU virtual machine the interpreter's speed swung by up to
2x within minutes, the two vCPUs independently, so raw wall time was not
steady enough to compare commits.
The time metric is therefore `wall_ref_s`: each job's wall time rescaled by
a fixed pure-Python reference loop timed on either side of it
(`worker.reference_s`), in seconds at a reference loop time of 1 ms; its
median over passes, summed over the job list.  `setup_s`, the time from
importing the library to having built the inputs, is rescaled the same
way.  The raw times stay in every pass record; the job-list wall time is
reported with `--trace 1` as `harness.wall_s`, next to the reference loop
time `harness.ref_s`.  `attempted` and `failed` in the result are the
counts of one pass; a run whose passes disagree on them is an error.

With `--trace 0` the last line of output is the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it is the per-layer metrics, from passes
with the tracing wrappers installed, alternating with untraced passes that
give `trace.overhead_s`.  Every pass's raw values, with medians and
quartiles and a description of the machine, go to
`.perfbench_runs/<workload>-seed<N>-trace<T>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from record import OUT_DIR, ROOT, definition, machine, summary

WORKER = ROOT / "perfbench" / "worker.py"
MIN_PASSES = 3
# A run must finish within three minutes, whatever the passes cost.
DEADLINE_S = 150


class BenchError(Exception):
    pass


def run_pass(workload, seed, trace, timeout, spans=None):
    """One fresh-interpreter pass; returns the worker's record plus its
    wall time seen from here."""
    cmd = [sys.executable, "-s", str(WORKER), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
        if spans:
            cmd += ["--spans", str(spans)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass of {workload} did not finish within {timeout:.0f}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}): {proc.stderr.strip()}")
    rec = json.loads(lines[-1])
    rec["pass_s"] = time.monotonic() - start
    return rec


def measure(workload, seed, seconds, trace):
    """Passes until `seconds` are used up; traced and untraced alternate
    when `trace` is set.  Returns (untraced passes, traced passes)."""
    plain, traced = [], []
    spans = OUT_DIR / f"{workload}-seed{seed}.spans.json"
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        passes = plain + traced
        if passes:
            expected = statistics.median(p["pass_s"] for p in passes)
            enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
            if elapsed + expected > (seconds if enough else DEADLINE_S):
                break
        remaining = DEADLINE_S - elapsed
        if remaining <= 0:
            raise BenchError(f"{workload} did not finish {MIN_PASSES} passes in {DEADLINE_S}s")
        use_trace = trace and len(traced) < len(plain)
        rec = run_pass(workload, seed, use_trace, remaining, spans if use_trace else None)
        (traced if use_trace else plain).append(rec)
    return plain, traced


def end_to_end(plain):
    out = {
        name: summary(p[name] for p in plain)
        for name in ("setup_s", "candidates", "peak_rss_mb", "ops", "ops_ok")
    }
    # Per job, the median of its rescaled time over passes; summed over
    # jobs, and likewise the quartiles.  This follows each job's typical
    # time more closely than the median of pass totals does.
    per_job = [summary(j["wall_ref_s"] for j in runs) for runs in zip(*(p["jobs"] for p in plain))]
    out["wall_ref_s"] = {
        **{key: sum(s[key] for s in per_job) for key in ("median", "q1", "q3")},
        "n": len(plain),
        "values": [p["wall_ref_s"] for p in plain],
    }
    return out


def per_layer(plain, traced):
    names = traced[0]["layers"]
    out = {name: summary(p["layers"][name] for p in traced) for name in names}
    untraced = summary(p["wall_ref_s"] for p in plain)["median"]
    out["trace.overhead_s"] = summary(p["wall_ref_s"] - untraced for p in traced)
    out["harness.wall_s"] = summary(p["wall_s"] for p in plain)
    out["harness.ref_s"] = summary(p["ref_s"] for p in plain)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = definition()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "dicube" / "__init__.py").is_file():
        print(f"run.py: no dicube sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        stats = per_layer(plain, traced)
        wanted = bench["per_layer"]
    else:
        stats = end_to_end(plain)
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]} for m in wanted}
    passes = plain + traced
    # Every pass runs the same jobs on the same inputs, so each job must
    # come out the same way in every pass; the counts are those of one pass.
    outcomes = {tuple((job["name"], job["status"]) for job in p["jobs"]) for p in passes}
    if len(outcomes) != 1:
        print("run.py: passes disagree on which jobs failed", file=sys.stderr)
        return 1
    wrong = [(job["name"], job["error"]) for job in passes[0]["jobs"] if job["status"] == "wrong"]
    failures = [job["name"] for job in passes[0]["jobs"] if job["status"] != "ok"]
    result = {
        "correct": not wrong,
        "attempted": passes[0]["ops"],
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "summary": stats,
        "failed_jobs": failures,
        "passes": passes,
        "result": result,
    }
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for name, text in wrong:
        print(f"WRONG {name}: {text}")
    for m in wanted:
        s = stats[m["name"]]
        print(f"{m['name']:48s} {s['median']:14.6g} {m['unit']:6s} (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
