"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, in a few seconds, that:
- a tiny slice of every workload passes in a fresh worker;
- a wrong pinned value is reported as a wrong answer and a raising job as
  a failed operation;
- the tracing wrappers are live while installed, attribute candidates to
  the layer that spent them, and leave every `dicube` attribute exactly as
  they found it;
- without the library sources the runner exits non-zero and prints no
  result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys

from record import OUT_DIR, ROOT
from worker import import_library, run_jobs


def check(cond, what):
    if not cond:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def tiny_slices():
    from workloads import WORKLOADS

    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, "-s", "perfbench/worker.py", "--workload", name, "--seed", "3", "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        rec = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
        check(rec is not None and rec["ops"] > 0 and rec["ops_ok"] == rec["ops"],
              f"tiny slice of {name} passes ({rec and rec['ops']} jobs)")


def pins_are_checked():
    from workloads import cohomology

    job = next(j for j in cohomology(random.Random(3)) if j.name == "h1(circle, Z/4)")
    good, = run_jobs([job])
    check(good["status"] == "ok", "h1(circle, Z/4) matches its pin")
    bad, = run_jobs([dataclasses.replace(job, pin=job.pin + 1)])
    check(bad["status"] == "wrong" and "pinned" in bad["error"], "a wrong pin is reported as wrong")

    def boom(budget):
        raise ValueError("boom")

    raised, = run_jobs([dataclasses.replace(job, run=boom)])
    check(raised["status"] == "raised" and "boom" in raised["error"], "a raising job is a failed op")


def tracing_restores():
    from tracing import COUNTED, SPANNED, SPEND, Tracer, _resolve
    from workloads import cohomology

    targets = [_resolve(m, p) for m, p in SPANNED + (COUNTED, SPEND)]
    before = [owner.__dict__[attr] for owner, attr in targets]
    jobs = [j for j in cohomology(random.Random(3)) if j.tiny]
    tracer = Tracer()
    tracer.install()
    try:
        live = [owner.__dict__[attr] for owner, attr in targets]
        check(all(a is not b for a, b in zip(before, live)), "every target is wrapped while tracing")
        records = run_jobs(jobs, tracer)
    finally:
        tracer.uninstall()
    after = [owner.__dict__[attr] for owner, attr in targets]
    check(all(a is b for a, b in zip(before, after)), "uninstall restores every original")
    layers = tracer.layer_metrics()
    spent = sum(r["candidates"] for r in records)
    traced = sum(v for k, v in layers.items() if k.endswith(".candidates"))
    check(spent > 0 and traced == spent, f"all {spent} candidates land in traced layers")
    check(layers["config.Budget.spend.calls"] > 0 and layers["invariants.h1.calls"] == len(
        [j for j in jobs if j.name.startswith("h1(")]), "calls are counted per layer")
    check(all(s[2] is not None for s in tracer.spans), "every span is closed")


def bare_directory():
    bare = OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(), "without sources the runner fails cleanly")


def main():
    OUT_DIR.mkdir(exist_ok=True)
    import_library()
    tiny_slices()
    pins_are_checked()
    tracing_restores()
    bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
