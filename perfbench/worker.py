"""One measured pass over a workload's job list, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--spans FILE]

Imports `dicube` from the checkout's `src`, builds the seeded inputs (the
set-up phase), runs every job once, and prints one JSON object on its last
line of output.  Set-up (importing the library and building the inputs)
and each job are timed on their own; a job's answer is checked against the
pin after its timer stops.  `setup_s` and each job's `wall_ref_s` rescale
the time by the reference loop timed on either side of it, which takes out
most of the machine's speed swings.  With `--trace` the tracing
wrappers are installed after set-up and removed before the result is
printed.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_library():
    """Import dicube from this checkout's sources, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import dicube
    except ImportError:
        sys.exit(f"worker: no dicube package under {SRC}")
    if Path(dicube.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"worker: dicube imported from {dicube.__file__}, not {SRC}")


# The reference loop: fixed pure-Python work of the kinds the library does
# most (dict and tuple building, small function calls, attribute reads),
# timed between jobs on the same CPU to gauge how fast the machine runs the
# interpreter at that moment.  REF_NOMINAL_S is its nominal duration.
REF_NOMINAL_S = 0.001


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _step(pair, k):
    return (pair.a + k, pair.b)


def reference_s():
    """The fastest of three timings of the reference loop."""
    best = None
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(2000):
            table[(i, i & 7)] = (i, table.get((i - 1, (i - 1) & 7)))
        pair, total = _Pair(1, 2), 0
        for i in range(1500):
            x, _ = _step(pair, i)
            total += x
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def rescaled(elapsed, ref_s):
    """`elapsed` in seconds at the nominal reference loop time."""
    return elapsed * REF_NOMINAL_S / ref_s


def run_jobs(jobs, tracer=None, ref_before=None):
    """Time each job, then check its answer; returns one record per job.

    The reference loop runs before the first job (unless its timing is
    passed in as `ref_before`) and after every job; each job's `ref_s` is
    the mean of the timings on either side of it.
    """
    from dicube.config import Budget
    from workloads import JOB_BUDGET

    records = []
    if ref_before is None:
        ref_before = reference_s()
    for run_id, job in enumerate(jobs, 1):
        budget = Budget(JOB_BUDGET)
        result = error = None
        if tracer is not None:
            tracer.run_id = run_id
        with tracer.span(f"job {job.name}") if tracer else nullcontext():
            start = time.perf_counter()
            try:
                result = job.run(budget)
            except Exception as exc:  # a raising job is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        ref_after = reference_s()
        job_ref_s = (ref_before + ref_after) / 2
        ref_before = ref_after
        status = "raised"
        if error is None:
            if tracer is not None:
                tracer.paused = True
            try:
                answer = job.answer(result)
            except Exception as exc:
                error = f"answer: {type(exc).__name__}: {exc}"
            else:
                status = "ok" if answer == job.pin else "wrong"
                if status == "wrong":
                    error = f"answer {answer!r} != pinned {job.pin!r}"
            finally:
                if tracer is not None:
                    tracer.paused = False
        records.append(
            {
                "name": job.name,
                "wall_s": elapsed,
                "ref_s": job_ref_s,
                "wall_ref_s": rescaled(elapsed, job_ref_s),
                "candidates": budget.used,
                "status": status,
                "error": error,
            }
        )
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the trace spans to this file")
    parser.add_argument("--tiny", action="store_true", help="run only the self-test slice")
    args = parser.parse_args(argv)

    # Set-up runs from before the library is imported to the built inputs.
    ref_start = reference_s()
    start = time.perf_counter()
    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"worker: unknown workload {args.workload!r}")
    jobs = WORKLOADS[args.workload](random.Random(args.seed))
    if args.tiny:
        jobs = [job for job in jobs if job.tiny]
    setup_raw_s = time.perf_counter() - start
    ref_setup = reference_s()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        records = run_jobs(jobs, tracer, ref_before=ref_setup)
    finally:
        if tracer is not None:
            tracer.uninstall()

    out = {
        "setup_s": rescaled(setup_raw_s, (ref_start + ref_setup) / 2),
        "setup_raw_s": setup_raw_s,
        "wall_s": sum(r["wall_s"] for r in records),
        "wall_ref_s": sum(r["wall_ref_s"] for r in records),
        "ref_s": statistics.median(r["ref_s"] for r in records),
        "candidates": sum(r["candidates"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": len(records),
        "ops_ok": sum(r["status"] == "ok" for r in records),
        "jobs": records,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.span_table()))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
