"""Helpers shared by the runner, the suite and the compare step: the
benchmark definition, quartiles, and a description of the machine."""

from __future__ import annotations

import json
import os
import platform
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_runs"


def definition():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summary(values):
    """Median and quartiles as `statistics.quantiles(values, n=4)` gives them."""
    values = list(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


def spread(s):
    """Distance between the quartiles as a share of the median."""
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0


def git_commit():
    """The checked-out commit, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine():
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "cpu": cpu,
        "git_commit": git_commit(),
    }
