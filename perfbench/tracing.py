"""Per-layer tracing from outside the library.

`Tracer.install` replaces module attributes and class methods of `dicube`
with wrappers; calls between and within modules resolve through those
attributes, so nested calls are captured too.  Each wrapped call records a
span (name, start, end, parent, run id) in memory.  `CubeMap.__call__` and
`Budget.spend` are only counted: the first runs hundreds of thousands of
times per job, and the second charges its amount to the innermost open
span, which is how candidates reach the layer that spent them.
`Tracer.uninstall` puts every original back.  Nothing here is live during
an untraced run.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module, attribute path) of every traced function.
SPANNED = (
    ("cube", "from_function"),
    ("cube", "compose"),
    ("cube", "enumerate_maps"),
    ("lattice", "boolean_rank"),
    ("lattice", "subdivide_lattice"),
    ("lattice", "interval_elements"),
    ("cset", "build_presheaf"),
    ("cset", "from_lattice"),
    ("cset", "tensor"),
    ("cset", "quotient"),
    ("cset", "closed_star"),
    ("cset", "CubicalSet.validate"),
    ("sd", "subdivide"),
    ("sd", "Subdivision.eps"),
    ("sd", "local_lift"),
    ("cat", "enumerate_functors"),
    ("cat", "functor_homotopy_classes"),
    ("cat", "nat_trans_exists"),
    ("cat", "nerve"),
    ("cat", "cube_functors"),
    ("t1", "fundamental_presentation"),
    ("invariants", "h1"),
    ("invariants", "hom_classes"),
    ("invariants", "loop_classes"),
    ("invariants", "pi0"),
    ("oracle", "enumerate_cubical_functions"),
    ("oracle", "homotopy_graph"),
    ("oracle", "generator_closure"),
    ("oracle", "interval_hom_tables"),
    ("oracle", "cube_monotone_tables"),
    ("oracle", "monotone_bijection_tables"),
)
COUNTED = ("cube", "CubeMap.__call__")
SPEND = ("config", "Budget.spend")

# How many results a call found, for `yield` (results / candidates) and
# for the cells a builder made.
RESULTS = {
    "cat.enumerate_functors": len,
    "cat.nat_trans_exists": int,
    "cat.cube_functors": len,
    "oracle.enumerate_cubical_functions": len,
    "cset.build_presheaf": lambda C: sum(C.sizes),
}


def _resolve(module, path):
    owner = importlib.import_module(f"dicube.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Stat:
    __slots__ = ("calls", "self_s", "candidates", "results", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.candidates = 0
        self.results = 0
        self.errors = 0


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, run id)
        self.stats = {}
        self.calls = {}  # counted-only functions
        self.run_id = 0
        self.paused = False
        self._stack = []  # open frames: [span index, child time, candidates]
        self._originals = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name):
        """A harness-level span, such as one job."""
        self._enter(name)
        try:
            yield
        except BaseException:
            self._exit(None, True)
            raise
        self._exit(None, False)

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append([len(self.spans) - 1, 0.0, 0])

    def _exit(self, result, failed):
        end = time.perf_counter()
        index, child_s, candidates = self._stack.pop()
        record = self.spans[index]
        record[2] = end
        duration = end - record[1]
        if self._stack:
            self._stack[-1][1] += duration
        name = record[0]
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.self_s += duration - child_s
        stat.candidates += candidates
        if failed:
            stat.errors += 1
        else:
            counter = RESULTS.get(name)
            if counter is not None:
                stat.results += counter(result)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(None, True)
                raise
            tracer._exit(result, False)
            return result

        return wrapper

    def _counted(self, name, fn):
        tracer = self
        calls = self.calls
        calls[name] = 0

        def wrapper(*args, **kwargs):
            if not tracer.paused:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spend(self, name, fn):
        tracer = self
        calls = self.calls
        calls[name] = 0

        def spend(budget, amount=1):
            if not tracer.paused:
                calls[name] += 1
                if tracer._stack:
                    tracer._stack[-1][2] += amount
            return fn(budget, amount)

        return spend

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        plan = [(m, p, self._spanned) for m, p in SPANNED]
        plan += [(*COUNTED, self._counted), (*SPEND, self._spend)]
        for module, path, make in plan:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, make(f"{module}.{path}", original))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer values named `<module>.<function>.<stat>`."""
        out = {}
        for module, path in SPANNED:
            name = f"{module}.{path}"
            stat = self.stats.get(name, Stat())
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
            out[f"{name}.candidates"] = stat.candidates
            out[f"{name}.errors"] = stat.errors
            if name in RESULTS:
                key = "cells" if name == "cset.build_presheaf" else "yield"
                out[f"{name}.{key}"] = (
                    stat.results if key == "cells"
                    else stat.results / stat.candidates if stat.candidates else 0.0
                )
        for name, count in self.calls.items():
            out[f"{name}.calls"] = count
        return out

    def span_table(self):
        """Spans in a compact form for writing out: names are interned."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "columns": ["name", "start", "end", "parent", "run"],
            "rows": [[index[n], round(a, 7), round(b, 7), p, r] for n, a, b, p, r in self.spans],
        }

