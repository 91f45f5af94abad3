"""Command-line surface.

Subcommands mirror the library modules: `cube`, `lattice`, `cset`, `cat`,
`t1`, `inv`, `oracle` and `verify`.  Each handler takes the parsed
arguments and returns the report's inputs and result; `main` alone builds
the enumeration budget, times the call, writes the JSON report to stdout
(or --out) and picks the exit code: 0 success, 1 when the result says
`"ok": false` (a failed oracle check), 2 for a bad request, with one line
on stderr, and 3 when the budget is exceeded.  `verify` prints its
criterion lines instead of a report and exits 0 or 1 itself.  Identical
invocations produce byte-identical reports; timing is only included when
--timing is passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import acceptance, cat, cset, cube, invariants as inv
from . import lattice as lat, sd, spaces, t1
from .config import Budget, BudgetExceeded, check_ints, json_errors


class UsageError(ValueError):
    pass


def _load(spec, from_json, by_name=None, *rest):
    """Read `spec` with `from_json` when it names a `.json` file (or when
    there is no `by_name`), else look it up as `by_name(spec, *rest)`."""
    if by_name is None or spec.endswith(".json"):
        with open(spec) as handle:
            return from_json(handle.read())
    return by_name(spec, *rest)


def _cat_by_name(name):
    if name == "arrow":
        return cat.arrow_cat()
    if name.startswith("discrete"):
        size = name.removeprefix("discrete")
        if not size.isdecimal():
            raise UsageError(f"discrete needs a size n >= 0, got {name!r}")
        return cat.discrete_cat(int(size))
    return cat.cat_from_monoid(cat.monoid_by_name(name))


def _save(path, render, result, key=None):
    """Write `render()` to `path` when one is given, and name the path under
    `key` in the result."""
    if path:
        with open(path, "w") as handle:
            handle.write(render() + "\n")
        if key:
            result[key] = path


def cmd_cube(args):
    lines = [phi.text() for phi in cube.enumerate_maps(args.dom, args.cod, cls=args.cls)]
    inputs = {"dom": args.dom, "cod": args.cod, "class": args.cls}
    return inputs, {"count": len(lines), "morphisms": lines}


def cmd_cube_decide(args):
    with json_errors(cube.CubeError, "function table"):
        with open(args.table) as handle:
            data = json.load(handle)
        values = tuple(map(tuple, data["values"]))
        check_ints([data["dom"], data["cod"], *(b for v in values for b in v)])
        table = cube.FunctionTable(data["dom"], data["cod"], values)
    phi, witness = cube.from_function(table, args.budget)
    return {"table": args.table}, {"map": phi.text() if phi else None, "witness": witness}


def cmd_lattice(args):
    L = _load(args.path, lat.from_json)
    result = {
        "size": L.size,
        "distributive": L.is_distributive,
        "profile": list(lat.distributivity_profile(L)),
        "boolean_intervals": len(lat.boolean_intervals(L)),
        "modular": lat.is_modular(L),
    }
    _save(args.dot, lambda: lat.dot_hasse(L), result, "dot")
    return {"path": args.path}, result


def cmd_cset_make(args):
    C = _load(args.shape, cset.from_json, spaces.by_name, args.trunc, args.budget)
    result = {
        "trunc": C.trunc,
        "cells": list(C.sizes),
        "nondegenerate": list(C.raw_nondegenerate_counts()),
        "census": list(C.census()),
    }
    _save(args.save, lambda: cset.to_json(C), result, "saved")
    return {"shape": args.shape, "trunc": args.trunc}, result


def cmd_cset_sd(args):
    if args.k < 1:
        raise UsageError("subdivision subscript must be >= 1")
    C = _load(args.path, cset.from_json, spaces.by_name, args.trunc, args.budget)
    s = sd.subdivide(C, args.k - 1)
    result = {"cells": list(s.cset.sizes), "census": list(s.cset.census())}
    _save(args.save, lambda: cset.to_json(s.cset), result, "saved")
    return {"path": args.path, "k": args.k}, result


def cmd_cset_validate(args):
    C = _load(args.path, cset.from_json, spaces.by_name, args.trunc, args.budget)
    C.validate()
    return {"path": args.path}, {"valid": True, "cells": list(C.sizes)}


def cmd_cset_dot(args):
    C = _load(args.path, cset.from_json, spaces.by_name, args.trunc, args.budget)
    text = cset.dot_skeleton(C)
    result = {"dot": text.splitlines()}
    _save(args.save, lambda: text, result)
    return {"path": args.path}, result


def cmd_cat_classes(args):
    M = _load(args.monoid, cat.monoid_from_json, cat.monoid_by_name)
    classes, quotient = cat.conjugacy_classes(M)
    result = {
        "count": len(classes),
        "classes": [list(g) for g in classes],
        "cancellative": cat.is_cancellative(M),
    }
    if quotient is not None:
        result["quotient"] = {"size": quotient.size, "table": [list(r) for r in quotient.table]}
    return {"monoid": args.monoid}, result


def cmd_cat_nerve(args):
    N = cat.nerve(_load(args.cat, cat.cat_from_json, _cat_by_name), args.trunc, args.budget)
    result = {"cells": list(N.sizes), "census": list(N.census())}
    return {"cat": args.cat, "trunc": args.trunc}, result


def cmd_t1(args):
    C = _load(args.path, cset.from_json, spaces.by_name, args.trunc, args.budget)
    P, edges = t1.fundamental_presentation(C)
    result = json.loads(t1.presentation_json(P, edges))
    _save(args.dot, lambda: t1.presentation_dot(P), result, "dot")
    return {"path": args.path}, result


def cmd_inv_pi0(args):
    r = inv.pi0(_load(args.space, cset.from_json, spaces.by_name, args.trunc, args.budget))
    result = {"count": r.count, "representatives": list(r.reps), "class_of": list(r.class_of)}
    return {"space": args.space}, result


def cmd_inv_h1(args):
    C = _load(args.space, cset.from_json, spaces.by_name, args.trunc, args.budget)
    M = _load(args.monoid, cat.monoid_from_json, cat.monoid_by_name)
    r = inv.h1(C, M, budget=args.budget, with_table=not args.no_table)
    result = {"class_count": r.count, "representatives": [list(w) for w in r.reps]}
    if r.table is not None:
        result["monoid_table"] = [list(row) for row in r.table]
        result["unit_class"] = r.unit
    return {"space": args.space, "monoid": args.monoid}, result


def cmd_inv_tau(args):
    trunc = args.n + 1 if args.trunc is None else args.trunc
    C = _load(args.space, cset.from_json, spaces.by_name, trunc, args.budget)
    r = inv.loop_classes(C, args.vertex, args.n, budget=args.budget)
    result = {"degree": r.degree, "class_count": r.count}
    if r.table is not None:
        result["monoid_table"] = [list(row) for row in r.table]
    return {"space": args.space, "n": args.n, "vertex": args.vertex}, result


def cmd_inv_homclasses(args):
    B = _load(args.b, cset.from_json, spaces.by_name, args.trunc, args.budget)
    S = _load(args.s, cat.cat_from_json, _cat_by_name)
    r = inv.hom_classes(B, S, budget=args.budget)
    return {"b": args.b, "s": args.s}, {"class_count": r.count, "map_count": r.functor_count}


def cmd_oracle(args):
    suites = {"cube": [1, 2], "lattice": [9], "homotopy": [7]}
    lines = []
    ok = acceptance.run(suites[args.suite], report=lines.append, timing=args.timing)
    return {"suite": args.suite}, {"ok": ok, "log": lines}


def cmd_verify(args):
    if args.suite != "all" and args.suite not in map(str, acceptance.CRITERIA):
        raise UsageError(f"--suite takes 'all' or a criterion number 1-10, got {args.suite!r}")
    ok = acceptance.run(None if args.suite == "all" else [int(args.suite)])
    raise SystemExit(0 if ok else 1)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dicube",
        description="finite cubical sets and their directed homotopy invariants",
    )
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--timing", action="store_true", help="include timing_ms in reports")
    parser.add_argument("--budget", type=int, default=None, help="enumeration budget override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cube", help="cube-category morphisms")
    psub = p.add_subparsers(dest="sub", required=True)
    pe = psub.add_parser("enumerate")
    pe.add_argument("--dom", type=int, required=True)
    pe.add_argument("--cod", type=int, required=True)
    pe.add_argument("--class", dest="cls", choices=["epi", "mono", "iso", "neither"], default=None)
    pe.set_defaults(fn=cmd_cube, name="cube enumerate")
    pd = psub.add_parser("decide", help="decide whether a function table is a cube map")
    pd.add_argument("--table", required=True, help='JSON {"dom", "cod", "values"}')
    pd.set_defaults(fn=cmd_cube_decide, name="cube decide")

    p = sub.add_parser("lattice", help="lattice checks and exports")
    psub = p.add_subparsers(dest="sub", required=True)
    pc = psub.add_parser("check")
    pc.add_argument("path")
    pc.add_argument("--dot", help="write the Hasse diagram here")
    pc.set_defaults(fn=cmd_lattice, name="lattice check")

    p = sub.add_parser("cset", help="cubical sets")
    psub = p.add_subparsers(dest="sub", required=True)
    pm = psub.add_parser("make")
    pm.add_argument("--shape", required=True)
    pm.add_argument("--trunc", type=int, default=3)
    pm.add_argument("--save", help="write the cubical set as JSON here")
    pm.set_defaults(fn=cmd_cset_make, name="cset make")
    ps = psub.add_parser("sd")
    ps.add_argument("path")
    ps.add_argument("--k", type=int, default=3, help="subdivision subscript (3 = threefold)")
    ps.add_argument("--trunc", type=int, default=None)
    ps.add_argument("--save")
    ps.set_defaults(fn=cmd_cset_sd, name="cset sd")
    pv = psub.add_parser("validate")
    pv.add_argument("path")
    pv.add_argument("--trunc", type=int, default=None)
    pv.set_defaults(fn=cmd_cset_validate, name="cset validate")
    pd = psub.add_parser("dot")
    pd.add_argument("path")
    pd.add_argument("--trunc", type=int, default=None)
    pd.add_argument("--save")
    pd.set_defaults(fn=cmd_cset_dot, name="cset dot")

    p = sub.add_parser("cat", help="categories and monoids")
    psub = p.add_subparsers(dest="sub", required=True)
    pc = psub.add_parser("classes")
    pc.add_argument("--monoid", required=True)
    pc.set_defaults(fn=cmd_cat_classes, name="cat classes")
    pn = psub.add_parser("nerve")
    pn.add_argument("--cat", required=True)
    pn.add_argument("--trunc", type=int, default=2)
    pn.set_defaults(fn=cmd_cat_nerve, name="cat nerve")

    p = sub.add_parser("t1", help="fundamental category presentations")
    p.add_argument("path")
    p.add_argument("--trunc", type=int, default=None)
    p.add_argument("--dot")
    p.set_defaults(fn=cmd_t1, name="t1 present")

    p = sub.add_parser("inv", help="directed invariants")
    psub = p.add_subparsers(dest="sub", required=True)
    pp = psub.add_parser("pi0")
    pp.add_argument("space")
    pp.add_argument("--trunc", type=int, default=None)
    pp.set_defaults(fn=cmd_inv_pi0, name="inv pi0")
    ph = psub.add_parser("h1")
    ph.add_argument("--space", required=True)
    ph.add_argument("--monoid", required=True)
    ph.add_argument("--trunc", type=int, default=None)
    ph.add_argument("--no-table", action="store_true")
    ph.set_defaults(fn=cmd_inv_h1, name="inv h1")
    pt = psub.add_parser("tau")
    pt.add_argument("--space", required=True)
    pt.add_argument("--n", type=int, default=1)
    pt.add_argument("--vertex", type=int, default=0)
    pt.add_argument("--trunc", type=int, default=None)
    pt.set_defaults(fn=cmd_inv_tau, name="inv tau")
    pm = psub.add_parser("homclasses")
    pm.add_argument("--b", required=True)
    pm.add_argument("--s", required=True)
    pm.add_argument("--trunc", type=int, default=None)
    pm.set_defaults(fn=cmd_inv_homclasses, name="inv homclasses")

    p = sub.add_parser("oracle", help="oracle agreement suites")
    psub = p.add_subparsers(dest="sub", required=True)
    pc = psub.add_parser("check")
    pc.add_argument("--suite", choices=["cube", "lattice", "homotopy"], required=True)
    pc.set_defaults(fn=cmd_oracle, name="oracle check")

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", default="all", help="'all' or a criterion number")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        args.budget = Budget(args.budget)
        inputs, result = args.fn(args)
        report = {"command": args.name, "inputs": inputs, "result": result}
        if args.timing:
            report["timing_ms"] = int((time.monotonic() - started) * 1000)
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if result.get("ok") is False else 0


if __name__ == "__main__":
    sys.exit(main())
