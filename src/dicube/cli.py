"""Command-line surface.

Subcommands mirror the library modules: `cube`, `lattice`, `cset`, `cat`,
`t1`, `inv`, `oracle` and `verify`.  Reports are JSON on stdout (or
--out); identical invocations produce byte-identical reports — timing is
only included when --timing is passed.  Exit codes: 0 success, 1
verification failure, 2 usage error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import acceptance, cat, cset, cube, invariants as inv
from . import lattice as lat, sd, spaces, t1
from .config import BudgetExceeded, default_budget


class UsageError(ValueError):
    pass


def _emit(args, command, inputs, result, started):
    report = {"command": command, "inputs": inputs, "result": result}
    if args.timing:
        report["timing_ms"] = int((time.monotonic() - started) * 1000)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_monoid(spec):
    if spec.endswith(".json"):
        with open(spec) as handle:
            return cat.monoid_from_json(handle.read())
    return cat.monoid_by_name(spec)


def _load_cat(spec):
    if spec.endswith(".json"):
        with open(spec) as handle:
            return cat.cat_from_json(handle.read())
    if spec == "arrow":
        return cat.arrow_cat()
    if spec.startswith("discrete"):
        return cat.discrete_cat(int(spec.removeprefix("discrete")))
    return cat.cat_from_monoid(_load_monoid(spec))


def _load_space(spec, trunc):
    if spec.endswith(".json"):
        with open(spec) as handle:
            return cset.from_json(handle.read())
    return spaces.by_name(spec, trunc)


def _load_lattice(spec):
    with open(spec) as handle:
        return lat.from_json(handle.read())


def cmd_cube(args, started):
    maps = cube.enumerate_maps(args.dom, args.cod, cls=args.cls)
    lines = [phi.text() for phi in maps]
    _emit(
        args,
        "cube enumerate",
        {"dom": args.dom, "cod": args.cod, "class": args.cls},
        {"count": len(lines), "morphisms": lines},
        started,
    )


def cmd_lattice(args, started):
    L = _load_lattice(args.path)
    profile = lat.distributivity_profile(L)
    result = {
        "size": L.size,
        "distributive": L.is_distributive,
        "profile": list(profile),
        "boolean_intervals": len(lat.boolean_intervals(L)),
        "modular": lat.is_modular(L),
    }
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(lat.dot_hasse(L) + "\n")
        result["dot"] = args.dot
    _emit(args, "lattice check", {"path": args.path}, result, started)


def cmd_cset_make(args, started):
    C = _load_space(args.shape, args.trunc)
    result = {
        "trunc": C.trunc,
        "cells": list(C.sizes),
        "nondegenerate": list(C.raw_nondegenerate_counts()),
        "census": list(C.census()),
    }
    if args.save:
        with open(args.save, "w") as handle:
            handle.write(cset.to_json(C) + "\n")
        result["saved"] = args.save
    _emit(args, "cset make", {"shape": args.shape, "trunc": args.trunc}, result, started)


def cmd_cset_sd(args, started):
    if args.k < 1:
        raise UsageError("subdivision subscript must be >= 1")
    C = _load_space(args.path, args.trunc)
    s = sd.subdivide(C, args.k - 1)
    result = {
        "cells": list(s.cset.sizes),
        "census": list(s.cset.census()),
    }
    if args.save:
        with open(args.save, "w") as handle:
            handle.write(cset.to_json(s.cset) + "\n")
        result["saved"] = args.save
    _emit(args, "cset sd", {"path": args.path, "k": args.k}, result, started)


def cmd_cset_validate(args, started):
    C = _load_space(args.path, args.trunc)
    C.validate()
    _emit(
        args,
        "cset validate",
        {"path": args.path},
        {"valid": True, "cells": list(C.sizes)},
        started,
    )


def cmd_cset_dot(args, started):
    C = _load_space(args.path, args.trunc)
    text = cset.dot_skeleton(C)
    if args.save:
        with open(args.save, "w") as handle:
            handle.write(text + "\n")
    _emit(args, "cset dot", {"path": args.path}, {"dot": text.splitlines()}, started)


def cmd_cat_classes(args, started):
    M = _load_monoid(args.monoid)
    classes, quotient = cat.conjugacy_classes(M)
    result = {
        "count": len(classes),
        "classes": [list(g) for g in classes],
        "cancellative": cat.is_cancellative(M),
    }
    if quotient is not None:
        result["quotient"] = {"size": quotient.size, "table": [list(r) for r in quotient.table]}
    _emit(args, "cat classes", {"monoid": args.monoid}, result, started)


def cmd_cat_nerve(args, started):
    S = _load_cat(args.cat)
    N = cat.nerve(S, args.trunc, budget=args.budget)
    _emit(
        args,
        "cat nerve",
        {"cat": args.cat, "trunc": args.trunc},
        {"cells": list(N.sizes), "census": list(N.census())},
        started,
    )


def cmd_t1(args, started):
    C = _load_space(args.path, args.trunc)
    P, edges = t1.fundamental_presentation(C)
    result = json.loads(t1.presentation_json(P, edges))
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(t1.presentation_dot(P) + "\n")
        result["dot"] = args.dot
    _emit(args, "t1 present", {"path": args.path}, result, started)


def cmd_inv_pi0(args, started):
    C = _load_space(args.space, args.trunc)
    r = inv.pi0(C)
    _emit(
        args,
        "inv pi0",
        {"space": args.space},
        {"count": r.count, "representatives": list(r.reps), "class_of": list(r.class_of)},
        started,
    )


def cmd_inv_h1(args, started):
    C = _load_space(args.space, args.trunc)
    M = _load_monoid(args.monoid)
    r = inv.h1(C, M, budget=args.budget, with_table=not args.no_table)
    result = {
        "class_count": r.count,
        "representatives": [list(w) for w in r.reps],
    }
    if r.table is not None:
        result["monoid_table"] = [list(row) for row in r.table]
        result["unit_class"] = r.unit
    _emit(args, "inv h1", {"space": args.space, "monoid": args.monoid}, result, started)


def cmd_inv_tau(args, started):
    C = _load_space(args.space, args.trunc if args.trunc else args.n + 1)
    r = inv.loop_classes(C, args.vertex, args.n, budget=args.budget)
    result = {"degree": r.degree, "class_count": r.count}
    if r.table is not None:
        result["monoid_table"] = [list(row) for row in r.table]
    _emit(
        args,
        "inv tau",
        {"space": args.space, "n": args.n, "vertex": args.vertex},
        result,
        started,
    )


def cmd_inv_homclasses(args, started):
    B = _load_space(args.b, args.trunc)
    S = _load_cat(args.s)
    r = inv.hom_classes(B, S, budget=args.budget)
    _emit(
        args,
        "inv homclasses",
        {"b": args.b, "s": args.s},
        {"class_count": r.count, "map_count": r.functor_count},
        started,
    )


def cmd_oracle(args, started):
    suites = {
        "cube": [1, 2],
        "lattice": [9],
        "homotopy": [7],
    }
    lines = []
    ok = acceptance.run(suites[args.suite], report=lines.append, timing=args.timing)
    _emit(
        args,
        "oracle check",
        {"suite": args.suite},
        {"ok": ok, "log": lines},
        started,
    )
    if not ok:
        raise SystemExit(1)


def cmd_verify(args, started):
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
    parser.add_argument(
        "--budget", type=int, default=None, help="enumeration budget override"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cube", help="cube-category morphisms")
    psub = p.add_subparsers(dest="sub", required=True)
    pe = psub.add_parser("enumerate")
    pe.add_argument("--dom", type=int, required=True)
    pe.add_argument("--cod", type=int, required=True)
    pe.add_argument("--class", dest="cls", choices=["epi", "mono", "iso"], default=None)
    pe.set_defaults(fn=cmd_cube)

    p = sub.add_parser("lattice", help="lattice checks and exports")
    psub = p.add_subparsers(dest="sub", required=True)
    pc = psub.add_parser("check")
    pc.add_argument("path")
    pc.add_argument("--dot", help="write the Hasse diagram here")
    pc.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("cset", help="cubical sets")
    psub = p.add_subparsers(dest="sub", required=True)
    pm = psub.add_parser("make")
    pm.add_argument("--shape", required=True)
    pm.add_argument("--trunc", type=int, default=3)
    pm.add_argument("--save", help="write the cubical set as JSON here")
    pm.set_defaults(fn=cmd_cset_make)
    ps = psub.add_parser("sd")
    ps.add_argument("path")
    ps.add_argument("--k", type=int, default=3, help="subdivision subscript (3 = threefold)")
    ps.add_argument("--trunc", type=int, default=None)
    ps.add_argument("--save")
    ps.set_defaults(fn=cmd_cset_sd)
    pv = psub.add_parser("validate")
    pv.add_argument("path")
    pv.add_argument("--trunc", type=int, default=None)
    pv.set_defaults(fn=cmd_cset_validate)
    pd = psub.add_parser("dot")
    pd.add_argument("path")
    pd.add_argument("--trunc", type=int, default=None)
    pd.add_argument("--save")
    pd.set_defaults(fn=cmd_cset_dot)

    p = sub.add_parser("cat", help="categories and monoids")
    psub = p.add_subparsers(dest="sub", required=True)
    pc = psub.add_parser("classes")
    pc.add_argument("--monoid", required=True)
    pc.set_defaults(fn=cmd_cat_classes)
    pn = psub.add_parser("nerve")
    pn.add_argument("--cat", required=True)
    pn.add_argument("--trunc", type=int, default=2)
    pn.set_defaults(fn=cmd_cat_nerve)

    p = sub.add_parser("t1", help="fundamental category presentations")
    p.add_argument("path")
    p.add_argument("--trunc", type=int, default=None)
    p.add_argument("--dot")
    p.set_defaults(fn=cmd_t1)

    p = sub.add_parser("inv", help="directed invariants")
    psub = p.add_subparsers(dest="sub", required=True)
    pp = psub.add_parser("pi0")
    pp.add_argument("space")
    pp.add_argument("--trunc", type=int, default=None)
    pp.set_defaults(fn=cmd_inv_pi0)
    ph = psub.add_parser("h1")
    ph.add_argument("--space", required=True)
    ph.add_argument("--monoid", required=True)
    ph.add_argument("--trunc", type=int, default=None)
    ph.add_argument("--no-table", action="store_true")
    ph.set_defaults(fn=cmd_inv_h1)
    pt = psub.add_parser("tau")
    pt.add_argument("--space", required=True)
    pt.add_argument("--n", type=int, default=1)
    pt.add_argument("--vertex", type=int, default=0)
    pt.add_argument("--trunc", type=int, default=None)
    pt.set_defaults(fn=cmd_inv_tau)
    pm = psub.add_parser("homclasses")
    pm.add_argument("--b", required=True)
    pm.add_argument("--s", required=True)
    pm.add_argument("--trunc", type=int, default=None)
    pm.set_defaults(fn=cmd_inv_homclasses)

    p = sub.add_parser("oracle", help="oracle agreement suites")
    psub = p.add_subparsers(dest="sub", required=True)
    pc = psub.add_parser("check")
    pc.add_argument("--suite", choices=["cube", "lattice", "homotopy"], required=True)
    pc.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", default="all", help="'all' or a criterion number")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        if args.budget is None:
            args.budget = default_budget()
        args.fn(args, started)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (cset.CsetError, lat.LatticeError, cat.CatError, cube.CubeError, t1.T1Error,
            inv.InvariantError, sd.SdError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
