"""The acceptance suite: one callable per criterion, all tolerances exact.

Each criterion function returns a list of (label, passed, detail) triples;
`run` executes a selection and reports per-criterion lines.  The pytest
module and the CLI `verify` subcommand both drive these functions.
"""

from __future__ import annotations

import time

from . import cat, cset, cube, invariants as inv, lattice as lat, oracle, sd, spaces, t1


def _table_to_masks(phi):
    values = []
    for p in cube.points(phi.dom):
        mask = 0
        for j, bit in enumerate(phi(p)):
            mask |= bit << j
        values.append(mask)
    return tuple(values)


def criterion_1():
    """Normal forms, generator closure and interval-preserving lattice
    homomorphisms coincide for all dimensions up to three."""
    out = []
    expected = {(1, 1): 3, (2, 1): 4, (1, 2): 8, (2, 2): 14}
    for m in range(4):
        for n in range(4):
            normal = {_table_to_masks(phi) for phi in cube.enumerate_maps(m, n)}
            closure = oracle.generator_closure(m, n)
            homs = oracle.interval_hom_tables(m, n, budget=10**7)
            ok = normal == closure == homs
            detail = f"|box({m},{n})| = {len(normal)}"
            if (m, n) in expected:
                ok = ok and len(normal) == expected[(m, n)]
                detail += f" (pinned {expected[(m, n)]})"
            out.append((f"three-way agreement at ({m},{n})", ok, detail))
    # naive monotone-filter cross-check where the full scan is affordable
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3), (3, 3), (2, 4)]:
        tables = oracle.cube_monotone_tables(m, n, budget=10**7)
        filtered = {
            t
            for t in tables
            if oracle._table_is_hom(t, m, n) and oracle._table_preserves_intervals(t, m, n)
        }
        ok = filtered == oracle.interval_hom_tables(m, n, budget=10**7)
        out.append((f"naive filter agrees at ({m},{n})", ok, f"{len(filtered)} maps"))
    return out


def criterion_2():
    """Automorphism and surjection characterizations agree pairwise."""
    out = []
    for n in range(5):
        bijections = set(oracle.monotone_bijection_tables(n, budget=10**8))
        permutations = set()
        size = 1 << n
        import itertools as it

        for perm in it.permutations(range(n)):
            values = []
            for x in range(size):
                y = 0
                for j in range(n):
                    y |= ((x >> perm[j]) & 1) << j
                values.append(y)
            permutations.add(tuple(values))
        transp = oracle.transposition_closure(n)
        iso_forms = {
            _table_to_masks(phi)
            for phi in cube.enumerate_maps(n, n)
            if cube.classify(phi) == "iso"
        }
        hom_bij = {
            t for t in oracle.interval_hom_tables(n, n, budget=10**8)
            if len(set(t)) == size
        }
        interval_bij = {
            t
            for t in bijections
            if oracle._table_preserves_intervals(t, n, n)
        }
        sets = {
            "monotone bijections": bijections,
            "interval-preserving bijections": interval_bij,
            "lattice isomorphisms": hom_bij,
            "coordinate permutations": permutations,
            "transposition composites": transp,
            "normal-form isos": iso_forms,
        }
        names = list(sets)
        ok = all(sets[a] == sets[b] for a in names for b in names)
        out.append((f"six-way automorphism agreement at n={n}", ok, f"{len(bijections)} maps"))
    for m in range(4):
        for n in range(4):
            epis = {
                _table_to_masks(phi)
                for phi in cube.enumerate_maps(m, n)
                if cube.classify(phi) in ("epi", "iso")
            }
            surj_homs = {
                t
                for t in oracle.interval_hom_tables(m, n, budget=10**7)
                if set(t) == set(range(1 << n))
            }
            composites = oracle.epi_closure(m, n)
            ok = epis == surj_homs == composites
            out.append((f"surjection agreement at ({m},{n})", ok, f"{len(epis)} epis"))
    return out


def criterion_3():
    """Subdivided cubes are grids; subdivision composes; top cells count."""
    out = []
    for n in range(3):
        for k in range(4):
            sdL = lat.subdivide_lattice(lat.boolean(n), k)
            target = None  # [k+1]^n as an iterated product
            for _ in range(n):
                target = lat.product(target, lat.chain(k + 1)) if target else lat.chain(k + 1)
            if target is None:
                target = lat.chain(0)
            ok = lat.lattice_isomorphic(sdL, target) is not None
            out.append((f"sd_{k+1}[1]^{n} is a [{k + 1}]^{n} grid", ok, f"{sdL.size} elements"))
    ok = lat.lattice_isomorphic(lat.subdivide_lattice(lat.chain(2), 1), lat.chain(4)) is not None
    out.append(("twofold subdivision of the 3-chain is the 5-chain", ok, ""))
    for name, L in [("[1]", lat.boolean(1)), ("[2]", lat.chain(2)), ("[1]^2", lat.boolean(2))]:
        twice = lat.subdivide_lattice(lat.subdivide_lattice(L, 2), 2)
        nine = lat.subdivide_lattice(L, 8)
        ok = lat.lattice_isomorphic(twice, nine) is not None
        out.append((f"threefold twice equals ninefold on {name}", ok, f"{twice.size} elements"))
    for n in range(1, 3):
        for k in range(4):
            s = sd.subdivide(cset.representable(n, n), k)
            count = len(s.cset.orbits(n))
            ok = count == (k + 1) ** n
            out.append(
                (f"top cells of sd_{k+1} of the {n}-cube", ok, f"{count} = {(k + 1) ** n}")
            )
    return out


def _catalog():
    names = ("cube0", "cube1", "cube2", "circle", "torus", "klein", "sphere2")
    return {name: spaces.by_name(name) for name in names}


def criterion_4():
    """Collapse naturality, star containment, and local lifts."""
    out = []
    catalog = _catalog()
    subdivided = {name: sd.sd3(C) for name, C in catalog.items()}
    # naturality on generated cubical functions
    maps = []
    r1 = catalog["cube1"]
    r2 = catalog["cube2"]
    circ, proj_c = cset.quotient(r1, [((0, 0), (0, 1))])
    maps.append(("circle projection", r1, circ, proj_c))
    top = cset.rep_cell(r2, cube.identity(2))
    face = lambda i, eps: (1, r2.faces[(2, i, eps)][top])
    klein, proj_k = cset.quotient(r2, [(face(1, 1), face(2, 0)), (face(1, 0), face(2, 1))])
    maps.append(("klein projection", r2, klein, proj_k))
    tor, proj_t = cset.quotient(r2, [(face(1, 0), face(1, 1)), (face(2, 0), face(2, 1))])
    maps.append(("torus projection", r2, tor, proj_t))
    for i in (1, 2):
        for eps in (0, 1):
            phi = cube.coface(eps, i, 2)
            f = cset.CubicalFunction(
                r1, r2, tuple(
                    tuple(
                        r2.key_index(nn)[tuple(phi.vertices[b] for b in r1.keys[nn][x])]
                        for x in r1.cells(nn)
                    )
                    for nn in range(3)
                ),
            )
            maps.append((f"coface {eps},{i} inclusion", r1, r2, f))
    for label, dom, codm, f in maps:
        f.validate()
        sd_dom = sd.sd3(dom)
        sd_cod = sd.sd3(codm)
        sdf = sd_dom.induced(f, sd_cod)
        lhs = sd_cod.eps().compose_after(sdf)
        rhs = f.compose_after(sd_dom.eps())
        out.append((f"collapse naturality: {label}", lhs.maps == rhs.maps, ""))
    for name, C in catalog.items():
        s = subdivided[name]
        eps = s.eps()
        ok = True
        for v in s.cset.cells(0):
            star = cset.closed_star(s.cset, v)
            image = eps.image_of(star)
            if not image.issubset(s.supp_vertex(v)):
                ok = False
                break
        out.append((f"star collapse containment: {name}", ok, f"{s.cset.sizes[0]} vertices"))
    for name in ("cube1", "cube2", "circle", "torus", "klein", "sphere2"):
        d9 = sd.sd9(catalog[name])
        dims = {}
        ok = True
        try:
            for v in d9.cset.cells(0):
                star = cset.closed_star(d9.cset, v)
                lift = sd.local_lift(d9, star)
                dims[lift.dim] = dims.get(lift.dim, 0) + 1
        except sd.SdError as exc:
            ok = False
            dims = str(exc)
        out.append((f"local lifts over {name}", ok, f"dims {dims}"))
    return out


def criterion_5():
    """The headline calculations: torus, klein bottle, loop monoids."""
    out = []
    z4 = cat.zmod(4)
    r = inv.h1(spaces.torus(), z4)
    M = inv.h1_monoid(r)
    ok = r.count == 16 and cat.monoid_isomorphic(M, cat.product_monoid(z4, z4)) is not None
    out.append(("torus cohomology is the square of the coefficients", ok, f"{r.count} classes"))
    rk = inv.h1(spaces.klein(), z4)
    Mk = inv.h1_monoid(rk)
    ok = rk.count == 8 and cat.monoid_isomorphic(Mk, cat.equal_doubles_pairs(z4)) is not None
    out.append(("klein cohomology is the equal-doubles pullback", ok, f"{rk.count} classes"))
    for M_ in (cat.zmod(2), cat.zmod(3)):
        ner = cat.nerve(M_, 3)
        loop = inv.loop_monoid(ner, 0)
        ok = cat.monoid_isomorphic(loop, M_) is not None
        out.append((f"degree-1 loop monoid of a {M_.size}-element group nerve", ok, ""))
        res2 = inv.loop_classes(ner, 0, 2)
        out.append((f"degree-2 loop classes of the same nerve", res2.count == 1, f"{res2.count}"))
    return out


def criterion_6():
    """Loops up to homotopy are conjugacy classes of the target."""
    out = []
    circ = spaces.circle()
    for name, M, expected in [
        ("sym3", cat.sym3(), 3),
        ("zmod4", cat.zmod(4), 4),
        ("idempotent pair", cat.idempotent2(), 1),
    ]:
        classes, _ = cat.conjugacy_classes(M)
        hc = inv.hom_classes(circ, M)
        ok = len(classes) == expected == hc.count
        out.append((f"conjugacy bridge for {name}", ok, f"{hc.count} classes"))
    return out


def criterion_7():
    """Presentation route equals the exhaustive presheaf route."""
    out = []
    targets = {
        "arrow": cat.arrow_cat(),
        "discrete-2": cat.discrete_cat(2),
        "zmod2": cat.zmod(2),
        "zmod4": cat.zmod(4),
    }
    bases = {
        "point": spaces.point(),
        "edge": spaces.edge(),
        "edge boundary": spaces.edge_boundary(),
        "square": spaces.cube_space(2),
        "circle": spaces.circle(),
    }
    nerves = {name: cat.nerve(S, 2) for name, S in targets.items()}
    for bn, B in bases.items():
        for tn, S in targets.items():
            primary = inv.hom_classes(B, S, budget=10**8)
            orc = inv.hom_classes_presheaf_oracle(B, nerves[tn], budget=10**8)
            ok = primary.count == orc.count
            out.append(
                (f"{bn} into the {tn} nerve", ok, f"{primary.count} = {orc.count}")
            )
    return out


def criterion_8():
    """Cancellative coefficients: classes are plain functor counts; a
    non-cancellative coefficient strictly collapses somewhere."""
    out = []
    z4 = cat.zmod(4)
    for name in ("circle", "torus", "klein", "sphere2"):
        C = spaces.by_name(name)
        r = inv.h1(C, z4, with_table=False)
        ok = r.count == t1.t1_functor_count(C, z4)
        out.append((f"cancellative collapse on {name}", ok, f"{r.count} classes"))
    idem = cat.idempotent2()
    r = inv.h1(spaces.circle(), idem, with_table=False)
    count_functors = t1.t1_functor_count(spaces.circle(), idem)
    ok = r.count < count_functors
    out.append(
        ("strict collapse with an idempotent coefficient", ok, f"{r.count} < {count_functors}")
    )
    return out


def _lattice_catalog():
    catalog = {
        "[0]": lat.chain(0),
        "[1]": lat.chain(1),
        "[2]": lat.chain(2),
        "[3]": lat.chain(3),
        "[6]": lat.chain(6),
        "[1]^2": lat.boolean(2),
        "[1]^3": lat.boolean(3),
        "[1]x[2]": lat.product(lat.boolean(1), lat.chain(2)),
        "[1]x[3]": lat.product(lat.boolean(1), lat.chain(3)),
        "M3": lat.m_lattice(3),
        "M4": lat.m_lattice(4),
        "M6": lat.m_lattice(6),
        "N5": lat.n5(),
        "N5x[1]": lat.product(lat.n5(), lat.boolean(1)),
    }
    return catalog


def criterion_9():
    """Modular-lattice property suite on a catalog through size ten."""
    out = []
    catalog = _lattice_catalog()
    for name, L in catalog.items():
        b1, b2, b3 = lat.distributivity_profile(L)
        ok = b1 == b2 == b3
        out.append((f"profile criteria agree on {name}", ok, f"{(b1, b2, b3)}"))
        all_true = all(
            lat.diamond_check(L, x, y) for x in range(L.size) for y in range(L.size)
        )
        ok = all_true == lat.is_modular(L)
        out.append((f"diamond check matches modularity on {name}", ok, f"modular={lat.is_modular(L)}"))
        if L.is_distributive:
            intervals = lat.boolean_intervals(L)
            ok = True
            try:
                for I in intervals:
                    for J in intervals:
                        lat.boolean_interval_images(L, I, J)
            except lat.LatticeError:
                ok = False
            out.append((f"interval images stay Boolean on {name}", ok, f"{len(intervals)} intervals"))
        # isomorphism-search cross-check of Boolean-interval detection
        ok = True
        for lo in range(L.size):
            for hi in range(L.size):
                if not L.leq(lo, hi):
                    continue
                elems = lat.interval_elements(L, lo, hi)
                if len(elems) > 16:
                    continue
                rank = lat.boolean_rank(L, lo, hi)
                iso = oracle.is_boolean_by_isomorphism(L.poset.leq, elems, budget=10**7)
                if (rank is not None) != iso:
                    ok = False
        out.append((f"Boolean detection matches isomorphism search on {name}", ok, ""))
    return out


def criterion_10():
    """Invariants are unchanged under threefold subdivision."""
    out = []
    z2, z4 = cat.zmod(2), cat.zmod(4)
    idem = cat.idempotent2()
    z4_h1 = (z4, cat.product_monoid(z4, z4), cat.equal_doubles_pairs(z4), cat.trivial_monoid())
    for name, C in _catalog().items():
        s = sd.sd3(C)
        ok = inv.pi0(C).count == inv.pi0(s.cset).count
        out.append((f"components invariance: {name}", ok, f"{inv.pi0(C).count}"))
    for name, expected in zip(("circle", "torus", "klein", "sphere2"), z4_h1):
        C = spaces.by_name(name)
        s = sd.sd3(C)
        base = inv.h1(C, z2, budget=10**8, with_table=False).count
        subd = inv.h1(s.cset, z2, budget=10**8, with_table=False).count
        out.append((f"cohomology invariance: {name}", base == subd, f"{base} = {subd}"))
        base = inv.h1_monoid(inv.h1(C, z4))
        subd = inv.h1_monoid(inv.h1(s.cset, z4))
        ok = None not in (cat.monoid_isomorphic(base, expected), cat.monoid_isomorphic(subd, base))
        out.append((f"Z/4 class monoid invariance: {name}", ok, f"{subd.size} classes"))
        for tn, S in (("arrow", cat.arrow_cat()), ("zmod2", z2)):
            b = inv.hom_classes(C, S, budget=10**8).count
            s_ = inv.hom_classes(s.cset, S, budget=10**8).count
            out.append((f"map-class invariance: {name} into {tn}", b == s_, f"{b} = {s_}"))
    base = inv.h1(spaces.circle(), idem, with_table=False).count
    subd = inv.h1(sd.sd3(spaces.circle()).cset, idem, with_table=False).count
    out.append(("cohomology invariance: circle, idempotent coefficients", base == subd, f"{base} = {subd}"))
    for name in ("circle", "torus"):
        C = spaces.by_name(name)
        d9 = sd.sd9(C).cset
        base = inv.h1(C, z2, with_table=False).count
        subd = inv.h1(d9, z2, with_table=False).count
        out.append((f"cohomology invariance under sd9: {name}", base == subd, f"{base} = {subd}"))
    for k in (3, 4):  # d9 is sd9 of the torus; the class monoid is (Z/k)^2
        subd = inv.h1_monoid(inv.h1(d9, cat.zmod(k)))
        ok = cat.monoid_isomorphic(subd, cat.product_monoid(cat.zmod(k), cat.zmod(k))) is not None
        out.append((f"Z/{k} class monoid under sd9: torus", ok, f"{subd.size} classes"))
    return out


CRITERIA = {
    1: ("cube category characterization", criterion_1),
    2: ("automorphism and surjection characterizations", criterion_2),
    3: ("subdivision grids and composition", criterion_3),
    4: ("collapse, stars and local lifts", criterion_4),
    5: ("headline cohomology and loop calculations", criterion_5),
    6: ("conjugacy classes of loops", criterion_6),
    7: ("presheaf-oracle agreement", criterion_7),
    8: ("cancellative collapse", criterion_8),
    9: ("modular lattice property suite", criterion_9),
    10: ("subdivision invariance", criterion_10),
}


def run(selection=None, report=print, timing=True):
    """Run criteria (all by default); returns True when everything passed.

    Each criterion's line names its seconds only when `timing` is set.
    """
    selection = sorted(CRITERIA) if selection is None else sorted(selection)
    all_ok = True
    for num in selection:
        title, fn = CRITERIA[num]
        start = time.monotonic()
        results = fn()
        elapsed = time.monotonic() - start
        ok = all(passed for _, passed, _ in results)
        all_ok = all_ok and ok
        status = "PASS" if ok else "FAIL"
        seconds = f", {elapsed:.1f}s" if timing else ""
        report(f"criterion {num:2d} [{status}] {title} ({len(results)} checks{seconds})")
        for label, passed, detail in results:
            if not passed:
                report(f"  FAILED: {label} {detail}")
    return all_ok
