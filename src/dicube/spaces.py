"""Built-in spaces, constructed programmatically and cached per truncation."""

from __future__ import annotations

from functools import lru_cache

from . import cset, cube


def cube_space(n, trunc=None):
    return cset.representable(n, max(n, 2) if trunc is None else trunc)


@lru_cache(maxsize=None)
def circle(trunc=2):
    """Directed circle: one vertex, one directed edge."""
    r1 = cset.representable(1, trunc)
    C, _ = cset.quotient(r1, [((0, 0), (0, 1))])
    return C


@lru_cache(maxsize=None)
def torus(trunc=2):
    """Tensor square of the directed circle."""
    return cset.tensor(circle(trunc), circle(trunc)).cset


@lru_cache(maxsize=None)
def torus_by_quotient(trunc=2):
    """The torus glued from one square: opposite faces identified in parallel."""
    r2 = cset.representable(2, trunc)
    top = cset.rep_cell(r2, cube.identity(2))

    def face(i, eps):
        return (1, r2.faces[(2, i, eps)][top])

    C, _ = cset.quotient(r2, [(face(1, 0), face(1, 1)), (face(2, 0), face(2, 1))])
    return C


@lru_cache(maxsize=None)
def klein(trunc=2):
    """One square with each face of one axis glued to the opposite face of
    the other axis."""
    r2 = cset.representable(2, trunc)
    top = cset.rep_cell(r2, cube.identity(2))

    def face(i, eps):
        return (1, r2.faces[(2, i, eps)][top])

    C, _ = cset.quotient(r2, [(face(1, 1), face(2, 0)), (face(1, 0), face(2, 1))])
    return C


@lru_cache(maxsize=None)
def sphere2(trunc=2):
    """The square with its whole boundary collapsed to a point."""
    r2, bd = cset.boundary(2, trunc)
    pairs = []
    for n in range(trunc + 1):
        cells = sorted(bd.sel[n])
        for a, b in zip(cells, cells[1:]):
            pairs.append(((n, a), (n, b)))
    C, _ = cset.quotient(r2, pairs)
    return C


@lru_cache(maxsize=None)
def edge(trunc=2):
    return cset.representable(1, trunc)


@lru_cache(maxsize=None)
def point(trunc=2):
    return cset.representable(0, trunc)


@lru_cache(maxsize=None)
def edge_boundary(trunc=2):
    """Two disjoint points, as a standalone cubical set."""
    _, bd = cset.boundary(1, trunc)
    C, _ = cset.sub_to_cset(bd)
    return C


def by_name(name, trunc=None, budget=None):
    """Look up a built-in space; `nerve:<monoid>` builds a nerve, charging
    `budget` for its functor enumeration."""
    if name.startswith("nerve:"):
        from .cat import nerve, monoid_by_name

        return nerve(monoid_by_name(name.split(":", 1)[1]), 3 if trunc is None else trunc, budget)
    t = 2 if trunc is None else trunc
    builders = {
        "cube0": lambda: cube_space(0, trunc),
        "cube1": lambda: cube_space(1, trunc),
        "cube2": lambda: cube_space(2, trunc),
        "cube3": lambda: cube_space(3, trunc),
        "point": lambda: point(t),
        "edge": lambda: edge(t),
        "edge_boundary": lambda: edge_boundary(t),
        "circle": lambda: circle(t),
        "torus": lambda: torus(t),
        "klein": lambda: klein(t),
        "sphere2": lambda: sphere2(t),
    }
    if name not in builders:
        raise cset.CsetError(f"unknown space {name!r} (have {', '.join(builders)})")
    return builders[name]()
