"""The symmetric monoidal cube category.

Objects are the Boolean lattices [1]^n, morphisms are generated by the
cofaces, the codegeneracies and the coordinate permutations.  Every
morphism has a unique normal form: a vector of output specs, one per
output coordinate, where each spec is a constant 0, a constant 1, or a
projection onto an input coordinate, with all projections distinct.
("Distinct" is what rules diagonals out.)  Equivalently the morphisms are
exactly the interval-preserving lattice homomorphisms between Boolean
lattices.

Such a map is fixed by where it sends the vertices of [1]^dom, and
`CubeMap.vertices` is that vertex table: the `points(cod)` index of the
image of each vertex, in `points(dom)` order.  It is the one way a cube
map moves vertex indices; the presheaf builders act on cells through it.
`from_vertices` is its inverse, and `from_function` decides the
characterization above by that read-off.  `peel` splits one elementary
factor off a map, which is how cubical sets act by any map.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .config import Budget

CONST0 = ("c", 0)
CONST1 = ("c", 1)


def proj(i):
    """Projection onto input coordinate i (1-based)."""
    return ("p", i)


def is_const(spec):
    return spec[0] == "c"


def is_proj(spec):
    return spec[0] == "p"


class CubeError(ValueError):
    pass


@lru_cache(maxsize=None)
def points(m):
    """All vertices of [1]^m in lexicographic order."""
    if m < 0:
        raise CubeError(f"dimension must be nonnegative, got {m}")
    return tuple(itertools.product((0, 1), repeat=m))


def point_index(p):
    idx = 0
    for bit in p:
        idx = 2 * idx + bit
    return idx


@dataclass(frozen=True, order=True)
class CubeMap:
    """Normal form of a cube-category morphism [1]^dom -> [1]^cod."""

    dom: int
    cod: int
    outputs: tuple

    def __post_init__(self):
        if self.dom < 0 or self.cod < 0 or len(self.outputs) != self.cod:
            raise CubeError("malformed cube map")
        used = set()
        for spec in self.outputs:
            if is_const(spec):
                if spec[1] not in (0, 1):
                    raise CubeError(f"bad constant {spec}")
            elif is_proj(spec):
                i = spec[1]
                if not 1 <= i <= self.dom:
                    raise CubeError(f"projection index {i} out of range")
                if i in used:
                    raise CubeError(f"repeated projection {i} (no diagonals)")
                used.add(i)
            else:
                raise CubeError(f"bad output spec {spec}")

    def __call__(self, x):
        if len(x) != self.dom:
            raise CubeError(f"expected {self.dom} coordinates, got {len(x)}")
        return tuple(
            spec[1] if is_const(spec) else x[spec[1] - 1] for spec in self.outputs
        )

    @cached_property
    def vertices(self):
        """The vertex table: the `points(cod)` index of phi(v) for each v
        in `points(dom)`."""
        return tuple(point_index(self(p)) for p in points(self.dom))

    def used_inputs(self):
        return {spec[1] for spec in self.outputs if is_proj(spec)}

    def is_identity(self):
        return self.dom == self.cod and self.outputs == tuple(
            proj(i) for i in range(1, self.dom + 1)
        )

    def table(self):
        return FunctionTable(
            self.dom, self.cod, tuple(self(x) for x in points(self.dom))
        )

    def text(self):
        parts = (str(spec[1]) if is_const(spec) else f"p{spec[1]}" for spec in self.outputs)
        return f"{self.dom}->{self.cod}: [{', '.join(parts)}]"


def identity(n):
    return CubeMap(n, n, tuple(proj(i) for i in range(1, n + 1)))


def compose(g, f):
    """The composite g o f for f: m -> n, g: n -> p."""
    if f.cod != g.dom:
        raise CubeError(f"cannot compose {g.text()} after {f.text()}")
    outputs = tuple(spec if is_const(spec) else f.outputs[spec[1] - 1] for spec in g.outputs)
    return CubeMap(f.dom, g.cod, outputs)


def tensor(f, g):
    """Monoidal product: acts as f on the first block, g on the second."""
    shifted = tuple(
        spec if is_const(spec) else proj(spec[1] + f.dom) for spec in g.outputs
    )
    return CubeMap(f.dom + g.dom, f.cod + g.cod, f.outputs + shifted)


def coface(sign, i, n):
    """delta_{sign,i}: [1]^(n-1) -> [1]^n inserting the constant at slot i."""
    if not 1 <= i <= n:
        raise CubeError("coface index out of range")
    outputs = [proj(j) for j in range(1, n)]
    outputs.insert(i - 1, ("c", sign))
    return CubeMap(n - 1, n, tuple(outputs))


def codegeneracy(i, n):
    """sigma_i: [1]^n -> [1]^(n-1) dropping input coordinate i."""
    if not 1 <= i <= n:
        raise CubeError("codegeneracy index out of range")
    outputs = [proj(j) for j in range(1, n + 1) if j != i]
    return CubeMap(n, n - 1, tuple(outputs))


def transposition(i, n):
    """tau_i: [1]^n -> [1]^n swapping coordinates i and i+1."""
    if not 1 <= i <= n - 1:
        raise CubeError("transposition index out of range")
    outputs = list(proj(j) for j in range(1, n + 1))
    outputs[i - 1], outputs[i] = outputs[i], outputs[i - 1]
    return CubeMap(n, n, tuple(outputs))


def classify(phi):
    """One of 'iso', 'epi', 'mono', 'neither'.

    iso: a coordinate permutation; epi: no constants (surjective); mono:
    every input projected (injective).  Agreement with surjectivity and
    injectivity of the evaluation table is asserted by the test suite.
    """
    no_consts = all(is_proj(spec) for spec in phi.outputs)
    all_used = len(phi.used_inputs()) == phi.dom
    if no_consts and all_used and phi.dom == phi.cod:
        return "iso"
    if no_consts:
        return "epi"
    if all_used:
        return "mono"
    return "neither"


def enumerate_maps(m, n, cls=None, budget=None):
    """All normal forms [1]^m -> [1]^n in lexicographic output order over
    (0, 1, p1, ..., pm), each output offered the projections not yet used.
    The budget is charged the hom-set size up front, the sum over k of the
    C(n, k) P(m, k) 2^(n - k) maps with k projections, taken no further
    than past the limit, so a charge that fails is never built in full."""
    if m < 0 or n < 0:
        raise CubeError(f"dimensions must be nonnegative, got {m} and {n}")
    if cls not in (None, "iso", "epi", "mono", "neither"):
        raise CubeError(f"unknown map class {cls!r}")
    b = Budget.of(budget)
    charge = 0
    for k in range(min(m, n) + 1):
        if charge > b.limit:
            break
        term = math.comb(n, k) * math.perm(m, k)
        for _ in range(n - k):
            if term > b.limit:
                break
            term *= 2
        charge += term
    b.spend(charge)
    # the one map into [1]^0 reads no spec, and m may be too large to list
    specs = (CONST0, CONST1, *map(proj, range(1, m + 1))) if n else ()
    rows = [()]
    for _ in range(n):
        rows = [row + (s,) for row in rows for s in specs if is_const(s) or s not in row]
    return [phi for phi in (CubeMap(m, n, row) for row in rows) if cls is None or classify(phi) == cls]


@lru_cache(maxsize=None)
def peel(phi):
    """One elementary factor g of phi: (g, rest, True) with phi == g o rest,
    g the coface of the first constant output or else the transposition at
    the first descent; otherwise (g, rest, False) with phi == rest o g, g
    the codegeneracy of the first unused input; None for an identity.  All
    within max(dom, cod); memoized, so each equation is checked once."""
    outs = phi.outputs
    first = lambda ks: next(ks, None)
    if (j := first(k for k, spec in enumerate(outs) if is_const(spec))) is not None:
        rest = CubeMap(phi.dom, phi.cod - 1, outs[:j] + outs[j + 1 :])
        step = coface(outs[j][1], j + 1, phi.cod), rest, True
    elif (j := first(k for k in range(phi.cod - 1) if outs[k][1] > outs[k + 1][1])) is not None:
        rest = CubeMap(phi.dom, phi.cod, outs[:j] + (outs[j + 1], outs[j]) + outs[j + 2 :])
        step = transposition(j + 1, phi.cod), rest, True
    elif phi.dom > phi.cod:
        i = min(set(range(1, phi.dom + 1)) - phi.used_inputs())
        rest = CubeMap(phi.dom - 1, phi.cod, tuple(proj(k - (k > i)) for _, k in outs))
        step = codegeneracy(i, phi.dom), rest, False
    else:
        return None
    g, rest, outer = step
    if (compose(g, rest) if outer else compose(rest, g)) != phi:
        raise CubeError(f"peeling does not recompose for {phi.text()}")
    return step


@dataclass(frozen=True)
class FunctionTable:
    """A raw function [1]^dom -> [1]^cod, values indexed by `points(dom)`."""

    dom: int
    cod: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != 2**self.dom:
            raise CubeError("table has wrong length")
        for v in self.values:
            if len(v) != self.cod or any(b not in (0, 1) for b in v):
                raise CubeError("table value out of range")


def from_vertices(dom, cod, vertices):
    """The cube map [1]^dom -> [1]^cod with this vertex table, or None.

    The inverse of `CubeMap.vertices`: each output coordinate is read off
    as a constant column or one input bit, and the map is returned only
    if its own vertex table reproduces `vertices`.
    """
    inputs = {column: proj(i) for i, column in enumerate(zip(*points(dom)), 1)}
    outputs = []
    for j in range(cod):
        column = tuple(w >> (cod - 1 - j) & 1 for w in vertices)
        # an input bit is popped once read, so no diagonal gets through
        spec = ("c", column[0]) if len(set(column)) == 1 else inputs.pop(column, None)
        if spec is None:
            return None
        outputs.append(spec)
    phi = CubeMap(dom, cod, tuple(outputs))
    return phi if phi.vertices == tuple(vertices) else None


def from_function(table, budget=None):
    """Decide whether a monotone table is a cube-category morphism.

    Returns (cube_map, None) when the table is an interval-preserving
    lattice homomorphism, in which case the map's evaluation reproduces
    the table exactly; otherwise (None, witness), where the witness names
    a violated join, meet or interval image by its `points` tuples.  The
    decision is `from_vertices`' read-off; the pairs of points are walked
    to check monotonicity and to name the witness of a rejected table, so
    the budget is charged their number, 4^dom, up front.  On vertex
    indices join, meet and order are `|`, `&` and bit inclusion.
    """
    Budget.of(budget).spend(len(table.values) ** 2)
    v = [point_index(w) for w in table.values]
    r = range(len(v))
    if any(v[x] & v[y] != v[x] for x in r for y in r if x & y == x):
        raise CubeError("table is not monotone")
    phi = from_vertices(table.dom, table.cod, v)
    if phi is not None:
        return phi, None
    pts = points(table.dom)
    for x in r:
        for y in r:
            if v[x | y] != v[x] | v[y]:
                return None, ("join", pts[x], pts[y])
            if v[x & y] != v[x] & v[y]:
                return None, ("meet", pts[x], pts[y])
    # A homomorphism preserves intervals exactly when every atom goes to
    # f(0) or to a cover of f(0); the first atom that does not is also the
    # first y whose [0, y] has too small an image.
    for a in (1 << k for k in range(table.dom)):
        raised = v[a] ^ v[0]
        if raised & (raised - 1):
            return None, ("interval", pts[0], pts[a])
    raise CubeError("internal: homomorphic table with no read-off")
