"""Finite posets and lattices, Boolean intervals, edgewise subdivision.

Lattices are stored with full join/meet tables over canonical integer
element indices.  Constructors fix the index order (lexicographic on
element labels) so results are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .config import find_bijection, json_errors


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class Poset:
    size: int
    leq: tuple

    def __post_init__(self):
        n = self.size
        if len(self.leq) != n or any(len(row) != n for row in self.leq):
            raise LatticeError("leq table has wrong shape")
        for x in range(n):
            if not self.leq[x][x]:
                raise LatticeError(f"leq not reflexive at {x}")
        # up[x] has bit z set iff x <= z; a set bit of up[y] & ~up[x] with
        # x <= y is a witness z against transitivity
        up = [int("".join("01"[bool(b)] for b in reversed(row)), 2) for row in self.leq]
        for x, row in enumerate(self.leq):
            for y in itertools.compress(range(n), row):
                if x != y and self.leq[y][x]:
                    raise LatticeError(f"leq not antisymmetric at {x},{y}")
                bad = up[y] & ~up[x]
                if bad:
                    z = (bad & -bad).bit_length() - 1
                    raise LatticeError(f"leq not transitive at {x},{y},{z}")


@dataclass(frozen=True)
class FiniteLattice:
    poset: Poset
    join: tuple
    meet: tuple
    labels: tuple
    is_distributive: bool = field(compare=False)

    @property
    def size(self):
        return self.poset.size

    @cached_property
    def index(self):
        """Label -> element: the inverse of `labels`."""
        return {label: x for x, label in enumerate(self.labels)}

    def leq(self, x, y):
        return self.poset.leq[x][y]


def _check_distributive(join, down):
    """Birkhoff: x -> (the join-irreducibles below x) is injective and keeps
    meets, so the lattice is distributive exactly when it keeps joins too.
    x is join-irreducible when the elements strictly below it are one element's down-set."""
    principal = set(down)
    irreducible = sum(1 << x for x, d in enumerate(down) if d ^ (1 << x) in principal)
    return all(
        down[join[x][y]] & irreducible == (down[x] | down[y]) & irreducible
        for x, y in itertools.combinations(range(len(down)), 2)
    )


def lattice_from_leq(leq, labels=None):
    """Build a lattice from an order table; raises if lub/glb are missing."""
    leq = tuple(tuple(bool(v) for v in row) for row in leq)
    poset = Poset(len(leq), leq)
    n = poset.size
    if n == 0:
        raise LatticeError("empty lattice")
    # with up- and down-sets as bitmasks, the join of x and y is the element
    # whose up-set is up[x] & up[y], the meet the one whose down-set is down[x] & down[y]
    up = [sum(1 << z for z in range(n) if leq[x][z]) for x in range(n)]
    down = [sum(1 << z for z in range(n) if leq[z][x]) for x in range(n)]
    by_up, by_down = {u: x for x, u in enumerate(up)}, {d: x for x, d in enumerate(down)}
    join_rows, meet_rows = [], []
    for x in range(n):
        jrow, mrow = [], []
        for y in range(n):
            jrow.append(by_up.get(up[x] & up[y]))
            if jrow[-1] is None:
                raise LatticeError(f"no join for {x},{y}")
            mrow.append(by_down.get(down[x] & down[y]))
            if mrow[-1] is None:
                raise LatticeError(f"no meet for {x},{y}")
        join_rows.append(tuple(jrow))
        meet_rows.append(tuple(mrow))
    join, meet = tuple(join_rows), tuple(meet_rows)
    if labels is None:
        labels = tuple(range(n))
    return FiniteLattice(poset, join, meet, tuple(labels), _check_distributive(join, down))


def lattice_from_labels(labels, leq_fn):
    labels = tuple(sorted(labels))
    leq = [[leq_fn(a, b) for b in labels] for a in labels]
    return lattice_from_leq(leq, labels)


@lru_cache(maxsize=None)
def chain(k):
    """The ordinal [k] = {0 <= 1 <= ... <= k}."""
    return lattice_from_labels(range(k + 1), lambda a, b: a <= b)


def product(L, M):
    """Product lattice; elements are (L-index, M-index) pairs in lex order."""
    labels = [(i, j) for i in range(L.size) for j in range(M.size)]
    return lattice_from_labels(
        labels, lambda a, b: L.leq(a[0], b[0]) and M.leq(a[1], b[1])
    )


@lru_cache(maxsize=None)
def boolean(n):
    """[1]^n with elements the bit tuples in lex order."""
    if n < 0:
        raise LatticeError(f"dimension must be >= 0, got {n}")
    labels = list(itertools.product((0, 1), repeat=n))
    return lattice_from_labels(labels, lambda a, b: all(x <= y for x, y in zip(a, b)))


def m_lattice(num_atoms):
    """Bottom, `num_atoms` pairwise-incomparable atoms, top (M_3, M_4, ...)."""
    n = num_atoms + 2
    bot, top = 0, n - 1

    def leq(a, b):
        return a == b or a == bot or b == top

    return lattice_from_labels(range(n), leq)


def n5():
    """The pentagon: 0 < a < c < 1 and 0 < b < 1 with b incomparable to a, c."""
    # labels 0=bottom, 1=a, 2=c, 3=b, 4=top
    pairs = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)}

    def leq(a, b):
        return a == b or (a, b) in pairs

    return lattice_from_labels(range(5), leq)


def covers(L):
    """Cover relations (x, y) with y an immediate successor of x."""
    leq = L.poset.leq
    result = []
    for x in range(L.size):
        above = [y for y in range(L.size) if y != x and leq[x][y]]
        result.extend((x, y) for y in above if not any(z != y and leq[z][y] for z in above))
    return result


def interval_elements(L, lo, hi):
    if not (0 <= lo < L.size and 0 <= hi < L.size):
        raise LatticeError(f"element out of range: [{lo}, {hi}]")
    if not L.leq(lo, hi):
        raise LatticeError(f"not an interval: {lo} !<= {hi}")
    return tuple(z for z in range(L.size) if L.leq(lo, z) and L.leq(z, hi))


def interval_span(L, lo, hi):
    """The element at each vertex of [1]^k when [lo, hi] is Boolean of
    rank k, in `cube.points(k)` order; None when it is not Boolean.

    Coordinate t of a vertex says whether the t-th atom of [lo, hi] (an
    element covering lo), in index order, lies below the element, which is
    the join of lo and those atoms.  [lo, hi] is Boolean exactly when these
    2^k joins are distinct and fill it: distinct joins make S -> join(S) an
    order embedding of the sets of atoms (join(S) <= join(T) gives
    join(S | T) = join(T), so S is a subset of T), and filling makes it
    onto.  This is the one Boolean-interval test and the one
    coordinatization of a Boolean interval.  A cube map phi into [1]^k
    moves the span the way it moves vertices: span[v] for v in phi.vertices.
    """
    elems = interval_elements(L, lo, hi)
    atoms = [z for z in elems if sum(L.leq(w, z) for w in elems) == 2]
    if len(elems) != 1 << len(atoms):
        return None
    span = (lo,)
    for a in atoms:
        span = tuple(y for x in span for y in (x, L.join[x][a]))
    return span if len(set(span)) == len(elems) else None


def boolean_rank(L, lo, hi):
    """Rank k when [lo, hi] is isomorphic to [1]^k, else None."""
    span = interval_span(L, lo, hi)
    return None if span is None else len(span).bit_length() - 1


@dataclass(frozen=True)
class Interval:
    lattice: FiniteLattice
    lo: int
    hi: int
    elements: tuple
    rank: object  # int when Boolean, else None

    @staticmethod
    def of(L, lo, hi):
        span = interval_span(L, lo, hi)
        if span is None:
            return Interval(L, lo, hi, interval_elements(L, lo, hi), None)
        return Interval(L, lo, hi, tuple(sorted(span)), len(span).bit_length() - 1)


def boolean_intervals(L):
    """All Boolean intervals of L, singletons included, in index order.

    The atoms of a Boolean interval [lo, hi] cover lo and join to hi, so
    only the joins of sets of upper covers of lo are tested as hi.
    """
    tops = [{lo} for lo in range(L.size)]
    for lo, a in covers(L):
        tops[lo] |= {L.join[t][a] for t in tops[lo]}
    intervals = (Interval.of(L, lo, hi) for lo in range(L.size) for hi in sorted(tops[lo]))
    return [iv for iv in intervals if iv.rank is not None]


def subdivide_lattice(L, k):
    """The (k+1)-fold edgewise subdivision of a distributive lattice.

    Elements are the monotone functions [k] -> L whose image lies inside a
    Boolean interval, ordered pointwise; equivalently the tuples
    (t_0 <= ... <= t_k) with [t_0, t_k] Boolean.  Join and meet are
    pointwise.  k = 0 returns an isomorphic copy of L.
    """
    if k < 0:
        raise LatticeError("subdivision parameter must be >= 0")
    if not L.is_distributive:
        raise LatticeError("subdivision requires a distributive lattice")
    # every prefix of such a chain spans a Boolean interval too, so chains
    # grow one element at a time, each step ending in a Boolean [t_0, t_i]
    ends = [[] for _ in range(L.size)]
    for iv in boolean_intervals(L):
        ends[iv.lo].append(iv.hi)
    labels = [(t,) for t in range(L.size)]
    for _ in range(k):
        labels = [t + (e,) for t in labels for e in ends[t[0]] if L.leq(t[-1], e)]
    return lattice_from_labels(
        labels, lambda a, b: all(L.leq(x, y) for x, y in zip(a, b))
    )


def diamond_check(L, x, y):
    """Whether join-with-x and meet-with-y are mutually inverse bijections
    between [x/\\y, y] and [x, x\\/y]."""
    if not (0 <= x < L.size and 0 <= y < L.size):
        raise LatticeError("element out of range")
    lo = L.meet[x][y]
    hi = L.join[x][y]
    down = interval_elements(L, lo, y)
    up = interval_elements(L, x, hi)
    up_set, down_set = set(up), set(down)
    for z in down:
        if L.join[x][z] not in up_set:
            return False
        if L.meet[y][L.join[x][z]] != z:
            return False
    for z in up:
        if L.meet[y][z] not in down_set:
            return False
        if L.join[x][L.meet[y][z]] != z:
            return False
    return len(down) == len(up)


def is_modular(L):
    rng = range(L.size)
    for x in rng:
        for y in rng:
            for z in rng:
                lhs = L.join[L.meet[x][y]][L.meet[x][z]]
                rhs = L.meet[L.join[L.meet[x][y]][z]][x]
                if lhs != rhs:
                    return False
    return True


def distributivity_profile(L):
    """Three independently evaluated distributivity criteria.

    (1) the distributive identity; (2) each diamond of two immediate
    neighbours spans exactly a Boolean interval; (3) the smallest interval
    containing two Boolean intervals sharing a min or max is Boolean.
    They agree on every finite lattice; tests assert that on a catalog.
    """
    b1 = L.is_distributive

    b2 = True
    cover_list = covers(L)
    up = {}
    down = {}
    for x, y in cover_list:
        up.setdefault(x, []).append(y)
        down.setdefault(y, []).append(x)
    for neighbours in itertools.chain(up.values(), down.values()):
        for y, z in itertools.combinations(neighbours, 2):
            lo = L.meet[y][z]
            hi = L.join[y][z]
            span = interval_span(L, lo, hi)
            if span is None or set(span) != {lo, hi, y, z}:
                b2 = False
                break
        if not b2:
            break

    b3 = True
    intervals = boolean_intervals(L)
    for I in intervals:
        for J in intervals:
            if I.lo == J.lo or I.hi == J.hi:
                lo = L.meet[I.lo][J.lo]
                hi = L.join[I.hi][J.hi]
                if boolean_rank(L, lo, hi) is None:
                    b3 = False
                    break
        if not b3:
            break

    return b1, b2, b3


def boolean_interval_images(L, I, J):
    """Images of I x J under join and meet, as Boolean intervals.

    Raises if either image fails to be a Boolean interval; on distributive
    lattices that would falsify a structural fact and is treated as an
    internal error.
    """
    images = []
    for name, op, lo, hi in (
        ("join", L.join, L.join[I.lo][J.lo], L.join[I.hi][J.hi]),
        ("meet", L.meet, L.meet[I.lo][J.lo], L.meet[I.hi][J.hi]),
    ):
        iv = Interval.of(L, lo, hi)
        image = {op[x][y] for x in I.elements for y in J.elements}
        if iv.rank is None or image != set(iv.elements):
            raise LatticeError(f"internal: {name}-image of Boolean intervals not Boolean")
        images.append(iv)
    return tuple(images)


def lattice_isomorphic(L, M):
    """An order isomorphism L -> M as an index tuple, or None.

    Backtracking guided by up-degree/down-degree invariants; intended for
    the desk-scale lattices in the test catalogs.
    """

    def profile(K):
        return [
            (sum(K.leq(x, y) for y in range(K.size)), sum(K.leq(y, x) for y in range(K.size)))
            for x in range(K.size)
        ]

    def consistent(x, y, assign):
        return all(
            L.leq(x, x2) == M.leq(y, y2) and L.leq(x2, x) == M.leq(y2, y)
            for x2, y2 in assign.items()
        )

    return find_bijection(profile(L), profile(M), consistent)


def to_json(L):
    return json.dumps(
        {"size": L.size, "leq": [[bool(v) for v in row] for row in L.poset.leq]},
        sort_keys=True,
    )


def from_json(text):
    """Inverse of `to_json`; missing or malformed entries raise LatticeError."""
    with json_errors(LatticeError, "lattice"):
        data = json.loads(text)
        leq, size = [list(row) for row in data["leq"]], data["size"]
    if any(type(v) is not bool for row in leq for v in row):
        raise LatticeError("leq table entries must be true or false")
    if len(leq) != size:
        raise LatticeError("size field does not match leq table")
    return lattice_from_leq(leq)


def dot_hasse(L, name="lattice"):
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for x in range(L.size):
        lines.append(f'  n{x} [label="{L.labels[x]}"];')
    for x, y in covers(L):
        lines.append(f"  n{x} -> n{y};")
    lines.append("}")
    return "\n".join(lines)
