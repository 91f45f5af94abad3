"""The gluing engine that the library's builders used to share, kept as the
test-only reference that the all-cells and glued builders of the tests run
on: nodes glued by union-find, and the presheaf structure induced on the
classes through a callback over whole node lists."""

from dicube import cset


def colimit(trunc, dims, pairs, act):
    """Glue nodes into cells and induce the presheaf structure.

    Nodes are the integers 0 .. len(dims) - 1, node x of dimension
    dims[x]; `pairs` yields the node pairs to identify.  `act(phi, xs)`
    gets the list of every node of dimension phi.cod in increasing order
    and returns an iterable of the nodes that the cube map phi sends them
    to, in the same order; it is called once per generator table, whose
    entries are read off the (class, image class) pairs.  Every class must
    stay in one dimension and act must send all members of a class into a
    single class.  The classes of each dimension are numbered in the order
    of their least node, which is also their key.  Returns the cubical set,
    the class index of every node and the member nodes of every class.
    """
    uf = cset.UnionFind(range(len(dims)))
    for x, y in pairs:
        uf.union(x, y)
    # the root of a class is its least member, so it comes first here
    cls = [None] * len(dims)
    members = [[] for _ in range(trunc + 1)]
    nodes = [[] for _ in range(trunc + 1)]
    for x, n in enumerate(dims):
        root = uf.find(x)
        if dims[root] != n:
            raise cset.CsetError("internal: colimit class spans dimensions")
        nodes[n].append(x)
        if root == x:
            cls[x] = len(members[n])
            members[n].append([x])
        else:
            cls[x] = cls[root]
            members[n][cls[x]].append(x)

    def table(family, key, g):
        xs = nodes[g.cod]
        moved = {(cls[x], cls[y]) for x, y in zip(xs, act(g, xs))}
        if len(moved) != len(members[g.cod]):
            raise cset.CsetError("internal: colimit action not well defined")
        return tuple(map(dict(moved).__getitem__, range(len(moved))))

    keys = tuple(tuple(cl[0] for cl in level) for level in members)
    return cset._tabulate(trunc, tuple(map(len, keys)), table, keys=keys), cls, members
