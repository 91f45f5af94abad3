"""Fundamental category presentations of cubical sets.

Objects are the vertices, generators the nondegenerate edges oriented
from the lower face to the upper face, and each nondegenerate square
contributes one commuting relation between its two boundary paths.  Path
words read left to right.  The index convention for the square relation
is pinned by `check_square_convention`: the presentation of the square
must present the poset square (checked through functor counts).
"""

from __future__ import annotations

import json

from . import cat, cset


class T1Error(ValueError):
    pass


def fundamental_presentation(C):
    """Presentation of the fundamental category; returns (P, edge_cells).

    edge_cells[g] is the 1-cell of C behind generator g.  The relation per
    nondegenerate square reads: lower-2 face then upper-1 face equals
    lower-1 face then upper-2 face; degenerate boundary edges are
    identities and are dropped from the words.  Built once per cubical set.
    """
    if C._presentation is not None:
        return C._presentation
    if C.trunc < 2:
        raise T1Error("fundamental presentation needs cells up to dimension 2")
    edges = list(C.nondegenerate(1))
    gen_index = {e: g for g, e in enumerate(edges)}
    gens = tuple(
        (C.faces[(1, 1, 0)][e], C.faces[(1, 1, 1)][e]) for e in edges
    )
    relations = set()
    for sq in C.nondegenerate(2):
        d = {
            (i, eps): C.faces[(2, i, eps)][sq] for i in (1, 2) for eps in (0, 1)
        }
        word1 = tuple(
            gen_index[e] for e in (d[(2, 0)], d[(1, 1)]) if e in gen_index
        )
        word2 = tuple(
            gen_index[e] for e in (d[(1, 0)], d[(2, 1)]) if e in gen_index
        )
        if word1 == word2:
            continue
        relations.add((word1, word2) if word1 <= word2 else (word2, word1))
    P = cat.CatPresentation(C.sizes[0], gens, tuple(sorted(relations)))
    P.validate()
    C._presentation = (P, tuple(edges))
    return C._presentation


def t1_functor_count(C, S, budget=None):
    P, _ = fundamental_presentation(C)
    return len(cat.enumerate_functors(P, S, budget))


def check_square_convention():
    """Oracle cross-check: the presented square must collapse to the poset square.

    Functors into the arrow poset are counted against direct enumeration
    of monotone vertex labelings.
    """
    square = cset.representable(2, 2)
    P, _ = fundamental_presentation(square)
    if P.n_obj != 4 or len(P.gens) != 4 or len(P.relations) != 1:
        raise T1Error("square presentation has unexpected shape")
    count = len(cat.enumerate_functors(P, cat.arrow_cat()))
    # monotone maps [1]^2 -> [1]
    from . import oracle, lattice as lat

    b2 = lat.boolean(2)
    b1 = lat.boolean(1)
    direct = len(oracle.all_monotone(b2.poset.leq, b1.poset.leq))
    if count != direct:
        raise T1Error(f"square convention broken: {count} functors vs {direct} monotone maps")
    return True


def presentation_json(P, edge_cells=None):
    data = {
        "objects": P.n_obj,
        "generators": [{"src": s, "tgt": t} for s, t in P.gens],
        "relations": [[list(w1), list(w2)] for w1, w2 in P.relations],
    }
    if edge_cells is not None:
        data["edge_cells"] = list(edge_cells)
    return json.dumps(data, sort_keys=True)


def presentation_dot(P, name="t1"):
    lines = [f"digraph {name} {{"]
    for o in range(P.n_obj):
        lines.append(f"  v{o};")
    for g, (s, t) in enumerate(P.gens):
        lines.append(f'  v{s} -> v{t} [label="g{g}"];')
    for w1, w2 in P.relations:
        lines.append(f"  // relation: {list(w1)} = {list(w2)}")
    lines.append("}")
    return "\n".join(lines)
