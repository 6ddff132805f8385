"""Canonical labeling of marked graphs and Whitehead graphs.

Both kinds of graph go through one individualization-refinement engine
on vertices numbered in sorted-name order.  A vertex coloring is refined
by each vertex's loop count and the multiset of its neighbors' colors
until no class splits (a marked graph is a multigraph with loops; a
Whitehead graph is simple), and ties are broken by branching on every
member of the first class with more than one vertex.  Each leaf of the
search is a discrete coloring, a labeling of the vertices by 0..n-1, and
is encoded by the sorted end labels of the edges; two graphs are
isomorphic iff their least leaf encodings are equal.

The search prunes by automorphisms (McKay and Piperno, *Practical graph
isomorphism II*, 2014).  A leaf that encodes like the first leaf gives
an automorphism; when that automorphism carries the first path onto the
branch holding the leaf, the rest of the branch is dropped, and a child
in the orbit of a child already explored is skipped.  A complete graph
on n vertices then costs n leaves, not n!.

A decorated turn of a marked graph is labeled by the least encoding of
its end vertices over every leaf of least encoding.  Each such leaf is
the one the search kept composed with an automorphism of the graph, and
the automorphisms the search finds generate the whole group, so the
minimum is taken over the orbit of the end vertices under the found
automorphisms, computed as their closure under those generators.
Desk-scale graphs only; the search is capped at ``_LEAF_CAP`` leaves.
"""

from __future__ import annotations

from .errors import InvalidGraphError
from .graphs import base_label

_LEAF_CAP = 20000


def _adjacency(n, edges):
    loops = [0] * n
    nbrs = [[] for _ in range(n)]
    for a, b in edges:
        if a == b:
            loops[a] += 1
        else:
            nbrs[a].append(b)
            nbrs[b].append(a)
    return loops, nbrs


def _refine(loops, nbrs, colors):
    """Equitable refinement; each new color is the rank of the vertex's
    (color, loops, neighbor colors) among the distinct such triples."""
    classes = len(set(colors))
    while True:
        sigs = [(colors[v], loops[v], tuple(sorted(map(colors.__getitem__, nbrs[v]))))
                for v in range(len(colors))]
        index = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [index[s] for s in sigs]
        # a triple starts with the old color, so classes only split; when
        # none split, the colors are already ranks and stay as they are
        if len(index) == classes:
            return colors
        classes = len(index)


def _target_cell(colors):
    """Members of the least color held by more than one vertex, or None.

    Refined colors are ranks, so they lie in 0..n-1."""
    counts = [0] * len(colors)
    for c in colors:
        counts[c] += 1
    for c, count in enumerate(counts):
        if count > 1:
            return [v for v, x in enumerate(colors) if x == c]
    return None


def _encode(edges, ranks):
    return tuple(sorted((ranks[a], ranks[b]) if ranks[a] <= ranks[b]
                        else (ranks[b], ranks[a]) for a, b in edges))


def _orbits(n, generators):
    """Orbit representative of each vertex under the generated group."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for gen in generators:
        for x, y in enumerate(gen):
            rx, ry = find(x), find(y)
            if rx != ry:
                root[max(rx, ry)] = min(rx, ry)
    return [find(x) for x in range(n)]


def _leaves(n, edges):
    """Search the individualization-refinement tree of the graph on
    vertices 0..n-1 with the given edge list.

    Returns the least leaf encoding, the ranks of one leaf that reaches
    it, and the automorphisms found, each a list vertex -> image.
    """
    loops, nbrs = _adjacency(n, edges)
    first = best = None    # (encoding, ranks, individualized vertices)
    count = 0
    automorphisms = []

    def automorphism(enc, ranks, path):
        """Record the automorphism a leaf encoding like the first one
        gives; return the depth of the first-path node to resume at when
        it carries the first path onto this leaf's branch."""
        first_enc, first_ranks, first_path = first
        if enc != first_enc:
            return None
        at_rank = [0] * n
        for v, r in enumerate(ranks):
            at_rank[r] = v
        gamma = [at_rank[r] for r in first_ranks]
        automorphisms.append(gamma)
        d = next(i for i, (u, v) in enumerate(zip(first_path, path)) if u != v)
        if gamma[first_path[d]] == path[d] and all(gamma[u] == u for u in path[:d]):
            return d
        return None

    def search(colors, path):
        nonlocal first, best, count
        if count > _LEAF_CAP:
            raise InvalidGraphError("graph too symmetric for canonical labeling")
        colors = _refine(loops, nbrs, colors)
        cell = _target_cell(colors)
        if cell is None:
            count += 1
            leaf = (_encode(edges, colors), colors, path)
            if first is None:
                first = best = leaf
                return None
            if leaf[0] < best[0]:
                best = leaf
            return automorphism(*leaf)
        explored = []
        known = 0
        for v in cell:
            if explored and len(automorphisms) > known:
                # automorphisms fixing the path map this node to itself and
                # a child's subtree onto the subtree of the child's image
                known = len(automorphisms)
                orbit = _orbits(n, [g for g in automorphisms
                                    if all(g[u] == u for u in path)])
            if known and orbit[v] in {orbit[u] for u in explored}:
                continue
            child = list(colors)
            child[v] = n
            resume = search(child, path + (v,))
            explored.append(v)
            if resume is not None and resume < len(path):
                return resume
        return None

    search([0] * n, ())
    return best[0], best[1], automorphisms


def _format(n, encoding):
    return f"v{n}:" + ",".join(f"{a}-{b}" for a, b in encoding)


def _search(graph):
    """Vertex numbering of a marked graph and its `_leaves` search."""
    verts = sorted(graph.vertices)
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[graph.init_vertex(lbl)], index[graph.term_vertex(lbl)])
             for lbl in graph.pairs]
    return index, _leaves(len(verts), edges)


def canonical_encoding(graph) -> str:
    """Combinatorial isomorphism invariant of a marked graph, identical
    iff isomorphic."""
    _, (best, _, _) = _search(graph)
    return _format(len(graph.vertices), best)


def canonical_form(w) -> str:
    """Canonical form of a Whitehead graph, equal iff the graphs are
    isomorphic as simple graphs; vertex names are forgotten.

    Computed once per graph and stored on it.
    """
    return w._derived("canonical_form", _canonical_form)


def _canonical_form(w):
    index = {v: i for i, v in enumerate(w.vertices)}
    edges = [tuple(index[v] for v in edge) for edge in w.edges]
    best, _, _ = _leaves(len(index), edges)
    return _format(len(index), best)


def _orbit(point, generators):
    """Orbit of a tuple of vertex pairs: its closure under the generators."""
    orbit = {point}
    frontier = [point] if generators else []
    while frontier:
        x = frontier.pop()
        for gamma in generators:
            y = tuple((gamma[a], gamma[b]) for a, b in x)
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def canonical_turn_encoding(graph, decorated_directions) -> str:
    """Canonical label of a decorated turn inside the graph.

    ``decorated_directions`` is a sequence of (direction, extra) pairs;
    the result is the minimum over all minimal canonical labelings, so
    it is invariant under graph isomorphism.
    """
    return canonical_encodings(graph, decorated_directions)[1]


def canonical_encodings(graph, decorated_directions):
    """``canonical_encoding(graph)`` and ``canonical_turn_encoding(graph,
    decorated_directions)``, from one labeling search."""
    index, (encoding, ranks, automorphisms) = _search(graph)
    dirs = [d for d, _ in decorated_directions]
    ends = tuple((index[graph.init_vertex(d)], index[graph.term_vertex(d)])
                 for d in dirs)
    best = min(tuple(sorted(((ranks[a], ranks[b]), extra) for (a, b), (_, extra)
                            in zip(x, decorated_directions)))
               for x in _orbit(ends, automorphisms))
    same_pair = len(dirs) == 2 and base_label(dirs[0]) == base_label(dirs[1])
    return _format(len(index), encoding), repr((best, same_pair))
