"""Isomorphism and canonical labeling of marked graphs and Whitehead graphs.

Both kinds of graph go through one individualization-refinement engine
on vertices numbered in sorted-name order.  A vertex coloring is refined
by each vertex's loop count and the multiset of its neighbors' colors
until no class splits (a marked graph is a multigraph with loops; a
Whitehead graph is simple), and ties are broken by branching on every
member of the first class with more than one vertex.  Each leaf of the
search is a discrete coloring, a labeling of the vertices by 0..n-1, and
is encoded by the sorted end labels of the edges; two graphs are
isomorphic iff their least leaf encodings are equal.

A marked graph keeps every leaf of least encoding: the canonical turn
encoding is a minimum over all of them, and an isomorphism that respects
lengths may have to try each.  A Whitehead graph needs only the least
encoding, so its search prunes by automorphisms (McKay and Piperno,
*Practical graph isomorphism II*, 2014).  A leaf that encodes like the
first leaf gives an automorphism; when that automorphism carries the
first path onto the branch holding the leaf, the rest of the branch is
dropped, and a child in the orbit of a child already explored is
skipped.  A complete graph on n vertices then costs n leaves, not n!.
Desk-scale graphs only; the search is capped at ``_LEAF_CAP`` leaves.
"""

from __future__ import annotations

from collections import defaultdict

from .errors import InvalidGraphError
from .graphs import base_label, rev_edge

LENGTH_TOL = 1e-9
_LEAF_CAP = 20000


class GraphIsomorphism:
    """Vertex and oriented-edge bijections witnessing G1 == G2."""

    def __init__(self, g1, g2, vertex_map, edge_map):
        self.g1 = g1
        self.g2 = g2
        self.vertex_map = dict(vertex_map)
        self.edge_map = dict(edge_map)

    def check(self, respect_lengths=False, length_tol=LENGTH_TOL):
        """Verify all defining properties; used by tests."""
        if sorted(self.vertex_map) != sorted(self.g1.vertices):
            return False
        if sorted(self.vertex_map.values()) != sorted(self.g2.vertices):
            return False
        if sorted(self.edge_map) != sorted(self.g1.oriented):
            return False
        if sorted(self.edge_map.values()) != sorted(self.g2.oriented):
            return False
        for e, f in self.edge_map.items():
            if self.edge_map[rev_edge(e)] != rev_edge(f):
                return False
            if self.vertex_map[self.g1.init_vertex(e)] != self.g2.init_vertex(f):
                return False
            if self.vertex_map[self.g1.term_vertex(e)] != self.g2.term_vertex(f):
                return False
            if respect_lengths:
                if abs(float(self.g1.length(e)) - float(self.g2.length(f))) > length_tol:
                    return False
        return True


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


def _leaves(n, edges, prune=False):
    """Leaves of the individualization-refinement tree of the graph on
    vertices 0..n-1 with the given edge list, as (encoding, ranks) pairs.

    Without ``prune``, every leaf, depth first with children in vertex
    order.  With ``prune``, a subset that holds a leaf of least encoding.
    """
    loops, nbrs = _adjacency(n, edges)
    leaves = []        # (encoding, ranks, individualized vertices)
    automorphisms = []

    def automorphism(leaf):
        """Record the automorphism a leaf encoding like the first one
        gives; return the depth of the first-path node to resume at when
        it carries the first path onto this leaf's branch."""
        enc, ranks, path = leaf
        first_enc, first_ranks, first_path = leaves[0]
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
        if len(leaves) > _LEAF_CAP:
            raise InvalidGraphError("graph too symmetric for canonical labeling")
        colors = _refine(loops, nbrs, colors)
        cell = _target_cell(colors)
        if cell is None:
            leaves.append((_encode(edges, colors), colors, path))
            return automorphism(leaves[-1]) if prune and len(leaves) > 1 else None
        explored = []
        known = 0
        for v in cell:
            if prune and explored and len(automorphisms) > known:
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
    return [(enc, ranks) for enc, ranks, _ in leaves]


def _format(n, encoding):
    return f"v{n}:" + ",".join(f"{a}-{b}" for a, b in encoding)


def _min_leaves(graph):
    """Least encoding of a marked graph and every leaf that reaches it,
    as dicts vertex -> rank."""
    verts = sorted(graph.vertices)
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[graph.init_vertex(lbl)], index[graph.term_vertex(lbl)])
             for lbl in graph.pairs]
    leaves = _leaves(len(verts), edges)
    best = min(enc for enc, _ in leaves)
    return best, [dict(zip(verts, ranks)) for enc, ranks in leaves if enc == best]


def _pair_type(graph, rank, lbl):
    a = rank[graph.init_vertex(lbl)]
    b = rank[graph.term_vertex(lbl)]
    return (a, b) if a <= b else (b, a)


def canonical_encoding(graph) -> str:
    """Combinatorial isomorphism invariant of a marked graph, identical
    iff isomorphic."""
    best, _ = _min_leaves(graph)
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
    best = min(enc for enc, _ in _leaves(len(index), edges, prune=True))
    return _format(len(index), best)


def _match_edges(g1, r1, g2, r2, respect_lengths, length_tol):
    """Pair edge labels class by class; returns an oriented edge map or None."""
    by_type1 = defaultdict(list)
    by_type2 = defaultdict(list)
    for lbl in g1.pairs:
        by_type1[_pair_type(g1, r1, lbl)].append(lbl)
    for lbl in g2.pairs:
        by_type2[_pair_type(g2, r2, lbl)].append(lbl)
    if set(by_type1) != set(by_type2):
        return None

    def oriented_rep(g, rank, lbl, tp):
        # orientation of the pair whose (init, term) ranks equal tp
        if (rank[g.init_vertex(lbl)], rank[g.term_vertex(lbl)]) == tp:
            return lbl
        return rev_edge(lbl)

    emap = {}
    for tp, labels1 in by_type1.items():
        labels2 = by_type2[tp]
        if len(labels1) != len(labels2):
            return None
        if respect_lengths:
            labels1 = sorted(labels1, key=lambda l: (float(g1.lengths[l]), l))
            labels2 = sorted(labels2, key=lambda l: (float(g2.lengths[l]), l))
            for a, b in zip(labels1, labels2):
                if abs(float(g1.lengths[a]) - float(g2.lengths[b])) > length_tol:
                    return None
        else:
            labels1 = sorted(labels1)
            labels2 = sorted(labels2)
        for a, b in zip(labels1, labels2):
            ea = oriented_rep(g1, r1, a, tp)
            eb = oriented_rep(g2, r2, b, tp)
            emap[ea] = eb
            emap[rev_edge(ea)] = rev_edge(eb)
    return emap


def are_isomorphic(g1, g2, respect_lengths=False, length_tol=LENGTH_TOL):
    """An isomorphism g1 -> g2, or None.

    Deterministic: both graphs are canonically labeled and the least
    labelings aligned.  With ``respect_lengths`` the edge matching also
    requires lengths to agree within ``length_tol``.
    """
    if respect_lengths and (g1.lengths is None or g2.lengths is None):
        raise InvalidGraphError("length-respecting isomorphism needs lengths")
    if len(g1.vertices) != len(g2.vertices) or len(g1.pairs) != len(g2.pairs):
        return None
    enc1, leaves1 = _min_leaves(g1)
    enc2, leaves2 = _min_leaves(g2)
    if enc1 != enc2:
        return None
    r1 = leaves1[0]
    for r2 in leaves2:
        emap = _match_edges(g1, r1, g2, r2, respect_lengths, length_tol)
        if emap is None:
            continue
        inv_rank2 = {rank: v for v, rank in r2.items()}
        vmap = {v: inv_rank2[r1[v]] for v in g1.vertices}
        iso = GraphIsomorphism(g1, g2, vmap, emap)
        if iso.check(respect_lengths=respect_lengths, length_tol=length_tol):
            return iso
    return None


def canonical_turn_encoding(graph, decorated_directions, same_pair=None) -> str:
    """Canonical label of a decorated turn inside the graph.

    ``decorated_directions`` is a sequence of (direction, extra) pairs;
    the result is the minimum over all minimal canonical labelings, so
    it is invariant under graph isomorphism.
    """
    _, leaves = _min_leaves(graph)
    dirs = [d for d, _ in decorated_directions]
    if same_pair is None:
        same_pair = (len(dirs) == 2 and base_label(dirs[0]) == base_label(dirs[1]))
    best = None
    for rank in leaves:
        items = []
        for d, extra in decorated_directions:
            t = (rank[graph.init_vertex(d)], rank[graph.term_vertex(d)])
            items.append((t, extra))
        enc = (tuple(sorted(items)), bool(same_pair))
        if best is None or enc < best:
            best = enc
    return repr(best)
