"""Brute-force references that the tests check the library against.

The Nielsen oracle enumerates tight paths, pruned by free reduction
alone.  Take a path p of l edges with tightened image I, and let M be
the longest edge image.  An extension q of at most bound - l edges has
|g#(q)| <= (bound - l) M, and tightening I . g#(q) cancels at most that
many letters of I, so I[:m] with m = |I| - (bound - l) M is a prefix of
g#(p q).  A fixed p q equals its image, has at most `bound` edges and
starts with p, so no extension of p is fixed when m > bound, or when
m > 0 and I and p differ in their first min(m, l) edges.  No train track
theory enters, so the oracle stays independent of the search it checks.
It is still exponential in the bound, so tests call it at bounds of 12
or less.

The kernel oracles are the path helpers of the library written one
interpreted step per letter, with reverses computed afresh: reversal,
tightness, the path check, the tightened image of a path, the joined
image of a ray, the turns a path crosses, and the union-find fold of the
edge images that links every interior letter one at a time.  The recomposition of a fold sequence
composes its move maps, which reproduces the decomposed map.

The concatenation oracle lists the tight concatenations of given iNPs
in the library's order, but maps each whole path letter by letter
rather than joining two stored images at the junction.

The labeling oracle tries every vertex permutation of a marked graph, so
it finds every labeling that reaches a given encoding without the
refinement or the automorphism pruning of the library's search.  The
isometry oracle is networkx's multigraph isomorphism, with edge lengths
matched within a tolerance.
"""

import itertools

import networkx as nx
from networkx.algorithms.isomorphism import numerical_multiedge_match

from loneaxis.errors import (InternalCheckError, InvalidMapError,
                             NielsenPathPresentError, PreconditionError)
from loneaxis.graphs import base_label, compose
from loneaxis.nielsen import (_CONCAT_CAP, _canonical,
                              _require_rotationless_tt, find_nielsen_paths)


def rev_edge(e):
    return e[:-1] if e.endswith("'") else e + "'"


def rev_path(path):
    return tuple(rev_edge(e) for e in reversed(path))


def is_tight(path):
    return all(path[i + 1] != rev_edge(path[i]) for i in range(len(path) - 1))


def is_path(graph, path):
    """Edges exist and consecutive endpoints match."""
    for e in path:
        if e not in graph.oriented:
            return False
    return all(graph.term_vertex(path[i]) == graph.init_vertex(path[i + 1])
               for i in range(len(path) - 1))


def apply_path(g, path):
    """Tightened image of a path, letter by letter: each letter of each
    image cancels the last letter of the output or is appended."""
    out = []
    for e in path:
        if e not in g.domain.oriented:
            raise InvalidMapError(f"edge {e} is not in the domain")
        for x in g.image(e):
            if out and out[-1] == rev_edge(x):
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def concatenated_image(g, path):
    """The edge images of a path joined whole, letter by letter and
    untightened: for a legal ray, its image.  The Nielsen search reads
    tails of this image without building it."""
    out = []
    for e in path:
        for x in g.image(e):
            out.append(x)
    return tuple(out)


def turns_crossed(path):
    """Turns taken at the interior points of a path."""
    return [frozenset((rev_edge(path[i]), path[i + 1]))
            for i in range(len(path) - 1)]


def fold_edge_images(g):
    """Union-find Stallings fold of the edge images, in the format of
    `traintrack._fold_edge_images`, linking every letter through one call."""
    dom, cod = g.domain, g.codomain
    vertices = sorted(dom.vertices)
    index = {v: i for i, v in enumerate(vertices)}
    labels = [g.vertex_map[v] for v in vertices]
    out = [{} for _ in labels]
    pending = []

    def link(u, x, w):
        t = out[u].setdefault(x, w)
        if t != w:
            pending.append((t, w))

    for e in dom.pairs:
        img = g.image(e)
        u = index[dom.init_vertex(e)]
        for x in img[:-1]:
            w = len(labels)
            labels.append(cod.term_vertex(x))
            out.append({})
            link(u, x, w)
            link(w, rev_edge(x), u)
            u = w
        w = index[dom.term_vertex(e)]
        link(u, img[-1], w)
        link(w, rev_edge(img[-1]), u)

    parent = list(range(len(labels)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    while pending:
        a, b = pending.pop()
        a, b = find(a), find(b)
        if a == b:
            continue
        if labels[a] != labels[b]:
            raise InternalCheckError(
                f"fold merged nodes over codomain vertices {labels[a]} "
                f"and {labels[b]}")
        if len(out[a]) < len(out[b]):
            a, b = b, a
        parent[b] = a
        for x, t in out[b].items():
            s = out[a].setdefault(x, t)
            if s != t:
                pending.append((s, t))
        out[b] = None
    return labels, parent, out


def recompose(seq):
    """The composite of the move maps of a fold sequence, first move
    first: the map that was decomposed."""
    total = None
    for move in seq.moves:
        total = move.map if total is None else compose(move.map, total)
    return total


def tighten(path):
    """Reduce a path to its unique tight form (cancel every e e').

    Idempotent; the empty path is allowed and returned unchanged.
    """
    out = []
    for e in path:
        if out and out[-1] == rev_edge(e):
            out.pop()
        else:
            out.append(e)
    return tuple(out)


def brute_force_nielsen_paths(g, bound):
    """Independent oracle: every tight path of <= bound edges between
    fixed vertices that the tightened map fixes.

    A depth-first walk over tight paths, pruned by free reduction alone
    (module docstring): every extension of p keeps I[:m] in its image,
    I = g#(p), m = |I| - (bound - |p|) M, M the longest edge image, so
    p is cut when m > bound, or when m > 0 and I and p differ in their
    first min(m, |p|) edges.  Still exponential in the bound.  The walk
    codes an edge pair as 2i and 2i + 1, so reversal is x ^ 1.
    """
    if bound < 1:
        raise PreconditionError("bound must be a positive integer")
    _require_rotationless_tt(g)
    dom = g.domain
    labels = [x for e in dom.pairs for x in (e, rev_edge(e))]
    code = {e: i for i, e in enumerate(labels)}
    images = [tuple(code[x] for x in g.image(e)) for e in labels]
    longest = max(map(len, images))
    fixed = {v for v in dom.vertices if g.vertex_map[v] == v}
    closes = [dom.term_vertex(e) in fixed for e in labels]
    nexts = [[code[d] for d in dom.directions_at(dom.term_vertex(e))
              if d != rev_edge(e)] for e in labels]
    results = set()

    def visit(path, image):
        n, e = len(path), path[-1]
        m = len(image) - (bound - n) * longest
        k = min(m, n)
        if m > bound or (k > 0 and image[:k] != path[:k]):
            return  # no extension of path is fixed
        if closes[e] and image == path:
            results.add(_canonical(tuple(labels[x] for x in path)))
        if n == bound:
            return
        for d in nexts[e]:
            img, c = images[d], 0
            while c < min(len(image), len(img)) and image[-1 - c] == img[c] ^ 1:
                c += 1
            visit(path + (d,), image[:len(image) - c] + img[c:])

    for v0 in sorted(fixed):
        for e in dom.directions_at(v0):
            visit((code[e],), images[code[e]])
    return sorted(results)


def unpruned_nielsen_paths(g, bound):
    """Reference for the pruned oracle: enumerate every tight path of
    <= bound edges between fixed vertices and keep those fixed by the
    tightened map.  No pruning; exponential in the bound."""
    _require_rotationless_tt(g)
    dom = g.domain
    fixed_vertices = sorted(v for v in dom.vertices if g.vertex_map[v] == v)
    results = set()

    for v0 in fixed_vertices:
        path = []
        image = []
        undo = []  # (popped suffix, appended count) per depth

        def push(e):
            popped = []
            appended = 0
            for x in g.image(e):
                if image and image[-1] == rev_edge(x):
                    popped.append(image.pop())
                else:
                    image.append(x)
                    appended += 1
            undo.append((popped, appended))
            path.append(e)

        def pop():
            popped, appended = undo.pop()
            for _ in range(appended):
                image.pop()
            image.extend(reversed(popped))
            path.pop()

        def visit():
            tail = dom.term_vertex(path[-1])
            if g.vertex_map[tail] == tail and len(image) == len(path):
                if image == path:
                    results.add(_canonical(tuple(path)))
            if len(path) >= bound:
                return
            for e in dom.directions_at(tail):
                if e == rev_edge(path[-1]):
                    continue
                push(e)
                visit()
                pop()

        for e in dom.directions_at(v0):
            push(e)
            visit()
            pop()
    return sorted(results)


def checked_nielsen_paths(g, bound):
    """find_nielsen_paths(g, bound), after asserting that its paths of at
    most `bound` edges are exactly those the brute-force oracle finds."""
    report = find_nielsen_paths(g, bound)
    mine = {p.path for p in report.paths if len(p.path) <= bound}
    oracle = set(brute_force_nielsen_paths(g, bound))
    assert mine == oracle, (f"Nielsen searches disagree: iterative "
                            f"{sorted(mine)} vs brute force {sorted(oracle)}")
    return report


def concatenations(g, inps, max_len):
    """Reference for `nielsen._concatenations`: the same LIFO walk over
    tight concatenations of the iNPs and their reverses, each new one
    checked by mapping its whole path letter by letter, with the same
    cap and messages."""
    pieces = sorted({p for q in inps for p in (q, rev_path(q))})
    dom = g.domain
    out = set()
    frontier = [(p,) for p in pieces]
    while frontier:
        seq = frontier.pop()
        total = sum(len(p) for p in seq)
        for q in pieces:
            if total + len(q) > max_len:
                continue
            if dom.term_vertex(seq[-1][-1]) != dom.init_vertex(q[0]):
                continue
            if rev_edge(seq[-1][-1]) == q[0]:
                continue
            new_seq = seq + (q,)
            path = tuple(x for p in new_seq for x in p)
            key = _canonical(path)
            if key not in out:
                if apply_path(g, path) != path:
                    raise InternalCheckError(
                        "tight concatenation of Nielsen paths must be fixed")
                out.add(key)
                if len(out) > _CONCAT_CAP:
                    raise NielsenPathPresentError(
                        f"more than {_CONCAT_CAP} divisible Nielsen paths "
                        f"within {max_len} edges")
            frontier.append(new_seq)
    return sorted(out)


def brute_force_labelings(graph, encoding):
    """Every labeling of the vertices of a marked graph by 0..n-1, as a
    dict vertex -> label, under which its sorted edge ends spell
    `encoding`, the format of `canonical_encoding`."""
    verts = sorted(graph.vertices)
    ends = [(graph.init_vertex(lbl), graph.term_vertex(lbl)) for lbl in graph.pairs]
    found = []
    for perm in itertools.permutations(range(len(verts))):
        label = dict(zip(verts, perm))
        pairs = sorted(tuple(sorted((label[u], label[v]))) for u, v in ends)
        if f"v{len(verts)}:" + ",".join(f"{a}-{b}" for a, b in pairs) == encoding:
            found.append(label)
    return found


def brute_force_turn_encoding(graph, labelings, decorated_directions):
    """The least encoding of a decorated turn under the given labelings,
    in the format of `canonical_turn_encoding`."""
    best = min(tuple(sorted(((label[graph.init_vertex(d)],
                              label[graph.term_vertex(d)]), extra)
                            for d, extra in decorated_directions))
               for label in labelings)
    dirs = [d for d, _ in decorated_directions]
    same_pair = len(dirs) == 2 and base_label(dirs[0]) == base_label(dirs[1])
    return repr((best, same_pair))


def multigraph(graph):
    """A marked graph as a networkx multigraph, each edge carrying its
    length as a float when the graph has lengths."""
    m = nx.MultiGraph()
    m.add_nodes_from(graph.vertices)
    for lbl in graph.pairs:
        extra = {} if graph.lengths is None else {"length": float(graph.lengths[lbl])}
        m.add_edge(graph.init_vertex(lbl), graph.term_vertex(lbl), **extra)
    return m


def isometric(g1, g2, length_tol=None):
    """Whether networkx finds an isomorphism between the marked graphs;
    with a tolerance, one that also matches every edge length to within
    it."""
    match = (None if length_tol is None else
             numerical_multiedge_match("length", None, rtol=0, atol=length_tol))
    return nx.is_isomorphic(multigraph(g1), multigraph(g2), edge_match=match)
