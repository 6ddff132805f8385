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
"""

from loneaxis.errors import PreconditionError
from loneaxis.graphs import rev_edge
from loneaxis.nielsen import (_canonical, _require_rotationless_tt,
                              find_nielsen_paths)


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
