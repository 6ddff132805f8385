"""Core combinatorial objects: marked graphs, edge paths, graph maps.

Oriented edges are plain strings.  The reverse of edge ``a`` is written
``a'``, and reversing twice gives back ``a``, so an unoriented edge is
the pair ``{e, e'}`` and the reversal involution has no fixed points by
construction.  A *direction* at a vertex v is an oriented edge whose
initial vertex is v, so directions need no separate type.

Paths are tuples of oriented edge labels.  A path is *tight* when no
edge is immediately followed by its reverse.

``rev_edge`` and ``base_label`` are lookups in one module-level table
each, which computes the reverse (or the positive label) of a label on
its first lookup and stores it.  Every reversed letter of every image is
then the one string the table holds, so images share their label
objects, and the per-letter scans below (``rev_path``, ``is_tight``,
``MarkedGraph.is_path``, ``GraphMap.apply_path``) run in C builtins over
the tables' ``__getitem__``.  A table grows with the number of distinct
labels seen, not with the number of lookups.
"""

from __future__ import annotations

import math
from itertools import islice
from operator import eq

from .errors import InvalidGraphError, InvalidMapError

VOLUME_TOL = 1e-12


class _LabelTable(dict):
    """label -> f(label), computed on the first lookup and stored."""

    def __init__(self, f):
        super().__init__()
        self._f = f

    def __missing__(self, e):
        self[e] = value = self._f(e)
        return value


rev_edge = _LabelTable(lambda e: e[:-1] if e.endswith("'") else e + "'").__getitem__
# positive label of the pair containing e
base_label = _LabelTable(lambda e: e[:-1] if e.endswith("'") else e).__getitem__


def rev_path(path):
    return tuple(map(rev_edge, reversed(path)))


def is_tight(path) -> bool:
    return not any(map(eq, map(rev_edge, path), islice(path, 1, None)))


def check_incidence(at, term, subdivision_vertices):
    """Connectivity and valence checks of a graph given by the directions
    at each vertex and the terminal vertex of every oriented edge: a
    vertex needs three directions, or one or two when it is flagged."""
    seen = set()
    stack = [next(iter(at))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        for e in at[v]:
            stack.append(term[e])
    if len(seen) != len(at):
        raise InvalidGraphError("graph is not connected")
    for v in sorted(at):
        val = len(at[v])
        if not val or (val < 3 and v not in subdivision_vertices):
            raise InvalidGraphError(
                f"vertex {v} has valence {val} (needs >= 3, or a "
                f"subdivision flag for valence 2)")


class MarkedGraph:
    """Finite connected graph with oriented edge pairs and optional lengths.

    ``edge_ends`` maps each positive edge label to ``(init, term)``.
    Lengths, when present, are keyed by positive label and shared by the
    two orientations; they may be Fractions (exact input) or floats
    (spectral output).  Vertices of valence 1 or 2 are only allowed when
    listed in ``subdivision_vertices`` -- they arise transiently while
    folding.  ``normalized`` asserts that the volume is 1.
    """

    def __init__(self, edge_ends, lengths=None, subdivision_vertices=(),
                 normalized=False):
        if not edge_ends:
            raise InvalidGraphError("graph has no edges")
        self.edge_ends = dict(edge_ends)
        self.lengths = dict(lengths) if lengths is not None else None
        self.subdivision_vertices = frozenset(subdivision_vertices)
        self.normalized = bool(normalized)

        self.pairs = tuple(sorted(self.edge_ends))
        for lbl in self.pairs:
            if not lbl or "'" in lbl:
                raise InvalidGraphError(f"bad edge label {lbl!r}")
        self.oriented = tuple(sorted(
            [e for e in self.pairs] + [rev_edge(e) for e in self.pairs]))

        self._init = {}
        self._term = {}
        at = {}
        for e, (u, v) in self.edge_ends.items():
            self._init[e] = u
            self._term[e] = v
            self._init[rev_edge(e)] = v
            self._term[rev_edge(e)] = u
            at.setdefault(u, []).append(e)
            at.setdefault(v, []).append(rev_edge(e))
        self.vertices = frozenset(at)
        self._at = {v: tuple(sorted(ds)) for v, ds in at.items()}

        self._validate()

    def _validate(self):
        check_incidence(self._at, self._term, self.subdivision_vertices)
        # lengths
        if self.lengths is not None:
            if set(self.lengths) != set(self.pairs):
                raise InvalidGraphError("length table does not match edges")
            for lbl, x in self.lengths.items():
                if not x > 0:
                    raise InvalidGraphError(f"edge {lbl} has non-positive length")
                # a comparison, since math.isfinite overflows on huge Fractions
                if not x < math.inf:
                    raise InvalidGraphError(f"edge {lbl} has non-finite length")
            if self.normalized and abs(float(self.volume()) - 1.0) > VOLUME_TOL:
                raise InvalidGraphError(
                    f"volume {float(self.volume())} of a normalized graph is not 1")
        elif self.normalized:
            raise InvalidGraphError("normalized graph needs lengths")

    # -- basic queries ---------------------------------------------------

    def init_vertex(self, e):
        return self._init[e]

    def term_vertex(self, e):
        return self._term[e]

    def directions_at(self, v):
        return self._at[v]

    def valence(self, v):
        return len(self._at[v])

    def rank(self):
        """First Betti number: edges - vertices + 1."""
        return len(self.pairs) - len(self.vertices) + 1

    def length(self, e):
        if self.lengths is None:
            raise InvalidGraphError("graph carries no lengths")
        return self.lengths[base_label(e)]

    def volume(self):
        if self.lengths is None:
            raise InvalidGraphError("graph carries no lengths")
        return sum(self.lengths.values())

    def with_lengths(self, lengths, normalized=False):
        return MarkedGraph(self.edge_ends, lengths=lengths,
                           subdivision_vertices=self.subdivision_vertices,
                           normalized=normalized)

    def is_path(self, path) -> bool:
        """Edges exist and consecutive endpoints match."""
        return (all(map(self._init.__contains__, path))
                and all(map(eq, map(self._term.__getitem__, path),
                            map(self._init.__getitem__, islice(path, 1, None)))))

    def __eq__(self, other):
        if not isinstance(other, MarkedGraph):
            return NotImplemented
        return (self.edge_ends == other.edge_ends
                and self.lengths == other.lengths
                and self.subdivision_vertices == other.subdivision_vertices)

    def __hash__(self):
        return hash(tuple(sorted(self.edge_ends.items())))

    def __repr__(self):
        return (f"MarkedGraph({len(self.vertices)} vertices, "
                f"{len(self.pairs)} edge pairs, rank {self.rank()})")


def rose(labels, lengths=None, normalized=False):
    """Rose with one petal per label, based at the vertex v0."""
    subdiv = ("v0",) if len(labels) == 1 else ()
    return MarkedGraph({lbl: ("v0", "v0") for lbl in labels},
                       lengths=lengths, subdivision_vertices=subdiv,
                       normalized=normalized)


class DerivedStore:
    """Per-instance store of values derived from an immutable object.

    ``_derived(key, compute)`` runs ``compute(self)`` on the first call for
    ``key`` and returns the stored value afterwards, so every caller gets
    the same shared object and the store lives exactly as long as its
    owner.  A call that raises stores nothing, so it raises again on the
    next call.  Subclasses create ``self._store = {}`` when constructed.
    """

    def _derived(self, key, compute):
        if key not in self._store:
            # setdefault keeps the first value stored if two threads race
            self._store.setdefault(key, compute(self))
        return self._store[key]

    def __getstate__(self):
        # a copy or an unpickled object starts with an empty store
        return {**self.__dict__, "_store": {}}


class ReadOnlyDict(dict):
    """A dict that refuses changes, for mappings shared by every caller."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a shared result is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


class ReadOnlyAttributes:
    """Base of a result shared by every caller: its attributes refuse
    assignment and deletion, so ``__init__`` sets them in ``vars(self)``."""

    __setattr__ = __delattr__ = ReadOnlyDict._refuse


class GraphMap(DerivedStore):
    """Topological representative g: domain -> codomain.

    ``edge_images`` maps each positive edge of the domain to a nonempty
    tight path in the codomain; the image of a reversed edge is the
    reversed image, so reversal-equivariance holds by construction.
    A map never changes after construction, so the structures derived
    from it (direction map, gates, transition matrix, Nielsen search,
    rotationless power, ...) are computed once and stored on it.
    """

    def __init__(self, domain, codomain, vertex_map, edge_images):
        self._store = {}
        self.domain = domain
        self.codomain = codomain
        self.vertex_map = dict(vertex_map)
        self._images = {}
        for e in domain.pairs:
            if e not in edge_images:
                raise InvalidMapError(f"no image for edge {e}")
            img = tuple(edge_images[e])
            self._images[e] = img
            self._images[rev_edge(e)] = rev_path(img)
        self._validate()

    def _validate(self):
        if set(self.vertex_map) != self.domain.vertices:
            raise InvalidMapError("vertex map is not total on the domain")
        for v, w in self.vertex_map.items():
            if w not in self.codomain.vertices:
                raise InvalidMapError(f"vertex image {w} is not in the codomain")
        dom, cod, vmap = self.domain, self.codomain, self.vertex_map
        for e in dom.pairs:
            img = self._images[e]
            if not img:
                raise InvalidMapError(f"edge {e} has empty image")
            if not cod.is_path(img):
                raise InvalidMapError(f"image of {e} is not a path: {img}")
            if not is_tight(img):
                raise InvalidMapError(f"image of {e} is not tight: {img}")
            if (cod.init_vertex(img[0]), cod.term_vertex(img[-1])) != (
                    vmap[dom.init_vertex(e)], vmap[dom.term_vertex(e)]):
                raise InvalidMapError(f"image of {e} does not respect endpoints")

    def image(self, e):
        return self._images[e]

    def apply_path(self, path):
        """Tightened image of a path (the # operation).

        The input need not be tight.  Every stored image is tight, so
        letters cancel only where the output so far meets the next image:
        the longest prefix of the image that reverses the end of the
        output is cancelled, and the rest is appended whole.
        """
        out = []
        for e in path:
            if e not in self._images:
                raise InvalidMapError(f"edge {e} is not in the domain")
            img = self._images[e]
            c, n = 0, min(len(out), len(img))
            while c < n and out[-1 - c] == rev_edge(img[c]):
                c += 1
            if c:
                del out[-c:]
            out.extend(img[c:])
        return tuple(out)

    def is_self_map(self):
        return self.domain == self.codomain

    def edge_images(self):
        return {e: self._images[e] for e in self.domain.pairs}

    def __eq__(self, other):
        if not isinstance(other, GraphMap):
            return NotImplemented
        return (self.domain == other.domain
                and self.codomain == other.codomain
                and self.vertex_map == other.vertex_map
                and self.edge_images() == other.edge_images())

    def __repr__(self):
        rules = ", ".join(f"{e}->{''.join(self._images[e])}"
                          for e in self.domain.pairs)
        return f"GraphMap({rules})"


def compose(g: GraphMap, h: GraphMap) -> GraphMap:
    """The composite g . h (apply h first)."""
    if h.codomain != g.domain:
        raise InvalidMapError("codomain of the inner map must equal the "
                              "domain of the outer map")
    vmap = {v: g.vertex_map[h.vertex_map[v]] for v in h.domain.vertices}
    images = {e: g.apply_path(h.image(e)) for e in h.domain.pairs}
    return GraphMap(h.domain, g.codomain, vmap, images)


def power(g: GraphMap, k: int) -> GraphMap:
    if not g.is_self_map():
        raise InvalidMapError("powers need a self-map")
    if k < 1:
        raise InvalidMapError("power must be a positive integer")
    out = g
    for _ in range(k - 1):
        # g^j . g, so each step walks the short images of g and appends
        # the long images of g^j whole
        out = compose(out, g)
    return out


def rose_map(images):
    """Self-map of a rose given by words, e.g. {"a": "b", "c": ("a", "b")}.

    String values are split on whitespace when they contain spaces,
    otherwise read one letter at a time (primes attach to the letter).
    """
    parsed = {}
    for lbl, word in images.items():
        if isinstance(word, str):
            if " " in word:
                parsed[lbl] = tuple(word.split())
            else:
                toks = []
                for ch in word:
                    if ch == "'":
                        toks[-1] = toks[-1] + "'"
                    else:
                        toks.append(ch)
                parsed[lbl] = tuple(toks)
        else:
            parsed[lbl] = tuple(word)
    graph = rose(sorted(parsed))
    return GraphMap(graph, graph, {"v0": "v0"}, parsed)
