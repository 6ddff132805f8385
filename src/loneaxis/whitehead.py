"""Local, stable, and ideal Whitehead graphs; index list; cut vertices.

The local graph at a vertex records which turns the attracting
lamination takes there; the stable graph is its quotient to gates
(each gate holds exactly one periodic direction); the ideal graph is
the disjoint union of the stable graphs over principal vertices, with
components of fewer than three vertices discarded.  The ideal graph
and the index need an NP-free rotationless representative, because
Nielsen paths would glue components together: both refuse a map that
`nielsen.np_verdict` does not certify NP-free.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (InternalCheckError, NielsenPathPresentError,
                     PreconditionError)
from .graphs import DerivedStore, GraphMap
from .isomorphism import canonical_form
from . import nielsen, traintrack

LOCAL = "local"
STABLE = "stable"
IDEAL = "ideal"


class WhiteheadGraph(DerivedStore):
    """Finite simple graph on direction or gate labels.

    A graph never changes after construction; its canonical form
    (``isomorphism.canonical_form``) is stored on it once computed.
    """

    def __init__(self, flavor, vertices, edges):
        self._store = {}
        self.flavor = flavor
        self.vertices = tuple(sorted(vertices))
        vset = set(self.vertices)
        norm = set()
        for edge in edges:
            pair = frozenset(edge)
            if len(pair) != 2 or not pair <= vset:
                raise PreconditionError(f"bad Whitehead edge {sorted(edge)}")
            norm.add(pair)
        self.edges = frozenset(norm)
        adj = {v: [] for v in self.vertices}
        for a, b in norm:
            adj[a].append(b)
            adj[b].append(a)
        self._adj = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
        if flavor == IDEAL:
            for comp in self.components():
                if len(comp) < 3:
                    raise PreconditionError(
                        "ideal Whitehead graph kept a component with < 3 vertices")

    def neighbors(self, v):
        return list(self._adj[v])

    def components(self):
        remaining = set(self.vertices)
        comps = []
        while remaining:
            start = min(remaining)
            comp = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for w in self._adj[v]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            remaining -= comp
            comps.append(frozenset(comp))
        return sorted(comps, key=sorted)

    def __repr__(self):
        return (f"WhiteheadGraph({self.flavor}, {len(self.vertices)} vertices, "
                f"{len(self.edges)} edges, {len(self.components())} components)")


def cut_vertices(w: WhiteheadGraph) -> frozenset:
    """Articulation points: vertices whose removal disconnects their
    component.  Iterative depth-first lowlink computation."""
    adj = w._adj
    disc, low, parent = {}, {}, {}
    result = set()
    counter = 0
    for root in w.vertices:
        if root in disc:
            continue
        root_children = 0
        stack = [(root, iter(adj[root]))]
        disc[root] = low[root] = counter
        counter += 1
        parent[root] = None
        while stack:
            v, it = stack[-1]
            advanced = False
            for u in it:
                if u not in disc:
                    parent[u] = v
                    if v == root:
                        root_children += 1
                    disc[u] = low[u] = counter
                    counter += 1
                    stack.append((u, iter(adj[u])))
                    advanced = True
                    break
                elif u != parent[v]:
                    low[v] = min(low[v], disc[u])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if p != root and low[v] >= disc[p]:
                        result.add(p)
        if root_children > 1:
            result.add(root)
    return frozenset(result)


def whitehead_isomorphic(w1: WhiteheadGraph, w2: WhiteheadGraph) -> bool:
    """Simple-graph isomorphism: vertex counts, edge counts and degree
    sequences first, then the canonical forms, which are computed once
    per graph by pruned individualization-refinement."""
    if len(w1.vertices) != len(w2.vertices) or len(w1.edges) != len(w2.edges):
        return False
    if (sorted(len(n) for n in w1._adj.values())
            != sorted(len(n) for n in w2._adj.values())):
        return False
    return canonical_form(w1) == canonical_form(w2)


def _gate_id(gate):
    return "{" + ",".join(gate) + "}"


def local_whitehead_graph(g: GraphMap, v) -> WhiteheadGraph:
    """Vertices are the directions at v; edges the taken turns there."""
    taken = traintrack.taken_turns(g)
    dirs = g.domain.directions_at(v)
    edges = {t for t in taken
             if all(g.domain.init_vertex(d) == v for d in t)}
    return WhiteheadGraph(LOCAL, dirs, edges)


def stable_whitehead_graph(g: GraphMap, v) -> WhiteheadGraph:
    """Gate quotient of the local graph at a periodic vertex.

    Needs a rotationless map so each gate carries exactly one periodic
    direction; turns inside a single gate are dropped as loops.
    """
    ps = traintrack.periodic_structure(g)
    if ps.rotationless_exponent != 1:
        raise PreconditionError("stable Whitehead graph needs rotationless input")
    if v not in ps.vertex_periods:
        raise PreconditionError(f"vertex {v} is not periodic")
    gs = traintrack.gates(g)
    local = local_whitehead_graph(g, v)
    vertices = {_gate_id(gate) for gate in gs.gates_at[v]}
    edges = set()
    for turn in local.edges:
        d1, d2 = sorted(turn)
        g1, g2 = gs.gate_of[d1], gs.gate_of[d2]
        if g1 != g2:
            edges.add(frozenset((_gate_id(g1), _gate_id(g2))))
    return WhiteheadGraph(STABLE, vertices, edges)


def _require_np_free(g, bound):
    free, reason, _ = nielsen.np_verdict(g, bound)
    if free is None:
        raise PreconditionError(reason)
    if not free:
        raise NielsenPathPresentError(reason)


def ideal_whitehead_graph(g: GraphMap,
                          bound: int = nielsen.DEFAULT_BOUND) -> WhiteheadGraph:
    """Disjoint union of stable graphs over principal vertices, keeping
    only components with at least three vertices.

    Valid for NP-free rotationless representatives: NPs raise
    NielsenPathPresentError, and a search at `bound` too short to certify
    their absence raises PreconditionError.  Stored on g once, whatever
    the bound, so every caller shares one graph and its canonical form."""
    _require_np_free(g, bound)
    return g._derived("ideal_whitehead_graph", _ideal_whitehead_graph)


def _ideal_whitehead_graph(g):
    ps = traintrack.periodic_structure(g)
    vertices = []
    edges = set()
    for v in ps.principal_vertices:
        sw = stable_whitehead_graph(g, v)
        vertices += [f"{v}:{u}" for u in sw.vertices]
        edges |= {frozenset(f"{v}:{u}" for u in e) for e in sw.edges}
    draft = WhiteheadGraph(STABLE, vertices, edges)
    keep = [comp for comp in draft.components() if len(comp) >= 3]
    kept_vertices = sorted(ver for comp in keep for ver in comp)
    kept_edges = {e for e in edges if all(any(x in comp for comp in keep)
                                          for x in e)}
    return WhiteheadGraph(IDEAL, kept_vertices, kept_edges)


class IndexReport:
    """Index list and rotationless index from gate counts.

    Entries are 1 - k/2 over principal vertices, listed by increasing
    absolute value; all are half-integers <= -1/2 and the sum lies in
    [1 - r, 0) for representatives of fully irreducible automorphisms.
    """

    def __init__(self, entries, gate_counts, rank, gi):
        self.entries = tuple(entries)
        self.index_sum = sum(self.entries, Fraction(0))
        self.gate_counts = dict(gate_counts)
        self.rank = int(rank)
        self.gi = gi

    def __repr__(self):
        ent = ", ".join(str(e) for e in self.entries)
        return f"IndexReport(({ent}), i={self.index_sum}, GI={self.gi})"


def index_entries_from_gate_counts(counts):
    entries = [1 - Fraction(k, 2) for k in counts]
    return tuple(sorted(entries, key=lambda e: (abs(e), e)))


def index_report(g: GraphMap, bound: int = nielsen.DEFAULT_BOUND) -> IndexReport:
    """Rotationless index data for an NP-free rotationless representative;
    refuses as `ideal_whitehead_graph` does.  An NP-free representative
    is ageometric, so its index sum must lie strictly above 1 - r, the
    value forced on geometric and parageometric automorphisms; a sum at
    or below it raises InternalCheckError."""
    _require_np_free(g, bound)
    ps = traintrack.periodic_structure(g)
    gs = traintrack.gates(g)
    counts = {v: gs.gate_count(v) for v in ps.principal_vertices}
    entries = index_entries_from_gate_counts(counts.values())
    gi = traintrack.gate_index_sum(g)
    report = IndexReport(entries, counts, g.domain.rank(), gi)
    if report.gi > report.index_sum:
        raise InternalCheckError(
            f"gate index {report.gi} exceeds rotationless index "
            f"{report.index_sum}")
    if report.index_sum <= 1 - report.rank:
        raise InternalCheckError(
            f"NP-free representative with index {report.index_sum} <= 1 - r; "
            f"ageometric characterization violated")
    return report


def to_dot(w: WhiteheadGraph, name=None) -> str:
    """DOT serialization; flavor and vertex labels preserved."""
    title = name or f"whitehead_{w.flavor}"
    lines = [f'graph "{title}" {{', f'  label="{w.flavor} Whitehead graph";']
    for v in w.vertices:
        lines.append(f'  "{v}";')
    for e in sorted(w.edges, key=sorted):
        a, b = sorted(e)
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
