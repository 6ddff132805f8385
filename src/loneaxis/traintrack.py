"""Direction maps, gates, train track verification, periodicity, turns.

A turn is an unordered pair of distinct directions at a common vertex,
stored as a frozenset of oriented edge labels.  A turn is illegal when
its two directions are eventually identified by the direction map; the
equivalence classes of that identification at each vertex are the
gates.

Every structure here depends on the map alone, so it is computed once,
stored on the map, and shared by every caller; its mappings are
read-only.

Bounded cancellation (Cooper 1987), which every search rests on, holds
for homotopy equivalences, so the rotationless power first folds the
edge images in one pass with union-find: the map is an automorphism iff
the folded graph is the codomain and the rank does not drop (Stallings
1983).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, islice

from .errors import InternalCheckError, PreconditionError
from .graphs import GraphMap, ReadOnlyDict, power, rev_edge
from . import spectral


def direction_map(g: GraphMap):
    """Dg: each direction goes to the initial direction of its image, as a
    read-only mapping stored on g."""
    return g._derived("direction_map", _direction_map)


def _direction_map(g):
    return ReadOnlyDict({e: g.image(e)[0] for e in g.domain.oriented})


def turns_crossed(path):
    """Turns taken at the interior points of a path."""
    return list(map(frozenset, _turn_pairs(path)))


def _turn_pairs(path):
    """(reversed incoming, outgoing) direction at each interior point."""
    return zip(map(rev_edge, path), islice(path, 1, None))


class GateStructure:
    """Per-vertex partition of directions into gates, with the illegal turns.

    Two directions at a vertex share a gate exactly when some iterate of
    the direction map identifies them.  With N directions, Dg^N(d) is
    periodic, and Dg permutes the periodic directions, so no later iterate
    identifies more: gates are the classes of (Dg^N(d), init vertex of d).
    """

    def __init__(self, graph, dmap, gate_of):
        self.graph = graph
        self.direction_map = dmap
        # direction -> gate (sorted tuple of directions)
        self.gate_of = ReadOnlyDict(gate_of)
        self.gates_at = ReadOnlyDict({
            v: tuple(sorted({gate_of[d] for d in graph.directions_at(v)}))
            for v in graph.vertices
        })
        illegal = set()
        for v, gates in self.gates_at.items():
            for gate in gates:
                for i in range(len(gate)):
                    for j in range(i + 1, len(gate)):
                        illegal.add(frozenset((gate[i], gate[j])))
        self.illegal_turns = tuple(sorted(illegal, key=sorted))

    def gate_count(self, v) -> int:
        return len(self.gates_at[v])

    def is_illegal(self, turn) -> bool:
        a, b = tuple(turn) if len(turn) == 2 else (next(iter(turn)),) * 2
        return self.gate_of[a] == self.gate_of[b]

    def is_legal(self, turn) -> bool:
        return not self.is_illegal(turn)


def gates(g: GraphMap) -> GateStructure:
    """Gate structure of a self-map, stored on g."""
    return g._derived("gates", _gates)


def _gates(g):
    if not g.is_self_map():
        raise PreconditionError("gates need a self-map")
    dmap = direction_map(g)
    dirs = g.domain.oriented
    classes = {}
    for d in dirs:
        x = d
        for _ in dirs:
            x = dmap[x]
        classes.setdefault((x, g.domain.init_vertex(d)), []).append(d)
    gate_of = {}
    for ds in classes.values():
        gate = tuple(sorted(ds))
        for d in ds:
            gate_of[d] = gate
    return GateStructure(g.domain, dmap, gate_of)


class TrainTrackVerdict:
    def __init__(self, ok, witness=None):
        self.ok = bool(ok)
        self.witness = witness  # (edge, turn) for the first illegal crossing

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "yes" if self.ok else f"no (edge {self.witness[0]} crosses {sorted(self.witness[1])})"


def is_train_track(g: GraphMap) -> TrainTrackVerdict:
    """Every edge image is nonempty, tight, and crosses only legal turns.

    Equivalent to all iterates being locally injective on edge
    interiors, since an illegal crossing folds under some iterate.
    Stored on g.
    """
    return g._derived("is_train_track", _is_train_track)


def _is_train_track(g):
    gs = gates(g)
    for e in g.domain.pairs:
        img = g.image(e)
        # each distinct pair of consecutive edges once, in order of first
        # occurrence, so the first illegal one is the first crossed
        for x, y in dict.fromkeys(zip(img, img[1:])):
            turn = frozenset((rev_edge(x), y))
            if len(turn) == 1 or gs.is_illegal(turn):
                return TrainTrackVerdict(False, (e, turn))
    return TrainTrackVerdict(True)


def require_train_track(g: GraphMap):
    """Raise PreconditionError unless g is a train track map."""
    verdict = is_train_track(g)
    if not verdict:
        raise PreconditionError(f"not a train track map: {verdict}")


def _orbit_period(start, step):
    """Period of `start` in the functional graph of `step`, or None."""
    seen = {start: 0}
    x = start
    i = 0
    while True:
        x = step(x)
        i += 1
        if x == start:
            return i
        if x in seen:
            return None  # start is preperiodic, not on the cycle
        seen[x] = i


class PeriodicStructure:
    def __init__(self, vertex_periods, direction_periods, principal_vertices,
                 rotationless_exponent):
        self.vertex_periods = ReadOnlyDict(vertex_periods)
        self.direction_periods = ReadOnlyDict(direction_periods)
        self.principal_vertices = tuple(principal_vertices)
        self.rotationless_exponent = int(rotationless_exponent)

    def __repr__(self):
        return (f"PeriodicStructure(principal={self.principal_vertices}, "
                f"exponent={self.rotationless_exponent})")


def periodic_structure(g: GraphMap) -> PeriodicStructure:
    """Periodic vertices and directions with exact periods.

    Principal vertices are reported as the periodic vertices with at
    least three gates; that list is complete for NP-free
    representatives, which the caller certifies.  The rotationless
    exponent is the lcm of the periods of all periodic vertices and of
    all periodic directions, so the corresponding power fixes every
    periodic point and direction (safe even if an NP endpoint later
    turns out to be principal).  Stored on g.
    """
    return g._derived("periodic_structure", _periodic_structure)


def _periodic_structure(g):
    require_train_track(g)
    gs = gates(g)
    dmap = gs.direction_map

    vertex_periods = {}
    for v in sorted(g.domain.vertices):
        p = _orbit_period(v, lambda x: g.vertex_map[x])
        if p is not None:
            vertex_periods[v] = p
    direction_periods = {}
    for d in g.domain.oriented:
        p = _orbit_period(d, lambda x: dmap[x])
        if p is not None:
            direction_periods[d] = p

    principal = tuple(sorted(
        v for v in vertex_periods if gs.gate_count(v) >= 3))
    exponent = 1
    for p in vertex_periods.values():
        exponent = math.lcm(exponent, p)
    for p in direction_periods.values():
        exponent = math.lcm(exponent, p)
    return PeriodicStructure(vertex_periods, direction_periods, principal,
                             exponent)


def _fold_edge_images(g: GraphMap):
    """Stallings fold of the domain subdivided at every interior letter of
    the edge images, with union-find (Kapovich-Myasnikov 2002).

    Node i is a domain vertex or a point between two consecutive letters
    of an edge image, and ``labels[i]`` is the codomain vertex it maps
    to; consecutive nodes are linked by their letter, both ways.  Two
    links that leave one class by the same letter queue a merge of their
    targets, and a merge folds the smaller out-table into the larger.
    Returns the labels, the union-find parents, and per root the map from
    a letter to a node of the class it leads to.
    """
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
        u, w = index[dom.init_vertex(e)], index[dom.term_vertex(e)]
        # the n - 1 interior nodes b..b+n-2 are built in bulk: each has the
        # two links of a tight image, which never collide
        n, b = len(img), len(labels)
        link(u, img[0], b if n > 1 else w)
        link(w, rev_edge(img[-1]), b + n - 2 if n > 1 else u)
        labels.extend(map(cod._term.__getitem__, islice(img, n - 1)))
        out.extend(map(dict, zip(
            zip(map(rev_edge, islice(img, n - 1)), chain((u,), range(b, b + n - 2))),
            zip(islice(img, 1, None), chain(range(b + 1, b + n - 1), (w,))))))

    parent = list(range(len(labels)))
    while pending:
        a, b = pending.pop()
        # find both roots, halving the paths
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
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


def _is_homotopy_equivalence(g):
    # Stallings: g is onto on pi_1 iff its folded edge images are the
    # codomain itself, and a free group of finite rank is Hopfian, so
    # with equal ranks onto means an isomorphism
    labels, parent, out = _fold_edge_images(g)
    roots = [i for i, p in enumerate(parent) if p == i]
    edges = sum(len(out[i]) for i in roots) // 2
    cod = g.codomain
    missed = cod.vertices - {labels[i] for i in roots}
    witness = None
    if (len(roots), edges) != (len(cod.vertices), len(cod.pairs)):
        witness = (f"its folded edge images have {len(roots)} vertices and "
                   f"{edges} edges, the codomain {len(cod.vertices)} and "
                   f"{len(cod.pairs)}")
    elif missed:
        witness = (f"its folded edge images miss the codomain vertices "
                   f"{sorted(missed)}")
    elif g.domain.rank() != cod.rank():
        witness = f"the rank drops from {g.domain.rank()} to {cod.rank()}"
    if witness:
        raise PreconditionError(
            f"[homotopy-equivalence] the map does not represent an "
            f"automorphism: {witness}")
    return True


def require_automorphism(g: GraphMap):
    """Raise PreconditionError unless g represents an automorphism."""
    g._derived("homotopy_equivalence", _is_homotopy_equivalence)


_ROTATIONLESS_POWER_CAP = 60
# total letters in the edge images of a rotationless power; the largest
# one built in the tests and perfbench, the 42nd power of the rank-3 map
# a->b, b->c, c->ab, has 396 655
_ROTATIONLESS_LETTER_CAP = 10 ** 6


def rotationless_power(g: GraphMap):
    """(g^k, k) for the rotationless exponent k of a train track map,
    stored on g and shared by every caller.

    Refuses a non-automorphism and, before building it, a power past the
    exponent cap or whose edge images would hold over a million letters.
    """
    return g._derived("rotationless_power", _rotationless_power)


def _rotationless_power(g):
    k = periodic_structure(g).rotationless_exponent
    require_automorphism(g)
    if k > _ROTATIONLESS_POWER_CAP:
        raise PreconditionError(
            f"rotationless exponent {k} is beyond desk scale")
    if k == 1:
        return g, k
    # 1^T M^k 1 in exact integers: the iterates of a train track map do
    # not cancel, so this is the letter count of the power's edge images
    columns = list(zip(*spectral.transition_matrix(g).mat))
    lengths = [1] * len(columns)
    for _ in range(k):
        lengths = [sum(x * m for x, m in zip(lengths, col)) for col in columns]
    letters = sum(lengths)
    if letters > _ROTATIONLESS_LETTER_CAP:
        raise PreconditionError(
            f"rotationless power g^{k} has {letters} letters in its edge "
            f"images, beyond desk scale")
    return power(g, k), k


def is_rotationless(g: GraphMap) -> bool:
    return periodic_structure(g).rotationless_exponent == 1


def taken_turns(g: GraphMap) -> frozenset:
    """Turns taken by the attracting lamination, realized in the graph.

    The smallest set containing every turn crossed by an edge image and
    closed under the induced map {d, d'} -> {Dg d, Dg d'}.  Requires a
    verified train track map with primitive transition matrix, so that
    the closure really shadows the lamination.  Stored on g.
    """
    return g._derived("taken_turns", _taken_turns)


def _taken_turns(g):
    require_train_track(g)
    if spectral.matrix_class(spectral.transition_matrix(g)) != spectral.PRIMITIVE:
        raise PreconditionError("transition matrix is not primitive")
    dmap = direction_map(g)
    pairs = set()
    for e in g.domain.pairs:
        pairs.update(_turn_pairs(g.image(e)))
    frontier = set(map(frozenset, pairs))
    taken = set()
    while frontier:
        turn = frontier.pop()
        if turn in taken:
            continue
        taken.add(turn)
        d1, d2 = sorted(turn)
        nxt = frozenset((dmap[d1], dmap[d2]))
        if len(nxt) == 1:
            raise PreconditionError(
                f"taken turn {sorted(turn)} degenerates; map is not a "
                f"train track map")
        frontier.add(nxt)
    return frozenset(taken)


def gate_index_sum(g: GraphMap) -> Fraction:
    """Sum over vertices of 1 - (number of gates)/2, an exact half-integer.

    Valence-2 subdivision vertices are excluded; real vertices all have
    valence >= 3 and contribute.
    """
    require_train_track(g)
    gs = gates(g)
    total = Fraction(0)
    for v in sorted(g.domain.vertices):
        if g.domain.valence(v) == 2 and v in g.domain.subdivision_vertices:
            continue
        total += 1 - Fraction(gs.gate_count(v), 2)
    return total


def illegal_turn_count(g: GraphMap) -> int:
    return len(gates(g).illegal_turns)
