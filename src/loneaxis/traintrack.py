"""Direction maps, gates, train track verification, periodicity, turns.

A turn is an unordered pair of distinct directions at a common vertex,
stored as a frozenset of oriented edge labels.  A turn is illegal when
its two directions are eventually identified by the direction map; the
equivalence classes of that identification at each vertex are the
gates.

Every structure here depends on the map alone, so it is computed once,
stored on the map, and shared by every caller; its mappings are
read-only.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionError
from .graphs import GraphMap, ReadOnlyDict, rev_edge
from . import spectral


def direction_map(g: GraphMap):
    """Dg: each direction goes to the initial direction of its image, as a
    read-only mapping stored on g."""
    return g._derived("direction_map", _direction_map)


def _direction_map(g):
    dm = {}
    for e in g.domain.oriented:
        img = g.image(e)
        if not img:
            raise PreconditionError(f"edge {e} has empty image")
        dm[e] = img[0]
    return ReadOnlyDict(dm)


def turns_crossed(path):
    """Turns taken at the interior points of a path."""
    out = []
    for i in range(len(path) - 1):
        out.append(frozenset((rev_edge(path[i]), path[i + 1])))
    return out


class GateStructure:
    """Per-vertex partition of directions into gates, with the illegal turns.

    Two directions share a gate exactly when some iterate of the
    direction map identifies them; the partition is computed by pulling
    the discrete partition back through Dg until it stabilizes, which
    happens within (number of directions)^2 steps.
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
    part = {d: i for i, d in enumerate(dirs)}  # discrete start
    for _ in range(len(dirs) ** 2):
        sig = {d: part[dmap[d]] for d in dirs}
        ordered = sorted(set(sig.values()))
        index = {s: i for i, s in enumerate(ordered)}
        new = {d: index[sig[d]] for d in dirs}
        # classes only ever merge; stop when one pullback step adds nothing
        if _partition_classes(new, dirs) == _partition_classes(part, dirs):
            break
        part = new
    classes = {}
    for d in dirs:
        classes.setdefault(part[d], []).append(d)
    gate_of = {}
    for members in classes.values():
        # a gate is the restriction of a class to a single vertex
        by_vertex = {}
        for d in members:
            by_vertex.setdefault(g.domain.init_vertex(d), []).append(d)
        for ds in by_vertex.values():
            gate = tuple(sorted(ds))
            for d in ds:
                gate_of[d] = gate
    return GateStructure(g.domain, dmap, gate_of)


def _partition_classes(part, dirs):
    classes = {}
    for d in dirs:
        classes.setdefault(part[d], set()).add(d)
    return frozenset(frozenset(c) for c in classes.values())


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
                 rotationless_exponent, principal_complete):
        self.vertex_periods = ReadOnlyDict(vertex_periods)
        self.direction_periods = ReadOnlyDict(direction_periods)
        self.principal_vertices = tuple(principal_vertices)
        self.rotationless_exponent = int(rotationless_exponent)
        # False while Nielsen path endpoints might still add principal
        # vertices; True once the caller has certified NP-freeness.
        self.principal_complete = bool(principal_complete)

    def __repr__(self):
        return (f"PeriodicStructure(principal={self.principal_vertices}, "
                f"exponent={self.rotationless_exponent})")


def periodic_structure(g: GraphMap, nielsen_free=None) -> PeriodicStructure:
    """Periodic vertices and directions with exact periods.

    Principal vertices are reported as the periodic vertices with at
    least three gates; that list is complete for NP-free
    representatives, and `principal_complete` records whether the
    caller certified that.  The rotationless exponent is the lcm of the
    periods of all periodic vertices and of all periodic directions, so
    the corresponding power fixes every periodic point and direction
    (safe even if an NP endpoint later turns out to be principal).
    Stored on g for each truth value of `nielsen_free`.
    """
    return g._derived(("periodic_structure", bool(nielsen_free)),
                      lambda g: _periodic_structure(g, nielsen_free))


def _periodic_structure(g, nielsen_free):
    verdict = is_train_track(g)
    if not verdict:
        raise PreconditionError(f"not a train track map: {verdict}")
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
                             exponent, principal_complete=bool(nielsen_free))


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
    verdict = is_train_track(g)
    if not verdict:
        raise PreconditionError(f"not a train track map: {verdict}")
    if spectral.matrix_class(spectral.transition_matrix(g)) != spectral.PRIMITIVE:
        raise PreconditionError("transition matrix is not primitive")
    dmap = direction_map(g)
    frontier = set()
    for e in g.domain.pairs:
        frontier.update(turns_crossed(g.image(e)))
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
    verdict = is_train_track(g)
    if not verdict:
        raise PreconditionError(f"not a train track map: {verdict}")
    gs = gates(g)
    total = Fraction(0)
    for v in sorted(g.domain.vertices):
        if g.domain.valence(v) == 2 and v in g.domain.subdivision_vertices:
            continue
        total += 1 - Fraction(gs.gate_count(v), 2)
    return total


def illegal_turn_count(g: GraphMap) -> int:
    return len(gates(g).illegal_turns)
