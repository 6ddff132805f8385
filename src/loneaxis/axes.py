"""Stallings fold decompositions, periodic fold lines, the lone-axis
decision, and conjugate-power detection via canonical axis signatures.

A tight homotopy equivalence between marked graphs factors as a
sequence of folds followed by a homeomorphism.  Each round picks the
least foldable turn (two directions whose images share their first
edge), subdivides so the identified segments end at preimages of
vertices, and glues them.  Repeating the decomposition of an affine
train track representative sweeps out a periodic line through the space
of volume-1 marked metric graphs; on lone-axis input the foldable turn
is unique at every stage, which makes the record of the decomposition a
canonical cyclic word usable as a conjugacy invariant.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Sequence
from fractions import Fraction

from .errors import (DecompositionError, InternalCheckError,
                     NotLoneAxisError, PreconditionError)
from .graphs import (GraphMap, MarkedGraph, ReadOnlyAttributes, base_label,
                     check_incidence, compose, rev_edge)
from .isomorphism import canonical_encodings
from . import nielsen, spectral, traintrack, whitehead

SUBDIVIDE = "subdivide"
FOLD = "fold"
HOMEOMORPHISM = "homeomorphism"

class FoldMove:
    """One elementary move of a decomposition.

    ``map`` sends the previous graph onto the next one; it is built on
    first read.  Folds carry the turn that was folded (directions of the
    graph before this round's subdivisions), the common image prefix in
    the target of the residual, and which of the two sides was consumed
    whole.
    """

    def __init__(self, kind, build_map, turn=None, prefix=None, consumed=None,
                 edge=None, split_index=None):
        self.kind = kind
        self._build_map = build_map
        self.turn = turn
        self.prefix = prefix
        self.consumed = consumed
        self.edge = edge
        self.split_index = split_index

    @functools.cached_property
    def map(self):
        return self._build_map()

    def __repr__(self):
        if self.kind == FOLD:
            return f"FoldMove(fold {sorted(self.turn)} over {self.prefix})"
        if self.kind == SUBDIVIDE:
            return f"FoldMove(subdivide {self.edge} at {self.split_index})"
        return "FoldMove(homeomorphism)"


class _Stages(Sequence):
    """Read-only sequence of n items, each built on its first read."""

    def __init__(self, build, n):
        self._build = build
        self._items = [None] * n

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        i = range(len(self))[i]
        if self._items[i] is None:
            self._items[i] = self._build(i)
        return self._items[i]


class FoldSequence:
    """Ordered decomposition of a graph map into folds plus a homeomorphism.

    ``graphs[i]`` is the graph after the first i moves; ``residuals[i]``
    is the still-unfolded map graphs[i] -> codomain.  Both, like each
    move's map, are built on first read through the public constructors,
    which check every letter.  Composing all move maps and tightening
    reproduces the input edge-image-for-edge-image.
    """

    def __init__(self, source_map, moves, graphs, residuals, fold_rounds):
        self.source_map = source_map
        self.moves = tuple(moves)
        self.graphs = graphs
        self.residuals = residuals
        # per fold: (index of the graph the round started from,
        #            move index of the fold, number of foldable turns seen)
        self.fold_rounds = tuple(fold_rounds)

    @property
    def target(self):
        return self.source_map.codomain

    def fold_count(self):
        return sum(1 for m in self.moves if m.kind == FOLD)

    def induced_representative(self, stage: int) -> GraphMap:
        """Self-map of graphs[stage] obtained by rotating the factorization:
        the residual down to the codomain followed by the first `stage`
        moves.  Only meaningful when the decomposed map was a self-map.
        """
        if not self.source_map.is_self_map():
            raise PreconditionError("induced representatives need a self-map")
        chain = None
        for move in self.moves[:stage]:
            chain = move.map if chain is None else compose(move.map, chain)
        if chain is None:
            return self.source_map
        return compose(chain, self.residuals[stage])

    def to_json(self) -> str:
        """Stable serialization of the move list."""
        out = []
        for move in self.moves:
            entry = {"kind": move.kind}
            if move.kind == FOLD:
                entry["turn"] = sorted(move.turn)
                entry["prefix"] = list(move.prefix)
                entry["consumed"] = list(move.consumed)
            elif move.kind == SUBDIVIDE:
                entry["edge"] = move.edge
                entry["split_index"] = move.split_index
            out.append(entry)
        return json.dumps({"moves": out}, indent=2, sort_keys=True)

    def __repr__(self):
        return (f"FoldSequence({self.fold_count()} folds, "
                f"{len(self.moves)} moves)")


def _common_prefix(p, q):
    n = 0
    for a, b in zip(p, q):
        if a != b:
            break
        n += 1
    return p[:n]


class _State:
    """Mutable fold table: the current graph and residual map.

    It holds the edge ends, the residual images of both orientations, the
    end vertices of each direction, the directions at each vertex, the
    vertex map and the foldable turns at each vertex.  A move rewrites
    only the edges and vertices it touches, runs the graph checks it can
    break, reads no image letter (see ``_commit``) and records the stage;
    the graph, the residual and the move map are built from it, and
    validated, when read.
    """

    def __init__(self, g: GraphMap):
        dom = g.domain
        self.source = g
        self.cod = g.codomain
        self.ends = dict(dom.edge_ends)
        self.img = {e: g.image(e) for e in dom.oriented}
        self.init = {e: dom.init_vertex(e) for e in dom.oriented}
        self.term = {e: dom.term_vertex(e) for e in dom.oriented}
        self.at = {v: set(dom.directions_at(v)) for v in dom.vertices}
        self.vmap = dict(g.vertex_map)
        # vertex -> (number of foldable turns, least one), for the
        # vertices not in `dirty`
        self.turns = {}
        self.dirty = set(self.at)
        # per move: (images of the edges it changes, (merged, kept) vertex)
        self.changes = []
        # per stage after the first: (edge ends, images, vertex map,
        # vertices with fewer than three directions)
        self.stages = [None]
        self.counter = itertools.count(1)
        # fresh names must dodge everything ever seen, or a later fold
        # could silently overwrite a surviving edge
        self.used_edges = set(dom.pairs) | set(self.cod.pairs)
        self.used_vertices = set(dom.vertices) | set(self.cod.vertices)

    def _fresh_pieces(self, e):
        while True:
            tag = next(self.counter)
            e1, e2, w = f"{e}.{tag}a", f"{e}.{tag}b", f"w{tag}"
            if (e1 not in self.used_edges and e2 not in self.used_edges
                    and w not in self.used_vertices):
                self.used_edges.update((e1, e2))
                self.used_vertices.add(w)
                return e1, e2, w

    def _fresh_fold_edge(self):
        while True:
            name = f"f{next(self.counter)}"
            if name not in self.used_edges:
                self.used_edges.add(name)
                return name

    def _turns_at(self, v):
        by_letter = {}
        for d in sorted(self.at[v]):
            by_letter.setdefault(self.img[d][0], []).append(d)
        count, least = 0, None
        for ds in by_letter.values():
            count += len(ds) * (len(ds) - 1) // 2
            if len(ds) > 1 and (least is None or (ds[0], ds[1]) < least):
                least = (ds[0], ds[1])
        return count, least

    def foldable_turns(self):
        """(number of foldable turns, the least of them)."""
        for v in self.dirty:
            self.turns[v] = self._turns_at(v)
        self.dirty.clear()
        count = sum(n for n, _ in self.turns.values())
        least = min((t for n, t in self.turns.values() if n), default=None)
        return count, least

    def _remove_edge(self, e):
        r = rev_edge(e)
        self.at[self.init[e]].remove(e)
        self.at[self.init[r]].remove(r)
        for x in (e, r):
            del self.img[x], self.init[x], self.term[x]
        del self.ends[e]

    def _add_edge(self, e, u, v, img, rimg):
        r = rev_edge(e)
        self.ends[e] = (u, v)
        self.img[e], self.img[r] = img, rimg
        self.init[e], self.init[r] = u, v
        self.term[e], self.term[r] = v, u
        self.at[u].add(e)
        self.at[v].add(r)

    def _commit(self, changed, merge):
        """Check the table after a move, record the new stage, and return
        the builder of the move's map.

        The graph checks run whole, as they cost O(V + E).  A move may
        leave a vertex with one or two directions, so those are the
        stage's subdivision vertices; only connectivity can fail.  No
        image is re-read, as a move only reuses checked ones: a
        subdivided piece is a slice of a checked tight path, and its new
        end vertex maps where that slice ends; a folded edge keeps p1's
        checked image, and fold() merges only vertices with equal images.
        """
        flags = frozenset(v for v, ds in self.at.items() if len(ds) < 3)
        check_incidence(self.at, self.term, flags)
        self.changes.append((changed, merge))
        self.stages.append((
            dict(self.ends), {e: self.img[e] for e in self.ends},
            dict(self.vmap), flags))
        return functools.partial(self._move_map, len(self.changes) - 1)

    def subdivide(self, d, keep):
        """Split the edge of direction d so its first `keep` image edges
        fall on the piece at d's side.  Returns (move, piece, other) where
        `piece` is the direction with image img(d)[:keep] and `other` the
        direction of the remaining piece seen from the far endpoint."""
        e = base_label(d)
        img, rimg = self.img[e], self.img[rev_edge(e)]
        n = len(img)
        split = keep if d == e else n - keep
        if not 0 < split < n:
            raise DecompositionError(f"bad split of {e} at {split}")
        e1, e2, w = self._fresh_pieces(e)
        u, v = self.ends[e]
        self._remove_edge(e)
        self.at[w] = set()
        # both orientations of the pieces are slices: nothing is reversed
        self._add_edge(e1, u, w, img[:split], rimg[n - split:])
        self._add_edge(e2, w, v, img[split:], rimg[:n - split])
        self.vmap[w] = self.cod.term_vertex(img[split - 1])
        self.dirty.update((u, v, w))
        build = self._commit({e: (e1, e2)}, None)
        move = FoldMove(SUBDIVIDE, build, edge=e, split_index=split)
        if d == e:
            return move, e1, rev_edge(e2)
        return move, rev_edge(e2), e1

    def fold(self, p1, p2, turn, prefix, consumed):
        """Identify directions p1, p2 (equal residual images) into one edge."""
        v = self.init[p1]
        if self.init[p2] != v:
            raise DecompositionError("fold directions must share a vertex")
        b1, b2 = base_label(p1), base_label(p2)
        if b1 == b2:
            raise DecompositionError("self-folds must be subdivided first")
        t1, t2 = self.term[p1], self.term[p2]
        fresh = self._fresh_fold_edge()
        merge = None
        if t1 != t2:
            if self.vmap[t1] != self.vmap[t2]:
                raise DecompositionError("fold merged vertices with distinct images")
            merge = (max(t1, t2), min(t1, t2))

        img, rimg = self.img[p1], self.img[rev_edge(p1)]
        self._remove_edge(b1)
        self._remove_edge(b2)
        t = t1
        if merge is not None:
            gone, t = merge
            for x in self.at.pop(gone):
                self.init[x] = self.term[rev_edge(x)] = t
                self.at[t].add(x)
                a, b = self.ends[base_label(x)]
                self.ends[base_label(x)] = (t if a == gone else a,
                                            t if b == gone else b)
            del self.vmap[gone]
            self.turns.pop(gone, None)
            self.dirty.discard(gone)
            if v == gone:
                v = t
        self._add_edge(fresh, v, t, img, rimg)
        self.dirty.update((v, t))
        changed = {b: (fresh,) if p == b else (rev_edge(fresh),)
                   for p, b in ((p1, b1), (p2, b2))}
        build = self._commit(changed, merge)
        return FoldMove(FOLD, build, turn=turn, prefix=prefix,
                        consumed=consumed)

    def finish(self, moves, fold_rounds):
        """Verify the residual is a homeomorphism and return the sequence."""
        seen = {}
        for e in sorted(self.ends):
            img = self.img[e]
            if len(img) != 1:
                raise DecompositionError(
                    f"residual is not a homeomorphism: {e} -> {img}")
            tgt = base_label(img[0])
            if tgt in seen:
                raise DecompositionError(
                    f"residual folds {seen[tgt]} and {e} onto {tgt}")
            seen[tgt] = e
        if set(seen) != set(self.cod.pairs):
            raise DecompositionError("residual is not onto the codomain")
        if sorted(self.vmap.values()) != sorted(self.cod.vertices):
            raise DecompositionError("residual is not a vertex bijection")
        self.graphs = _Stages(self._graph, len(self.stages))
        self.residuals = _Stages(self._residual, len(self.stages))
        last = len(self.stages) - 1
        moves.append(FoldMove(HOMEOMORPHISM, lambda: self.residuals[last]))
        return FoldSequence(self.source, moves, self.graphs, self.residuals,
                            fold_rounds)

    # -- stage objects, built from the recorded stages when read ----------

    def _graph(self, i):
        if i == 0:
            return self.source.domain
        ends, _, _, subdiv = self.stages[i]
        return MarkedGraph(ends, subdivision_vertices=subdiv)

    def _residual(self, i):
        if i == 0:
            return self.source
        _, images, vmap, _ = self.stages[i]
        return GraphMap(self.graphs[i], self.cod, vmap, images)

    def _move_map(self, i):
        changed, merge = self.changes[i]
        dom = self.graphs[i]
        gone, kept = merge or (None, None)
        return GraphMap(dom, self.graphs[i + 1],
                        {x: kept if x == gone else x for x in dom.vertices},
                        {e: changed.get(e, (e,)) for e in dom.pairs})


def stallings_decomposition(g: GraphMap) -> FoldSequence:
    """Factor a tight homotopy equivalence into folds and a homeomorphism.

    The decomposition is combinatorial: the stage graphs after the first
    carry no lengths, whatever the input's.  The canonical choice at each
    round is the least foldable turn; the number of candidates per round
    is recorded so callers can certify uniqueness.  The folds run on one
    table updated in place; the stage graphs, residuals and move maps are
    built only when read.
    """
    state = _State(g)
    moves = []
    fold_rounds = []
    cap = 10 * len(g.domain.pairs) * max(len(g.image(e)) for e in g.domain.pairs)

    while True:
        n_turns, least = state.foldable_turns()
        if not n_turns:
            break
        if len(fold_rounds) >= cap:
            raise DecompositionError(f"no homeomorphism after {cap} folds")
        d1, d2 = least
        round_start = len(moves)
        img1, img2 = state.img[d1], state.img[d2]

        if d2 == rev_edge(d1):
            # folding a loop onto itself: the common prefix of the two
            # orientations stops short of the midpoint, so split into
            # three and glue the outer pieces
            prefix = _common_prefix(img1, img2)
            if 2 * len(prefix) >= len(img1):
                raise DecompositionError("self-fold prefix reaches the midpoint")
            move, tail_piece, head_rest = state.subdivide(d2, len(prefix))
            moves.append(move)
            move, head_piece, _ = state.subdivide(head_rest, len(prefix))
            moves.append(move)
            p1, p2 = head_piece, tail_piece
            consumed = (False, False)
        else:
            prefix = _common_prefix(img1, img2)
            consumed = (len(prefix) == len(img1), len(prefix) == len(img2))
            p1, p2 = d1, d2
            if not consumed[0]:
                move, p1, _ = state.subdivide(d1, len(prefix))
                moves.append(move)
            if not consumed[1]:
                move, p2, _ = state.subdivide(d2, len(prefix))
                moves.append(move)
        moves.append(state.fold(p1, p2, turn=(d1, d2), prefix=prefix,
                                consumed=consumed))
        fold_rounds.append((round_start, len(moves) - 1, n_turns))

    return state.finish(moves, fold_rounds)


def _normalized(graph: MarkedGraph) -> MarkedGraph:
    vol = float(graph.volume())
    return graph.with_lengths({e: float(x) / vol
                               for e, x in graph.lengths.items()},
                              normalized=True)


def _stage_metric(seq: FoldSequence, i: int, lengths, lam) -> MarkedGraph:
    """graphs[i] with each edge as long as its residual image under the
    codomain's edge lengths, over the stretch lam, so that every fold is
    an isometry and nothing drifts."""
    graph, resid = seq.graphs[i], seq.residuals[i]
    return graph.with_lengths({
        e: sum(lengths[base_label(x)] for x in resid.image(e)) / lam
        for e in graph.edge_ends})


def _require_primitive_automorphism(g):
    """Refuse g unless it is a primitive train track automorphism."""
    verdict = traintrack.is_train_track(g)
    if not verdict:
        raise PreconditionError(f"[train-track] not a train track map: {verdict}")
    if spectral.matrix_class(spectral.transition_matrix(g)) != spectral.PRIMITIVE:
        raise PreconditionError(
            "[spectral] transition matrix is not primitive, so the map "
            "cannot represent a fully irreducible automorphism")
    traintrack.require_automorphism(g)


def fold_line(g: GraphMap, periods: int, samples_per_period: int):
    """Discretized periodic fold line through volume-1 marked graphs.

    Starts at the eigenmetric graph and repeatedly decomposes the
    representative, metrizing each sampled intermediate graph and
    renormalizing it to volume 1; the graph after one full period is
    isometric to the starting one (the stretch is absorbed by the
    normalization).  Returns a list of MarkedGraphs: the start plus
    `samples_per_period` evenly spaced fold states per period.
    """
    if periods < 0 or samples_per_period < 0:
        raise PreconditionError("periods and samples must be nonnegative")
    _require_primitive_automorphism(g)
    lam = spectral.dilatation(g)
    graph0 = spectral.eigenmetric(g)
    # the representative folded in each period, and its codomain's lengths
    current, lengths = g, graph0.lengths

    line = [_normalized(graph0)]
    for period in range(1, periods + 1):
        seq = stallings_decomposition(current)
        # the stage after each fold
        stages = [idx + 1 for _, idx, _ in seq.fold_rounds]
        if samples_per_period and stages:
            n = len(stages)
            picks = sorted({max(1, round(j * n / samples_per_period))
                            for j in range(1, samples_per_period + 1)})
            line += [_normalized(_stage_metric(seq, stages[i - 1], lengths, lam))
                     for i in picks]
        if period < periods:
            # the representative at the end of the period starts the next
            last = len(seq.graphs) - 1
            current = seq.induced_representative(last)
            lengths = _normalized(_stage_metric(seq, last, lengths, lam)).lengths
    return line


class LoneAxisReport(ReadOnlyAttributes):
    """Stage verdicts feeding the unique-axis decision.

    ``overall`` is one of lone-axis / conditional / not-lone-axis /
    unknown, where conditional means both conditions hold but full
    irreducibility was not asserted by the caller.  ``proven_leg_bound``
    is the leg cap of the rotationless power, the Nielsen search bound
    that settles an unknown verdict, or None when its Nielsen paths are
    too many to list.  The report is stored on the map and shared, so it
    is read-only.
    """

    _REQUIRED = ("rank", "train_track", "primitive", "rotationless_exponent",
                 "np_bound", "proven_leg_bound", "np_free",
                 "fully_irreducible_asserted", "overall")
    _OPTIONAL = ("index_sum", "index_list", "index_condition",
                 "cut_vertex_condition", "unique_illegal_turn", "ideal_graph")

    def __init__(self, **fields):
        values = {name: fields.pop(name) for name in self._REQUIRED}
        values.update((name, fields.pop(name, None)) for name in self._OPTIONAL)
        if fields:
            raise TypeError(f"unknown report fields {sorted(fields)}")
        vars(self).update(values)

    def __repr__(self):
        return f"LoneAxisReport({self.overall}, i={self.index_sum})"


def _fold_records_of(grot):
    return tuple(_fold_records(stallings_decomposition(grot)))


def lone_axis_decision(g: GraphMap, np_bound: int = nielsen.DEFAULT_BOUND,
                       fully_irreducible_asserted: bool = False) -> LoneAxisReport:
    """Decide whether the axis bundle is a single periodic fold line.

    Pipeline: verify the train track property and primitivity, check
    that the map is a homotopy equivalence by folding its edge images,
    pass to the rotationless power, certify NP-freeness, then test the two
    conditions: rotationless index equal to 3/2 - r, and no cut vertex
    in any component of the ideal Whitehead graph.  Full irreducibility
    is the caller's assertion; without it a positive answer is reported
    as conditional.  The report is stored on g per bound and assertion.
    """
    asserted = bool(fully_irreducible_asserted)
    return g._derived(("lone_axis", np_bound, asserted),
                      lambda g: _lone_axis_decision(g, np_bound, asserted))


def _lone_axis_decision(g, np_bound, fully_irreducible_asserted):
    r = g.domain.rank()
    if r < 2:
        raise PreconditionError("[rank] lone axis analysis needs rank >= 2")
    _require_primitive_automorphism(g)
    grot, exponent = traintrack.rotationless_power(g)
    np_free, _, np_report = nielsen.np_verdict(grot, np_bound)
    common = dict(rank=r, train_track=True, primitive=True,
                  rotationless_exponent=exponent, np_bound=np_bound,
                  proven_leg_bound=np_report and np_report.proven_leg_bound,
                  fully_irreducible_asserted=fully_irreducible_asserted)

    if np_free is False:
        # NPs force the geometric/parageometric index 1 - r, which can
        # never equal 3/2 - r
        return LoneAxisReport(np_free=False,
                              index_sum=Fraction(1 - r),
                              index_list=None,
                              index_condition=False,
                              cut_vertex_condition=None,
                              unique_illegal_turn=None,
                              ideal_graph=None,
                              overall="not-lone-axis", **common)
    if np_free is None:
        return LoneAxisReport(np_free=None, overall="unknown", **common)

    idx = whitehead.index_report(grot, np_bound)
    cond_index = idx.index_sum == Fraction(3, 2) - r
    iw = whitehead.ideal_whitehead_graph(grot, np_bound)
    cond_cut = not whitehead.cut_vertices(iw)
    unique_turn = traintrack.illegal_turn_count(grot) == 1
    if cond_index and not unique_turn:
        raise InternalCheckError(
            "index 3/2 - r forces a unique illegal turn, but the gate "
            "structure disagrees")
    if cond_index and cond_cut:
        overall = "lone-axis" if fully_irreducible_asserted else "conditional"
    else:
        overall = "not-lone-axis"
    return LoneAxisReport(np_free=True, index_sum=idx.index_sum,
                          index_list=idx.entries,
                          index_condition=cond_index,
                          cut_vertex_condition=cond_cut,
                          unique_illegal_turn=unique_turn,
                          ideal_graph=iw, overall=overall, **common)


class AxisSignature(ReadOnlyAttributes):
    """Canonical primitive cyclic word of fold records.

    Each record is the isomorphism class of the graph entering a fold
    round together with the canonical label of the folded turn.  The
    records come from decomposing the canonical rotationless power, so
    the signature of a power agrees with the signature of the base map.
    The rotationless power g^e folds through ``repetitions`` primitive
    periods, so g itself moves tau = repetitions / rotationless_exponent
    periods along the line; ``lam`` keeps the dilatation of g.  The
    signature is stored on g and shared, so it is read-only.
    """

    def __init__(self, records, lam, rotationless_exponent, repetitions):
        vars(self).update(records=tuple(records), lam=float(lam),
                          rotationless_exponent=int(rotationless_exponent),
                          repetitions=int(repetitions))

    @property
    def period(self):
        return math.log(self.lam)

    def to_json(self) -> str:
        return json.dumps({
            "records": list(self.records),
            "lam": float(f"{self.lam:.12g}"),
            "log_lam": float(f"{self.period:.12g}"),
            "rotationless_exponent": self.rotationless_exponent,
            "repetitions": self.repetitions,
        }, indent=2, sort_keys=True)

    def __eq__(self, other):
        if not isinstance(other, AxisSignature):
            return NotImplemented
        return self.records == other.records

    def __repr__(self):
        return (f"AxisSignature({len(self.records)} records, "
                f"lam={self.lam:.12g})")


def _primitive_rotation(records):
    n = len(records)
    period = n
    for p in range(1, n + 1):
        if n % p == 0 and all(records[i] == records[(i + p) % n]
                              for i in range(n)):
            period = p
            break
    prim = records[:period]
    best = min(tuple(prim[i:] + prim[:i]) for i in range(len(prim)))
    return best, n // period


def _fold_records(seq: FoldSequence):
    records = []
    for start_idx, fold_idx, n_candidates in seq.fold_rounds:
        if n_candidates != 1:
            raise NotLoneAxisError(
                f"{n_candidates} foldable turns at one stage; the "
                f"decomposition is not canonical")
        move = seq.moves[fold_idx]
        graph = seq.graphs[start_idx]
        d1, d2 = move.turn
        encoding, turn_enc = canonical_encodings(
            graph, [(d1, move.consumed[0]), (d2, move.consumed[1])])
        records.append(f"{encoding}#{turn_enc}")
    return records


def axis_signature(g: GraphMap,
                   np_bound: int = nielsen.DEFAULT_BOUND) -> AxisSignature:
    """Signature of the unique periodic fold line through the input.

    Defined only when the lone-axis decision is affirmative at least
    conditionally; the unique illegal turn at every stage makes the
    decomposition canonical, and relabeling the input cannot change the
    records.
    """
    report = lone_axis_decision(g, np_bound)
    if report.overall not in ("conditional", "lone-axis"):
        raise NotLoneAxisError(
            f"axis signature undefined: decision is {report.overall}")
    return _signature(g)


def _signature(g):
    """The signature of a map already decided lone-axis (or conditional),
    stored on g."""
    return g._derived("axis_signature", _signature_of)


def _signature_of(g):
    grot, exponent = traintrack.rotationless_power(g)
    records = grot._derived("fold_records", _fold_records_of)
    primitive, reps = _primitive_rotation(records)
    return AxisSignature(primitive, spectral.dilatation(g), exponent, reps)


def _singular_period_multiset(g: GraphMap, k: int):
    """Cycle structure of the k-th power acting on the periodic
    directions at principal vertices (the singular-ray dynamics).

    Conjugate powers act with the same cycle type, so a mismatch here
    refutes a conjugacy suggested by coarser data.
    """
    ps = traintrack.periodic_structure(g)
    principal = set(ps.principal_vertices)
    periods = [p for v, p in ps.vertex_periods.items() if v in principal]
    periods += [p for d, p in ps.direction_periods.items()
                if g.domain.init_vertex(d) in principal]
    return tuple(sorted(p // math.gcd(p, k) for p in periods))


class ConjugacyVerdict:
    """Outcome of the conjugate-power comparison.

    status is conjugate-powers / not-detected / inapplicable; powers
    (k, l) solve k tau1 = l tau2 for tau = repetitions /
    rotationless_exponent.  A positive verdict needs matching fold
    records, equal index lists, isomorphic ideal Whitehead graphs, and,
    at (k, l), the dilatation relation and matching singular-ray cycle
    types.  A mismatch anywhere reports not-detected, not non-conjugacy.
    """

    def __init__(self, status, powers=None, detail=""):
        self.status = status
        self.powers = powers
        self.detail = detail

    def __repr__(self):
        if self.powers:
            return f"ConjugacyVerdict({self.status}, k={self.powers[0]}, l={self.powers[1]})"
        return f"ConjugacyVerdict({self.status})"


def conjugate_power_check(g1: GraphMap, g2: GraphMap,
                          np_bound: int = nielsen.DEFAULT_BOUND) -> ConjugacyVerdict:
    """Detect powers k, l with the first map's k-th power conjugate to
    the second map's l-th power.

    Primitive axis signatures are compared up to rotation.  A map g
    moves tau = repetitions / rotationless_exponent primitive periods
    along its fold line, so (k, l) is the reduced ratio with
    k tau1 = l tau2.  The claim is screened there by lam1^k = lam2^l
    (on a log scale, within 1e-8) and by power-invariant data: index
    lists, ideal Whitehead graph classes, and the cycle type of the
    power acting on singular rays.
    """
    decisions = []
    for g, tag in ((g1, "first"), (g2, "second")):
        rep = lone_axis_decision(g, np_bound)
        if rep.overall not in ("conditional", "lone-axis"):
            return ConjugacyVerdict(
                "inapplicable",
                detail=f"{tag} input is {rep.overall}; signatures undefined")
        decisions.append(rep)
    s1, s2 = _signature(g1), _signature(g2)
    if s1.records != s2.records:
        return ConjugacyVerdict("not-detected",
                                detail="primitive fold records differ")
    if decisions[0].index_list != decisions[1].index_list:
        return ConjugacyVerdict("not-detected", detail="index lists differ")
    if not whitehead.whitehead_isomorphic(decisions[0].ideal_graph,
                                          decisions[1].ideal_graph):
        return ConjugacyVerdict("not-detected",
                                detail="ideal Whitehead graphs differ")
    k, l = Fraction(s2.repetitions * s1.rotationless_exponent,
                    s1.repetitions * s2.rotationless_exponent).as_integer_ratio()
    if abs(k * s1.period - l * s2.period) > 1e-8:
        return ConjugacyVerdict(
            "not-detected",
            detail=f"records match but the dilatations differ at powers "
                   f"({k}, {l})")
    if _singular_period_multiset(g1, k) != _singular_period_multiset(g2, l):
        return ConjugacyVerdict(
            "not-detected",
            detail=f"singular-ray cycle types differ at powers ({k}, {l})")
    return ConjugacyVerdict("conjugate-powers", (k, l),
                            detail="signatures, dilatations, and "
                                   "power-invariants all match")
