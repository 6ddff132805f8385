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

import itertools
import json
import math
from fractions import Fraction

from .errors import (DecompositionError, InternalCheckError,
                     NielsenPathPresentError, NotLoneAxisError,
                     PreconditionError)
from .graphs import (GraphMap, MarkedGraph, base_label, compose, power,
                     rev_edge)
from .isomorphism import canonical_encoding, canonical_turn_encoding
from . import nielsen, spectral, traintrack, whitehead

SUBDIVIDE = "subdivide"
FOLD = "fold"
HOMEOMORPHISM = "homeomorphism"

_ROTATIONLESS_POWER_CAP = 60
# total letters in the edge images of a rotationless power; the largest
# one built in the tests and perfbench, the 42nd power of the rank-3 map
# a->b, b->c, c->ab, has 396 655
_ROTATIONLESS_LETTER_CAP = 10 ** 6


class FoldMove:
    """One elementary move of a decomposition.

    ``map`` sends the previous graph onto the next one.  Folds carry the
    turn that was folded (directions of the graph before this round's
    subdivisions), the common image prefix in the target of the
    residual, and which of the two sides was consumed whole.
    """

    def __init__(self, kind, map_, turn=None, prefix=None, consumed=None,
                 edge=None, split_index=None, split_length=None):
        self.kind = kind
        self.map = map_
        self.turn = turn
        self.prefix = prefix
        self.consumed = consumed
        self.edge = edge
        self.split_index = split_index
        self.split_length = split_length

    def __repr__(self):
        if self.kind == FOLD:
            return f"FoldMove(fold {sorted(self.turn)} over {self.prefix})"
        if self.kind == SUBDIVIDE:
            return f"FoldMove(subdivide {self.edge} at {self.split_index})"
        return "FoldMove(homeomorphism)"


class FoldSequence:
    """Ordered decomposition of a graph map into folds plus a homeomorphism.

    ``graphs[i]`` is the graph after the first i moves; ``residuals[i]``
    is the still-unfolded map graphs[i] -> codomain.  Composing all move
    maps and tightening reproduces the input edge-image-for-edge-image.
    """

    def __init__(self, source_map, moves, graphs, residuals, fold_rounds):
        self.source_map = source_map
        self.moves = tuple(moves)
        self.graphs = tuple(graphs)
        self.residuals = tuple(residuals)
        # per fold: (index of the graph the round started from,
        #            move index of the fold, number of foldable turns seen)
        self.fold_rounds = tuple(fold_rounds)

    @property
    def source(self):
        return self.graphs[0]

    @property
    def target(self):
        return self.source_map.codomain

    def fold_count(self):
        return sum(1 for m in self.moves if m.kind == FOLD)

    def recompose(self) -> GraphMap:
        total = None
        for move in self.moves:
            total = move.map if total is None else compose(move.map, total)
        return total

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
                if move.split_length is not None:
                    entry["split_length"] = float(move.split_length)
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
    """Mutable decomposition state: current graph and residual map."""

    def __init__(self, resid: GraphMap, lam):
        self.resid = resid
        self.lam = lam
        self.counter = itertools.count(1)
        # fresh names must dodge everything ever seen, or a later fold
        # could silently overwrite a surviving edge
        self.used_edges = set(resid.domain.pairs) | set(resid.codomain.pairs)
        self.used_vertices = set(resid.domain.vertices) | set(resid.codomain.vertices)

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

    @property
    def graph(self):
        return self.resid.domain

    def _metric(self, edge_ends, images):
        cod = self.resid.codomain
        if cod.lengths is None or self.lam is None:
            return None
        # lengths are always the residual image length over the stretch,
        # so folds are isometric and nothing drifts
        return {e: cod.path_length(images[e]) / self.lam for e in edge_ends}

    def _rebuild(self, edge_ends, images, vmap, subdivision_vertices):
        lengths = self._metric(edge_ends, images)
        graph = MarkedGraph(edge_ends, lengths=lengths,
                            subdivision_vertices=subdivision_vertices)
        return GraphMap(graph, self.resid.codomain, vmap, images)

    def foldable_turns(self):
        out = []
        g = self.resid
        for v in sorted(self.graph.vertices):
            dirs = self.graph.directions_at(v)
            for i in range(len(dirs)):
                for j in range(i + 1, len(dirs)):
                    if g.image(dirs[i])[0] == g.image(dirs[j])[0]:
                        out.append((dirs[i], dirs[j]))
        out.sort()
        return out

    def subdivide(self, d, keep):
        """Split the edge of direction d so its first `keep` image edges
        fall on the piece at d's side.  Returns (move, piece, other) where
        `piece` is the direction with image img(d)[:keep] and `other` the
        direction of the remaining piece seen from the far endpoint."""
        e = base_label(d)
        img = self.resid.image(e)
        n = len(img)
        split = keep if d == e else n - keep
        if not 0 < split < n:
            raise DecompositionError(f"bad split of {e} at {split}")
        e1, e2, w = self._fresh_pieces(e)

        ends = dict(self.graph.edge_ends)
        u, v = ends.pop(e)
        ends[e1] = (u, w)
        ends[e2] = (w, v)
        images = {x: self.resid.image(x) for x in self.graph.pairs if x != e}
        images[e1] = img[:split]
        images[e2] = img[split:]
        vmap = dict(self.resid.vertex_map)
        vmap[w] = self.resid.codomain.term_vertex(img[split - 1])
        subdiv = set(self.graph.subdivision_vertices) | {w}

        move_images = {x: (x,) for x in self.graph.pairs if x != e}
        move_images[e] = (e1, e2)
        new_resid = self._rebuild(ends, images, vmap, subdiv)
        move_map = GraphMap(self.graph, new_resid.domain,
                            {x: x for x in self.graph.vertices}, move_images)
        split_length = None
        if self.graph.lengths is not None:
            split_length = new_resid.domain.lengths[e1]
        move = FoldMove(SUBDIVIDE, move_map, edge=e, split_index=split,
                        split_length=split_length)
        self.resid = new_resid
        if d == e:
            return move, e1, rev_edge(e2)
        return move, rev_edge(e2), e1

    def fold(self, p1, p2, turn, prefix, consumed):
        """Identify directions p1, p2 (equal residual images) into one edge."""
        g = self.graph
        v = g.init_vertex(p1)
        if g.init_vertex(p2) != v:
            raise DecompositionError("fold directions must share a vertex")
        if base_label(p1) == base_label(p2):
            raise DecompositionError("self-folds must be subdivided first")
        t1, t2 = g.term_vertex(p1), g.term_vertex(p2)
        fresh = self._fresh_fold_edge()

        if t1 == t2:
            q = {x: x for x in g.vertices}
        else:
            keep = min(t1, t2)
            q = {x: keep if x in (t1, t2) else x for x in g.vertices}

        b1, b2 = base_label(p1), base_label(p2)
        ends = {}
        for e, (u, w) in g.edge_ends.items():
            if e in (b1, b2):
                continue
            ends[e] = (q[u], q[w])
        ends[fresh] = (q[v], q[t1])

        images = {e: self.resid.image(e) for e in g.pairs if e not in (b1, b2)}
        images[fresh] = prefix
        vmap = {}
        for x in g.vertices:
            vmap.setdefault(q[x], self.resid.vertex_map[x])
            if vmap[q[x]] != self.resid.vertex_map[x]:
                raise DecompositionError("fold merged vertices with distinct images")

        # transient valence-2 vertices are legal mid-decomposition
        probe = {}
        for e, (u, w) in ends.items():
            probe.setdefault(u, 0)
            probe.setdefault(w, 0)
            probe[u] += 1
            probe[w] += 1
        subdiv = ({q[x] for x in g.subdivision_vertices}
                  | {x for x, val in probe.items() if val == 2})

        move_images = {}
        for e in g.pairs:
            if e == b1:
                move_images[e] = (fresh,) if p1 == b1 else (rev_edge(fresh),)
            elif e == b2:
                move_images[e] = (fresh,) if p2 == b2 else (rev_edge(fresh),)
            else:
                move_images[e] = (e,)
        new_resid = self._rebuild(ends, images, vmap, subdiv)
        move_map = GraphMap(g, new_resid.domain, q, move_images)
        move = FoldMove(FOLD, move_map, turn=turn, prefix=prefix,
                        consumed=consumed)
        self.resid = new_resid
        return move

    def finish(self):
        """Verify the residual is a homeomorphism and wrap it as a move."""
        g = self.resid
        seen = {}
        for e in g.domain.pairs:
            img = g.image(e)
            if len(img) != 1:
                raise DecompositionError(
                    f"residual is not a homeomorphism: {e} -> {img}")
            tgt = base_label(img[0])
            if tgt in seen:
                raise DecompositionError(
                    f"residual folds {seen[tgt]} and {e} onto {tgt}")
            seen[tgt] = e
        if set(seen) != set(g.codomain.pairs):
            raise DecompositionError("residual is not onto the codomain")
        if sorted(g.vertex_map.values()) != sorted(g.codomain.vertices):
            raise DecompositionError("residual is not a vertex bijection")
        return FoldMove(HOMEOMORPHISM, g)


def stallings_decomposition(g: GraphMap, lam=None) -> FoldSequence:
    """Factor a tight homotopy equivalence into folds and a homeomorphism.

    When both graphs carry lengths and ``lam`` (the stretch factor of g)
    is given, the intermediate graphs are metrized by pushing the metric
    through the folds.  The canonical choice at each round is the least
    foldable turn; the number of candidates per round is recorded so
    callers can certify uniqueness.
    """
    for e in g.domain.pairs:
        if not g.image(e):
            raise PreconditionError("decomposition needs nonempty edge images")
    state = _State(g, lam)
    moves = []
    graphs = [g.domain]
    residuals = [g]
    fold_rounds = []
    cap = 10 * len(g.domain.pairs) * max(len(g.image(e)) for e in g.domain.pairs)

    while True:
        turns = state.foldable_turns()
        if not turns:
            break
        if len(fold_rounds) >= cap:
            raise DecompositionError(f"no homeomorphism after {cap} folds")
        d1, d2 = turns[0]
        round_start = len(graphs) - 1
        img1, img2 = state.resid.image(d1), state.resid.image(d2)

        if d2 == rev_edge(d1):
            # folding a loop onto itself: the common prefix of the two
            # orientations stops short of the midpoint, so split into
            # three and glue the outer pieces
            prefix = _common_prefix(img1, img2)
            if 2 * len(prefix) >= len(img1):
                raise DecompositionError("self-fold prefix reaches the midpoint")
            move, tail_piece, head_rest = state.subdivide(d2, len(prefix))
            moves.append(move)
            graphs.append(state.graph)
            residuals.append(state.resid)
            move, head_piece, _ = state.subdivide(head_rest, len(prefix))
            moves.append(move)
            graphs.append(state.graph)
            residuals.append(state.resid)
            p1, p2 = head_piece, tail_piece
            consumed = (False, False)
        else:
            prefix = _common_prefix(img1, img2)
            consumed = (len(prefix) == len(img1), len(prefix) == len(img2))
            p1, p2 = d1, d2
            if not consumed[0]:
                move, p1, _ = state.subdivide(d1, len(prefix))
                moves.append(move)
                graphs.append(state.graph)
                residuals.append(state.resid)
            if not consumed[1]:
                move, p2, _ = state.subdivide(d2, len(prefix))
                moves.append(move)
                graphs.append(state.graph)
                residuals.append(state.resid)
        move = state.fold(p1, p2, turn=(d1, d2), prefix=prefix,
                          consumed=consumed)
        moves.append(move)
        graphs.append(state.graph)
        residuals.append(state.resid)
        fold_rounds.append((round_start, len(moves) - 1, len(turns)))

    moves.append(state.finish())
    return FoldSequence(g, moves, graphs, residuals, fold_rounds)


def _normalized(graph: MarkedGraph) -> MarkedGraph:
    vol = float(graph.volume())
    return graph.with_lengths({e: float(x) / vol
                               for e, x in graph.lengths.items()},
                              normalized=True)


def _with_graphs(g: GraphMap, dom, cod) -> GraphMap:
    return GraphMap(dom, cod, g.vertex_map, g.edge_images())


def fold_line(g: GraphMap, periods: int, samples_per_period: int):
    """Discretized periodic fold line through volume-1 marked graphs.

    Starts at the eigenmetric graph and repeatedly decomposes the
    representative, renormalizing each intermediate graph to volume 1;
    the graph after one full period is isometric to the starting one
    (the stretch is absorbed by the normalization).  Returns a list of
    MarkedGraphs: the start plus `samples_per_period` evenly spaced
    fold states per period.
    """
    if periods < 0 or samples_per_period < 0:
        raise PreconditionError("periods and samples must be nonnegative")
    verdict = traintrack.is_train_track(g)
    if not verdict:
        raise PreconditionError(f"not a train track map: {verdict}")
    tm = spectral.transition_matrix(g)
    if spectral.matrix_class(tm) != spectral.PRIMITIVE:
        raise PreconditionError("fold lines need a primitive transition matrix")
    pf = spectral.pf_data(tm)
    graph0 = spectral.eigenmetric(g, pf)
    current = _with_graphs(g, graph0, graph0)

    line = [_normalized(graph0)]
    for _ in range(periods):
        seq = stallings_decomposition(current, lam=pf.lam)
        states = [seq.graphs[idx + 1]
                  for _, idx, _ in seq.fold_rounds]  # graph after each fold
        if samples_per_period and states:
            n = len(states)
            picks = sorted({max(1, round(j * n / samples_per_period))
                            for j in range(1, samples_per_period + 1)})
            line += [_normalized(states[i - 1]) for i in picks]
        # representative at the end of the period: residual then the folds
        chain = None
        for move in seq.moves[:-1]:
            chain = move.map if chain is None else compose(move.map, chain)
        homeo = seq.moves[-1].map
        nxt = compose(chain, homeo) if chain is not None else homeo
        end_graph = _normalized(nxt.domain)
        current = _with_graphs(nxt, end_graph, end_graph)
    return line


class LoneAxisReport:
    """Stage verdicts feeding the unique-axis decision.

    ``overall`` is one of lone-axis / conditional / not-lone-axis /
    unknown, where conditional means both conditions hold but full
    irreducibility was not asserted by the caller.
    """

    def __init__(self, **fields):
        self.rank = fields.pop("rank")
        self.train_track = fields.pop("train_track")
        self.primitive = fields.pop("primitive")
        self.rotationless_exponent = fields.pop("rotationless_exponent")
        self.np_bound = fields.pop("np_bound")
        self.np_free = fields.pop("np_free")
        self.index_sum = fields.pop("index_sum", None)
        self.index_list = fields.pop("index_list", None)
        self.index_condition = fields.pop("index_condition", None)
        self.cut_vertex_condition = fields.pop("cut_vertex_condition", None)
        self.unique_illegal_turn = fields.pop("unique_illegal_turn", None)
        self.ideal_graph = fields.pop("ideal_graph", None)
        self.fully_irreducible_asserted = fields.pop("fully_irreducible_asserted")
        self.overall = fields.pop("overall")
        if fields:
            raise TypeError(f"unknown report fields {sorted(fields)}")

    def __repr__(self):
        return f"LoneAxisReport({self.overall}, i={self.index_sum})"


def rotationless_power(g: GraphMap):
    """(g^k, k) for the rotationless exponent k of a train track map,
    stored on g and shared by every caller.

    Refuses, before building it, a power past the exponent cap or whose
    edge images would hold more than a million letters in total.
    """
    return g._derived("rotationless_power", _rotationless_power)


def _rotationless_power(g):
    k = traintrack.periodic_structure(g).rotationless_exponent
    if k > _ROTATIONLESS_POWER_CAP:
        raise PreconditionError(
            f"rotationless exponent {k} is beyond desk scale")
    if k == 1:
        return g, k
    # 1^T M^k 1 in exact integers: the iterates of a train track map do
    # not cancel, so this is the letter count of the power's edge images
    columns = list(zip(*spectral.transition_matrix(g).mat.tolist()))
    lengths = [1] * len(columns)
    for _ in range(k):
        lengths = [sum(x * m for x, m in zip(lengths, col)) for col in columns]
    letters = sum(lengths)
    if letters > _ROTATIONLESS_LETTER_CAP:
        raise PreconditionError(
            f"rotationless power g^{k} has {letters} letters in its edge "
            f"images, beyond desk scale")
    return power(g, k), k


def _is_homotopy_equivalence(g):
    # folding to a homeomorphism is exactly the homotopy equivalence
    # test; injective-but-not-surjective endomorphisms fail here.  Only
    # the outcome is kept, not the fold sequence.
    stallings_decomposition(g)
    return True


def _fold_records_of(grot):
    return tuple(_fold_records(stallings_decomposition(grot)))


def lone_axis_decision(g: GraphMap, np_bound: int = nielsen.DEFAULT_BOUND,
                       fully_irreducible_asserted: bool = False) -> LoneAxisReport:
    """Decide whether the axis bundle is a single periodic fold line.

    Pipeline: verify the train track property and primitivity, pass to
    the rotationless power, certify NP-freeness, then test the two
    conditions: rotationless index equal to 3/2 - r, and no cut vertex
    in any component of the ideal Whitehead graph.  Full irreducibility
    is the caller's assertion; without it a positive answer is reported
    as conditional.
    """
    r = g.domain.rank()
    if r < 2:
        raise PreconditionError("[rank] lone axis analysis needs rank >= 2")
    verdict = traintrack.is_train_track(g)
    if not verdict:
        raise PreconditionError(f"[train-track] not a train track map: {verdict}")
    if spectral.matrix_class(spectral.transition_matrix(g)) != spectral.PRIMITIVE:
        raise PreconditionError(
            "[spectral] transition matrix is not primitive, so the map "
            "cannot represent a fully irreducible automorphism")
    try:
        g._derived("homotopy_equivalence", _is_homotopy_equivalence)
    except DecompositionError as ex:
        raise PreconditionError(
            f"[homotopy-equivalence] the map does not represent an "
            f"automorphism: {ex}") from ex
    grot, exponent = rotationless_power(g)
    try:
        np_report = nielsen.find_nielsen_paths(grot, np_bound)
        np_free = not np_report.paths
    except NielsenPathPresentError:
        np_free = False  # more concatenations than the search lists
    common = dict(rank=r, train_track=True, primitive=True,
                  rotationless_exponent=exponent, np_bound=np_bound,
                  fully_irreducible_asserted=bool(fully_irreducible_asserted))

    if not np_free:
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
    if not np_report.exhaustive:
        return LoneAxisReport(np_free=None, overall="unknown", **common)

    idx = whitehead.index_report(grot, np_bound, nielsen_report=np_report)
    cond_index = idx.index_sum == Fraction(3, 2) - r
    iw = whitehead.ideal_whitehead_graph(grot, np_bound, nielsen_report=np_report)
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


class AxisSignature:
    """Canonical primitive cyclic word of fold records.

    Each record is the isomorphism class of the graph entering a fold
    round together with the canonical label of the folded turn.  The
    records come from decomposing the canonical rotationless power, so
    the signature of a power agrees with the signature of the base map;
    ``lam`` keeps the dilatation of the original input for power
    bookkeeping.
    """

    def __init__(self, records, lam, rotationless_exponent, repetitions):
        self.records = tuple(records)
        self.lam = float(lam)
        self.rotationless_exponent = int(rotationless_exponent)
        self.repetitions = int(repetitions)

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
        turn_enc = canonical_turn_encoding(
            graph, [(d1, move.consumed[0]), (d2, move.consumed[1])])
        records.append(f"{canonical_encoding(graph)}#{turn_enc}")
    return records


def axis_signature(g: GraphMap, np_bound: int = nielsen.DEFAULT_BOUND,
                   decision: LoneAxisReport | None = None) -> AxisSignature:
    """Signature of the unique periodic fold line through the input.

    Defined only when the lone-axis decision is affirmative at least
    conditionally; the unique illegal turn at every stage makes the
    decomposition canonical, and relabeling the input cannot change the
    records.  A precomputed decision may be passed to avoid repeating
    the Nielsen search.
    """
    report = decision if decision is not None else lone_axis_decision(g, np_bound)
    if report.overall not in ("conditional", "lone-axis"):
        raise NotLoneAxisError(
            f"axis signature undefined: decision is {report.overall}")
    grot, exponent = rotationless_power(g)
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

    status is conjugate-powers / not-detected / inapplicable.  The
    detector is conservative: a positive verdict needs matching fold
    records, a dilatation relation, equal index lists, isomorphic ideal
    Whitehead graphs, and matching singular-ray cycle types at the
    claimed powers.  A mismatch anywhere reports not-detected rather
    than non-conjugacy.
    """

    def __init__(self, status, powers=None, detail=""):
        self.status = status
        self.powers = powers
        self.detail = detail

    def __repr__(self):
        if self.powers:
            return f"ConjugacyVerdict({self.status}, k={self.powers[0]}, l={self.powers[1]})"
        return f"ConjugacyVerdict({self.status})"


def conjugate_power_check(g1: GraphMap, g2: GraphMap, max_power: int = 10,
                          np_bound: int = nielsen.DEFAULT_BOUND) -> ConjugacyVerdict:
    """Detect powers k, l with the first map's k-th power conjugate to
    the second map's l-th power.

    Primitive axis signatures are compared up to rotation, the smallest
    dilatation relation lam1^k = lam2^l is located on a log scale, and
    the claim is then screened against power-invariant data: index
    lists, ideal Whitehead graph classes, and the cycle type of the
    power acting on singular rays.  Only the primitive (k, l) is
    screened; higher multiples are not retried.
    """
    decisions = []
    for g, tag in ((g1, "first"), (g2, "second")):
        rep = lone_axis_decision(g, np_bound)
        if rep.overall not in ("conditional", "lone-axis"):
            return ConjugacyVerdict(
                "inapplicable",
                detail=f"{tag} input is {rep.overall}; signatures undefined")
        decisions.append(rep)
    s1 = axis_signature(g1, np_bound, decision=decisions[0])
    s2 = axis_signature(g2, np_bound, decision=decisions[1])
    if s1.records != s2.records:
        return ConjugacyVerdict("not-detected",
                                detail="primitive fold records differ")
    if decisions[0].index_list != decisions[1].index_list:
        return ConjugacyVerdict("not-detected", detail="index lists differ")
    if not whitehead.whitehead_isomorphic(decisions[0].ideal_graph,
                                          decisions[1].ideal_graph):
        return ConjugacyVerdict("not-detected",
                                detail="ideal Whitehead graphs differ")
    log1, log2 = math.log(s1.lam), math.log(s2.lam)
    powers = None
    for total in range(2, 2 * max_power + 1):
        for k in range(1, min(max_power, total - 1) + 1):
            l = total - k
            if l <= max_power and abs(k * log1 - l * log2) <= 1e-8:
                powers = (k, l)
                break
        if powers:
            break
    if powers is None:
        return ConjugacyVerdict("not-detected",
                                detail="records match but no dilatation "
                                       "relation within the power bound")
    k, l = powers
    if _singular_period_multiset(g1, k) != _singular_period_multiset(g2, l):
        return ConjugacyVerdict(
            "not-detected",
            detail=f"singular-ray cycle types differ at powers ({k}, {l})")
    return ConjugacyVerdict("conjugate-powers", powers,
                            detail="signatures, dilatations, and "
                                   "power-invariants all match")
