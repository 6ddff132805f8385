"""Bounded search for Nielsen paths in rotationless train track maps.

A Nielsen path is a nontrivial tight path fixed by the tightened map;
on rotationless input every periodic Nielsen path already has period
one, so a period-1 search is complete.  An indivisible NP decomposes as
two legal legs joined at an illegal turn, and each leg is a prefix of
the ray swept out by iterating the map on a fixed direction.  The map
sends a leg R[:i] to R[:i] followed by a tail of the same ray, and two
legs that meet at a tight turn degenerating in one step form an NP
exactly when their tails agree, so the search matches legs by tail.  A
brute-force enumeration over all tight paths doubles as an independent
oracle at small bounds.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import (InternalCheckError, NielsenPathPresentError,
                     PreconditionError)
from .graphs import GraphMap, rev_edge, rev_path
from . import spectral, traintrack

DEFAULT_BOUND = 40
_ORACLE_MAX_BOUND = 12
_CONCAT_CAP = 200


class NielsenPath:
    def __init__(self, path, indivisible):
        self.path = tuple(path)
        self.indivisible = bool(indivisible)

    def __repr__(self):
        kind = "iNP" if self.indivisible else "NP"
        return f"{kind}({' '.join(self.path)})"


class NielsenPathReport:
    """Outcome of a bounded Nielsen path search.

    ``paths`` lists every NP found, canonically oriented and sorted;
    ``exhaustive`` means the proven leg bound lies within the searched
    bound, so an empty list certifies NP-freeness (concatenations of
    indivisible paths are only enumerated up to twice the bound).
    """

    def __init__(self, paths, search_bound, exhaustive, proven_leg_bound):
        self.paths = tuple(paths)
        self.search_bound = int(search_bound)
        self.exhaustive = bool(exhaustive)
        self.proven_leg_bound = proven_leg_bound

    def inps(self):
        return tuple(p for p in self.paths if p.indivisible)

    def __repr__(self):
        state = "exhaustive" if self.exhaustive else f"bound {self.search_bound}"
        return f"NielsenPathReport({list(self.paths)}, {state})"


def _require_rotationless_tt(g):
    verdict = traintrack.is_train_track(g)
    if not verdict:
        raise PreconditionError(f"not a train track map: {verdict}")
    if not traintrack.is_rotationless(g):
        raise PreconditionError(
            "map is not rotationless; raise it to its rotationless power first")
    # the leg structure of indivisible NPs needs an expanding irreducible map
    tm = spectral.transition_matrix(g)
    if spectral.matrix_class(tm) == spectral.REDUCIBLE:
        raise PreconditionError("Nielsen search needs an irreducible map")
    if spectral.pf_data(tm).lam <= 1 + 1e-12:
        raise PreconditionError("Nielsen search needs an expanding map")


def _fixed_directions(g):
    dmap = traintrack.direction_map(g)
    return [d for d in g.domain.oriented
            if dmap[d] == d and g.vertex_map[g.domain.init_vertex(d)]
            == g.domain.init_vertex(d)]


def _eigenray(g, d, bound):
    """Prefix of at most `bound` edges of the ray obtained by iterating g
    on a fixed direction, together with its image.

    The ray is legal, so images concatenate without cancellation, each
    iterate extends the previous one, and the image of the prefix is a
    longer prefix of the same ray.
    """
    ray = (d,)
    while len(ray) < bound:
        grown = g.apply_path(ray)
        if grown[:len(ray)] != ray:
            raise InternalCheckError(f"direction {d} does not extend its ray")
        if len(grown) == len(ray):
            break  # non-expanding direction; cannot feed a leg
        ray = grown
    ray = ray[:bound]
    return ray, g.apply_path(ray)


def _canonical(path):
    """Orientation-independent representative: the lesser of path, reverse."""
    r = rev_path(path)
    return path if path <= r else r


def _iterative_search(g, bound):
    """All indivisible NPs with legs of at most `bound` edges.

    A leg is a prefix R[:i] of the eigenray R at a fixed direction, and
    g(R[:i]) = R[:i] . tau(i) with tail tau(i) = R[i:n(i)], where n(i) is
    the summed image length of R[:i].  A candidate R_a[:i] . rev(R_b[:j])
    whose junction is tight and degenerates in one step is fixed exactly
    when tau_a(i) = tau_b(j): the two legal images can only cancel at the
    junction, since a legal ray contains no illegal turn.  Legs are
    grouped by junction direction and tail length, and only a group of
    two legs or more has its tails built and compared, so a long image
    is not sliced once per leg; the tightened image confirms each
    candidate.
    """
    dmap = traintrack.direction_map(g)
    groups = {}
    for d in _fixed_directions(g):
        ray, image = _eigenray(g, d, bound)
        n = 0
        for i, e in enumerate(ray, 1):
            n += len(g.image(e))
            groups.setdefault((dmap[rev_edge(e)], n - i), []).append(
                (ray, i, image, n))

    found = set()
    for group in groups.values():
        if len(group) < 2:
            continue  # a lone leg has no mate; its tail is never built
        by_tail = {}
        for ray, i, image, n in group:
            by_tail.setdefault(image[i:n], []).append((ray, i))
        for legs in by_tail.values():
            for (ray_a, i), (ray_b, j) in itertools.combinations(legs, 2):
                if ray_a[i - 1] == ray_b[j - 1]:
                    continue  # junction would not be tight
                rho = ray_a[:i] + rev_path(ray_b[:j])
                if g.apply_path(rho) == rho:
                    found.add(_canonical(rho))
    return sorted(found)


def _concatenations(g, inps, max_len):
    """Divisible NPs: tight concatenations of indivisible ones."""
    pieces = set()
    for p in inps:
        pieces.add(p)
        pieces.add(rev_path(p))
    pieces = sorted(pieces)
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
                continue  # concatenation would not be tight
            new_seq = seq + (q,)
            path = tuple(x for p in new_seq for x in p)
            key = _canonical(path)
            if key not in out:
                if g.apply_path(path) != path:
                    raise InternalCheckError(
                        "tight concatenation of Nielsen paths must be fixed")
                out.add(key)
                if len(out) > _CONCAT_CAP:
                    # an output-size limit, reachable only when iNPs exist
                    raise NielsenPathPresentError(
                        f"more than {_CONCAT_CAP} divisible Nielsen paths "
                        f"within {max_len} edges")
            frontier.append(new_seq)
    return sorted(out)


def brute_force_nielsen_paths(g, bound):
    """Independent oracle: enumerate every tight path of <= bound edges
    between fixed vertices and keep those fixed by the tightened map.

    No structure theory is used; exponential in the bound.
    """
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


def _proven_leg_bound(g):
    """Edge-count bound on a leg of any indivisible NP, from the metric.

    In the eigenmetric a leg satisfies lam * L = L + L(prefix) with the
    prefix no longer than the longest edge image, so
    L <= lam * max_len / (lam - 1); dividing by the shortest edge
    converts length to an edge count.  The caller has checked that g
    is irreducible and expanding.
    """
    pf = spectral.pf_data(spectral.transition_matrix(g))
    # the search does not use the eigenmetric; building it runs the
    # affine check, which validates the PF data this bound rests on
    spectral.eigenmetric(g, pf)
    lam = pf.lam
    max_len = max(pf.edge_lengths.values())
    min_len = min(pf.edge_lengths.values())
    leg_length = lam * max_len / (lam - 1)
    return int(leg_length / min_len + 1e-9)


def find_nielsen_paths(g: GraphMap, bound: int = DEFAULT_BOUND) -> NielsenPathReport:
    """Search for Nielsen paths with legs of at most `bound` edges.

    Indivisible NPs are found by matching eigenray legs whose image
    tails agree (see `_iterative_search`); divisible ones are their
    tight concatenations of up to twice the bound.  The brute-force
    oracle runs as a cross-check on every call whose bound is small
    enough for it (<= 12); any disagreement raises.  The report is
    exhaustive when the proven leg bound fits under the requested bound.
    Raises NielsenPathPresentError when the concatenations are too many
    to list.  The report is stored on g per bound and shared by every
    caller; the oracle's verdict is not, so every call at a small bound
    checks the stored report against a fresh brute-force enumeration.
    """
    if bound < 1:
        raise PreconditionError("bound must be a positive integer")
    report = g._derived(("nielsen_paths", bound),
                        lambda g: _find_nielsen_paths(g, bound))
    if bound <= _ORACLE_MAX_BOUND:
        oracle = set(brute_force_nielsen_paths(g, bound))
        mine = {p.path for p in report.paths if len(p.path) <= bound}
        if mine != oracle:
            raise InternalCheckError(
                f"Nielsen searches disagree: iterative {sorted(mine)} "
                f"vs brute force {sorted(oracle)}")
    return report


def _find_nielsen_paths(g, bound):
    _require_rotationless_tt(g)
    proven = _proven_leg_bound(g)
    inps = _iterative_search(g, bound)
    divisible = _concatenations(g, inps, 2 * bound)
    paths = [NielsenPath(p, True) for p in inps]
    paths += [NielsenPath(p, False) for p in divisible]
    paths.sort(key=lambda np_: np_.path)
    return NielsenPathReport(paths, bound, bound >= proven, proven)


def is_fully_stable(g: GraphMap, bound: int = DEFAULT_BOUND):
    """True / False / None (unknown at this bound).

    A rotationless representative is fully stable exactly when it
    carries no Nielsen paths, which the search certifies when
    exhaustive.
    """
    try:
        report = find_nielsen_paths(g, bound)
    except NielsenPathPresentError:
        return False
    if report.paths:
        return False
    if report.exhaustive:
        return True
    return None


def ageometric_certificate(g: GraphMap, bound: int = DEFAULT_BOUND) -> str:
    """'ageometric' / 'not-ageometric' / 'unknown' for the automorphism
    represented by g (assumed fully irreducible by the caller).

    Ageometric means the fully stable representative is NP-free.  When
    certifying ageometric, cross-checks that the gate index over
    principal vertices stays strictly above 1 - rank, the value forced
    on geometric and parageometric automorphisms.
    """
    if spectral.matrix_class(spectral.transition_matrix(g)) != spectral.PRIMITIVE:
        raise PreconditionError("transition matrix is not primitive")
    stable = is_fully_stable(g, bound)
    if stable is None:
        return "unknown"
    if stable is False:
        return "not-ageometric"
    gs = traintrack.gates(g)
    ps = traintrack.periodic_structure(g, nielsen_free=True)
    index_sum = sum((1 - Fraction(gs.gate_count(v), 2)
                     for v in ps.principal_vertices), Fraction(0))
    r = g.domain.rank()
    if index_sum <= 1 - r:
        raise InternalCheckError(
            f"NP-free representative with index {index_sum} <= 1 - r; "
            f"ageometric characterization violated")
    return "ageometric"
