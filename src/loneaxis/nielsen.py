"""Bounded search for Nielsen paths in rotationless train track maps.

A Nielsen path is a nontrivial tight path fixed by the tightened map;
on rotationless input every periodic Nielsen path already has period
one, so a period-1 search is complete.  An indivisible NP decomposes as
two legal legs joined at an illegal turn, and each leg is a prefix of
the ray swept out by iterating the map on a fixed direction.  The map
sends a leg R[:i] to R[:i] followed by a tail of the same ray, and two
legs that meet at a tight turn degenerating in one step form an NP
exactly when their tails agree, so the search matches legs by tail.
A tail is what the images of the two legs share at their ends, which
bounded cancellation limits, so the legs are read only up to a cap that
no indivisible NP can pass, whatever bound is asked, and a search whose
bound reaches the cap certifies.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, combinations, islice, takewhile
from operator import eq

from .errors import (InternalCheckError, NielsenPathPresentError,
                     PreconditionError)
from .graphs import GraphMap, rev_edge, rev_path
from . import spectral, traintrack

DEFAULT_BOUND = 40
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

    ``paths`` lists every NP found with legs of at most ``search_bound``
    edges, the requested bound, canonically oriented and sorted; the legs
    are read up to min(bound, cap).  ``proven_leg_bound`` is that cap
    (`_leg_cap`), the longest leg an iNP can have.  ``exhaustive`` means
    the cap lies within the requested bound, so an empty list certifies
    NP-freeness (concatenations of indivisible paths are only enumerated
    up to twice the bound).
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
    traintrack.require_train_track(g)
    if not traintrack.is_rotationless(g):
        raise PreconditionError(
            "map is not rotationless; raise it to its rotationless power first")
    # the leg structure of indivisible NPs needs an expanding irreducible map
    tm = spectral.transition_matrix(g)
    if spectral.matrix_class(tm) == spectral.REDUCIBLE:
        raise PreconditionError("Nielsen search needs an irreducible map")
    if not spectral.is_expanding(tm):
        raise PreconditionError("Nielsen search needs an expanding map")


def _fixed_directions(g):
    # g(d) starts at the image of init(d), so a fixed direction fixes its
    # vertex too
    dmap = traintrack.direction_map(g)
    return [d for d in g.domain.oriented if dmap[d] == d]


def _tail(g, ray, n, i):
    """The tail tau(i) = R[i:n[i]] of the leg R[:i], as an iterator over
    the stored edge images: the end of the image of the edge R[j] that
    holds letter i, then the images of R[j+1:i].  ``n[k]`` is the summed
    image length of R[:k], so the tail is empty when n[i] = i.
    """
    j = bisect_right(n, i, 0, i + 1) - 1
    return islice(chain.from_iterable(map(g.image, islice(ray, j, i))),
                  i - n[j], None)


def _canonical(path):
    """Orientation-independent representative: the lesser of path, reverse."""
    r = rev_path(path)
    return path if path <= r else r


def _iterative_search(g, bound):
    """All indivisible NPs with legs of at most `bound` edges; the caller
    passes min(bound, cap), as no iNP has a leg past `_leg_cap`.

    A leg is a prefix R[:i] of the eigenray R at a fixed direction, and
    g(R[:i]) = R[:i] . tau(i) with tail tau(i) = R[i:n(i)], where n(i) is
    the summed image length of R[:i].  A candidate R_a[:i] . rev(R_b[:j])
    whose junction is tight and degenerates in one step is fixed exactly
    when tau_a(i) = tau_b(j): the two legal images can only cancel at the
    junction, since a legal ray contains no illegal turn; legality is
    checked where the images of consecutive ray edges meet, in the pass
    that grows R[:bound] from those images.  Legs are grouped by junction
    direction and tail length, and only legs of one group have their
    tails compared, letter by letter as `_tail` reads them from the edge
    images, so the image of a ray is never built; the tightened image
    confirms each candidate.
    """
    dmap = traintrack.direction_map(g)
    groups = {}
    for d in _fixed_directions(g):
        ray, n, last = [d], [0], None
        for i, e in enumerate(ray, 1):
            img = g.image(e)
            if rev_edge(img[0]) == last:
                raise InternalCheckError(
                    f"the ray of direction {d} is not legal: its image cancels")
            last = img[-1]
            n.append(n[-1] + len(img))
            if len(ray) < bound:
                # g(R[:i]) = R[:n(i)], so g(R[i-1]) ends at letter n(i):
                # append its letters past the ray's end, up to the bound,
                # and the loop goes on over them
                ray += img[len(ray) - n[i - 1]:bound - n[i - 1]]
            groups.setdefault((dmap[rev_edge(e)], n[i] - i), []).append(
                (ray, n, i))

    found = set()
    for group in groups.values():
        if len(group) < 2:
            continue  # a lone leg has no mate; its tail is never read
        for (ray_a, n_a, i), (ray_b, n_b, j) in combinations(group, 2):
            if ray_a[i - 1] == ray_b[j - 1]:
                continue  # junction would not be tight
            if all(map(eq, _tail(g, ray_a, n_a, i), _tail(g, ray_b, n_b, j))):
                rho = tuple(ray_a[:i]) + rev_path(ray_b[:j])
                if g.apply_path(rho) == rho:
                    found.add(_canonical(rho))
    return sorted(found)


def _common_end(a, p, b, q):
    """Length of the longest common end of a[:p] and b[:q], compared in
    slices of at most 1024 letters, so a long match runs in C and copies
    little at a time."""
    c, n = 0, min(p, q)
    while c < n:
        k = min(n - c, 1024)
        x, y = a[p - c - k:p - c], b[q - c - k:q - c]
        if x != y:
            return c + sum(takewhile(bool, map(eq, reversed(x), reversed(y))))
        c += k
    return c


def _tail_bound(g):
    """The most letters the tail of an iNP leg of two or more edges can
    have; None when no bound shows.

    Such a leg R[:i] has n(i-1) >= i, so its tail R[i:n(i)] ends in the
    whole image of its last edge x; the mate's tail, the same path, ends
    in the image of its own last edge y, so one of g(x), g(y) ends the
    other.  The tail is then what g(alpha) and g(beta) share at their
    ends, for the two legal legs alpha and beta, and it is bounded by
    matching images backwards from every such pair x, y.  In a state
    (z, p, w) the first p letters of g(z) and the whole of g(w) are still
    unmatched; the side used up first goes on with each edge before it
    across a legal turn whose image ends in the letter the other side
    needs next.  Bounded cancellation (Cooper 1987) makes the states a
    finite acyclic graph for a homotopy equivalence, and the bound is its
    longest path, found by a depth-first walk on an explicit stack.  A
    cycle, or two sides that go on with one edge, would let the ends
    agree without limit.
    """
    dom = g.domain
    img = {e: g.image(e) for e in dom.oriented}
    gate_of = traintrack.gates(g).gate_of
    preds = {}

    def predecessors(w):
        # the edges z with z . w legal, by the last letter of their image
        if w not in preds:
            by_end = preds[w] = {}
            for d in dom.directions_at(dom.init_vertex(w)):
                if gate_of[d] != gate_of[w]:
                    by_end.setdefault(img[rev_edge(d)][-1], []).append(
                        rev_edge(d))
        return preds[w]

    ends = {}
    for e in dom.oriented:
        ends.setdefault(img[e][-1], []).append(e)
    # pairs whose images nest: the shorter one ends the longer one
    starts = [(x, len(img[x]), y) if len(img[x]) >= len(img[y])
              else (y, len(img[y]), x)
              for same in ends.values() for x, y in combinations(same, 2)
              if all(map(eq, reversed(img[x]), reversed(img[y])))]
    # value[s]: longest path from s; on_path[s]: (c, successors) till done
    value, on_path, stack = {}, {}, starts[:]
    while stack:
        state = stack.pop()
        if state in value:
            continue
        if state in on_path:
            # it was pushed back under its successors, now all finished
            c, nxt = on_path.pop(state)
            value[state] = c + max(map(value.__getitem__, nxt))
            continue
        z, p, w = state
        a, b = img[z], img[w]
        c = _common_end(a, p, b, len(b))
        p, q = p - c, len(b) - c
        nxt = ()
        if p and not q:
            nxt = [(z, p, w2) for w2 in predecessors(w).get(a[p - 1], ())]
        elif q and not p:
            nxt = [(w, q, z2) for z2 in predecessors(z).get(b[q - 1], ())]
        elif not p:
            pairs = [(z2, w2) for end, zs in predecessors(z).items()
                     for w2 in predecessors(w).get(end, ()) for z2 in zs]
            if any(z2 == w2 for z2, w2 in pairs):
                return None
            # a fresh pair reads the same in either order
            nxt = [(x, len(img[x]), y) for x, y in map(sorted, pairs)]
        if not nxt:
            value[state] = c
            continue
        on_path[state] = c, nxt
        if not on_path.keys().isdisjoint(nxt):
            return None  # a cycle
        stack.append(state)
        stack += nxt
    return max(map(value.__getitem__, starts), default=0)


def _leg_cap(g):
    """The longest leg an indivisible NP of g can have, in edges.

    A leg of one edge is always read.  A longer leg's tail has at most
    `_tail_bound` letters, and the tail length n(i) - i never falls as i
    grows, so each ray is walked, a letter at a time, until its tail
    passes that bound, which every automorphism has.  Stored on g.
    """
    most = _tail_bound(g)
    if most is None:
        traintrack.require_automorphism(g)
        raise InternalCheckError(
            "the leg matcher shows no bound for an automorphism")
    cap = 1
    for d in _fixed_directions(g):
        ray, n = [d], [0]
        for i, e in enumerate(ray, 1):
            n.append(n[-1] + len(g.image(e)))
            if n[i] - i > most:
                break
            cap = max(cap, i)
            # R[:n(i)] = g(R[:i]) with n(i) > i: letter i lies in the
            # image of the ray edge R[k] with n(k) <= i < n(k+1)
            k = bisect_right(n, i) - 1
            ray.append(g.image(ray[k])[i - n[k]])
    return cap


def _concatenations(g, inps, max_len):
    """Divisible NPs: tight concatenations of indivisible ones.

    Free reduction is unique, so g#(path . q) = [g#(path) g#(q)]: each
    piece is mapped once, and a candidate's image joins its path's image
    to the piece's, cancelling only where they meet, as `apply_path`
    does.  Each candidate carries its reverse, rev(path . q) =
    rev(q) . rev(path), so its canonical key is a comparison of two
    joined tuples.  Each check is then linear in the letters it lists.
    """
    pieces = sorted({p for q in inps for p in (q, rev_path(q))})
    images = {q: g.apply_path(q) for q in pieces}
    revs = {q: rev_path(q) for q in pieces}
    dom = g.domain
    out = set()
    frontier = [(p, revs[p], images[p]) for p in pieces]
    while frontier:
        path, rpath, image = frontier.pop()
        for q in pieces:
            if len(path) + len(q) > max_len:
                continue
            if dom.term_vertex(path[-1]) != dom.init_vertex(q[0]):
                continue
            if rev_edge(path[-1]) == q[0]:
                continue  # concatenation would not be tight
            new, rnew, img = path + q, revs[q] + rpath, images[q]
            c, n = 0, min(len(image), len(img))
            while c < n and image[-1 - c] == rev_edge(img[c]):
                c += 1
            new_image = image[:len(image) - c] + img[c:]
            key = new if new <= rnew else rnew
            if key not in out:
                if new_image != new:
                    raise InternalCheckError(
                        "tight concatenation of Nielsen paths must be fixed")
                out.add(key)
                if len(out) > _CONCAT_CAP:
                    # an output-size limit, reachable only when iNPs exist
                    raise NielsenPathPresentError(
                        f"more than {_CONCAT_CAP} divisible Nielsen paths "
                        f"within {max_len} edges")
            frontier.append((new, rnew, new_image))
    return sorted(out)


def find_nielsen_paths(g: GraphMap, bound: int = DEFAULT_BOUND) -> NielsenPathReport:
    """Search for Nielsen paths with legs of at most `bound` edges.

    Indivisible NPs are found by matching eigenray legs whose image
    tails agree (see `_iterative_search`), read to min(bound, cap) edges
    (`_leg_cap`) and stored on g, so every bound at or above the cap
    shares one search; divisible ones are their tight concatenations of
    up to twice the requested bound, which ``search_bound`` reports.  The
    report is exhaustive when the leg cap fits under the requested bound.
    Raises NielsenPathPresentError when the concatenations are too many
    to list, and PreconditionError on a map with no leg cap, which
    represents no automorphism.  The report is stored on g per bound and
    shared by every caller.
    """
    if bound < 1:
        raise PreconditionError("bound must be a positive integer")
    return g._derived(("nielsen_paths", bound),
                      lambda g: _find_nielsen_paths(g, bound))


def _find_nielsen_paths(g, bound):
    _require_rotationless_tt(g)
    # no iNP has a leg past the cap, so every bound at or above it shares
    # one search, stored on g, and certifies
    cap = g._derived("leg_cap", _leg_cap)
    legs = min(bound, cap)
    inps = g._derived(("inps", legs), lambda g: _iterative_search(g, legs))
    divisible = _concatenations(g, inps, 2 * bound)
    paths = [NielsenPath(p, True) for p in inps]
    paths += [NielsenPath(p, False) for p in divisible]
    paths.sort(key=lambda np_: np_.path)
    return NielsenPathReport(paths, bound, bound >= cap, cap)


def np_verdict(g: GraphMap, bound: int = DEFAULT_BOUND):
    """(free, reason, report): the one reading of a Nielsen search.

    ``free`` is True when the search certifies that g carries no Nielsen
    path, False when it finds one and None when it is empty but not
    exhaustive; ``reason`` (None when free) says why the ideal data is
    undefined.  ``report`` is the stored search report, or None when the
    concatenations were too many to list.  Stored on g per bound, the
    capped outcome too, so a repeat call runs no search.
    """
    return g._derived(("np_verdict", bound), lambda g: _np_verdict(g, bound))


def _np_verdict(g, bound):
    try:
        report = find_nielsen_paths(g, bound)
    except NielsenPathPresentError as ex:
        return False, str(ex), None
    if report.paths:
        return False, (f"representative carries a Nielsen path "
                       f"{' '.join(report.paths[0].path)}; ideal data is "
                       f"undefined here"), report
    if not report.exhaustive:
        return None, (f"Nielsen search at bound {report.search_bound} is not "
                      f"exhaustive (proven bound {report.proven_leg_bound}); "
                      f"raise it"), report
    return True, None, report
