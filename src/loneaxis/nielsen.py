"""Bounded search for Nielsen paths in rotationless train track maps.

A Nielsen path is a nontrivial tight path fixed by the tightened map;
on rotationless input every periodic Nielsen path already has period
one, so a period-1 search is complete.  An indivisible NP decomposes as
two legal legs joined at an illegal turn, and each leg is a prefix of
the ray swept out by iterating the map on a fixed direction.  The map
sends a leg R[:i] to R[:i] followed by a tail of the same ray, and two
legs that meet at a tight turn degenerating in one step form an NP
exactly when their tails agree, so the search matches legs by tail.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import chain, combinations, islice
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
    """All indivisible NPs with legs of at most `bound` edges.

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


def _concatenations(g, inps, max_len):
    """Divisible NPs: tight concatenations of indivisible ones.

    Free reduction is unique, so g#(path . q) = [g#(path) g#(q)]: each
    piece is mapped once, and a candidate's image joins its path's image
    to the piece's, cancelling only where they meet, as `apply_path`
    does.  Each check is then linear in the letters it lists.
    """
    pieces = sorted({p for q in inps for p in (q, rev_path(q))})
    images = {q: g.apply_path(q) for q in pieces}
    dom = g.domain
    out = set()
    frontier = [(p, images[p]) for p in pieces]
    while frontier:
        path, image = frontier.pop()
        for q in pieces:
            if len(path) + len(q) > max_len:
                continue
            if dom.term_vertex(path[-1]) != dom.init_vertex(q[0]):
                continue
            if rev_edge(path[-1]) == q[0]:
                continue  # concatenation would not be tight
            new, img = path + q, images[q]
            c, n = 0, min(len(image), len(img))
            while c < n and image[-1 - c] == rev_edge(img[c]):
                c += 1
            new_image = image[:len(image) - c] + img[c:]
            key = _canonical(new)
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
            frontier.append((new, new_image))
    return sorted(out)


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
    spectral.eigenmetric(g)
    lam = pf.lam
    max_len = max(pf.edge_lengths.values())
    min_len = min(pf.edge_lengths.values())
    leg_length = lam * max_len / (lam - 1)
    return int(leg_length / min_len + 1e-9)


def find_nielsen_paths(g: GraphMap, bound: int = DEFAULT_BOUND) -> NielsenPathReport:
    """Search for Nielsen paths with legs of at most `bound` edges.

    Indivisible NPs are found by matching eigenray legs whose image
    tails agree (see `_iterative_search`); divisible ones are their
    tight concatenations of up to twice the bound.  The report is
    exhaustive when the proven leg bound fits under the requested bound.
    Raises NielsenPathPresentError when the concatenations are too many
    to list.  The report is stored on g per bound and shared by every
    caller.
    """
    if bound < 1:
        raise PreconditionError("bound must be a positive integer")
    return g._derived(("nielsen_paths", bound),
                      lambda g: _find_nielsen_paths(g, bound))


def _find_nielsen_paths(g, bound):
    _require_rotationless_tt(g)
    proven = _proven_leg_bound(g)
    inps = _iterative_search(g, bound)
    divisible = _concatenations(g, inps, 2 * bound)
    paths = [NielsenPath(p, True) for p in inps]
    paths += [NielsenPath(p, False) for p in divisible]
    paths.sort(key=lambda np_: np_.path)
    return NielsenPathReport(paths, bound, bound >= proven, proven)


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
    free = np_verdict(g, bound)[0]
    if not free:
        return "unknown" if free is None else "not-ageometric"
    gs = traintrack.gates(g)
    ps = traintrack.periodic_structure(g)
    index_sum = sum((1 - Fraction(gs.gate_count(v), 2)
                     for v in ps.principal_vertices), Fraction(0))
    r = g.domain.rank()
    if index_sum <= 1 - r:
        raise InternalCheckError(
            f"NP-free representative with index {index_sum} <= 1 - r; "
            f"ageometric characterization violated")
    return "ageometric"
