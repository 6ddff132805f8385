"""Transition matrices, irreducibility, and the expansion eigenpair.

The transition matrix of a self-map counts, for each edge pair e, how
often each pair f (in either orientation) is crossed by the image of e.
Its Perron-Frobenius eigenvalue is the dilatation; the left eigenvector,
scaled to total length 1, is the metric making the map affine with
stretch factor equal to the dilatation.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from functools import reduce

from .errors import PreconditionError
from .graphs import DerivedStore, GraphMap, ReadOnlyDict, base_label

REDUCIBLE = "reducible"
IMPRIMITIVE = "irreducible-imprimitive"
PRIMITIVE = "primitive"

_POWER_CAP = 10 ** 6
_POWER_RTOL = 1e-13
_RESIDUAL_TOL = 1e-10


class TransitionMatrix(DerivedStore):
    """Nonnegative integer matrix indexed by unoriented edge pairs.

    ``mat[i][j]`` counts crossings of pair ``pairs[i]`` by the image of
    pair ``pairs[j]``.  ``mat`` is a tuple of int tuples, so it cannot be
    changed, and the matrix class and PF data are stored on the instance
    once computed.
    """

    def __init__(self, pairs, mat):
        self._store = {}
        self.pairs = tuple(pairs)
        self.mat = tuple(tuple(map(int, row)) for row in mat)
        n = len(self.pairs)
        if len(self.mat) != n or any(len(row) != n or min(row) < 0
                                     for row in self.mat):
            raise PreconditionError("malformed transition matrix")

    def __eq__(self, other):
        if not isinstance(other, TransitionMatrix):
            return NotImplemented
        return self.pairs == other.pairs and self.mat == other.mat

    def __repr__(self):
        return f"TransitionMatrix({self.pairs}, {list(map(list, self.mat))})"


class PFData:
    """Dilatation, positive eigen-lengths summing to 1, and the residual."""

    def __init__(self, lam, edge_lengths, residual):
        self.lam = float(lam)
        self.edge_lengths = ReadOnlyDict(edge_lengths)
        self.residual = float(residual)

    def __repr__(self):
        return f"PFData(lam={self.lam:.12g}, residual={self.residual:.3g})"


def transition_matrix(g: GraphMap) -> TransitionMatrix:
    """Transition matrix of a self-map, stored on g and shared by every
    caller (its ``mat`` is a tuple of tuples)."""
    return g._derived("transition_matrix", _transition_matrix)


def _transition_matrix(g):
    if not g.is_self_map():
        raise PreconditionError("transition matrix needs a self-map")
    pairs = g.domain.pairs
    idx = {p: i for i, p in enumerate(pairs)}
    mat = [[0] * len(pairs) for _ in pairs]
    for j, e in enumerate(pairs):
        for f, count in Counter(g.image(e)).items():
            mat[idx[base_label(f)]][j] += count
    return TransitionMatrix(pairs, mat)


def _bit_product(p, q):
    """Boolean product of two matrices held as bit rows (bit j of row i
    is set when entry (i, j) is positive)."""
    return [reduce(operator.or_, (qk for k, qk in enumerate(q) if row >> k & 1), 0)
            for row in p]


def matrix_class(tm: TransitionMatrix) -> str:
    """One of reducible / irreducible-imprimitive / primitive.

    Irreducibility is strong connectivity of the support digraph, read
    off the reflexive transitive closure; primitivity is positivity of
    some Boolean power M^k with k within the Wielandt bound (n-1)^2 + 1.
    Both are exact.  Stored on tm.
    """
    return tm._derived("matrix_class", _matrix_class)


def _matrix_class(tm):
    rows = [sum(1 << j for j, m in enumerate(row) if m) for row in tm.mat]
    n = len(rows)
    full = (1 << n) - 1
    # (I + M)^(2^b) with 2^b >= n covers every path, so it is positive
    # exactly when each edge pair reaches every other
    reach = [row | 1 << i for i, row in enumerate(rows)]
    for _ in range(n.bit_length()):
        reach = _bit_product(reach, reach)
    if any(row != full for row in reach):
        return REDUCIBLE
    p = rows
    for _ in range((n - 1) ** 2 + 1):
        if all(row == full for row in p):
            return PRIMITIVE
        p = _bit_product(p, rows)
    return IMPRIMITIVE


def is_expanding(tm: TransitionMatrix) -> bool:
    """lam > 1, in integers, for an irreducible matrix: lam lies strictly
    between the least and largest column sum unless they are equal, and
    no column of an irreducible matrix with n > 1 is zero."""
    return max(map(sum, zip(*tm.mat))) > 1


def _digraph_period(mat):
    """gcd of cycle lengths of a strongly connected support digraph."""
    arcs = [(u, v) for u, row in enumerate(mat) for v, m in enumerate(row) if m]
    dist = {0: 0}
    for _ in mat:  # a path length from 0 to every pair after n sweeps
        for u, v in arcs:
            if u in dist:
                dist.setdefault(v, dist[u] + 1)
    return max(math.gcd(*(dist[u] + 1 - dist[v] for u, v in arcs)), 1)


def _mat_vec(a, x):
    # each entry summed left to right: the printed residual's digits
    # follow the rounding of the last iterate
    return [sum(map(float.__mul__, row, x)) for row in a]


def _power_iterate(a):
    """Dominant eigenpair of a nonnegative matrix by 1-norm power iteration.

    Deterministic uniform start; returns (lam, x) with sum(x) = 1.  It
    also stops when the float iterate settles into an exact 2-cycle, as a
    small gap allows; the caller's residual check still guards the result.
    """
    n = len(a)
    x = [1.0 / n] * n
    x_old = None
    lam = 0.0
    for _ in range(_POWER_CAP):
        y = _mat_vec(a, x)
        s = sum(y)
        if s <= 0:
            raise PreconditionError("matrix is not expanding on the support")
        x_new = [v / s for v in y]
        if (max(map(abs, map(float.__sub__, x_new, x))) <= _POWER_RTOL
                and abs(s - lam) <= _POWER_RTOL * max(1.0, s)):
            return s, x_new
        if x_new == x_old:
            return s, x_new
        x_old, x, lam = x, x_new, s
    raise PreconditionError("power iteration did not converge")


def pf_data(tm: TransitionMatrix) -> PFData:
    """Perron-Frobenius eigenvalue and eigen-lengths of M^T.

    Requires an irreducible matrix.  Imprimitive input is handled by
    iterating (M^T)^p for the period p and averaging the orbit of the
    eigenvector, which recovers the genuine eigenvector of M^T.  Stored
    on tm and shared by every caller (``edge_lengths`` is read-only).
    """
    return tm._derived("pf_data", _pf_data)


def _pf_data(tm):
    cls = matrix_class(tm)
    if cls == REDUCIBLE:
        raise PreconditionError("transition matrix is reducible")
    mt = tuple(zip(*tm.mat))
    a = [list(map(float, row)) for row in mt]
    if cls == PRIMITIVE:
        lam, x = _power_iterate(a)
    else:
        p = _digraph_period(tm.mat)
        # (M^T)^p in exact integers, then as floats
        ap = mt
        for _ in range(p - 1):
            ap = [[sum(map(operator.mul, row, col)) for col in tm.mat]
                  for row in ap]
        lam_p, vec = _power_iterate([list(map(float, row)) for row in ap])
        lam = lam_p ** (1.0 / p)
        x = [0.0] * len(vec)
        for _ in range(p):
            x = list(map(float.__add__, x, vec))
            vec = [v / lam for v in _mat_vec(a, vec)]
        total = sum(x)
        x = [v / total for v in x]
    residual = max(abs(u - lam * v) for u, v in zip(_mat_vec(a, x), x))
    if residual > _RESIDUAL_TOL:
        raise PreconditionError(
            f"eigenpair residual {residual:.3g} exceeds {_RESIDUAL_TOL}")
    return PFData(lam, dict(zip(tm.pairs, x)), residual)


def eigenmetric(g: GraphMap):
    """Domain graph remetrized so that g stretches every edge by lam.

    Verifies the affine property: the image of each edge has length
    lam times the edge, within 1e-9 of the image length (or of 1, if
    that is larger), so a long image's rounding error does not fail it.
    Stored on g and shared by every caller.
    """
    return g._derived("eigenmetric", _eigenmetric)


def _eigenmetric(g):
    pf = pf_data(transition_matrix(g))
    graph = g.domain.with_lengths(pf.edge_lengths, normalized=True)
    for e in graph.pairs:
        # left to right, as the floats and the message depend on the order
        img_len = sum(map(pf.edge_lengths.__getitem__, map(base_label, g.image(e))))
        if abs(img_len - pf.lam * pf.edge_lengths[e]) > 1e-9 * max(1, img_len):
            raise PreconditionError(
                f"affine check failed on edge {e}: image length {img_len}")
    return graph


def dilatation(g: GraphMap) -> float:
    return pf_data(transition_matrix(g)).lam
