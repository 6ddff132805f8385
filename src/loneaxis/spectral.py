"""Transition matrices, irreducibility, and the expansion eigenpair.

The transition matrix of a self-map counts, for each edge pair e, how
often each pair f (in either orientation) is crossed by the image of e.
Its Perron-Frobenius eigenvalue is the dilatation; the left eigenvector,
scaled to total length 1, is the metric making the map affine with
stretch factor equal to the dilatation.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

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

    ``mat[i, j]`` counts crossings of pair ``pairs[i]`` by the image of
    pair ``pairs[j]``.  ``mat`` is a read-only copy, and the matrix class
    and PF data are stored on the instance once computed.
    """

    def __init__(self, pairs, mat):
        self._store = {}
        self.pairs = tuple(pairs)
        self.mat = np.array(mat, dtype=np.int64)
        self.mat.flags.writeable = False
        n = len(self.pairs)
        if self.mat.shape != (n, n) or (self.mat < 0).any():
            raise PreconditionError("malformed transition matrix")

    def __eq__(self, other):
        if not isinstance(other, TransitionMatrix):
            return NotImplemented
        return self.pairs == other.pairs and (self.mat == other.mat).all()

    def __repr__(self):
        return f"TransitionMatrix({self.pairs}, {self.mat.tolist()})"


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
    caller (its ``mat`` is read-only)."""
    return g._derived("transition_matrix", _transition_matrix)


def _transition_matrix(g):
    if not g.is_self_map():
        raise PreconditionError("transition matrix needs a self-map")
    pairs = g.domain.pairs
    idx = {p: i for i, p in enumerate(pairs)}
    n = len(pairs)
    mat = np.zeros((n, n), dtype=np.int64)
    for e in pairs:
        for f, count in Counter(g.image(e)).items():
            mat[idx[base_label(f)], idx[e]] += count
    return TransitionMatrix(pairs, mat)


def _strongly_connected(support):
    n = support.shape[0]

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in np.nonzero(adj[u])[0]:
                if v not in seen:
                    seen.add(int(v))
                    stack.append(int(v))
        return seen

    # arcs e -> f whenever the image of e crosses f, i.e. mat[f, e] > 0
    fwd = support.T
    return len(reach(fwd)) == n and len(reach(fwd.T)) == n


def matrix_class(tm: TransitionMatrix) -> str:
    """One of reducible / irreducible-imprimitive / primitive.

    Irreducibility is strong connectivity of the support digraph;
    primitivity is positivity of some power M^k with k within the
    Wielandt bound (n-1)^2 + 1.  Stored on tm.
    """
    return tm._derived("matrix_class", _matrix_class)


def _matrix_class(tm):
    support = (tm.mat > 0)
    n = support.shape[0]
    if not _strongly_connected(support):
        return REDUCIBLE
    bound = (n - 1) ** 2 + 1
    p = support.astype(np.int64)
    b = support.astype(np.int64)
    for _ in range(bound):
        if (p > 0).all():
            return PRIMITIVE
        p = np.minimum(p @ b, 1)
    return IMPRIMITIVE


def _digraph_period(support):
    """gcd of cycle lengths of a strongly connected support digraph."""
    n = support.shape[0]
    adj = support.T  # arcs e -> f
    dist = {0: 0}
    order = [0]
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v in np.nonzero(adj[u])[0]:
            v = int(v)
            if v not in dist:
                dist[v] = dist[u] + 1
                order.append(v)
                queue.append(v)
    g = 0
    for u in range(n):
        for v in np.nonzero(adj[u])[0]:
            g = math.gcd(g, dist[u] + 1 - dist[int(v)])
    return max(g, 1)


def _power_iterate(a):
    """Dominant eigenpair of a nonnegative matrix by 1-norm power iteration.

    Deterministic uniform start; returns (lam, x) with sum(x) = 1.
    """
    n = a.shape[0]
    x = np.full(n, 1.0 / n)
    lam = 0.0
    for _ in range(_POWER_CAP):
        y = a @ x
        s = float(y.sum())
        if s <= 0:
            raise PreconditionError("matrix is not expanding on the support")
        x_new = y / s
        if (np.abs(x_new - x).max() <= _POWER_RTOL
                and abs(s - lam) <= _POWER_RTOL * max(1.0, s)):
            return s, x_new
        x, lam = x_new, s
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
    a = tm.mat.T.astype(float)
    if cls == PRIMITIVE:
        lam, x = _power_iterate(a)
    else:
        p = _digraph_period(tm.mat > 0)
        lam_p, x0 = _power_iterate(np.linalg.matrix_power(a, p))
        lam = lam_p ** (1.0 / p)
        x = np.zeros_like(x0)
        vec = x0.copy()
        for _ in range(p):
            x += vec
            vec = (a @ vec) / lam
        x = x / x.sum()
    residual = float(np.abs(a @ x - lam * x).max())
    if residual > _RESIDUAL_TOL:
        raise PreconditionError(
            f"eigenpair residual {residual:.3g} exceeds {_RESIDUAL_TOL}")
    lengths = {pair: float(v) for pair, v in zip(tm.pairs, x)}
    return PFData(lam, lengths, residual)


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
