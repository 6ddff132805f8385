"""Shared builders: worked examples and the random map corpus."""

import random

import pytest

from loneaxis.graphs import GraphMap, MarkedGraph, compose, rose, rose_map
from loneaxis import spectral, traintrack


def fib_map():
    """Golden-ratio example on the 2-rose: a -> ab, b -> a."""
    return rose_map({"a": "ab", "b": "a"})


def cubic_map():
    """Rank-3 example with the smallest dilatation: a -> b, b -> c, c -> ab."""
    return rose_map({"a": "b", "b": "c", "c": "ab"})


def cubic_map_relabeled():
    """The same map written on petals x, y, z."""
    return rose_map({"x": "y", "y": "z", "z": "xy"})


def dumbbell_instance():
    """Two-vertex instance with two principal vertices of 3 gates each.

    Found by exhaustive search over short images on this graph; its
    rotationless square is NP-free and its ideal Whitehead graph splits
    into two 3-vertex components, one per vertex.
    """
    graph = MarkedGraph({"a": ("u", "u"), "b": ("v", "v"),
                         "c": ("u", "v"), "d": ("u", "v")})
    return GraphMap(graph, graph, {"u": "u", "v": "v"},
                    {"a": ("a", "c", "d'"), "b": ("c'", "d"),
                     "c": ("a", "c"), "d": ("a'", "d", "b")})


def eight_petal_map():
    """Rank-8 corpus map with two closed iNPs, d' h and f c g'; their tight
    concatenations within 80 edges number more than the search lists."""
    return rose_map({"a": "acafchcae", "b": "hbg", "c": "fchca",
                     "d": "hbgd", "e": "fchcaehbghhbgd", "f": "fc",
                     "g": "gfchca", "h": "hbgh"})


def rank4_map():
    """Rank-4 corpus map whose Nielsen oracle blows up past bound 8."""
    return rose_map({"a": "bdabaaac", "b": "ba", "c": "ac", "d": "bdaba"})


def rank5_map():
    return rose_map({"a": "adccbcbadccbbadccb", "b": "edbadccb",
                     "c": "adccbcb", "d": "edcbd", "e": "ed"})


def runaway_map():
    """Rank-8 positive map with rotationless exponent 6, whose rotationless
    power would have 800 024 079 letters in its edge images."""
    return rose_map({
        "a": "bghdbgbghdcad",
        "b": "ab",
        "c": "bghdbgbghdcadcfbgbghdbgbghdcaeafbgbghdbgbghdc",
        "d": "bghdbgbghdcaeafbgbghdbgbghdcdfbg",
        "e": "bghdbgbghdcaeafbgbghdbgbghdc",
        "f": "fbg",
        "g": "cfbgbghdbgbghdcaeafbgbghdbgbghdcabgbghda",
        "h": "bghdbgbghdc"})


def defect_map():
    """Rank-4 positive map with rotationless exponent 3, whose rotationless
    power has edge images of up to 49 700 letters: an absolute 1e-9
    affine check of its eigenmetric fails on rounding alone."""
    return rose_map({
        "a": "abdaabbbabdabbcdabdaabbbabdabbcdabdaabbbabdabbcdabdaab",
        "b": "abdaabbbabdabbcd",
        "c": "bbcdabdaabbbabdabbcdabdaabbabda",
        "d": "abdaabbbabdabbcdbabda"})


def identity_map(rank=2):
    letters = [chr(ord("a") + i) for i in range(rank)]
    graph = rose(letters)
    return GraphMap(graph, graph, {"v0": "v0"}, {l: (l,) for l in letters})


def random_desk_graph(rng, n_vertices):
    """Random connected graph with all valences >= 3."""
    vs = [f"v{i}" for i in range(n_vertices)]
    ends = {}
    label = iter(f"e{i}" for i in range(100))
    for i in range(1, n_vertices):
        ends[next(label)] = (vs[rng.randrange(i)], vs[i])
    def valence(v):
        return sum((u == v) + (w == v) for u, w in ends.values())
    while any(valence(v) < 3 for v in vs):
        ends[next(label)] = (rng.choice(vs), rng.choice(vs))
    return MarkedGraph(ends)


def total_image_length(g):
    return sum(len(g.image(e)) for e in g.domain.pairs)


def random_positive_map(rank, rng, moves=7, max_total=36):
    """Random composition of positive elementary automorphisms of a rose.

    Images stay positive words, so the result is automatically a train
    track map; the caller filters for primitivity.
    """
    letters = [chr(ord("a") + i) for i in range(rank)]
    graph = rose(letters)
    current = GraphMap(graph, graph, {"v0": "v0"}, {l: (l,) for l in letters})
    for _ in range(moves):
        x = rng.choice(letters)
        y = rng.choice([l for l in letters if l != x])
        images = {l: (l,) for l in letters}
        images[x] = (x, y) if rng.random() < 0.5 else (y, x)
        move = GraphMap(graph, graph, {"v0": "v0"}, images)
        candidate = compose(move, current)
        if total_image_length(candidate) > max_total:
            break
        current = candidate
    return current


def build_corpus(count=100, seed=20260810):
    """Deterministic corpus of verified expanding train track maps,
    ranks 2 to 4, with primitive transition matrices."""
    rng = random.Random(seed)
    corpus = []
    ranks = [2, 3, 4]
    while len(corpus) < count:
        rank = ranks[len(corpus) % len(ranks)]
        g = random_positive_map(rank, rng)
        if total_image_length(g) <= g.domain.rank():
            continue  # identity-like, not expanding
        tm = spectral.transition_matrix(g)
        if spectral.matrix_class(tm) != spectral.PRIMITIVE:
            continue
        assert traintrack.is_train_track(g)
        corpus.append(g)
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def small_corpus():
    return build_corpus(count=24, seed=987123)
