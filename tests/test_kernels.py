"""The per-letter path kernels of the library against their letter-by-letter
oracles, on random words over rose, theta and dumbbell labels, and the
memory a long power holds."""

import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from loneaxis.errors import InvalidMapError
from loneaxis.graphs import (GraphMap, MarkedGraph, compose, is_tight, power,
                             rev_edge, rev_path, rose, rose_map)
from loneaxis import traintrack

import oracles
from conftest import cubic_map, dumbbell_instance

GRAPHS = {
    "rose": rose(["a", "b", "c"]),
    "theta": MarkedGraph({"a": ("u", "v"), "b": ("u", "v"), "c": ("u", "v")}),
    "dumbbell": dumbbell_instance().domain,
}


def words(graph, extra=(), max_size=12):
    """Random words over the oriented labels of a graph (and `extra`):
    neither tight nor paths in general."""
    return st.lists(st.sampled_from(graph.oriented + tuple(extra)),
                    max_size=max_size).map(tuple)


def route(graph, x, y):
    """A shortest edge path from vertex x to vertex y."""
    paths, frontier = {x: ()}, [x]
    while frontier:
        v = frontier.pop(0)
        for d in graph.directions_at(v):
            w = graph.term_vertex(d)
            if w not in paths:
                paths[w] = paths[v] + (d,)
                frontier.append(w)
    return paths[y]


@st.composite
def graph_maps(draw, graph):
    """Random self-maps of a graph: each edge image is a random walk from
    the image of its initial vertex, closed by a shortest path to the
    image of its terminal vertex, and tightened.  Most are not
    automorphisms."""
    vertices = sorted(graph.vertices)
    vmap = {v: draw(st.sampled_from(vertices)) for v in vertices}
    images = {}
    for e in graph.pairs:
        u, v = graph.edge_ends[e]
        x, walk = vmap[u], []
        for k in draw(st.lists(st.integers(0, 5), min_size=1, max_size=6)):
            dirs = graph.directions_at(x)
            walk.append(dirs[k % len(dirs)])
            x = graph.term_vertex(walk[-1])
        images[e] = oracles.tighten(tuple(walk) + route(graph, x, vmap[v]))
        assume(images[e])
    return GraphMap(graph, graph, vmap, images)


@st.composite
def rose_automorphisms(draw):
    """Products of the elementary automorphisms x -> x y^{+-1},
    x -> y^{+-1} x and x -> x' of a rose of rank 2 or 3."""
    letters = "abc"[:draw(st.integers(2, 3))]
    g = rose_map({x: x for x in letters})
    for x, y, inverse, right in draw(st.lists(st.tuples(
            st.sampled_from(letters), st.sampled_from(letters),
            st.booleans(), st.booleans()), max_size=8)):
        images = {l: (l,) for l in letters}
        if x == y:
            images[x] = (x + "'",)
        else:
            y = y + "'" if inverse else y
            images[x] = (x, y) if right else (y, x)
        g = compose(GraphMap(g.domain, g.domain, {"v0": "v0"}, images), g)
    return g


any_map = st.sampled_from(sorted(GRAPHS)).flatmap(
    lambda name: graph_maps(GRAPHS[name]))


@given(st.sampled_from(sorted(GRAPHS)).flatmap(lambda n: words(GRAPHS[n])))
def test_rev_path_and_is_tight(w):
    assert rev_path(w) == oracles.rev_path(w)
    assert is_tight(w) == oracles.is_tight(w)
    assert is_tight(w + oracles.rev_path(w)) == (not w)
    assert traintrack.turns_crossed(w) == oracles.turns_crossed(w)


@given(st.sampled_from(sorted(GRAPHS)).flatmap(
    lambda n: st.tuples(st.just(GRAPHS[n]), words(GRAPHS[n], ("z", "z'")))))
def test_is_path(case):
    graph, w = case
    assert graph.is_path(w) == oracles.is_path(graph, w)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_is_path_rejects_unknown_edges_and_broken_ends(name):
    graph = GRAPHS[name]
    assert not graph.is_path(("z",)) and not graph.is_path(("a", "z"))
    broken = [(x, y) for x in graph.oriented for y in graph.oriented
              if graph.term_vertex(x) != graph.init_vertex(y)]
    for w in broken:
        assert graph.is_path(w) is oracles.is_path(graph, w) is False
    assert name == "rose" or broken


@settings(max_examples=150, deadline=None)
@given(any_map.flatmap(lambda g: st.tuples(st.just(g), words(g.domain))))
def test_apply_path(case):
    g, w = case
    image = g.apply_path(w)
    assert image == oracles.apply_path(g, w)
    assert is_tight(image)
    # the input need not be tight, and may cancel to nothing
    assert g.apply_path(w + oracles.rev_path(w)) == ()
    assert g.apply_path(oracles.tighten(w)) == image


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_apply_path_full_cancellation_and_unknown_edges(name):
    g = GraphMap(GRAPHS[name], GRAPHS[name],
                 {v: v for v in GRAPHS[name].vertices},
                 {e: (e,) for e in GRAPHS[name].pairs})
    assert g.apply_path(("a", "a'")) == oracles.apply_path(g, ("a", "a'")) == ()
    for bad in (("z",), ("a", "z")):
        with pytest.raises(InvalidMapError, match="edge z is not in the domain"):
            g.apply_path(bad)
        with pytest.raises(InvalidMapError, match="edge z is not in the domain"):
            oracles.apply_path(g, bad)


def folded(result):
    """The folded graph of a union-find fold: each class with its codomain
    vertex, and the letters leaving it with the classes they reach."""
    labels, parent, out = result

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    members = {}
    for i in range(len(labels)):
        members.setdefault(root(i), set()).add(i)
    cls = {r: frozenset(ms) for r, ms in members.items()}
    return {cls[r]: (labels[r], {x: cls[root(t)] for x, t in out[r].items()})
            for r in cls}


@settings(max_examples=150, deadline=None)
@given(st.one_of(rose_automorphisms(), any_map,
                 st.sampled_from([dumbbell_instance(),
                                  power(dumbbell_instance(), 2)])))
def test_fold_edge_images(g):
    assert folded(traintrack._fold_edge_images(g)) == folded(
        oracles.fold_edge_images(g))


@settings(max_examples=40, deadline=None)
@given(rose_automorphisms())
def test_automorphisms_fold_onto_the_rose(g):
    assert traintrack._is_homotopy_equivalence(g) is True


def test_reverses_are_shared():
    g = power(cubic_map(), 12)
    letters = {id(x) for e in g.domain.pairs for x in g.image(rev_edge(e))}
    assert len(letters) == 3
    assert rev_edge("a") is rev_edge("a") and rev_edge(rev_edge("a'")) == "a'"


def test_long_power_memory():
    # cubic^42 has 396 655 letters; each stored letter is a pointer to a
    # shared label, both orientations, so the build peaks near 8 MB
    g = power(cubic_map(), 7)
    tracemalloc.start()
    try:
        big = power(g, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(big.image(e)) for e in big.domain.pairs) == 396655
    assert peak < 16 * 10 ** 6
