"""The canonical-form engine: agreement with networkx on simple graphs,
agreement with a brute-force labeling on marked graphs, invariance under
relabeling, the cost of symmetric graphs, and golden pins of the
marked-graph encodings that fold records are built from."""

import hashlib
import itertools
import os
import random
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import loneaxis
from loneaxis import axes, isomorphism, traintrack
from loneaxis.graphs import MarkedGraph, power
from loneaxis.isomorphism import (canonical_encoding, canonical_form,
                                  canonical_turn_encoding)
from loneaxis.whitehead import WhiteheadGraph, whitehead_isomorphic

from conftest import (cubic_map, cubic_map_relabeled, dumbbell_instance,
                      eight_petal_map, fib_map, random_desk_graph, rank4_map)
from oracles import brute_force_labelings, brute_force_turn_encoding


def whitehead_graph(g, prefix="n"):
    """A networkx graph as a Whitehead graph with vertex names prefix+node."""
    return WhiteheadGraph("stable", [f"{prefix}{v}" for v in g],
                          [(f"{prefix}{u}", f"{prefix}{v}") for u, v in g.edges()])


def relabeled(g, rng):
    perm = list(g)
    rng.shuffle(perm)
    return nx.relabel_nodes(g, dict(zip(g, perm)))


def cycles(*sizes):
    return nx.disjoint_union_all([nx.cycle_graph(n) for n in sizes])


def petersen_and_prism():
    return nx.petersen_graph(), nx.circular_ladder_graph(5)


NAMED = {
    # complements of C7 and of C3 + C4: 4-regular on 7 vertices
    "k7": (nx.complement(cycles(7)), nx.complement(cycles(3, 4))),
    "prism/moebius6": (nx.circular_ladder_graph(3), nx.circulant_graph(6, [1, 3])),
    "cube/moebius8": (nx.hypercube_graph(3), nx.circulant_graph(8, [1, 4])),
    "petersen/prism5": petersen_and_prism(),
    "k33/prism": (nx.complete_bipartite_graph(3, 3), nx.circular_ladder_graph(3)),
    "2k3/c6": (cycles(3, 3), cycles(6)),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_pairs(name):
    rng = random.Random(name)
    g, h = (nx.convert_node_labels_to_integers(x) for x in NAMED[name])
    assert not nx.is_isomorphic(g, h)
    assert not whitehead_isomorphic(whitehead_graph(g), whitehead_graph(h, "m"))
    for x in (g, h):
        assert whitehead_isomorphic(whitehead_graph(x),
                                    whitehead_graph(relabeled(x, rng), "r"))


@pytest.mark.parametrize("n", range(1, 12))
def test_complete_graphs(n):
    rng = random.Random(n)
    kn = nx.complete_graph(n)
    assert whitehead_isomorphic(whitehead_graph(kn),
                                whitehead_graph(relabeled(kn, rng), "r"))
    if n > 1:
        minus = kn.copy()
        minus.remove_edge(*rng.choice(list(kn.edges())))
        w = whitehead_graph(minus, "m")
        assert canonical_form(w) != canonical_form(whitehead_graph(kn))
        assert canonical_form(w) == canonical_form(
            whitehead_graph(relabeled(minus, rng), "r"))


def seeded_pairs(count=360, seed=20261018):
    """Graph pairs on 4 to 10 vertices: relabeled copies, graphs after
    degree-preserving edge swaps, and pairs of random regular graphs."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        n = rng.randint(4, 10)
        kind = len(pairs) % 3
        if kind == 2:
            d = rng.randint(2, n - 1)
            if n * d % 2:
                d -= 1
            g = nx.random_regular_graph(d, n, seed=rng.randrange(2 ** 31))
            h = nx.random_regular_graph(d, n, seed=rng.randrange(2 ** 31))
        else:
            g = nx.gnm_random_graph(n, rng.randint(0, n * (n - 1) // 2),
                                    seed=rng.randrange(2 ** 31))
            if kind == 0:
                h = relabeled(g, rng)
            else:
                h = g.copy()
                try:
                    nx.double_edge_swap(h, nswap=rng.randint(1, 4), max_tries=200,
                                        seed=rng.randrange(2 ** 31))
                except nx.NetworkXException:
                    continue
        pairs.append((g, h))
    return pairs


def test_agrees_with_networkx():
    outcomes = []
    for g, h in seeded_pairs():
        expected = nx.is_isomorphic(g, h)
        wg, wh = whitehead_graph(g), whitehead_graph(h, "m")
        assert whitehead_isomorphic(wg, wh) == expected, (g.edges(), h.edges())
        assert (canonical_form(wg) == canonical_form(wh)) == expected
        same_degrees = sorted(d for _, d in g.degree()) == sorted(d for _, d in h.degree())
        outcomes.append((expected, same_degrees))
    # the degree-sequence early-out must not decide most of the pairs
    assert outcomes.count((False, True)) >= 80
    assert outcomes.count((True, True)) >= 80


@st.composite
def graphs_and_permutations(draw):
    n = draw(st.integers(0, 10))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for p, keep in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    return n, edges, draw(st.permutations(range(n)))


@settings(max_examples=200, deadline=None)
@given(graphs_and_permutations())
def test_relabeling_keeps_the_canonical_form(case):
    n, edges, perm = case
    w = WhiteheadGraph("stable", [f"a{v}" for v in range(n)],
                       [(f"a{u}", f"a{v}") for u, v in edges])
    moved = WhiteheadGraph("stable", [f"b{perm[v]}" for v in range(n)],
                           [(f"b{perm[u]}", f"b{perm[v]}") for u, v in edges])
    assert canonical_form(w) == canonical_form(moved)
    assert canonical_form(w).startswith(f"v{n}:")


def test_form_is_stored_on_the_graph(monkeypatch):
    w = whitehead_graph(nx.petersen_graph())
    form = canonical_form(w)
    monkeypatch.setattr(isomorphism, "_leaves", None)
    assert canonical_form(w) is form


def leaf_count(monkeypatch, label, graph):
    """Leaves the search visits for label(graph)."""
    count = [0]

    def counted(*args, _encode=isomorphism._encode):
        count[0] += 1
        return _encode(*args)

    with monkeypatch.context() as m:
        m.setattr(isomorphism, "_encode", counted)
        label(graph)
    return count[0]


@pytest.mark.parametrize("n", range(1, 12))
def test_complete_graph_leaves(monkeypatch, n):
    # unpruned, K_n has n! leaves and K_9 passes the leaf cap
    assert leaf_count(monkeypatch, canonical_form,
                      whitehead_graph(nx.complete_graph(n))) <= n * n


@pytest.mark.parametrize("g", [
    nx.hypercube_graph(3), nx.petersen_graph(), nx.circular_ladder_graph(5),
    nx.circulant_graph(6, [1, 3]), nx.circulant_graph(8, [1, 4]),
    nx.circulant_graph(10, [1, 5])], ids=[
    "cube", "petersen", "prism5", "moebius6", "moebius8", "moebius10"])
def test_symmetric_graph_leaves(monkeypatch, g):
    # unpruned: 48 (cube), 120 (Petersen), 20, 72, 16 and 20 leaves
    assert leaf_count(monkeypatch, canonical_form, whitehead_graph(g)) <= len(g)


def marked(edges):
    """A marked graph with one edge e<i> per (u, v) pair of the list."""
    return MarkedGraph({f"e{i}": (f"v{u}", f"v{v}")
                        for i, (u, v) in enumerate(edges)})


def nx_marked(g):
    return marked(nx.convert_node_labels_to_integers(g).edges())


SYMMETRIC = {
    "k4": nx_marked(nx.complete_graph(4)),
    "k5": nx_marked(nx.complete_graph(5)),
    "k33": nx_marked(nx.complete_bipartite_graph(3, 3)),
    "prism": nx_marked(nx.circular_ladder_graph(3)),
    "cube": nx_marked(nx.hypercube_graph(3)),
    "theta5": marked([(0, 1)] * 5),
    "double_c4": marked([(i, (i + 1) % 4) for i in range(4)] * 2),
    "c5_loops": marked([(i, (i + 1) % 5) for i in range(5)]
                       + [(i, i) for i in range(5)]),
}


@pytest.mark.parametrize("name, cap", [("k33", 6), ("cube", 8)])
def test_marked_graph_leaves(monkeypatch, name, cap):
    # every leaf: 72 (K_3,3) and 48 (cube)
    assert leaf_count(monkeypatch, canonical_encoding, SYMMETRIC[name]) <= cap


def assert_brute_force_labeling(graph):
    """The encoding is reached by some vertex labeling, and every
    decorated turn at every vertex is labeled by its least encoding over
    all the labelings that reach it."""
    labelings = brute_force_labelings(graph, canonical_encoding(graph))
    assert labelings
    for v in sorted(graph.vertices):
        for d1, d2 in itertools.combinations(graph.directions_at(v), 2):
            for x1, x2 in itertools.product((False, True), repeat=2):
                turn = [(d1, x1), (d2, x2)]
                assert (canonical_turn_encoding(graph, turn)
                        == brute_force_turn_encoding(graph, labelings, turn)), turn


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_symmetric_marked_graphs_against_brute_force(name):
    assert_brute_force_labeling(SYMMETRIC[name])


def test_random_marked_graphs_against_brute_force():
    rng = random.Random(20261019)
    for n in range(1, 8):
        for _ in range(6):
            assert_brute_force_labeling(random_desk_graph(rng, n))


def test_import_does_not_load_networkx():
    src = os.path.dirname(os.path.dirname(loneaxis.__file__))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, loneaxis; print('networkx' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_runtime_path_loads_no_test_package():
    src = os.path.dirname(os.path.dirname(loneaxis.__file__))
    docs = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "docs")
    script = (
        "import contextlib, io, sys\n"
        "from loneaxis.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['signature', {docs!r} + '/cubic.txt']),\n"
        f"             main(['conjugate-power', {docs!r} + '/cubic.txt',\n"
        f"                   {docs!r} + '/cubic_relabeled.txt'])]\n"
        "print(codes, sorted({'networkx', 'hypothesis'} & set(sys.modules)))\n")
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stdout) == (0, "[0, 0] []\n"), done.stderr


def digest(items):
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def stage_encodings(g):
    """Encodings of every fold-stage graph and of every folded turn."""
    seq = axes.stallings_decomposition(g)
    turns = []
    for start, fold_idx, _ in seq.fold_rounds:
        move = seq.moves[fold_idx]
        (d1, d2), (x1, x2) = move.turn, move.consumed
        turns.append(canonical_turn_encoding(seq.graphs[start],
                                             [(d1, x1), (d2, x2)]))
    return [canonical_encoding(graph) for graph in seq.graphs], turns


MAPS = {
    "cubic": cubic_map, "cubic_relabeled": cubic_map_relabeled,
    "cubic2": lambda: power(cubic_map(), 2),
    "cubic3": lambda: power(cubic_map(), 3),
    "cubic4": lambda: power(cubic_map(), 4),
    "fib": fib_map, "dumbbell": dumbbell_instance, "rank4": rank4_map,
    "eight": eight_petal_map,
}

# stage graphs and folded turns of the map's own decomposition and of its
# rotationless power's: counts and the first 16 hex digits of the SHA-256
# of the encodings, one a line
CUBIC_ROTATIONLESS = (13, "832ef60b7934f461", 6, "bb4ef3ba0996a572")
GOLDEN = {
    "cubic": ((3, "dbeaa79fec04af20", 1, "a7cca18d9d358440"), CUBIC_ROTATIONLESS),
    "cubic_relabeled": ((3, "dbeaa79fec04af20", 1, "a7cca18d9d358440"),
                        CUBIC_ROTATIONLESS),
    "cubic2": ((5, "cec24a892ee62917", 2, "331fd830a4206115"), CUBIC_ROTATIONLESS),
    "cubic3": ((7, "92e39603ef32286f", 3, "aaaa647e9ee6941d"), CUBIC_ROTATIONLESS),
    "cubic4": ((9, "182230fe8e0f6f17", 4, "263e9450a051ec06"),
               (25, "071e943ab42bf418", 12, "3e1eb6165afb9348")),
    "fib": ((3, "437e00cf340f6258", 1, "a7cca18d9d358440"), None),
    "dumbbell": ((11, "438beebb619b5bf9", 5, "4bed181c6358996c"), None),
    "rank4": ((19, "fc64c34ba2cd8e46", 9, "7d38930a8072843f"), None),
    "eight": ((41, "07b65dd59670252b", 20, "7b775e8b55239e91"), None),
}
CUBIC_RECORDS = ("v1:0-0,0-0,0-0#((((0, 0), False), ((0, 0), True)), False)",)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_recorded_encodings(name):
    g = MAPS[name]()
    own, rotationless = GOLDEN[name]
    graphs, turns = stage_encodings(g)
    assert (len(graphs), digest(graphs), len(turns), digest(turns)) == own
    if rotationless is not None:
        graphs, turns = stage_encodings(traintrack.rotationless_power(g)[0])
        assert (len(graphs), digest(graphs), len(turns), digest(turns)) == rotationless
        assert axes.axis_signature(g).records == CUBIC_RECORDS


@pytest.mark.parametrize("name", ["fib", "cubic", "cubic4"])
def test_one_labeling_search_per_fold_record(name, monkeypatch):
    seq = axes.stallings_decomposition(MAPS[name]())
    searches = []

    def counted(*args, _leaves=isomorphism._leaves):
        searches.append(args)
        return _leaves(*args)
    monkeypatch.setattr(isomorphism, "_leaves", counted)
    records = axes._fold_records(seq)
    assert len(searches) == len(records) == len(seq.fold_rounds) > 0
