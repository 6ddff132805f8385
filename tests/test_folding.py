"""The in-place fold engine: the recorded decompositions and the stage
objects built on read; the exact lengths of the fold line drawn from
them; the union-find homotopy equivalence check, which agrees with it
and records nothing; and the cost of a decision."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from loneaxis.errors import (DecompositionError, LoneAxisError,
                             PreconditionError)
from loneaxis.graphs import (GraphMap, MarkedGraph, base_label, compose, power,
                             rev_edge, rose, rose_map)
from loneaxis import axes, spectral, traintrack

from conftest import (cubic_map, dumbbell_instance, eight_petal_map, fib_map,
                      identity_map, rank4_map)
from oracles import recompose, tighten
from test_kernels import rose_automorphisms


def metrized(g):
    """g on its eigenmetric graph, as fold_line folds it."""
    graph = spectral.eigenmetric(g)
    return GraphMap(graph, graph, g.vertex_map, g.edge_images())


def theta_map():
    """Two edges from u to a valence-2 vertex x with the same image, and a
    loop at u: folding the two edges leaves x with valence 1, and the
    residual then maps both vertices onto v0."""
    graph = MarkedGraph({"a": ("u", "x"), "b": ("u", "x"), "c": ("u", "u")},
                        subdivision_vertices=("x",))
    return GraphMap(graph, rose(["y", "z"]), {"u": "v0", "x": "v0"},
                    {"a": ("y",), "b": ("y",), "c": ("z",)})


CASES = {
    "fib": fib_map,
    "cubic": cubic_map,
    "cubic6": lambda: power(cubic_map(), 6),
    "dumbbell": dumbbell_instance,
    "rank4": rank4_map,
    "eight": eight_petal_map,
    "cubic_metric": lambda: metrized(cubic_map()),
}

# number of moves, the first 16 hex digits of the SHA-256 of to_json(),
# and fold_rounds
GOLDEN = {
    "fib": (3, "23ed614293c747d2", ((0, 1, 1),)),
    "cubic": (3, "ccc809ee7f60ebdd", ((0, 1, 1),)),
    "cubic6": (13, "1882361ce0b6cea3",
               ((0, 1, 1), (2, 3, 1), (4, 5, 1), (6, 7, 1), (8, 9, 1),
                (10, 11, 1))),
    "dumbbell": (11, "20fc0e9ffc5f1064",
                 ((0, 1, 2), (2, 3, 2), (4, 5, 1), (6, 7, 1), (8, 9, 1))),
    "rank4": (19, "56f2829eb9203e3e",
              ((0, 2, 5), (3, 4, 3), (5, 6, 4), (7, 8, 2), (9, 9, 2),
               (10, 11, 2), (12, 13, 2), (14, 15, 2), (16, 17, 1))),
    "eight": (41, "bd06c715262e9569",
              ((0, 1, 8), (2, 3, 6), (4, 5, 4), (6, 7, 4), (8, 9, 4),
               (10, 11, 4), (12, 13, 5), (14, 16, 5), (17, 18, 3),
               (19, 20, 4), (21, 22, 2), (23, 24, 2), (25, 26, 2),
               (27, 27, 2), (28, 29, 2), (30, 31, 2), (32, 33, 1),
               (34, 35, 1), (36, 37, 1), (38, 39, 1))),
}
# the records carry no lengths, so a metrized domain decomposes exactly
# like the plain one
GOLDEN["cubic_metric"] = GOLDEN["cubic"]

# maps that are not homotopy equivalences, and where their folding stops
FAILURES = [
    ({"a": "a", "b": "b a' b'"},
     "DecompositionError", "residual folds a and b.1a.2b onto a"),
    ({"a": "a a", "b": "b a"},
     "DecompositionError", "residual folds a.1a and f3 onto a"),
    ({"a": "a' b a", "b": "b"},
     "DecompositionError", "residual folds a.1a.2b and b onto b"),
    ({"a": "b b", "b": "b a'"},
     "DecompositionError", "residual folds a.1b and f3 onto b"),
    ({"a": "a a", "b": "a b a"},
     "DecompositionError", "residual folds f3 and f5 onto a"),
    ({"a": "b", "b": "b"},
     "DecompositionError", "residual is not onto the codomain"),
    ({"a": "b'", "b": "a' b' a", "c": "b' a' a'", "d": "b"},
     "DecompositionError", "residual folds c.1b.6b and f7 onto a"),
    ({"a": "c c b c'", "b": "b' c'", "c": "a' b b"},
     "DecompositionError", "residual folds f10 and f6 onto b"),
    ({"a": "b a'", "b": "a b' b' a'"},
     "DecompositionError", "residual folds b.1b.3a and f2.4b onto b"),
    ({"a": "a a", "b": "b"},
     "DecompositionError", "residual is not a homeomorphism: a -> ('a', 'a')"),
    ({"a": "a b a", "b": "b a b"}, "DecompositionError",
     "residual is not a homeomorphism: a -> ('a', 'b', 'a')"),
]


@pytest.mark.parametrize("name", sorted(CASES))
def test_recorded_decompositions(name):
    seq = axes.stallings_decomposition(CASES[name]())
    digest = hashlib.sha256(seq.to_json().encode()).hexdigest()[:16]
    assert (len(seq.moves), digest, seq.fold_rounds) == GOLDEN[name]


# fold_line(map, periods, samples): the number of graphs and the first 16
# hex digits of the SHA-256 of the repr of every length, in dict order,
# and of every volume, taken when the fold engine still pushed lengths
# through the folds
FOLD_LINES = {
    ("fib", 1, 4): (2, "0c00ed4693e02a32"),
    ("fib", 2, 5): (3, "44bb13ceff0077a7"),
    ("fib", 3, 7): (4, "fe9bf1eabe95325d"),
    ("cubic", 1, 4): (2, "f4c00c8d1793c47e"),
    ("cubic", 2, 5): (3, "9b998d13f44477de"),
    ("cubic", 3, 7): (4, "030d9fcec6eb570e"),
    ("dumbbell", 1, 4): (5, "5ad842ab43b3f6ff"),
    ("dumbbell", 2, 5): (11, "e20a592bbab521c8"),
    ("dumbbell", 3, 7): (18, "38712d5e7893db6b"),
    ("rank4", 1, 4): (5, "6e49e7ea64188364"),
    ("rank4", 2, 5): (11, "319fe850ac9008f5"),
    ("rank4", 3, 7): (22, "ce7ac0074bbbaa90"),
}


@pytest.mark.parametrize("name,periods,samples", sorted(FOLD_LINES))
def test_fold_line_floats(name, periods, samples):
    line = axes.fold_line(CASES[name](), periods, samples)
    text = "\n".join(
        " ".join(f"{e}={x!r}" for e, x in graph.lengths.items())
        + f" volume={graph.volume()!r}" for graph in line)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert (len(line), digest) == FOLD_LINES[name, periods, samples]


@pytest.mark.parametrize("images,kind,message", FAILURES)
def test_recorded_failures(images, kind, message):
    with pytest.raises(LoneAxisError) as info:
        axes.stallings_decomposition(rose_map(images))
    assert (type(info.value).__name__, str(info.value)) == (kind, message)


def test_fold_to_valence_one_ends_in_a_vertex_collapse():
    with pytest.raises(LoneAxisError) as info:
        axes.stallings_decomposition(theta_map())
    assert (type(info.value).__name__, str(info.value)) == (
        "DecompositionError", "residual is not a vertex bijection")


def test_lengths_without_a_stretch_are_not_pushed_through():
    g = fib_map()
    graph = g.domain.with_lengths({"a": Fraction(1, 2), "b": Fraction(1, 2)})
    seq = axes.stallings_decomposition(
        GraphMap(graph, graph, g.vertex_map, g.edge_images()))
    assert seq.to_json() == axes.stallings_decomposition(g).to_json()
    assert seq.graphs[0] is graph and seq.graphs[1].lengths is None


def brute_force_foldable_turns(resid):
    dom = resid.domain
    return sorted((d1, d2) for v in dom.vertices
                  for d1, d2 in itertools.combinations(dom.directions_at(v), 2)
                  if resid.image(d1)[0] == resid.image(d2)[0])


def check_stages(g):
    seq = axes.stallings_decomposition(g)
    assert len(seq.graphs) == len(seq.residuals) == len(seq.moves)
    for i, resid in enumerate(seq.residuals):
        assert resid.domain is seq.graphs[i]
        assert resid == GraphMap(seq.graphs[i], seq.target, resid.vertex_map,
                                 resid.edge_images())
    for i, move in enumerate(seq.moves[:-1]):
        assert move.map.domain is seq.graphs[i]
        assert move.map.codomain is seq.graphs[i + 1]
        assert compose(seq.residuals[i + 1], move.map) == seq.residuals[i]
    assert seq.moves[-1].map is seq.residuals[-1]
    assert recompose(seq) == g
    # the flags are derived: a stage's subdivision vertices are the ones
    # with fewer than three directions
    for graph in seq.graphs:
        assert graph.subdivision_vertices == {
            v for v in graph.vertices if graph.valence(v) < 3}
    for start, fold_idx, count in seq.fold_rounds:
        turns = brute_force_foldable_turns(seq.residuals[start])
        assert (count, seq.moves[fold_idx].turn) == (len(turns), turns[0])


@pytest.mark.parametrize("name", sorted(CASES))
def test_stages_of_recorded_decompositions(name):
    check_stages(CASES[name]())


@st.composite
def positive_automorphisms(draw):
    """Products of the elementary automorphisms x -> xy and x -> yx of a
    rose, the kind of map the lone-axis decision folds."""
    rank = draw(st.integers(2, 4))
    letters = "abcd"[:rank]
    g = identity_map(rank)
    for x, y, right in draw(st.lists(st.tuples(
            st.sampled_from(letters), st.sampled_from(letters),
            st.booleans()), max_size=10)):
        if x != y:
            images = {l: (l,) for l in letters}
            images[x] = (x, y) if right else (y, x)
            g = compose(GraphMap(g.domain, g.domain, {"v0": "v0"}, images), g)
    return g


@settings(max_examples=60, deadline=None)
@given(positive_automorphisms())
def test_stages_of_automorphisms(g):
    check_stages(g)


def test_stages_of_a_self_fold():
    # both orientations of the loop a start with a': the first round
    # splits a in three and glues its outer pieces
    g = rose_map({"a": "a' c' a", "b": "c b'", "c": "a' c'"})
    seq = axes.stallings_decomposition(g)
    self_folds = [seq.moves[i].turn for _, i, _ in seq.fold_rounds
                  if seq.moves[i].turn[1] == rev_edge(seq.moves[i].turn[0])]
    assert (len(seq.moves), self_folds) == (9, [("a", "a'")])
    check_stages(g)


@settings(max_examples=60, deadline=None)
@given(rose_automorphisms())
def test_stages_of_automorphisms_with_inverses(g):
    check_stages(g)


def seeded_rose_automorphisms(count, seed):
    """Products of up to 12 moves x -> x y^{+-1}, x -> y^{+-1} x, x -> x'
    and conjugation by y^{+-1}, on roses of rank 4 and 5."""
    rng = random.Random(seed)
    for _ in range(count):
        g = identity_map(rng.choice((4, 5)))
        letters = g.domain.pairs
        for _ in range(rng.randint(1, 12)):
            x = rng.choice(letters)
            y = rng.choice(letters) + rng.choice(("", "'"))
            images = {l: (l,) for l in letters}
            move = rng.randrange(3)
            if move == 0:
                images = {l: (y, l, rev_edge(y)) if l != base_label(y)
                          else (l,) for l in letters}
            elif base_label(y) == x:
                images[x] = (rev_edge(x),)
            else:
                images[x] = (x, y) if move == 1 else (y, x)
            g = compose(GraphMap(g.domain, g.domain, {"v0": "v0"}, images), g)
        yield g


def test_stages_of_seeded_automorphisms_with_conjugations():
    # 69 of these maps leave a one-direction vertex at some stage
    for g in seeded_rose_automorphisms(200, seed=20261020):
        check_stages(g)


def test_stage_flags_are_the_low_valence_vertices():
    seq = axes.stallings_decomposition(
        rose_map({"a": "b a b' a b'", "b": "b a b'"}))
    flagged = [{v: graph.valence(v) for v in graph.subdivision_vertices}
               for graph in seq.graphs]
    assert flagged == [{v: graph.valence(v) for v in graph.vertices
                        if graph.valence(v) < 3} for graph in seq.graphs]
    # a one-direction vertex appears mid-decomposition and is folded away
    assert 1 in itertools.chain.from_iterable(f.values() for f in flagged)
    assert flagged[0] == flagged[-1] == {}


def test_folds_read_no_image_letter(monkeypatch):
    # the input's images are checked when it is built; a move only slices
    # or reuses them, so the fold table checks no path
    g = eight_petal_map()
    calls = []

    def is_path(self, path, _is_path=MarkedGraph.is_path):
        calls.append(len(path))
        return _is_path(self, path)
    monkeypatch.setattr(MarkedGraph, "is_path", is_path)
    assert len(axes.stallings_decomposition(g).moves) == 41
    assert calls == []


def homotopy_equivalence(g):
    """The decision's check: True, or the message it rejects g with."""
    try:
        return traintrack._is_homotopy_equivalence(g)
    except PreconditionError as ex:
        return str(ex)


def folds_to_homeomorphism(g):
    """Whether the fold engine ends in a homeomorphism."""
    try:
        axes.stallings_decomposition(g)
    except DecompositionError:
        return False
    return True


@st.composite
def rose_maps(draw):
    """Self-maps of a rose with short random tight images; most of them
    are not automorphisms."""
    letters = "abc"[:draw(st.integers(2, 3))]
    oriented = [x + p for x in letters for p in ("", "'")]
    images = {x: tighten(draw(st.lists(st.sampled_from(oriented),
                                       min_size=1, max_size=6)))
              for x in letters}
    assume(all(images.values()))
    return rose_map(images)


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_accepts_recorded_decompositions(name):
    assert homotopy_equivalence(CASES[name]()) is True


@pytest.mark.parametrize("images", [images for images, _, _ in FAILURES])
def test_check_rejects_recorded_failures(images):
    assert homotopy_equivalence(rose_map(images)).startswith(
        "[homotopy-equivalence] the map does not represent an automorphism: "
        "its folded edge images have ")


@pytest.mark.parametrize("g,witness", [
    (theta_map(), "its folded edge images have 2 vertices and 2 edges, "
                  "the codomain 1 and 2"),
    # the letters read from x1 and x2 never meet, so nothing folds onto w
    (GraphMap(MarkedGraph({"p": ("x1", "x1"), "q": ("x2", "x2"),
                           "r": ("x1", "x2"), "s": ("x2", "x1")}),
              MarkedGraph({"a": ("u", "u"), "b": ("u", "u"),
                           "c": ("u", "w"), "d": ("w", "w")}),
              {"x1": "u", "x2": "u"},
              {"p": ("a",), "q": ("a",), "r": ("b",), "s": ("b",)}),
     "its folded edge images miss the codomain vertices ['w']"),
    (GraphMap(rose(["a", "b", "c"]), rose(["y", "z"]), {"v0": "v0"},
              {"a": ("y",), "b": ("z",), "c": ("y", "z")}),
     "the rank drops from 3 to 2"),
])
def test_check_names_its_witness(g, witness):
    assert homotopy_equivalence(g) == (
        "[homotopy-equivalence] the map does not represent an "
        f"automorphism: {witness}")


@settings(max_examples=150, deadline=None)
@given(st.one_of(positive_automorphisms(), rose_maps()))
def test_check_agrees_with_the_fold_engine(g):
    assert (homotopy_equivalence(g) is True) == folds_to_homeomorphism(g)


def test_automorphism_composed_with_a_conjugation_folds():
    # the automorphism a -> a b' a, b -> a followed by conjugation by b;
    # a fold leaves the vertex with a single direction, and both the fold
    # engine and the check accept the map
    g = rose_map({"a": "b a b' a b'", "b": "b a b'"})
    seq = axes.stallings_decomposition(g)
    assert seq.moves[-1].kind == axes.HOMEOMORPHISM
    assert recompose(seq) == g
    assert homotopy_equivalence(g) is True


def test_decision_builds_no_object_per_move(monkeypatch):
    # a corpus-size map: rank 5, 150 letters, 105 moves in its decomposition
    g = rose_map({
        "a": "aaeaceaeabaaeaaaeaadaaeaceaeabaaeaaaaeaceaeaba",
        "b": "aeaceaeabaaeaceaaeaceaeabaaeaa",
        "c": "aeace",
        "d": "aaeaceaeabaaeaaaeaadaaeaceaeabaaeaaaeaceaeabaaeaceaaeaceae"
             "abaaeaa",
        "e": "aeaa"})
    assert len(axes.stallings_decomposition(g).moves) > 100
    built = []
    for cls in (GraphMap, MarkedGraph):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)

    def refuse(*args, **kwargs):
        raise AssertionError("the decision recorded a fold decomposition")
    monkeypatch.setattr(axes, "stallings_decomposition", refuse)
    nodes = []

    def fold(h, _fold=traintrack._fold_edge_images):
        labels, parent, out = _fold(h)
        nodes.append(len(labels))
        return labels, parent, out
    monkeypatch.setattr(traintrack, "_fold_edge_images", fold)
    assert axes.lone_axis_decision(g).overall == "not-lone-axis"
    assert len(built) <= 10
    # one node per domain vertex and per interior letter of an edge image
    assert nodes == [sum(len(g.image(e)) - 1 for e in g.domain.pairs)
                     + len(g.domain.vertices)] == [146]
