import itertools
import random
from fractions import Fraction

import pytest

from loneaxis.errors import NielsenPathPresentError, PreconditionError
from loneaxis.graphs import GraphMap, MarkedGraph, power
from loneaxis.isomorphism import canonical_form
from loneaxis import traintrack, whitehead

from conftest import cubic_map, dumbbell_instance, fib_map


@pytest.fixture(scope="module")
def cubic6():
    return power(cubic_map(), 6)


@pytest.fixture(scope="module")
def fib2():
    return power(fib_map(), 2)


def edge_set(pairs):
    return {frozenset(p) for p in pairs}


class TestLocalWhitehead:
    def test_cubic_vertex(self):
        lw = whitehead.local_whitehead_graph(cubic_map(), "v0")
        assert len(lw.vertices) == 6
        assert len(lw.edges) == 7

    def test_fib_vertex(self):
        lw = whitehead.local_whitehead_graph(fib_map(), "v0")
        assert set(lw.vertices) == {"a", "a'", "b", "b'"}
        assert lw.edges == edge_set([("a'", "b"), ("b'", "a"), ("a'", "a")])

    def test_subdivided_vertex_sees_at_most_one_turn(self):
        # subdivide the a-petal of the golden-ratio example; at the new
        # valence-2 vertex only one turn exists at all
        graph = MarkedGraph({"a1": ("v0", "w"), "a2": ("w", "v0"),
                             "b": ("v0", "v0")}, subdivision_vertices=("w",))
        g = GraphMap(graph, graph, {"v0": "v0", "w": "v0"},
                     {"a1": ("a1", "a2"), "a2": ("b",), "b": ("a1", "a2")})
        assert traintrack.is_train_track(g)
        lw = whitehead.local_whitehead_graph(g, "w")
        assert set(lw.vertices) == {"a1'", "a2"}
        assert len(lw.edges) <= 1


class TestStableWhitehead:
    def test_cubic_power_is_k23(self, cubic6):
        sw = whitehead.stable_whitehead_graph(cubic6, "v0")
        assert len(sw.vertices) == 5
        assert sw.edges == edge_set([
            ("{a',c'}", "{a}"), ("{a',c'}", "{b}"), ("{a',c'}", "{c}"),
            ("{b'}", "{a}"), ("{b'}", "{b}"), ("{b'}", "{c}")])

    def test_fib_square_three_gates(self, fib2):
        sw = whitehead.stable_whitehead_graph(fib2, "v0")
        assert len(sw.vertices) == 3
        assert set(sw.vertices) == {"{a,b}", "{a'}", "{b'}"}

    def test_restriction_to_periodic_directions_matches_gates(self, cubic6):
        # each gate holds exactly one periodic direction, so restricting
        # the local graph to periodic directions reproduces the quotient
        ps = traintrack.periodic_structure(cubic6)
        gs = traintrack.gates(cubic6)
        periodic = set(ps.direction_periods)
        for gate in gs.gates_at["v0"]:
            assert len([d for d in gate if d in periodic]) == 1
        lw = whitehead.local_whitehead_graph(cubic6, "v0")
        restricted = {frozenset(t) for t in lw.edges
                      if all(d in periodic for d in t)}
        sw = whitehead.stable_whitehead_graph(cubic6, "v0")
        as_gates = {frozenset("{" + ",".join(gs.gate_of[d]) + "}" for d in t)
                    for t in restricted}
        assert as_gates <= sw.edges

    def test_requires_rotationless(self):
        with pytest.raises(PreconditionError):
            whitehead.stable_whitehead_graph(cubic_map(), "v0")


class TestIdealWhitehead:
    def test_cubic_power(self, cubic6):
        iw = whitehead.ideal_whitehead_graph(cubic6, 30)
        assert len(iw.vertices) == 5
        assert len(iw.edges) == 6
        assert len(iw.components()) == 1
        assert whitehead.cut_vertices(iw) == frozenset()

    def test_nielsen_path_rejected(self, fib2):
        with pytest.raises(NielsenPathPresentError):
            whitehead.ideal_whitehead_graph(fib2, 30)

    def test_unknown_bound_rejected(self, cubic6):
        with pytest.raises(PreconditionError, match="not exhaustive"):
            whitehead.ideal_whitehead_graph(cubic6, 1)

    def test_one_graph_per_map(self, cubic6):
        iw = whitehead.ideal_whitehead_graph(cubic6, 30)
        assert whitehead.ideal_whitehead_graph(cubic6, 40) is iw
        assert canonical_form(iw) \
            is canonical_form(whitehead.ideal_whitehead_graph(cubic6, 40))
        # the verdict is read before the stored graph, at every bound
        with pytest.raises(PreconditionError, match="not exhaustive"):
            whitehead.ideal_whitehead_graph(cubic6, 1)

    def test_two_principal_vertices_two_components(self):
        g2 = power(dumbbell_instance(), 2)
        iw = whitehead.ideal_whitehead_graph(g2, 13)
        comps = iw.components()
        assert len(comps) == 2
        assert all(len(c) == 3 for c in comps)
        for comp in comps:  # triangle or path on three vertices
            assert len([e for e in iw.edges if e <= comp]) in (2, 3)


class TestIndexReport:
    def test_cubic_power(self, cubic6):
        idx = whitehead.index_report(cubic6, 30)
        assert idx.entries == (Fraction(-3, 2),)
        assert idx.index_sum == Fraction(-3, 2) == Fraction(3, 2) - 3
        assert idx.gi <= idx.index_sum

    def test_dumbbell_pair_of_halves(self):
        idx = whitehead.index_report(power(dumbbell_instance(), 2), 13)
        assert idx.entries == (Fraction(-1, 2), Fraction(-1, 2))
        assert idx.index_sum == -1

    def test_entries_sorted_by_absolute_value(self):
        entries = whitehead.index_entries_from_gate_counts([5, 3, 4])
        assert entries == (Fraction(-1, 2), Fraction(-1), Fraction(-3, 2))

    def test_nielsen_path_rejected(self, fib2):
        with pytest.raises(NielsenPathPresentError):
            whitehead.index_report(fib2, 30)

    def test_component_count_formula_agrees(self, cubic6):
        # the component-size definition and the gate-count definition
        # of the index agree on NP-free representatives
        iw = whitehead.ideal_whitehead_graph(cubic6, 30)
        from_components = sum(1 - Fraction(len(c), 2) for c in iw.components())
        assert from_components == whitehead.index_report(cubic6, 30).index_sum
        g2 = power(dumbbell_instance(), 2)
        iw2 = whitehead.ideal_whitehead_graph(g2, 13)
        assert (sum(1 - Fraction(len(c), 2) for c in iw2.components())
                == whitehead.index_report(g2, 13).index_sum)


class TestCutVertices:
    def test_path_and_triangle(self):
        p3 = whitehead.WhiteheadGraph("local", "xyz", [("x", "y"), ("y", "z")])
        tri = whitehead.WhiteheadGraph("local", "xyz",
                                       [("x", "y"), ("y", "z"), ("x", "z")])
        assert whitehead.cut_vertices(p3) == {"y"}
        assert whitehead.cut_vertices(tri) == frozenset()

    def test_removal_oracle_on_random_graphs(self):
        rng = random.Random(314159)
        for _ in range(200):
            n = rng.randrange(2, 13)
            verts = [f"n{i}" for i in range(n)]
            edges = {frozenset(p) for p in itertools.combinations(verts, 2)
                     if rng.random() < 0.3}
            w = whitehead.WhiteheadGraph("local", verts, edges)

            def n_components(vertex_set, edge_set):
                remaining = set(vertex_set)
                count = 0
                while remaining:
                    count += 1
                    stack = [remaining.pop()]
                    while stack:
                        x = stack.pop()
                        for e in edge_set:
                            if x in e:
                                (y,) = e - {x} or {x}
                                if y in remaining:
                                    remaining.remove(y)
                                    stack.append(y)
                return count

            base = n_components(verts, edges)
            oracle = set()
            for v in verts:
                rest = [u for u in verts if u != v]
                kept = {e for e in edges if v not in e}
                if rest and n_components(rest, kept) > base - (
                        1 if not any(v in e for e in edges) else 0):
                    oracle.add(v)
            assert whitehead.cut_vertices(w) == oracle


class TestIsomorphismAndDot:
    def test_whitehead_isomorphic(self):
        w1 = whitehead.WhiteheadGraph("local", "abc", [("a", "b"), ("b", "c")])
        w2 = whitehead.WhiteheadGraph("local", "xyz", [("y", "x"), ("x", "z")])
        w3 = whitehead.WhiteheadGraph("local", "xyz",
                                      [("x", "y"), ("y", "z"), ("x", "z")])
        assert whitehead.whitehead_isomorphic(w1, w2)
        assert not whitehead.whitehead_isomorphic(w1, w3)

    def test_dot_output(self, cubic6):
        iw = whitehead.ideal_whitehead_graph(cubic6, 30)
        dot = whitehead.to_dot(iw)
        assert dot.startswith("graph")
        assert "ideal Whitehead graph" in dot
        assert dot.count("--") == 6
