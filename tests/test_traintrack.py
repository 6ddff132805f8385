import itertools
import random
from fractions import Fraction

import pytest

from loneaxis.errors import PreconditionError
from loneaxis.graphs import GraphMap, power, rose, rose_map, rev_edge
from loneaxis import traintrack

from conftest import cubic_map, fib_map, identity_map


def turn(a, b):
    return frozenset((a, b))


class TestDirectionMap:
    def test_fib(self):
        dm = traintrack.direction_map(fib_map())
        assert dm == {"a": "a", "b": "a", "a'": "b'", "b'": "a'"}

    def test_cubic(self):
        dm = traintrack.direction_map(cubic_map())
        assert dm["a"] == "b" and dm["b"] == "c" and dm["c"] == "a"
        assert dm["c'"] == "b'" and dm["b'"] == "c'" and dm["a'"] == "b'"

    def test_homeomorphism_is_bijection(self):
        dm = traintrack.direction_map(identity_map(3))
        assert sorted(dm.values()) == sorted(dm.keys())


class TestGates:
    def test_fib(self):
        gs = traintrack.gates(fib_map())
        assert gs.gates_at["v0"] == (("a", "b"), ("a'",), ("b'",))
        assert gs.illegal_turns == (turn("a", "b"),)

    def test_cubic(self):
        gs = traintrack.gates(cubic_map())
        assert gs.gates_at["v0"] == (("a",), ("a'", "c'"), ("b",), ("b'",), ("c",))
        assert gs.illegal_turns == (turn("a'", "c'"),)

    def test_homeomorphism_all_singletons(self):
        gs = traintrack.gates(identity_map(3))
        assert all(len(gate) == 1 for gates in gs.gates_at.values()
                   for gate in gates)
        assert gs.illegal_turns == ()

    def test_illegal_count_matches_gate_sizes(self, corpus):
        for g in corpus:
            gs = traintrack.gates(g)
            expected = sum(len(gate) * (len(gate) - 1) // 2
                           for gates in gs.gates_at.values() for gate in gates)
            assert len(gs.illegal_turns) == expected

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_gates_refine_or_equal_under_powers(self, k):
        for g in (fib_map(), cubic_map()):
            g1 = traintrack.gates(g)
            gk = traintrack.gates(power(g, k))
            for d in g.domain.oriented:
                # directions identified under the power stay identified for g
                assert set(gk.gate_of[d]) <= set(g1.gate_of[d])

    def test_gate_orbit_oracle(self, small_corpus):
        # two directions share a gate iff some iterate of Dg (depth <= 20)
        # sends them to the same direction
        for g in small_corpus:
            dm = traintrack.direction_map(g)
            gs = traintrack.gates(g)
            dirs = g.domain.oriented
            for d1, d2 in itertools.combinations(dirs, 2):
                if g.domain.init_vertex(d1) != g.domain.init_vertex(d2):
                    continue
                x, y = d1, d2
                identified = False
                for _ in range(20):
                    x, y = dm[x], dm[y]
                    if x == y:
                        identified = True
                        break
                assert identified == (gs.gate_of[d1] == gs.gate_of[d2])


class TestIsTrainTrack:
    def test_worked_examples(self):
        assert traintrack.is_train_track(fib_map())
        assert traintrack.is_train_track(cubic_map())

    def test_failing_witness(self):
        g = rose_map({"a": "ab", "b": "a'b"})
        verdict = traintrack.is_train_track(g)
        assert not verdict
        edge, bad_turn = verdict.witness
        gs = traintrack.gates(g)
        assert gs.is_illegal(bad_turn)
        assert bad_turn in traintrack.turns_crossed(g.image(edge))

    def test_witness_is_first_illegal_crossing(self):
        # reference: scan every turn of every image in order
        rng = random.Random(4242)
        alphabet = ["a", "b", "c", "a'", "b'", "c'"]
        graph = rose(["a", "b", "c"])
        failing = 0
        for _ in range(300):
            images = {}
            for e in graph.pairs:
                word = [rng.choice(alphabet)]
                while len(word) < 8:
                    word.append(rng.choice([x for x in alphabet
                                            if x != rev_edge(word[-1])]))
                images[e] = tuple(word)
            g = GraphMap(graph, graph, {"v0": "v0"}, images)
            gs = traintrack.gates(g)
            first = next(((e, t) for e in graph.pairs
                          for t in traintrack.turns_crossed(g.image(e))
                          if gs.is_illegal(t)), None)
            verdict = traintrack.is_train_track(g)
            assert verdict.witness == first
            failing += first is not None
        assert failing > 100

    def test_brute_force_small_maps_agree(self):
        # every length-<=2 positive-or-mixed image choice on the 2-rose:
        # the verdict must match a direct iterate-local-injectivity probe
        alphabet = ["a", "b", "a'", "b'"]
        words = [(x,) for x in alphabet] + [
            (x, y) for x in alphabet for y in alphabet if y != rev_edge(x)]
        graph = rose(["a", "b"])
        checked = failing = 0
        for wa, wb in itertools.product(words, repeat=2):
            g = GraphMap(graph, graph, {"v0": "v0"}, {"a": wa, "b": wb})
            verdict = traintrack.is_train_track(g)
            # oracle: iterate edge images up to 8 times, watch for backtracks
            ok = True
            for e in graph.pairs:
                path = (e,)
                for _ in range(8):
                    raw = []
                    for x in path:
                        raw.extend(g.image(x))
                    if any(raw[i + 1] == rev_edge(raw[i])
                           for i in range(len(raw) - 1)):
                        ok = False
                        break
                    path = tuple(raw)
                    if len(path) > 400:
                        break
                if not ok:
                    break
            assert bool(verdict) == ok, (wa, wb)
            checked += 1
            failing += not ok
        assert checked == 16 * 16 and failing > 0


class TestPeriodicStructure:
    def test_fib(self):
        ps = traintrack.periodic_structure(fib_map())
        assert ps.vertex_periods == {"v0": 1}
        assert ps.direction_periods == {"a": 1, "a'": 2, "b'": 2}
        assert ps.rotationless_exponent == 2
        assert ps.principal_vertices == ("v0",)

    def test_cubic(self):
        ps = traintrack.periodic_structure(cubic_map())
        assert ps.direction_periods == {"a": 3, "b": 3, "c": 3, "b'": 2, "c'": 2}
        assert ps.rotationless_exponent == 6

    def test_rotationless_powers(self):
        assert not traintrack.is_rotationless(cubic_map())
        assert traintrack.is_rotationless(power(cubic_map(), 6))
        assert not traintrack.is_rotationless(fib_map())
        assert traintrack.is_rotationless(power(fib_map(), 2))

    def test_all_fixed_is_rotationless(self):
        g = rose_map({"a": "ab", "b": "bab"})
        dm = traintrack.direction_map(g)
        fixed = [d for d in g.domain.oriented if dm[d] == d]
        ps = traintrack.periodic_structure(g)
        assert set(fixed) <= set(ps.direction_periods)
        if all(p == 1 for p in ps.direction_periods.values()):
            assert traintrack.is_rotationless(g)


class TestTakenTurns:
    def test_fib(self):
        assert traintrack.taken_turns(fib_map()) == {
            turn("a'", "b"), turn("b'", "a"), turn("a'", "a")}

    def test_cubic(self):
        expected = {turn("a'", "b"), turn("b'", "c"), turn("c'", "a"),
                    turn("b'", "b"), turn("c'", "c"), turn("b'", "a"),
                    turn("c'", "b")}
        assert traintrack.taken_turns(cubic_map()) == expected

    def test_homeomorphism_rejected(self):
        with pytest.raises(PreconditionError):
            traintrack.taken_turns(identity_map(2))

    def test_closed_under_direction_map(self, small_corpus):
        for g in small_corpus:
            dm = traintrack.direction_map(g)
            taken = traintrack.taken_turns(g)
            for t in taken:
                d1, d2 = sorted(t)
                assert frozenset((dm[d1], dm[d2])) in taken

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_contains_turns_of_power_images(self, k):
        # brute-force cross-check: turns crossed by iterated edge images
        for g in (fib_map(), cubic_map()):
            taken = traintrack.taken_turns(g)
            gk = power(g, k)
            for e in g.domain.pairs:
                for t in traintrack.turns_crossed(gk.image(e)):
                    assert t in taken


class TestGateIndexSum:
    def test_fib(self):
        assert traintrack.gate_index_sum(fib_map()) == Fraction(-1, 2)

    def test_cubic(self):
        assert traintrack.gate_index_sum(cubic_map()) == Fraction(-3, 2)

    def test_formula_on_synthetic_counts(self):
        from loneaxis.whitehead import index_entries_from_gate_counts
        entries = index_entries_from_gate_counts([3, 3])
        assert entries == (Fraction(-1, 2), Fraction(-1, 2))
        assert sum(entries) == -1

    def test_euler_identity(self, corpus):
        # (1 - rank) - GI equals half the sum of (1 - gate size), exactly
        for g in corpus:
            gs = traintrack.gates(g)
            gi = traintrack.gate_index_sum(g)
            rhs = sum((1 - Fraction(len(gate))) / 2
                      for gates in gs.gates_at.values() for gate in gates)
            assert (1 - g.domain.rank()) - gi == rhs

    def test_unique_illegal_turn_criterion(self, corpus):
        for g in corpus:
            gi = traintrack.gate_index_sum(g)
            one_turn = traintrack.illegal_turn_count(g) == 1
            assert (gi == Fraction(3, 2) - g.domain.rank()) == one_turn

    def test_crossed_turns_all_legal(self, corpus):
        for g in corpus:
            gs = traintrack.gates(g)
            for e in g.domain.pairs:
                for t in traintrack.turns_crossed(g.image(e)):
                    assert gs.is_legal(t)
