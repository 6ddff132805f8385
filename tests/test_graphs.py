import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from loneaxis.errors import InvalidGraphError, InvalidMapError
from loneaxis.graphs import (GraphMap, MarkedGraph, compose, is_tight, power,
                             rev_edge, rev_path, rose, rose_map)
from loneaxis.isomorphism import canonical_encoding

from conftest import cubic_map, fib_map, random_desk_graph
from oracles import isometric, tighten


def letters(rank=2):
    base = [chr(ord("a") + i) for i in range(rank)]
    return base + [b + "'" for b in base]


def words(rank=2, max_len=8):
    return st.lists(st.sampled_from(letters(rank)), max_size=max_len).map(tuple)


class TestTighten:
    def test_single_cancellation(self):
        assert tighten(("a", "a'", "b")) == ("b",)

    def test_already_tight(self):
        assert tighten(("a", "b")) == ("a", "b")

    @given(words())
    def test_word_times_inverse_cancels(self, w):
        assert tighten(w + rev_path(w)) == ()

    @given(words())
    def test_idempotent(self, w):
        once = tighten(w)
        assert tighten(once) == once
        assert is_tight(once)


class TestApplyMap:
    def test_direct_substitution(self):
        assert fib_map().apply_path(("b", "a")) == ("a", "a", "b")

    def test_input_cancels_to_nothing(self):
        assert fib_map().apply_path(("a'", "a")) == ()

    def test_substitution_with_inverse(self):
        assert fib_map().apply_path(("b", "a'")) == ("a", "b'", "a'")

    def test_unknown_edge_rejected(self):
        with pytest.raises(InvalidMapError):
            fib_map().apply_path(("z",))

    @given(words())
    def test_tighten_first_changes_nothing(self, w):
        g = fib_map()
        assert g.apply_path(tighten(w)) == g.apply_path(w)


class TestComposePower:
    def test_fib_square(self):
        g2 = power(fib_map(), 2)
        assert g2.edge_images() == {"a": ("a", "b", "a"), "b": ("a", "b")}

    def test_power_one_is_identity_case(self):
        g = fib_map()
        assert power(g, 1) == g

    def test_cube_matches_iterated_application(self):
        g = fib_map()
        g2, g3 = power(g, 2), power(g, 3)
        for e in g.domain.pairs:
            assert g3.image(e) == g.apply_path(g2.image(e))

    @pytest.mark.parametrize("k,m", [(1, 1), (1, 2), (2, 2), (2, 3)])
    def test_power_addition_law(self, k, m):
        g = cubic_map()
        gk, gm, gkm = power(g, k), power(g, m), power(g, k + m)
        for e in g.domain.pairs:
            assert gkm.image(e) == gk.apply_path(gm.image(e))

    def test_domain_mismatch(self):
        g = fib_map()
        h = cubic_map()
        with pytest.raises(InvalidMapError):
            compose(g, h)


class TestValidation:
    def test_valence_one_rejected(self):
        with pytest.raises(InvalidGraphError):
            MarkedGraph({"a": ("u", "v"), "b": ("v", "v")})

    def test_valence_one_allowed_when_flagged(self):
        # a fold may leave a vertex with one direction mid-decomposition
        with pytest.raises(InvalidGraphError, match="vertex u has valence 1"):
            MarkedGraph({"a": ("u", "v"), "b": ("v", "v")},
                        subdivision_vertices=("v",))
        ok = MarkedGraph({"a": ("u", "v"), "b": ("v", "v")},
                         subdivision_vertices=("u",))
        assert (ok.valence("u"), ok.rank()) == (1, 1)

    def test_valence_two_needs_flag(self):
        with pytest.raises(InvalidGraphError):
            MarkedGraph({"a": ("u", "v"), "b": ("v", "u")})
        ok = MarkedGraph({"a": ("u", "v"), "b": ("v", "u")},
                         subdivision_vertices=("u", "v"))
        assert ok.rank() == 1

    def test_disconnected_rejected(self):
        with pytest.raises(InvalidGraphError):
            MarkedGraph({"a": ("u", "u"), "b": ("u", "u"),
                         "c": ("w", "w"), "d": ("w", "w")})

    def test_non_finite_length_rejected(self):
        with pytest.raises(InvalidGraphError, match="non-finite"):
            rose(["a", "b"], lengths={"a": math.inf, "b": 1.0})
        huge = rose(["a", "b"], lengths={"a": Fraction(10 ** 400), "b": 1})
        assert huge.length("a") == 10 ** 400

    def test_volume_check(self):
        with pytest.raises(InvalidGraphError):
            rose(["a", "b"], lengths={"a": 0.7, "b": 0.7}, normalized=True)
        g = rose(["a", "b"], lengths={"a": 0.5, "b": 0.5}, normalized=True)
        assert float(g.volume()) == 1.0

    def test_non_tight_image_rejected(self):
        graph = rose(["a", "b"])
        with pytest.raises(InvalidMapError):
            GraphMap(graph, graph, {"v0": "v0"},
                     {"a": ("a", "a'", "b"), "b": ("a",)})

    def test_endpoint_mismatch_rejected(self):
        graph = MarkedGraph({"a": ("u", "u"), "b": ("v", "v"),
                             "c": ("u", "v"), "d": ("u", "v")})
        with pytest.raises(InvalidMapError):
            GraphMap(graph, graph, {"u": "u", "v": "v"},
                     {"a": ("b",), "b": ("a",), "c": ("c",), "d": ("d",)})


def same_class(g, h):
    """Whether the canonical encodings of g and h are equal, after
    asserting that networkx finds them isomorphic exactly then."""
    same = canonical_encoding(g) == canonical_encoding(h)
    assert same == isometric(g, h), (g.edge_ends, h.edge_ends)
    return same


class TestIsomorphism:
    def test_roses_with_other_labels(self):
        assert same_class(rose(["a", "b"]), rose(["x", "y"]))

    def test_rose_vs_theta(self):
        theta = MarkedGraph({"p": ("u", "v"), "q": ("u", "v"), "r": ("u", "v")})
        assert not same_class(rose(["a", "b"]), theta)

    def test_permuted_labels_oracle(self):
        rng = random.Random(4)
        for trial in range(20):
            g = random_desk_graph(rng, rng.randrange(1, 6))
            # relabel both vertices and edges, flip random orientations
            vperm = {v: f"x{i}" for i, v in enumerate(sorted(g.vertices))}
            items = sorted(g.edge_ends.items())
            rng.shuffle(items)
            ends2 = {}
            for i, (lbl, (u, w)) in enumerate(items):
                if rng.random() < 0.5:
                    u, w = w, u
                ends2[f"m{i}"] = (vperm[u], vperm[w])
            assert same_class(g, MarkedGraph(ends2))

    def test_reflexive_and_symmetric(self):
        rng = random.Random(11)
        graphs = [random_desk_graph(rng, rng.randrange(1, 5)) for _ in range(8)]
        for g in graphs:
            assert same_class(g, g)
        for g in graphs:
            for h in graphs:
                assert same_class(g, h) == same_class(h, g)

    def test_lengths_respected(self):
        # the networkx isometry oracle that the fold-line tests rely on
        g1 = rose(["a", "b"], lengths={"a": 0.25, "b": 0.75})
        g2 = rose(["x", "y"], lengths={"x": 0.75, "y": 0.25})
        g3 = rose(["x", "y"], lengths={"x": 0.6, "y": 0.4})
        g4 = rose(["x", "y"], lengths={"x": 0.75 + 5e-9, "y": 0.25 - 5e-9})
        assert isometric(g1, g2, length_tol=1e-8)
        assert isometric(g1, g4, length_tol=1e-8)
        assert not isometric(g1, g4, length_tol=1e-9)
        assert not isometric(g1, g3, length_tol=1e-8)
        assert isometric(g1, g3)
        assert not isometric(g1, rose(["x", "y", "z"]))

    def test_multi_edge_counted(self):
        two = MarkedGraph({"p": ("u", "v"), "q": ("u", "v"),
                           "r": ("u", "u"), "s": ("v", "v")})
        loopy = MarkedGraph({"p": ("u", "v"), "q": ("u", "v"),
                             "r": ("u", "v"), "s": ("u", "v")})
        assert not same_class(two, loopy)


class TestRoseMap:
    def test_word_parsing(self):
        g = rose_map({"a": "b a'", "b": "ba'"})
        assert g.image("a") == ("b", "a'")
        assert g.image("b") == ("b", "a'")
        assert g.image("a'") == ("a", "b'")
