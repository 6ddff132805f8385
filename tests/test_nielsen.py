import hashlib
import itertools
import json
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from loneaxis.errors import (InternalCheckError, NielsenPathPresentError,
                             PreconditionError)
from loneaxis.graphs import (GraphMap, MarkedGraph, power, rev_edge,
                             rev_path, rose_map)
from loneaxis import axes, nielsen, spectral, traintrack, whitehead

from conftest import (cubic_map, defect_map, dumbbell_instance,
                      eight_petal_map, fib_map, rank4_map, rank5_map,
                      random_positive_map, total_image_length)
from oracles import (brute_force_nielsen_paths, checked_nielsen_paths,
                     concatenated_image, unpruned_nielsen_paths)
from oracles import concatenations as oracle_concatenations


@pytest.fixture(scope="module")
def fib2():
    return power(fib_map(), 2)


@pytest.fixture(scope="module")
def cubic6():
    return power(cubic_map(), 6)


class TestFindNielsenPaths:
    def test_cubic_power_is_np_free(self, cubic6):
        report = nielsen.find_nielsen_paths(cubic6, 30)
        assert report.paths == ()
        assert report.exhaustive
        assert report.proven_leg_bound <= 30

    def test_fib_square_carries_inp(self, fib2):
        report = nielsen.find_nielsen_paths(fib2, 30)
        inps = report.inps()
        assert len(inps) == 1
        assert inps[0].path == ("a'", "b'", "a", "b")

    def test_oracle_agreement_runs_at_small_bounds(self, fib2, cubic6):
        # each search is compared against the brute-force oracle
        rep = checked_nielsen_paths(fib2, 8)
        assert [p.path for p in rep.inps()] == [("a'", "b'", "a", "b")]
        rep6 = checked_nielsen_paths(cubic6, 6)
        assert rep6.paths == () and rep6.exhaustive
        rep1 = checked_nielsen_paths(cubic6, 1)
        assert rep1.paths == () and not rep1.exhaustive

    def test_rotationless_precondition(self):
        with pytest.raises(PreconditionError):
            nielsen.find_nielsen_paths(cubic_map(), 10)

    def test_expanding_precondition(self):
        # the one-petal identity permutes its single edge: a rotationless
        # train track map with an irreducible matrix, and lam = 1 exactly
        with pytest.raises(PreconditionError, match="needs an expanding map"):
            nielsen.find_nielsen_paths(rose_map({"a": "a"}), 10)

    def test_reported_paths_are_fixed(self, fib2):
        report = nielsen.find_nielsen_paths(fib2, 12)
        assert report.paths
        for np_ in report.paths:
            assert fib2.apply_path(np_.path) == np_.path

    def test_inp_structure(self, fib2):
        # exactly one illegal turn, sitting between two legal legs
        gs = traintrack.gates(fib2)
        for np_ in nielsen.find_nielsen_paths(fib2, 12).inps():
            crossed = traintrack.turns_crossed(np_.path)
            illegal = [t for t in crossed if gs.is_illegal(t)]
            assert len(illegal) == 1

    def test_divisible_paths_are_concatenations(self, fib2):
        report = nielsen.find_nielsen_paths(fib2, 12)
        inp = report.inps()[0].path
        divisible = [p.path for p in report.paths if not p.indivisible]
        assert inp + inp in divisible


def all_pairs_inps(g, bound):
    """Reference for the leg matching: every pair of eigenray prefixes of
    at most `bound` edges glued at a tight junction that degenerates in
    one step, kept iff the tightened image reproduces it.  No matching
    of image tails and no eigenlength filter."""
    dmap = traintrack.direction_map(g)
    dom = g.domain
    legs = []
    for d in dom.oriented:
        v = dom.init_vertex(d)
        if dmap[d] != d or g.vertex_map[v] != v:
            continue
        ray = (d,)
        while len(ray) < bound:
            ray = g.apply_path(ray)
        legs += [ray[:i] for i in range(1, bound + 1)]
    found = set()
    for a, b in itertools.combinations(legs, 2):
        if a[-1] == b[-1] or dmap[rev_edge(a[-1])] != dmap[rev_edge(b[-1])]:
            continue
        rho = a + rev_path(b)
        if g.apply_path(rho) == rho:
            found.add(min(rho, rev_path(rho)))
    return sorted(found)


class TestLegMatching:
    @pytest.mark.parametrize("g", [
        fib_map(), cubic_map(), dumbbell_instance(), rank4_map(), rank5_map(),
    ], ids=["fib", "cubic", "dumbbell", "rank4", "rank5"])
    def test_matches_all_pairs_above_oracle_range(self, g):
        grot, _ = traintrack.rotationless_power(g)
        proven = nielsen.find_nielsen_paths(grot, 13).proven_leg_bound
        for bound in sorted({13, 40, proven}):
            mine = [p.path for p in nielsen.find_nielsen_paths(grot, bound).inps()]
            assert mine == all_pairs_inps(grot, bound)
        if proven <= 12:  # where the brute-force oracle is cheap
            checked_nielsen_paths(grot, proven)

    def test_matches_all_pairs_on_long_images(self):
        # edge images of up to 49 700 letters; the all-pairs reference
        # grows each ray with whole images, so it stays just past the leg
        # cap, 2
        grot, _ = traintrack.rotationless_power(defect_map())
        report = nielsen.find_nielsen_paths(grot, 3)
        assert report.proven_leg_bound == 2 and report.exhaustive
        assert [p.path for p in report.inps()] == all_pairs_inps(grot, 3)

    def test_too_many_concatenations(self):
        g = eight_petal_map()
        assert nielsen._iterative_search(g, 40) == all_pairs_inps(g, 40) \
            == [("d'", "h"), ("f", "c", "g'")]
        with pytest.raises(NielsenPathPresentError):
            nielsen.find_nielsen_paths(g, 40)
        assert nielsen.np_verdict(g, 40)[0] is False


def concatenation_outcome(concatenations, g, inps, max_len):
    try:
        return concatenations(g, inps, max_len)
    except NielsenPathPresentError as ex:
        return "capped", str(ex)


def assert_concatenations_match_oracle(g, bound, inps=None):
    """The library's divisible NPs of the iNPs at `bound` are the
    oracle's list, or both hit the cap with the same message."""
    if inps is None:
        inps = nielsen._iterative_search(g, bound)
    mine = concatenation_outcome(nielsen._concatenations, g, inps, 2 * bound)
    assert mine == concatenation_outcome(oracle_concatenations, g, inps,
                                         2 * bound), bound
    return mine


def first_map_with_inps(rank, seed, bound):
    """Rotationless power and iNPs of the first random positive map, from
    `seed` on, whose rotationless power carries an iNP within `bound`."""
    for s in range(seed, seed + 2000):
        g = random_positive_map(rank, random.Random(s))
        try:
            if traintrack.periodic_structure(g).rotationless_exponent > 3:
                continue
            grot, _ = traintrack.rotationless_power(g)
            nielsen._require_rotationless_tt(grot)
        except PreconditionError:
            continue
        inps = nielsen._iterative_search(grot, bound)
        if inps:
            return grot, inps
    return None


class TestConcatenations:
    def test_matches_oracle_on_fib_at_every_bound(self):
        grot, _ = traintrack.rotationless_power(fib_map())
        for bound in range(1, 101):
            divisible = assert_concatenations_match_oracle(grot, bound)
        assert len(divisible) == 49

    def test_matches_oracle_past_the_cap(self):
        mine = assert_concatenations_match_oracle(eight_petal_map(), 40)
        assert mine == ("capped", "more than 200 divisible Nielsen paths "
                                  "within 80 edges")

    def test_matches_oracle_on_corpus_maps_with_nielsen_paths(self, corpus):
        ran = 0
        for g in corpus:
            grot, _ = traintrack.rotationless_power(g)
            inps = nielsen._iterative_search(grot, 40)
            if inps:
                assert_concatenations_match_oracle(grot, 40, inps)
                ran += 1
        assert ran >= 3

    @settings(max_examples=8, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 2**32 - 1), st.integers(2, 40))
    def test_matches_oracle_on_random_maps_with_nielsen_paths(
            self, rank, seed, bound):
        found = first_map_with_inps(rank, seed, bound)
        assume(found is not None)
        grot, inps = found
        assert_concatenations_match_oracle(grot, bound, inps)

    def test_each_piece_is_mapped_once(self, monkeypatch):
        # fib's one iNP and its reverse give 79 concatenations within 320
        # edges; none of them is mapped whole
        grot, _ = traintrack.rotationless_power(fib_map())
        inps = nielsen._iterative_search(grot, 160)
        mapped = []
        apply_path = GraphMap.apply_path
        monkeypatch.setattr(GraphMap, "apply_path", lambda self, path: (
            mapped.append(path) or apply_path(self, path)))
        assert len(nielsen._concatenations(grot, inps, 320)) == 79
        assert sorted(mapped) == sorted(inps + [rev_path(p) for p in inps])

    def test_images_cancel_across_the_junction(self):
        # e -> efefe, f -> e'f'e' fixes the loops ef and fe though it fixes
        # neither edge: three letters cancel where the two images meet
        graph = MarkedGraph({"a": ("u", "u"), "b": ("v", "v"),
                             "e": ("u", "v"), "f": ("v", "u")})
        g = GraphMap(graph, graph, {"u": "u", "v": "v"},
                     {"a": ("a",), "b": ("b",), "e": tuple("efefe"),
                      "f": ("e'", "f'", "e'")})
        for concatenations in (nielsen._concatenations, oracle_concatenations):
            assert concatenations(g, [("e",), ("f",)], 2) \
                == [("e", "f"), ("e'", "f'")]
            with pytest.raises(InternalCheckError, match="must be fixed"):
                concatenations(g, [("e",), ("f",)], 3)  # efe is not fixed

    def test_a_piece_that_is_not_fixed_fails_the_check(self):
        # a one-edge path beside fib's genuine iNP
        grot, _ = traintrack.rotationless_power(fib_map())
        inps = [("a'", "b'", "a", "b"), ("a",)]
        for concatenations in (nielsen._concatenations, oracle_concatenations):
            with pytest.raises(InternalCheckError, match="must be fixed"):
                concatenations(grot, inps, 8)


def eigenray(g, d, bound):
    """R[:bound] at a fixed direction d: the joined images of the prefix,
    cut at the bound, until they add nothing."""
    ray = (d,)
    while (grown := concatenated_image(g, ray)[:bound]) != ray:
        ray = grown
    return ray


def assert_tails_read_from_images(g, path):
    """Every tail read lazily equals the slice image[i:n(i)] of the
    joined image of the path."""
    image = concatenated_image(g, path)
    n = [0]
    for e in path:
        n.append(n[-1] + len(g.image(e)))
    for i in range(1, len(path) + 1):
        assert tuple(nielsen._tail(g, path, n, i)) == image[i:n[i]], i


class TestTails:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 2**32 - 1), st.integers(1, 40),
           st.lists(st.integers(0, 5), max_size=12))
    def test_tails_equal_slices_of_the_image(self, rank, seed, bound, word):
        g = random_positive_map(rank, random.Random(seed))
        try:
            assume(traintrack.periodic_structure(g).rotationless_exponent <= 3)
            grot, _ = traintrack.rotationless_power(g)
            nielsen._require_rotationless_tt(grot)
        except PreconditionError:
            assume(False)
        for d in nielsen._fixed_directions(grot):
            assert_tails_read_from_images(grot, eigenray(grot, d, bound))
        # eigenray tails are never empty on an expanding map; a word that
        # opens with one-letter images has tails with n(i) = i
        for h in (g, grot):
            edges = h.domain.oriented
            path = sorted((edges[k % len(edges)] for k in word),
                          key=lambda e: len(h.image(e)))
            assert_tails_read_from_images(h, tuple(path))

    def test_empty_tails_stop_at_the_leg(self):
        # a -> b, b -> c: n(1) = 1 and n(2) = 2, so the first two tails
        # are empty and must not read the image of the next edge
        g = cubic_map()
        assert tuple(nielsen._tail(g, ("a", "b", "c"), [0, 1, 2, 4], 1)) == ()
        assert_tails_read_from_images(g, ("a", "b", "c", "a", "b"))


def test_search_memory_stays_within_the_edge_images():
    # cubic^42 has 396 655 letters in its edge images; joining the images
    # of each 40-edge ray takes about 286 MB, reading tails about 1.3 MB
    g = power(power(cubic_map(), 7), 6)
    tracemalloc.start()
    try:
        report = nielsen.find_nielsen_paths(g, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.paths == () and report.exhaustive
    assert peak < 16 * 2 ** 20


def test_short_search_copies_no_long_image():
    # defect's power has edge images of up to 49 700 letters; a search at
    # bound 4 reads them in place and copies at most 4 letters of each ray
    grot, _ = traintrack.rotationless_power(defect_map())
    nielsen._require_rotationless_tt(grot)
    grot._derived("leg_cap", nielsen._leg_cap)
    tracemalloc.start()
    try:
        report = nielsen.find_nielsen_paths(grot, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.paths == () and report.exhaustive
    assert peak < 64 * 2 ** 10


@pytest.mark.parametrize("make", [fib_map, cubic_map, dumbbell_instance,
                                  rank4_map, rank5_map])
def test_decision_runs_no_float_spectral_code(make, monkeypatch):
    # the search certifies by the integer leg cap, so neither the search
    # nor the index, the ideal graph or the decision reads PF data
    def fail(*args):
        raise AssertionError("float spectral code ran")
    monkeypatch.setattr(spectral, "_pf_data", fail)
    monkeypatch.setattr(spectral, "_eigenmetric", fail)
    assert axes.lone_axis_decision(make()).overall != "unknown"


def test_fixed_directions_have_period_one(corpus):
    for g in corpus:
        periods = traintrack.periodic_structure(g).direction_periods
        assert nielsen._fixed_directions(g) == [
            d for d, p in periods.items() if p == 1]


def assert_pruning_exact(g, bounds):
    for bound in bounds:
        assert brute_force_nielsen_paths(g, bound) \
            == unpruned_nielsen_paths(g, bound), bound


class TestBruteForce:
    # the unpruned reference is exponential: bounds stay where it costs
    # under a few hundredths of a second a call, apart from fib^2 at 12
    @pytest.mark.parametrize("make, top", [
        (fib_map, 8), (cubic_map, 5), (dumbbell_instance, 6), (rank4_map, 4),
        (eight_petal_map, 3), (rank5_map, 4),
    ], ids=["fib", "cubic", "dumbbell", "rank4", "eight", "rank5"])
    def test_pruning_exact_on_fixed_maps(self, make, top):
        grot, _ = traintrack.rotationless_power(make())
        assert_pruning_exact(grot, range(1, top + 1))

    def test_pruning_exact_on_fib_square_at_oracle_bound(self, fib2):
        assert_pruning_exact(fib2, [12])

    def test_pruning_exact_on_corpus_samples(self, small_corpus):
        ran = 0
        for g in small_corpus:
            if traintrack.periodic_structure(g).rotationless_exponent > 2:
                continue
            grot, _ = traintrack.rotationless_power(g)
            if total_image_length(grot) > 60:
                continue
            assert_pruning_exact(grot, range(1, 5))
            ran += 1
            if ran == 6:
                break
        assert ran == 6

    @settings(max_examples=6, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 2**32 - 1))
    def test_pruning_exact_on_random_maps(self, rank, seed):
        g = random_positive_map(rank, random.Random(seed))
        try:
            assume(traintrack.periodic_structure(g).rotationless_exponent <= 3)
            grot, _ = traintrack.rotationless_power(g)
            assume(total_image_length(grot) <= 60)
            nielsen._require_rotationless_tt(grot)
        except PreconditionError:
            assume(False)
        assert_pruning_exact(grot, range(1, 7))

    @pytest.mark.parametrize("bound", [0, -3])
    def test_rejects_non_positive_bound(self, fib2, bound):
        with pytest.raises(PreconditionError, match="positive integer"):
            brute_force_nielsen_paths(fib2, bound)

    def test_matches_iterative_on_fib_square(self, fib2):
        for bound in (9, 12):
            assert checked_nielsen_paths(fib2, bound).inps()

    def test_canonical_orientation(self, fib2):
        for p in brute_force_nielsen_paths(fib2, 8):
            assert p <= rev_path(p)

    def test_agreement_on_corpus_samples(self, small_corpus):
        ran = 0
        for g in small_corpus:
            if g.domain.rank() != 2:
                continue
            if traintrack.periodic_structure(g).rotationless_exponent > 2:
                continue
            grot, _ = traintrack.rotationless_power(g)
            if sum(len(grot.image(e)) for e in grot.domain.pairs) > 60:
                continue
            checked_nielsen_paths(grot, 8)
            ran += 1
            if ran >= 4:
                break
        assert ran >= 2


class TestFullyStable:
    def test_three_valued(self, fib2, cubic6):
        assert nielsen.np_verdict(cubic6, 30)[0] is True
        assert nielsen.np_verdict(fib2, 30)[0] is False
        assert nielsen.np_verdict(cubic6, 1)[0] is None

    def test_capped_verdict_is_stored(self, monkeypatch):
        g = eight_petal_map()
        verdict = nielsen.np_verdict(g, 40)
        assert verdict[0] is False and verdict[2] is None

        def search_again(g, bound):
            raise AssertionError("the stored verdict was not read")

        monkeypatch.setattr(nielsen, "_iterative_search", search_again)
        assert nielsen.np_verdict(g, 40) == verdict


class TestAgeometricCertificate:
    # a fully irreducible automorphism is ageometric exactly when its
    # rotationless representative is NP-free (`np_verdict` is True)
    def test_worked_examples(self, fib2, cubic6):
        assert nielsen.np_verdict(cubic6, 30)[0] is True
        assert nielsen.np_verdict(fib2, 30)[0] is False
        assert nielsen.np_verdict(cubic6, 1)[0] is None

    def test_ageometric_index_strictly_above_floor(self, cubic6, monkeypatch):
        # index_report asserts index > 1 - r on an NP-free map; a gate
        # structure that breaks the floor fails that check
        idx = whitehead.index_report(cubic6, 30)
        assert idx.index_sum > 1 - cubic6.domain.rank()
        monkeypatch.setattr(whitehead, "index_entries_from_gate_counts",
                            lambda counts: (Fraction(-3),))
        monkeypatch.setattr(traintrack, "gate_index_sum",
                            lambda g: Fraction(-3))
        with pytest.raises(InternalCheckError, match="ageometric"):
            whitehead.index_report(cubic6, 30)

    def test_dumbbell_instance_certificate(self):
        g2 = power(dumbbell_instance(), 2)
        assert nielsen.np_verdict(g2, 13)[0] is True
        assert whitehead.index_report(g2, 13).index_sum > 1 - g2.domain.rank()


def rotationless_fixtures():
    return {name: traintrack.rotationless_power(make())[0]
            for name, make in (("fib", fib_map), ("cubic", cubic_map),
                               ("dumbbell", dumbbell_instance),
                               ("rank4", rank4_map), ("rank5", rank5_map))}


def legal_paths_into(g, e, length):
    """Every legal path of `length` edges whose last edge is e."""
    gate_of = traintrack.gates(g).gate_of
    paths = [(e,)]
    for _ in range(length - 1):
        paths = [(rev_edge(d),) + p for p in paths
                 for d in g.domain.directions_at(g.domain.init_vertex(p[0]))
                 if gate_of[d] != gate_of[p[0]]]
    return paths


def common_end(a, b):
    n = 0
    while n < min(len(a), len(b)) and a[-1 - n] == b[-1 - n]:
        n += 1
    return n


def assert_tail_bound_holds(g, length):
    """No two legal paths of up to `length` edges, whose last edges x and
    y differ, with one of g(x), g(y) ending the other, have images that
    share more letters at their ends than `_tail_bound` allows."""
    most = nielsen._tail_bound(g)
    groups = {}
    for e in g.domain.oriented:
        for k in range(1, length + 1):
            for p in legal_paths_into(g, e, k):
                groups.setdefault(g.image(e)[-1], []).append(
                    (p, concatenated_image(g, p)))
    seen = 0
    for group in groups.values():
        for (a, image_a), (b, image_b) in itertools.combinations(group, 2):
            x, y = g.image(a[-1]), g.image(b[-1])
            if a[-1] != b[-1] and common_end(x, y) == min(len(x), len(y)):
                seen = max(seen, common_end(image_a, image_b))
    assert seen <= most
    return seen, most


def calls_left():
    """How many more nested Python calls the interpreter allows here."""
    def down(n):
        try:
            return down(n + 1)
        except RecursionError:
            return n
    return down(0)


def assert_search_complete_at_leg_cap(g):
    """No iNP has a leg past the cap: a search at 40 or 160 finds what
    the search at the cap finds."""
    cap = nielsen._leg_cap(g)
    at_cap = nielsen._iterative_search(g, cap)
    for bound in (40, 160):
        if bound >= cap:
            assert nielsen._iterative_search(g, bound) == at_cap, bound
    return cap


def metric_bound_counterexample():
    """a -> abbbabbabb, b -> babbabb: its iNP a b a' b' has legs of two
    edges, but the eigenmetric bound lam * max_len / ((lam - 1) * min_len)
    rounds down to 1, as the tail spans more than one edge image
    (random_positive_map(2, Random(1), 5, 120))."""
    return rose_map({"a": "a b b b a b b a b b", "b": "b a b b a b b"})


class TestLegCap:
    @pytest.mark.parametrize("name", ["fib", "cubic", "dumbbell", "rank4",
                                      "rank5"])
    def test_longer_search_finds_nothing_more_on_fixtures(self, name):
        g = rotationless_fixtures()[name]
        assert assert_search_complete_at_leg_cap(g) <= 4
        assert_tail_bound_holds(g, 3)

    def test_longer_search_finds_nothing_more_on_corpus(self, corpus):
        for g in corpus:
            assert_search_complete_at_leg_cap(
                traintrack.rotationless_power(g)[0])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.integers(5, 12))
    def test_longer_search_finds_nothing_more_on_random_maps(
            self, rank, seed, moves):
        g = random_positive_map(rank, random.Random(seed), moves, 120)
        try:
            assume(traintrack.periodic_structure(g).rotationless_exponent <= 3)
            grot, _ = traintrack.rotationless_power(g)
            nielsen._require_rotationless_tt(grot)
        except PreconditionError:
            assume(False)
        assert_search_complete_at_leg_cap(grot)
        assert_tail_bound_holds(grot, 3)

    def test_cap_holds_where_the_metric_bound_does_not(self):
        g = metric_bound_counterexample()
        assert nielsen._leg_cap(g) == 2
        # the tail of either leg is 15 letters, past each image's length
        assert assert_tail_bound_holds(g, 4) == (15, 15)
        # a search below the cap finds nothing and certifies nothing
        short = nielsen.find_nielsen_paths(g, 1)
        assert short.paths == () and not short.exhaustive
        assert short.proven_leg_bound == 2
        assert nielsen.np_verdict(g, 1)[0] is None
        for bound in (2, 40, 160):
            report = nielsen.find_nielsen_paths(g, bound)
            assert report.exhaustive and report.proven_leg_bound == 2
            assert [p.path for p in report.inps()] == [("a", "b", "a'", "b'")]
            assert nielsen.np_verdict(g, bound)[0] is False

    def test_no_cap_when_the_ends_agree_without_limit(self):
        # a -> ab, b -> ab is no homotopy equivalence: a path and the same
        # path with its last edge swapped have equal images, so the
        # matcher shows no bound and the search refuses the input
        g = rose_map({"a": "a b", "b": "a b"})
        assert nielsen._tail_bound(g) is None
        with pytest.raises(PreconditionError,
                           match=r"^\[homotopy-equivalence\] "):
            nielsen.find_nielsen_paths(g, 10)

    def test_no_cap_on_an_automorphism_is_an_internal_failure(
            self, monkeypatch):
        monkeypatch.setattr(nielsen, "_tail_bound", lambda g: None)
        g, _ = traintrack.rotationless_power(cubic_map())
        with pytest.raises(InternalCheckError, match="no bound"):
            nielsen.find_nielsen_paths(g, 10)

    @pytest.mark.parametrize("name,most", [("cubic", 12), ("rank5", 12),
                                           ("fib", 3)])
    def test_tail_bound_needs_no_recursion(self, name, most):
        # a matcher chain deeper than the interpreter's stack still
        # gives the bound; the gates are built before the limit drops
        g = rotationless_fixtures()[name]
        traintrack.gates(g)
        limit = sys.getrecursionlimit()
        # six calls above this frame, however deep the test runner is; a
        # matcher that recursed once per state would run out on cubic
        sys.setrecursionlimit(limit - calls_left() + 6)
        try:
            assert nielsen._tail_bound(g) == most
        finally:
            sys.setrecursionlimit(limit)

    def test_cap_is_an_int_on_the_corpus_and_seeded_draws(self, corpus):
        rng = random.Random(11)
        draws = (random_positive_map(rng.choice((2, 3, 4)), rng,
                                     rng.randint(5, 12), 200)
                 for _ in range(300))
        caps = []
        for g in itertools.chain(corpus, draws):
            try:
                grot, _ = traintrack.rotationless_power(g)
                nielsen._require_rotationless_tt(grot)
            except PreconditionError:
                continue
            caps.append(nielsen._leg_cap(grot))
        assert all(type(cap) is int and cap >= 1 for cap in caps)
        assert len(caps) == 320

    @pytest.mark.parametrize("name", ["fib", "cubic"])
    def test_one_leg_search_per_map_at_or_above_the_cap(
            self, name, monkeypatch):
        g = rotationless_fixtures()[name]
        calls = []
        search = nielsen._iterative_search
        monkeypatch.setattr(nielsen, "_iterative_search", lambda g, bound: (
            calls.append(bound) or search(g, bound)))
        cap = nielsen._leg_cap(g)
        for bound in (13, 40, 80, cap, 160):
            report = nielsen.find_nielsen_paths(g, bound)
            assert report.search_bound == bound and report.exhaustive
        assert calls == [cap]

    def test_fib_path_lists_grow_with_the_requested_bound(self):
        # the legs stop at fib's leg cap 2; the divisible NPs are still
        # listed up to twice the requested bound
        g = rotationless_fixtures()["fib"]
        digests = {}
        for bound in (40, 80, 160):
            report = nielsen.find_nielsen_paths(g, bound)
            assert report.proven_leg_bound == 2 and report.exhaustive
            assert report.search_bound == bound
            text = json.dumps([[list(p.path), p.indivisible]
                               for p in report.paths])
            digests[bound] = (len(report.paths),
                              hashlib.sha256(text.encode()).hexdigest()[:16])
        assert digests == {40: (20, "7068a570fc79d834"),
                           80: (40, "ac6177c69476cb3d"),
                           160: (80, "774f42b4b206a05e")}
