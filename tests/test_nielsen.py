import itertools

import pytest

from loneaxis.errors import NielsenPathPresentError, PreconditionError
from loneaxis.graphs import apply_map, power, rev_edge, rev_path, rose_map
from loneaxis import axes, nielsen, traintrack

from conftest import cubic_map, dumbbell_instance, eight_petal_map, fib_map


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
        # bound <= 12 turns the brute-force cross-check on; any
        # disagreement raises InternalCheckError
        rep = nielsen.find_nielsen_paths(fib2, 8)
        assert [p.path for p in rep.inps()] == [("a'", "b'", "a", "b")]
        rep6 = nielsen.find_nielsen_paths(cubic6, 6)
        assert rep6.paths == () and rep6.exhaustive

    def test_rotationless_precondition(self):
        with pytest.raises(PreconditionError):
            nielsen.find_nielsen_paths(cubic_map(), 10)

    def test_reported_paths_are_fixed(self, fib2):
        report = nielsen.find_nielsen_paths(fib2, 12)
        assert report.paths
        for np_ in report.paths:
            assert apply_map(fib2, np_.path) == np_.path

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
            ray = apply_map(g, ray)
        legs += [ray[:i] for i in range(1, bound + 1)]
    found = set()
    for a, b in itertools.combinations(legs, 2):
        if a[-1] == b[-1] or dmap[rev_edge(a[-1])] != dmap[rev_edge(b[-1])]:
            continue
        rho = a + rev_path(b)
        if apply_map(g, rho) == rho:
            found.add(min(rho, rev_path(rho)))
    return sorted(found)


class TestLegMatching:
    @pytest.mark.parametrize("g", [
        fib_map(), cubic_map(), dumbbell_instance(),
        rose_map({"a": "bdabaaac", "b": "ba", "c": "ac", "d": "bdaba"}),
        rose_map({"a": "adccbcbadccbbadccb", "b": "edbadccb",
                  "c": "adccbcb", "d": "edcbd", "e": "ed"}),
    ], ids=["fib", "cubic", "dumbbell", "rank4", "rank5"])
    def test_matches_all_pairs_above_oracle_range(self, g):
        grot, _ = axes._rotationless_power(g)
        proven = nielsen.find_nielsen_paths(grot, 13).proven_leg_bound
        for bound in sorted({13, 40, proven}):
            mine = [p.path for p in nielsen.find_nielsen_paths(grot, bound).inps()]
            assert mine == all_pairs_inps(grot, bound)

    def test_too_many_concatenations(self):
        g = eight_petal_map()
        assert nielsen._iterative_search(g, 40) == all_pairs_inps(g, 40) \
            == [("d'", "h"), ("f", "c", "g'")]
        with pytest.raises(NielsenPathPresentError):
            nielsen.find_nielsen_paths(g, 40)
        assert nielsen.is_fully_stable(g, 40) is False


class TestBruteForce:
    def test_matches_iterative_on_fib_square(self, fib2):
        oracle = nielsen.brute_force_nielsen_paths(fib2, 9)
        report = nielsen.find_nielsen_paths(fib2, 9)
        mine = sorted(p.path for p in report.paths if len(p.path) <= 9)
        assert mine == oracle

    def test_canonical_orientation(self, fib2):
        for p in nielsen.brute_force_nielsen_paths(fib2, 8):
            assert p <= rev_path(p)

    def test_agreement_on_corpus_samples(self, small_corpus):
        ran = 0
        for g in small_corpus:
            if g.domain.rank() != 2:
                continue
            ps = traintrack.periodic_structure(g)
            if ps.rotationless_exponent > 2:
                continue
            grot = power(g, ps.rotationless_exponent) \
                if ps.rotationless_exponent > 1 else g
            if sum(len(grot.image(e)) for e in grot.domain.pairs) > 60:
                continue
            nielsen.find_nielsen_paths(grot, 8)  # raises on disagreement
            ran += 1
            if ran >= 4:
                break
        assert ran >= 2


class TestFullyStable:
    def test_three_valued(self, fib2, cubic6):
        assert nielsen.is_fully_stable(cubic6, 30) is True
        assert nielsen.is_fully_stable(fib2, 30) is False
        assert nielsen.is_fully_stable(cubic6, 1) is None


class TestAgeometricCertificate:
    def test_worked_examples(self, fib2, cubic6):
        assert nielsen.ageometric_certificate(cubic6, 30) == "ageometric"
        assert nielsen.ageometric_certificate(fib2, 30) == "not-ageometric"
        assert nielsen.ageometric_certificate(cubic6, 1) == "unknown"

    def test_ageometric_index_strictly_above_floor(self, cubic6):
        # the certificate itself asserts index > 1 - r; recompute here
        from loneaxis import whitehead
        idx = whitehead.index_report(cubic6, 30)
        assert idx.index_sum > 1 - cubic6.domain.rank()

    def test_dumbbell_instance_certificate(self):
        g2 = power(dumbbell_instance(), 2)
        assert nielsen.ageometric_certificate(g2, 13) == "ageometric"
