import math
from fractions import Fraction

import pytest

from loneaxis.errors import NotLoneAxisError, PreconditionError
from loneaxis.graphs import compose, power, rose_map
from loneaxis import axes, nielsen, spectral, traintrack

from conftest import (build_corpus, cubic_map, cubic_map_relabeled,
                      defect_map, dumbbell_instance, eight_petal_map, fib_map,
                      identity_map, runaway_map)
from oracles import isometric, recompose


class TestStallingsDecomposition:
    def test_fib_structure(self):
        seq = axes.stallings_decomposition(fib_map())
        assert [m.kind for m in seq.moves] == ["subdivide", "fold",
                                               "homeomorphism"]
        fold = seq.moves[1]
        assert sorted(fold.turn) == ["a", "b"]
        assert fold.prefix == ("a",)

    def test_homeomorphism_input(self):
        seq = axes.stallings_decomposition(identity_map(2))
        assert [m.kind for m in seq.moves] == ["homeomorphism"]
        assert seq.fold_count() == 0

    def test_cubic_first_fold(self):
        seq = axes.stallings_decomposition(cubic_map())
        fold = next(m for m in seq.moves if m.kind == "fold")
        assert sorted(fold.turn) == ["a'", "c'"]
        assert fold.prefix == ("b'",)

    def test_recomposition_worked_examples(self):
        for g in (fib_map(), cubic_map(), power(cubic_map(), 3),
                  dumbbell_instance()):
            seq = axes.stallings_decomposition(g)
            rec = recompose(seq)
            assert rec.edge_images() == g.edge_images()
            assert rec.vertex_map == g.vertex_map

    def test_recomposition_on_corpus(self, corpus):
        for g in corpus:
            seq = axes.stallings_decomposition(g)
            rec = recompose(seq)
            assert rec.edge_images() == g.edge_images()
            assert rec.vertex_map == g.vertex_map

    def test_self_fold_round(self):
        # conjugation by b folds the a-loop onto itself at the turn {a, a'}
        g = rose_map({"a": "b a b'", "b": "b"})
        seq = axes.stallings_decomposition(g)
        fold = next(m for m in seq.moves if m.kind == "fold")
        assert sorted(fold.turn) == ["a", "a'"]
        rec = recompose(seq)
        assert rec.edge_images() == g.edge_images()

    def test_metric_coherence(self):
        # one full period contracts the volume by exactly the dilatation
        for g in (fib_map(), cubic_map()):
            lam = spectral.dilatation(g)
            lengths = spectral.eigenmetric(g).lengths
            seq = axes.stallings_decomposition(g)
            last = axes._stage_metric(seq, len(seq.graphs) - 1, lengths, lam)
            assert float(last.volume()) * lam == pytest.approx(1.0, abs=1e-8)

    def test_fold_maps_are_local_isometries(self):
        g = cubic_map()
        lam = spectral.dilatation(g)
        lengths = spectral.eigenmetric(g).lengths
        seq = axes.stallings_decomposition(g)
        for i, move in enumerate(seq.moves[:-1]):
            dom = axes._stage_metric(seq, i, lengths, lam)
            cod = axes._stage_metric(seq, i + 1, lengths, lam)
            for e in dom.pairs:
                img_len = sum(float(cod.lengths[f.rstrip("'")])
                              for f in move.map.image(e))
                assert abs(img_len - float(dom.lengths[e])) < 1e-9

    def test_induced_representatives_unique_illegal_turn(self):
        seq = axes.stallings_decomposition(power(cubic_map(), 6))
        for start, _fold_idx, n_cands in seq.fold_rounds:
            assert n_cands == 1
            rep = seq.induced_representative(start)
            assert traintrack.illegal_turn_count(rep) == 1

    def test_json_serialization_stable(self):
        seq = axes.stallings_decomposition(cubic_map())
        assert seq.to_json() == axes.stallings_decomposition(cubic_map()).to_json()

    def test_map_between_different_graphs(self):
        from loneaxis.graphs import GraphMap, rose
        dom, cod = rose(["a", "b"]), rose(["x", "y"])
        g = GraphMap(dom, cod, {"v0": "v0"}, {"a": ("x", "y"), "b": ("x",)})
        seq = axes.stallings_decomposition(g)
        assert seq.moves[-1].kind == "homeomorphism"
        rec = recompose(seq)
        assert rec.edge_images() == g.edge_images()


class TestFoldLine:
    def test_zero_samples_returns_start(self):
        line = axes.fold_line(fib_map(), periods=1, samples_per_period=0)
        assert len(line) == 1
        assert abs(float(line[0].volume()) - 1) < 1e-12

    def test_fib_period_endpoint_isometric(self):
        line = axes.fold_line(fib_map(), periods=1, samples_per_period=4)
        assert isometric(line[0], line[-1], length_tol=1e-8)

    def test_cubic_two_periods_match(self):
        line = axes.fold_line(cubic_map(), periods=2, samples_per_period=3)
        per = (len(line) - 1) // 2
        assert per >= 1
        for j in range(1, per + 1):
            assert isometric(line[j], line[j + per], length_tol=1e-8)

    def test_all_graphs_normalized(self):
        for graph in axes.fold_line(cubic_map(), periods=1, samples_per_period=6):
            assert abs(float(graph.volume()) - 1) < 1e-9

    def test_needs_primitive(self):
        with pytest.raises(PreconditionError):
            axes.fold_line(identity_map(2), 1, 1)

    @pytest.mark.parametrize("samples", [0, 3])
    def test_last_period_builds_no_representative(self, monkeypatch, samples):
        # the representative at the end of a period only starts the next one
        expected = axes.fold_line(cubic_map(), 1, samples)

        def refuse(seq, stage):
            raise AssertionError("built a representative nothing reads")

        monkeypatch.setattr(axes.FoldSequence, "induced_representative",
                            refuse)
        assert axes.fold_line(cubic_map(), 1, samples) == expected


class TestLoneAxisDecision:
    def test_cubic_affirmative(self):
        rep = axes.lone_axis_decision(cubic_map(), np_bound=13,
                                      fully_irreducible_asserted=True)
        assert rep.overall == "lone-axis"
        assert rep.index_sum == Fraction(-3, 2) == Fraction(3, 2) - 3
        assert rep.cut_vertex_condition and rep.index_condition
        assert rep.unique_illegal_turn
        assert rep.rotationless_exponent == 6

    def test_cubic_conditional_without_assertion(self):
        rep = axes.lone_axis_decision(cubic_map(), np_bound=13)
        assert rep.overall == "conditional"

    def test_fib_negative(self):
        rep = axes.lone_axis_decision(fib_map(), np_bound=13)
        assert rep.overall == "not-lone-axis"
        assert rep.np_free is False
        assert rep.index_sum == Fraction(-1) == 1 - 2

    def test_rank_three_index_minus_one_negative(self):
        rep = axes.lone_axis_decision(dumbbell_instance(), np_bound=13,
                                      fully_irreducible_asserted=True)
        assert rep.overall == "not-lone-axis"
        assert rep.index_sum == -1
        assert rep.index_condition is False

    def test_unknown_at_tiny_bound(self):
        rep = axes.lone_axis_decision(cubic_map(), np_bound=1)
        assert rep.overall == "unknown"
        assert rep.np_free is None

    def test_non_train_track_rejected(self):
        with pytest.raises(PreconditionError):
            axes.lone_axis_decision(rose_map({"a": "ab", "b": "a'b"}))

    def test_too_many_concatenations_negative(self):
        rep = axes.lone_axis_decision(eight_petal_map(), np_bound=40)
        assert rep.overall == "not-lone-axis"
        assert rep.np_free is False
        assert rep.index_sum == 1 - 8

    def test_default_bound_agrees_with_a_tenfold_bound(self, monkeypatch):
        # every corpus map the decision accepts is certified at bound 40,
        # with the verdict and index sum of bound 400, from one leg search
        calls = []
        search = nielsen._iterative_search
        monkeypatch.setattr(nielsen, "_iterative_search", lambda g, bound: (
            calls.append(bound) or search(g, bound)))
        decided = 0
        for g in build_corpus():  # fresh maps: no search stored on them
            try:
                rep = axes.lone_axis_decision(g, 40)
            except PreconditionError:
                continue
            wide = axes.lone_axis_decision(g, 400)
            assert rep.overall != "unknown"
            assert (rep.overall, rep.index_sum) == (wide.overall,
                                                    wide.index_sum)
            decided += 1
        assert decided and len(calls) == decided


class TestRotationlessPower:
    def test_runaway_power_refused_before_it_is_built(self):
        with pytest.raises(PreconditionError,
                           match="800024079 letters .* beyond desk scale"):
            axes.lone_axis_decision(runaway_map())

    def test_letter_count_is_exact(self, monkeypatch):
        g = power(cubic_map(), 5)  # rotationless exponent 6: the 30th power
        letters = sum(len(power(cubic_map(), 30).image(e)) for e in "abc")
        monkeypatch.setattr(traintrack, "_ROTATIONLESS_LETTER_CAP", letters)
        assert traintrack.rotationless_power(g)[1] == 6
        monkeypatch.setattr(traintrack, "_ROTATIONLESS_LETTER_CAP", letters - 1)
        with pytest.raises(PreconditionError, match=f"{letters} letters"):
            traintrack.rotationless_power(power(cubic_map(), 5))


class TestAxisSignature:
    def test_relabeled_copy_same_signature(self):
        s1 = axes.axis_signature(cubic_map(), np_bound=13)
        s2 = axes.axis_signature(cubic_map_relabeled(), np_bound=13)
        assert s1.records == s2.records
        assert s1 == s2

    def test_square_has_primitive_signature_of_base(self):
        s1 = axes.axis_signature(cubic_map(), np_bound=13)
        s2 = axes.axis_signature(power(cubic_map(), 2), np_bound=13)
        assert s1.records == s2.records
        assert abs(s2.lam - s1.lam ** 2) < 1e-8

    def test_power_of_rotationless_power(self):
        s6 = axes.axis_signature(power(cubic_map(), 6), np_bound=13)
        s12 = axes.axis_signature(power(cubic_map(), 12), np_bound=13)
        assert s6.records == s12.records

    def test_not_lone_axis_rejected(self):
        with pytest.raises(NotLoneAxisError):
            axes.axis_signature(fib_map(), np_bound=13)

    def test_period_is_log_dilatation(self):
        sig = axes.axis_signature(cubic_map(), np_bound=13)
        assert sig.period == pytest.approx(math.log(spectral.dilatation(
            cubic_map())), abs=1e-12)

    def test_json_roundtrip_fields(self):
        import json
        sig = axes.axis_signature(cubic_map(), np_bound=13)
        data = json.loads(sig.to_json())
        assert data["records"] == list(sig.records)
        assert data["rotationless_exponent"] == 6


class TestConjugatePowerCheck:
    def test_relabeled_copy(self):
        verdict = axes.conjugate_power_check(cubic_map(), cubic_map_relabeled(),
                                             np_bound=13)
        assert verdict.status == "conjugate-powers"
        assert verdict.powers == (1, 1)

    def test_square(self):
        verdict = axes.conjugate_power_check(cubic_map(), power(cubic_map(), 2),
                                             np_bound=13)
        assert verdict.status == "conjugate-powers"
        assert verdict.powers == (2, 1)

    def test_inapplicable(self):
        verdict = axes.conjugate_power_check(fib_map(), cubic_map(),
                                             np_bound=13)
        assert verdict.status == "inapplicable"

    def test_power_order_swapped(self):
        verdict = axes.conjugate_power_check(power(cubic_map(), 2), cubic_map(),
                                             np_bound=13)
        assert verdict.powers == (1, 2)

    def test_matching_dilatation_but_different_ray_dynamics(self):
        # lam here is exactly lam(cubic)^3, and the coarse fold records
        # agree, but the map is not conjugate to the cube: its
        # singular-ray cycle type needs a cube to become rotationless
        # while the cube of the cubic map only needs a square
        other = rose_map({"a": "aab", "b": "bc", "c": "a"})
        assert abs(spectral.dilatation(other)
                   - spectral.dilatation(cubic_map()) ** 3) < 1e-9
        verdict = axes.conjugate_power_check(cubic_map(), other, np_bound=16)
        assert verdict.status == "not-detected"
        assert "cycle types" in verdict.detail

    def test_unrelated_dilatations_not_detected(self):
        other = rose_map({"a": "aab", "b": "bac", "c": "a"})
        verdict = axes.conjugate_power_check(cubic_map(), other, np_bound=16)
        assert verdict.status == "not-detected"

    @pytest.mark.parametrize("j", [12, 18])
    def test_high_power_of_relabeled_copy(self, j):
        # g^j moves j fold periods for every j, so no power cap applies
        high = power(cubic_map_relabeled(), j)
        verdict = axes.conjugate_power_check(cubic_map(), high)
        assert verdict.status == "conjugate-powers"
        assert verdict.powers == (j, 1)
        assert axes.conjugate_power_check(high, cubic_map()).powers == (1, j)

    def test_colliding_records_with_unrelated_dilatations(self):
        # lam ~ 4.365 and ~ 6.033: the fold records agree and the fold
        # periods give (7, 5), where lam1^7 != lam2^5
        p1 = rose_map({"a": "bba", "b": "cbbab", "c": "bbac"})
        p2 = rose_map({"a": "bacbaccbba", "b": "cbbacb", "c": "bac"})
        assert axes.axis_signature(p1) == axes.axis_signature(p2)
        verdict = axes.conjugate_power_check(p1, p2)
        assert verdict.status == "not-detected"
        assert verdict.powers is None
        assert "dilatations differ at powers (7, 5)" in verdict.detail

    def test_relabeled_second_example(self):
        p1 = rose_map({"a": "aab", "b": "bc", "c": "a"})
        p2 = rose_map({"x": "xxy", "y": "yz", "z": "x"})
        verdict = axes.conjugate_power_check(p1, p2, np_bound=16)
        assert verdict.status == "conjugate-powers"
        assert verdict.powers == (1, 1)

    def test_non_automorphism_rejected(self):
        # injective endomorphism with abelianization determinant 2; its
        # folded edge images are not the rose
        bad = rose_map({"a": "aab", "b": "a'c", "c": "b'"})
        with pytest.raises(PreconditionError, match="homotopy-equivalence"):
            axes.lone_axis_decision(bad, np_bound=16)


class TestLongImages:
    """Maps whose rotationless powers have edge images of 10^4 to 10^5
    letters, which an absolute affine check rejected."""

    @pytest.fixture(scope="class")
    def cubic7(self):
        return power(cubic_map(), 7)  # rotationless power cubic^42

    def test_seventh_power_is_a_conjugate_power(self, cubic7):
        verdict = axes.conjugate_power_check(cubic_map(), cubic7)
        assert verdict.status == "conjugate-powers"
        assert verdict.powers == (7, 1)

    def test_seventh_power_has_the_signature_of_its_base(self, cubic7):
        assert axes.axis_signature(cubic7) == axes.axis_signature(cubic_map())

    def test_defect_map_decides(self):
        assert axes.lone_axis_decision(defect_map()).overall == "not-lone-axis"
