"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (run with ``pytest -s``
to see them); tolerances are pinned here and nowhere else.  Desk scale
throughout: graphs of at most 20 edge pairs, powers at most 12.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from loneaxis.graphs import power
from loneaxis import axes, nielsen, spectral, traintrack, whitehead

from conftest import (cubic_map, cubic_map_relabeled, dumbbell_instance,
                      fib_map)
from oracles import checked_nielsen_paths, isometric, recompose


def ok(n, text):
    print(f"ACCEPTANCE {n}: PASS  {text}")


def test_criterion_1_euler_gate_identity(corpus):
    """(1 - r) - GI equals half the sum of (1 - gate size).  Exact."""
    assert len(corpus) == 100
    for g in corpus:
        assert traintrack.is_train_track(g)
        gs = traintrack.gates(g)
        gi = traintrack.gate_index_sum(g)
        rhs = sum((1 - Fraction(len(gate))) / 2
                  for gates in gs.gates_at.values() for gate in gates)
        lhs = (1 - g.domain.rank()) - gi
        assert lhs == rhs, f"Euler identity failed on {g}"
    ok(1, "Euler/gate identity exact on 100 verified train track maps")


def test_criterion_2_unique_illegal_turn(corpus):
    """GI = 3/2 - r holds iff the map has exactly one illegal turn."""
    seen_equal = seen_other = 0
    for g in corpus:
        gi = traintrack.gate_index_sum(g)
        unique = traintrack.illegal_turn_count(g) == 1
        equal = gi == Fraction(3, 2) - g.domain.rank()
        assert equal == unique, f"criterion failed on {g}"
        seen_equal += equal
        seen_other += not equal
    assert seen_equal and seen_other, "corpus must exercise both sides"
    ok(2, f"unique-illegal-turn criterion exact "
          f"({seen_equal} with GI = 3/2 - r, {seen_other} without)")


def test_criterion_3_index_inequality(corpus):
    """NP-free rotationless examples give 1 - r <= i < 0, entries <= -1/2."""
    qualifying = 0
    for g in corpus:
        if traintrack.periodic_structure(g).rotationless_exponent > 6:
            continue
        grot, _ = traintrack.rotationless_power(g)
        if sum(len(grot.image(e)) for e in grot.domain.pairs) > 400:
            continue
        report = nielsen.find_nielsen_paths(grot, 16)
        if report.paths or not report.exhaustive:
            continue
        if not traintrack.periodic_structure(grot).principal_vertices:
            continue  # no principal vertex means the map is not fully
            # irreducible; the inequality presupposes one
        idx = whitehead.index_report(grot, 16)
        r = g.domain.rank()
        assert 1 - r <= idx.index_sum < 0, f"index {idx.index_sum} out of range"
        for entry in idx.entries:
            assert entry <= Fraction(-1, 2)
            assert (2 * entry).denominator == 1, "entries must be half-integers"
        qualifying += 1
    assert qualifying >= 25, f"only {qualifying} NP-free rotationless examples"
    ok(3, f"index inequality 1 - r <= i < 0 on {qualifying} NP-free "
          f"rotationless examples")


def test_criterion_4_worked_example_cubic():
    """Rank-3 example a->b, b->c, c->ab: all stated values, cross-checked."""
    g = cubic_map()
    # dilatation: real root of x^3 - x - 1 via bisection (independent)
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if mid ** 3 - mid - 1 < 0 else (lo, mid)
    lam = spectral.dilatation(g)
    assert abs(lam - lo) < 1e-9
    assert abs(lam - 1.3247179572) <= 1e-9

    gs = traintrack.gates(g)
    assert gs.gate_count("v0") == 5
    assert gs.illegal_turns == (frozenset(("a'", "c'")),)

    grot, exponent = traintrack.rotationless_power(g)
    assert exponent == 6

    report = checked_nielsen_paths(grot, 6)
    assert report.paths == () and report.exhaustive

    idx = whitehead.index_report(grot, 6)
    assert idx.index_sum == Fraction(-3, 2)

    iw = whitehead.ideal_whitehead_graph(grot, 6)
    assert len(iw.vertices) == 5 and len(iw.edges) == 6
    assert len(iw.components()) == 1
    assert whitehead.cut_vertices(iw) == frozenset()
    # removal oracle for the cut-vertex claim
    for v in iw.vertices:
        rest = set(iw.vertices) - {v}
        kept = {e for e in iw.edges if e <= rest}
        comp_count = 0
        remaining = set(rest)
        while remaining:
            comp_count += 1
            stack = [remaining.pop()]
            while stack:
                x = stack.pop()
                for e in kept:
                    if x in e:
                        for y in e - {x}:
                            if y in remaining:
                                remaining.remove(y)
                                stack.append(y)
        assert comp_count == 1

    decision = axes.lone_axis_decision(g, np_bound=6,
                                       fully_irreducible_asserted=True)
    assert decision.overall == "lone-axis"
    ok(4, "worked rank-3 example verified end to end "
          f"(lam = {lam:.10f}, i = -3/2, lone axis)")


def test_criterion_5_worked_example_fib():
    """Rank-2 example a->ab, b->a: golden dilatation, NP, no lone axis."""
    g = fib_map()
    lam = spectral.dilatation(g)
    assert abs(lam - (1 + math.sqrt(5)) / 2) < 1e-9
    assert abs(lam - 1.6180339887) <= 1e-9

    grot, exponent = traintrack.rotationless_power(g)
    assert exponent == 2
    report = checked_nielsen_paths(grot, 8)
    assert ("a'", "b'", "a", "b") in {p.path for p in report.inps()}

    decision = axes.lone_axis_decision(g, np_bound=8)
    assert decision.overall == "not-lone-axis"
    assert decision.index_sum == Fraction(-1) == 1 - 2
    # an NP makes the automorphism not ageometric
    assert nielsen.np_verdict(grot, 8)[0] is False
    ok(5, f"worked rank-2 example verified (lam = {lam:.10f}, NP found by "
          f"both searches, i = -1 = 1 - r)")


def test_criterion_6_fold_recomposition(corpus):
    """Tightened recomposition reproduces every corpus map exactly."""
    for g in corpus:
        seq = axes.stallings_decomposition(g)
        rec = recompose(seq)
        assert rec.edge_images() == g.edge_images()
        assert rec.vertex_map == g.vertex_map
    ok(6, "fold recomposition exact on 100 corpus decompositions")


def test_criterion_7_fold_line_periodicity():
    """Length vectors one period apart agree within 1e-8 after matching."""
    for g, name in ((cubic_map(), "rank-3"), (fib_map(), "rank-2")):
        line = axes.fold_line(g, periods=2, samples_per_period=4)
        per = (len(line) - 1) // 2
        assert per >= 1
        for j in range(1, per + 1):
            assert isometric(line[j], line[j + per], length_tol=1e-8), \
                f"{name} line fails at sample {j}"
    ok(7, "fold-line periodicity within 1e-8 for both worked examples")


def test_criterion_8_power_invariance():
    """Index, ideal graph class, and signature agree for powers 6 and 12."""
    g6, g12 = power(cubic_map(), 6), power(cubic_map(), 12)
    i6 = whitehead.index_report(g6, 13)
    i12 = whitehead.index_report(g12, 13)
    assert i6.index_sum == i12.index_sum
    assert i6.entries == i12.entries
    iw6 = whitehead.ideal_whitehead_graph(g6, 13)
    iw12 = whitehead.ideal_whitehead_graph(g12, 13)
    assert whitehead.whitehead_isomorphic(iw6, iw12)
    s6 = axes.axis_signature(g6, np_bound=13)
    s12 = axes.axis_signature(g12, np_bound=13)
    assert s6.records == s12.records
    ok(8, "index, ideal Whitehead class, and primitive signature invariant "
          "under doubling the rotationless power")


def test_criterion_9_conjugacy_detection():
    """Relabeled copy -> (1,1); square -> (2,1); mixed pair inapplicable."""
    v1 = axes.conjugate_power_check(cubic_map(), cubic_map_relabeled(),
                                    np_bound=13)
    assert v1.status == "conjugate-powers" and v1.powers == (1, 1)
    v2 = axes.conjugate_power_check(cubic_map(), power(cubic_map(), 2),
                                    np_bound=13)
    assert v2.status == "conjugate-powers" and v2.powers == (2, 1)
    v3 = axes.conjugate_power_check(fib_map(), cubic_map(), np_bound=13)
    assert v3.status == "inapplicable"
    ok(9, "conjugate-power verdicts exact on all three pairs")


def test_criterion_10_oracle_agreement(corpus, small_corpus):
    """Cut vertices, Nielsen searches, and gate closure against oracles."""
    # cut_vertices vs removal oracle on 200 random graphs
    rng = random.Random(271828)
    for _ in range(200):
        n = rng.randrange(2, 13)
        verts = [f"n{i}" for i in range(n)]
        edges = {frozenset(p) for p in itertools.combinations(verts, 2)
                 if rng.random() < 0.28}
        w = whitehead.WhiteheadGraph("local", verts, edges)

        def components(vertex_set, edge_set):
            remaining = set(vertex_set)
            comps = []
            while remaining:
                comp = {remaining.pop()}
                stack = list(comp)
                while stack:
                    x = stack.pop()
                    for e in edge_set:
                        if x in e:
                            for y in e - {x}:
                                if y in remaining:
                                    remaining.remove(y)
                                    comp.add(y)
                                    stack.append(y)
                comps.append(comp)
            return comps

        oracle = set()
        for comp in components(verts, edges):
            if len(comp) == 1:
                continue
            base = 1
            for v in comp:
                rest = comp - {v}
                kept = {e for e in edges if e <= rest}
                if len(components(rest, kept)) > base:
                    oracle.add(v)
        assert whitehead.cut_vertices(w) == oracle

    # Nielsen iterative vs brute force at bounds <= 12
    fib2 = power(fib_map(), 2)
    cubic6 = power(cubic_map(), 6)
    checked_nielsen_paths(fib2, 10)
    checked_nielsen_paths(cubic6, 6)
    checked_nielsen_paths(power(dumbbell_instance(), 2), 6)
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
        if ran >= 3:
            break
    assert ran >= 2

    # gate closure vs direct orbit simulation to depth 20
    for g in corpus:
        dm = traintrack.direction_map(g)
        gs = traintrack.gates(g)
        for d1, d2 in itertools.combinations(g.domain.oriented, 2):
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
    ok(10, "zero discrepancies: cut vertices (200 graphs), Nielsen searches "
           "(bounds <= 12), gate closure (depth 20)")
