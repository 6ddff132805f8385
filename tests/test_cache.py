"""Derived structures stored on the GraphMap: a warm call equals a cold
one, maps shared across many comparisons give the verdicts fresh maps
give, shared results are read-only, and failures are never stored."""

import copy
import itertools
import pickle
from collections.abc import Mapping

import pytest

from loneaxis.cli import GraphMapDocument, parse_document, serialize_document
from loneaxis.errors import (LoneAxisError, NielsenPathPresentError,
                             PreconditionError)
from loneaxis.graphs import GraphMap, MarkedGraph, power, rose_map
from loneaxis import axes, nielsen, spectral, traintrack

from conftest import (cubic_map, dumbbell_instance,
                      eight_petal_map, fib_map, rank4_map, rank5_map,
                      runaway_map)
from oracles import checked_nielsen_paths

MAPS = {"fib": fib_map, "cubic": cubic_map, "dumbbell": dumbbell_instance,
        "rank4": rank4_map, "rank5": rank5_map, "eight": eight_petal_map}


def fresh(g):
    """A freshly parsed copy of g, sharing nothing with it."""
    text = serialize_document(GraphMapDocument(g))
    return parse_document(text).graph_map


def plain(x):
    """Comparable plain data for a result object, its store left out."""
    if isinstance(x, (GraphMap, MarkedGraph)):
        return x
    if isinstance(x, Mapping):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [plain(v) for v in x]
    if hasattr(x, "__dict__"):
        return type(x).__name__, plain({k: v for k, v in vars(x).items()
                                        if k != "_store"})
    return x


def outcome(call, g):
    try:
        return "ok", plain(call(g))
    except LoneAxisError as ex:
        return type(ex).__name__, str(ex)


def grot(g):
    return traintrack.rotationless_power(g)[0]


CALLS = {
    "direction_map": traintrack.direction_map,
    "gates": traintrack.gates,
    "is_train_track": traintrack.is_train_track,
    "periodic_structure": traintrack.periodic_structure,
    "taken_turns": traintrack.taken_turns,
    "transition_matrix": spectral.transition_matrix,
    "matrix_class": lambda g: spectral.matrix_class(spectral.transition_matrix(g)),
    "pf_data": lambda g: spectral.pf_data(spectral.transition_matrix(g)),
    "eigenmetric": spectral.eigenmetric,
    "rotationless_power": traintrack.rotationless_power,
    "find_nielsen_paths": lambda g: nielsen.find_nielsen_paths(grot(g)),
    "lone_axis_decision": axes.lone_axis_decision,
    "axis_signature": axes.axis_signature,
}


@pytest.mark.parametrize("name", sorted(MAPS))
def test_warm_calls_equal_cold(name):
    g = MAPS[name]()
    for call in CALLS.values():
        first, second = outcome(call, g), outcome(call, g)
        assert first == second == outcome(call, fresh(g))


def test_results_are_shared_per_map():
    g = cubic_map()
    assert spectral.transition_matrix(g) is spectral.transition_matrix(g)
    assert traintrack.gates(g) is traintrack.gates(g)
    assert grot(g) is grot(g)
    assert nielsen.find_nielsen_paths(grot(g), 13) \
        is nielsen.find_nielsen_paths(grot(g), 13)
    assert nielsen.find_nielsen_paths(grot(g), 13) \
        is not nielsen.find_nielsen_paths(grot(g), 14)
    assert axes.lone_axis_decision(g) is axes.lone_axis_decision(g, 40, 0)
    assert axes.lone_axis_decision(g, 40, 1) \
        is axes.lone_axis_decision(g, 40, True)
    assert axes.lone_axis_decision(g) is not axes.lone_axis_decision(g, 41)
    assert axes.lone_axis_decision(g) \
        is not axes.lone_axis_decision(g, 40, True)
    assert axes.axis_signature(g) is axes.axis_signature(g, 13)
    h = fresh(g)
    assert spectral.transition_matrix(h) is not spectral.transition_matrix(g)
    assert axes.lone_axis_decision(h) is not axes.lone_axis_decision(g)


def test_stages_computed_once_per_map(monkeypatch):
    counts = {}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return inner(*args)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((traintrack, "_gates"),
                         (traintrack, "_periodic_structure"),
                         (spectral, "_pf_data"),
                         (nielsen, "_find_nielsen_paths"),
                         (nielsen, "_leg_cap"),
                         (nielsen, "_iterative_search"),
                         (axes, "_lone_axis_decision"),
                         (axes, "_signature_of"),
                         (traintrack, "_is_homotopy_equivalence"),
                         (axes, "stallings_decomposition")):
        counted(module, name)
    g = power(cubic_map(), 2)
    for _ in range(3):
        axes.axis_signature(g, np_bound=6)
        nielsen.find_nielsen_paths(grot(g), 6)
    # gates and periodic structure of g and of its rotationless power;
    # PF data of g alone, as the search on the power reads no eigenvalue;
    # one search per map and bound, with one leg cap and one leg search;
    # one decision and one signature of g; one homotopy equivalence check
    # of g, which records no fold sequence, and one fold sequence for the
    # signature's records
    assert counts == {"_gates": 2, "_periodic_structure": 2, "_pf_data": 1,
                      "_find_nielsen_paths": 1, "_leg_cap": 1,
                      "_iterative_search": 1, "_lone_axis_decision": 1,
                      "_signature_of": 1,
                      "_is_homotopy_equivalence": 1,
                      "stallings_decomposition": 1}


def relabeled_cubic_powers():
    """Powers 1-4 of a->b, b->c, c->ab, each written on its own petals."""
    out = {}
    for k, letters in zip(range(1, 5), ("xyz", "zxy", "pqr", "rpq")):
        rename = dict(zip("abc", letters))
        g = power(cubic_map(), k)
        out[k] = rose_map({rename[e]: [rename[x] for x in g.image(e)]
                           for e in g.domain.pairs})
    return out


def test_pairwise_conjugacy_shared_equals_fresh():
    shared = relabeled_cubic_powers()
    for a, b in itertools.product(shared, repeat=2):
        mine = axes.conjugate_power_check(shared[a], shared[b])
        cold = axes.conjugate_power_check(fresh(shared[a]), fresh(shared[b]))
        assert plain(mine) == plain(cold)
        assert mine.status == "conjugate-powers"


def test_mutating_results_cannot_change_verdicts():
    g = cubic_map()
    before = plain(axes.lone_axis_decision(g))
    dm = traintrack.direction_map(g)
    with pytest.raises(TypeError):
        dm["a"] = "a'"
    with pytest.raises(TypeError):
        traintrack.gates(g).gate_of["a"] = ("a",)
    tm = spectral.transition_matrix(g)
    with pytest.raises(TypeError):
        tm.mat[0][0] = 7
    with pytest.raises(TypeError):
        tm.mat[0] = (7, 7, 7)
    with pytest.raises(TypeError):
        spectral.pf_data(tm).edge_lengths["a"] = 1.0
    with pytest.raises(TypeError):
        traintrack.periodic_structure(g).vertex_periods["v0"] = 2
    report = axes.lone_axis_decision(g)
    with pytest.raises(TypeError):
        report.overall = "lone-axis"
    with pytest.raises(TypeError):
        del report.index_sum
    signature = axes.axis_signature(g)
    records = signature.records
    with pytest.raises(TypeError):
        signature.records = ()
    with pytest.raises(TypeError):
        signature.lam = 2.0
    assert axes.axis_signature(g).records == records
    assert plain(axes.lone_axis_decision(g)) == before
    assert before == plain(axes.lone_axis_decision(fresh(g)))


def test_copies_start_empty_and_results_pickle():
    g = cubic_map()
    before = plain(axes.lone_axis_decision(g))
    for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert h == g and h._store == {}
        assert plain(axes.lone_axis_decision(h)) == before
    tm = spectral.transition_matrix(g)
    for result in (traintrack.direction_map(g), traintrack.gates(g),
                   traintrack.periodic_structure(g), spectral.pf_data(tm)):
        assert plain(pickle.loads(pickle.dumps(result))) == plain(result)
    dm = pickle.loads(pickle.dumps(traintrack.direction_map(g)))
    with pytest.raises(TypeError):
        dm["a"] = "a'"


def test_transition_matrix_copies_its_input():
    rows = [[1, 1], [1, 0]]
    tm = spectral.TransitionMatrix(("a", "b"), rows)
    rows[0][0] = 5
    assert tm.mat == ((1, 1), (1, 0))


def test_failures_are_raised_again():
    g = rose_map({"a": "a b", "b": "b"})
    errors = []
    for _ in range(2):
        with pytest.raises(PreconditionError, match="reducible") as info:
            spectral.eigenmetric(g)
        errors.append(str(info.value))
    assert errors[0] == errors[1]

    g = runaway_map()
    for _ in range(2):
        with pytest.raises(PreconditionError, match="beyond desk scale"):
            traintrack.rotationless_power(g)

    g = eight_petal_map()
    for _ in range(2):
        with pytest.raises(NielsenPathPresentError, match="more than 200"):
            nielsen.find_nielsen_paths(g, 40)


def test_oracle_checks_every_small_bound_call(monkeypatch):
    # the test-side oracle accepts fib's true report and rejects a stored
    # report that misses its iNP, on every call and not only on the call
    # that stored it
    checked_nielsen_paths(grot(fib_map()), 6)
    g = grot(fib_map())  # a fresh map: its report is stored by the plant
    monkeypatch.setattr(nielsen, "_find_nielsen_paths",
                        lambda g, bound: nielsen.NielsenPathReport(
                            [], bound, True, 1))
    for _ in range(2):
        with pytest.raises(AssertionError, match="disagree"):
            checked_nielsen_paths(g, 6)
