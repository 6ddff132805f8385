"""The four workloads: their inputs, operations and expected outcomes.

A workload turns a seed and a number of passes into a ``Plan``: the
documents and graphs the program parses during set-up, a fixed stratum of
operations run once, and that many passes over one template of operations
(the same operations in a new order, or, where the workload forbids
reuse, new inputs of the same kinds and sizes).  A run is therefore a
fixed list of operations: the number attempted and failed depends on the
seed and the number of passes only.  Each operation carries its
``expect`` entry, which stays on the benchmark side and is compared with
the program's output only after the timed loop (see ``validate.py``).
"""

from __future__ import annotations

import json
import math
import os

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
DOCS = os.path.join(HERE, "docs")
FIXED = ("fib", "cubic", "cubic_relabeled", "dumbbell", "rank4", "rank5")
CUBIC = {"a": ("b",), "b": ("c",), "c": ("a", "b")}
DEFAULT_BOUND = 40


def fixed_text(name):
    with open(os.path.join(DOCS, f"{name}.txt")) as fh:
        return fh.read()


class Plan:
    def __init__(self):
        self.docs = {}      # name -> document text
        self.graphs = {}    # name -> {"vertices": [...], "edges": [...]}
        self.warmup = []    # untimed operations run before the first timed one
        self.fixed = []     # operations run once per run, before the passes
        self.passes = []    # lists of operations of the same kinds and sizes
        self.images = {}    # name -> edge images, for the validators
        self.paths = {}     # name -> document file, once written

    def add_doc(self, name, text):
        self.docs[name] = text
        self.images[name] = gen.read_images(text)
        return name

    def repeat(self, template, passes, rng):
        """``passes`` shuffled copies of ``template``."""
        for _ in range(passes):
            ops = list(template)
            rng.shuffle(ops)
            self.passes.append(ops)

    def write(self, workdir):
        """Write the documents and the worker's spec; returns the spec path."""
        for name, text in self.docs.items():
            self.paths[name] = os.path.join(workdir, f"{name}.txt")
            with open(self.paths[name], "w") as fh:
                fh.write(text)
        spec = os.path.join(workdir, "spec.json")
        with open(spec, "w") as fh:
            json.dump({"docs": self.paths, "graphs": self.graphs}, fh)
        return spec


# -- corpus-decide ----------------------------------------------------------

CORPUS_RANKS = range(2, 9)
CORPUS_SIZES = ((0, 60), (61, 200), (201, 400))
# Maps per rank and size class in one pass: 63 decisions of about 40 ms.
CORPUS_PER_CLASS = 3
# Total image length at least 6 per petal: shorter positive maps are so
# rarely primitive that drawing them takes seconds.
MIN_LETTERS_PER_PETAL = 6
# Decision cost follows the length of the rotationless power, about
# length * lam^(exponent - 1): 10-150 ms below LIGHT_POWER_LETTERS, up to
# seconds above it.  The seeded passes hold light maps only; the heavy maps
# form the fixed stratum, the same on every seed, so that a few multi-second
# decisions do not make the totals depend on the seed.
LIGHT_POWER_LETTERS = 2000
HEAVY_POWER_LETTERS = (2000, 10 ** 6)
HEAVY_RANKS = (5, 6, 7, 8)


def power_letters(images):
    k = gen.rotationless_exponent(images)
    return gen.total_length(images) * gen.dilatation(images) ** (k - 1)


def decide_expectation(images):
    """The verdict every correct decision must give, when the benchmark can
    derive it alone: on a rose, index 3/2 - r needs 2r - 1 gates, so any
    other gate count forces not-lone-axis whether or not Nielsen paths
    exist.  None asks for the reference decision at the proven bound."""
    rank = len(images)
    if gen.gate_count(images) != 2 * rank - 1:
        return "not-lone-axis"
    return None


def _draw(rng, rank, lo, hi, seen, letters, present=None):
    """A new map of the rank and size whose rotationless power has a length
    in ``letters``, drawn from ``rng``; ``present(images)``, when given,
    relabels it with a stream of its own."""
    while True:
        images = gen.corpus_map(
            rng, rank, rng.randint(max(lo, MIN_LETTERS_PER_PETAL * rank), hi))
        if not letters[0] <= power_letters(images) < letters[1]:
            continue
        if present is not None:
            images = present(images)
        key = tuple(sorted(images.items()))
        if key not in seen:
            seen.add(key)
            return images


def corpus_decide(seed, passes):
    plan = Plan()

    def decide(name, images):
        plan.add_doc(name, gen.document(name, images))
        return {"kind": "decide", "doc": name, "bound": DEFAULT_BOUND,
                "expect": {"verdict": decide_expectation(images)}}

    seen = set()
    heavy_rng = gen.seeded(0, "corpus-decide-heavy")
    heavy = [decide(f"heavy{i}", _draw(heavy_rng, rank, 201, 400, seen,
                                       HEAVY_POWER_LETTERS))
             for i, rank in enumerate(HEAVY_RANKS)]
    # Known-failing inputs stay in every run: the runaway rotationless
    # power and the eigenmetric defect.
    for name in ("runaway", "defect"):
        heavy.append(decide(name, gen.read_images(fixed_text(name))))
    plan.fixed = heavy
    plan.add_doc("fib", fixed_text("fib"))
    plan.warmup = [{"kind": "decide", "doc": "fib", "bound": DEFAULT_BOUND}]

    # Every map is distinct: each pass draws new maps of every rank and
    # size class.  The maps come from one stream for every seed
    # and the seed relabels their petals and orders the operations, so that
    # runs on different seeds decide maps of the same costs.
    draws = gen.seeded(0, "corpus-decide")
    rng = gen.seeded(seed, "corpus-decide")

    def present(images):
        return gen.relabel(images, rng, invert=False)

    for p in range(passes):
        ops = []
        for rank in CORPUS_RANKS:
            for c, (lo, hi) in enumerate(CORPUS_SIZES):
                for i in range(CORPUS_PER_CLASS):
                    ops.append(decide(f"c{p}_{rank}_{c}_{i}",
                                      _draw(draws, rank, lo, hi, seen,
                                            (0, LIGHT_POWER_LETTERS), present)))
        rng.shuffle(ops)
        plan.passes.append(ops)
    return plan


# -- pnp-bound-ladder -------------------------------------------------------

LADDER_LOW = (4, 6, 8, 10, 12)
LADDER_HIGH = (13, 40, 80, 160)
# Bounds up to 12 run the brute-force oracle, which maps every tight path of
# at most b edges: about 2r (2r-1)^(b-1) paths times the mean image length
# in letters, roughly a microsecond each.  A low rung is kept only while
# that estimate stays within about a second.
LADDER_MAX_ORACLE_LETTERS = 15 * 10 ** 5
ORACLE_MAX_BOUND = 12


def ladder(images, rank, proven):
    """The rungs for one map; the proven bound is a rung of its own, and
    like every rung of 12 or less it is kept only if the oracle fits."""
    mean_image = gen.total_length(images) / len(images)
    return sorted(b for b in set(LADDER_LOW) | set(LADDER_HIGH) | {proven}
                  if b > ORACLE_MAX_BOUND or 2 * rank * (2 * rank - 1) ** (b - 1)
                  * mean_image <= LADDER_MAX_ORACLE_LETTERS)


def pnp_bound_ladder(seed, passes):
    plan = Plan()
    rng = gen.seeded(seed, "pnp-bound-ladder")
    sources = [(name, fixed_text(name)) for name in FIXED if name != "cubic_relabeled"]
    # Corpus maps of a narrow size and already rotationless, drawn from one
    # stream for every seed.  The seed relabels every rose (the dumbbell is
    # not one) and orders the operations, so that every seed gets the same
    # rungs at the same costs.
    draws = gen.seeded(0, "pnp-bound-ladder")
    for rank in (3, 4, 5):
        while True:
            images = gen.corpus_map(draws, rank, MIN_LETTERS_PER_PETAL * rank + 4)
            if gen.rotationless_exponent(images) == 1:
                break
        sources.append((f"seeded{rank}", gen.document(f"seeded{rank}", images)))
    ops = []
    for name, text in sources:
        images = gen.read_images(text)
        k = gen.rotationless_exponent(images)
        if len(gen.vertices(text)) == 1:
            rot_text = gen.document(f"{name}_rot",
                                    gen.power(gen.relabel(images, rng), k))
        else:
            rot_text = gen.power_document(text, k)
        doc = plan.add_doc(f"{name}_rot", rot_text)
        rot = plan.images[doc]
        rank = len(rot) - len(gen.vertices(text)) + 1
        for bound in ladder(rot, rank, gen.proven_leg_bound(rot)):
            # checked against a reference search at the proven bound
            ops.append({"kind": "pnp", "doc": doc, "bound": bound, "expect": {}})
    plan.warmup = [{"kind": "pnp", "doc": "fib_rot", "bound": 13}]
    plan.repeat(ops, passes, rng)
    return plan


# -- cli-docs ---------------------------------------------------------------

SUBCOMMANDS = ("check", "spectral", "gates", "pnp", "whitehead", "index",
               "lone-axis", "fold-line", "signature")


def cli_expected():
    with open(os.path.join(DOCS, "cli_expected.json")) as fh:
        return json.load(fh)


def cli_docs(seed, passes):
    plan = Plan()
    rng = gen.seeded(seed, "cli-docs")
    expected = cli_expected()
    for name in FIXED:
        plan.add_doc(name, fixed_text(name))
    ops = [{"kind": "cli", "argv": [sub, name], "docs": [name],
            "expect": expected[sub][name]}
           for sub in SUBCOMMANDS for name in FIXED]
    ops.append({"kind": "cli", "argv": ["conjugate-power", "cubic", "cubic_relabeled"],
                "docs": ["cubic", "cubic_relabeled"],
                "expect": expected["conjugate-power"]["cubic"]})
    plan.repeat(ops, passes, rng)
    return plan


# -- conjugacy --------------------------------------------------------------

POWERS = range(1, 8)
# Powers whose pairs take 30-90 ms at seed; pairs with a power of 5 take
# 0.5-1.2 s, and a power of 7 hits the eigenmetric defect after 1.5-3 s.
CHEAP_POWERS = (1, 2, 3, 4, 6)
SLOW_PAIRS = ((5, 2), (3, 5))
# Seeded 5- and 6-vertex graph pairs per pass; they take under 10 ms each.
WISO_SEEDED = 8


def _prism():
    return ([f"p{i}" for i in range(6)],
            [(f"p{i}", f"p{(i + 1) % 3}") for i in range(3)]
            + [(f"p{i + 3}", f"p{(i + 1) % 3 + 3}") for i in range(3)]
            + [(f"p{i}", f"p{i + 3}") for i in range(3)])


def _moebius(n):
    return ([f"m{i}" for i in range(n)],
            [(f"m{i}", f"m{(i + 1) % n}") for i in range(n)]
            + [(f"m{i}", f"m{i + n // 2}") for i in range(n // 2)])


def _cube():
    vs = [f"q{i}" for i in range(8)]
    return vs, [(f"q{i}", f"q{i ^ (1 << b)}") for i in range(8) for b in range(3)
                if i < i ^ (1 << b)]


def _complement_of_cycles(sizes):
    """Complement of a disjoint union of cycles: 4-regular on 7 vertices
    for (7,) and (3, 4), two graphs with one degree sequence."""
    cycle_edges, start = set(), 0
    for n in sizes:
        for i in range(n):
            cycle_edges.add(frozenset((start + i, start + (i + 1) % n)))
        start += n
    return [f"k{i}" for i in range(start)], [(f"k{i}", f"k{j}") for i in range(start) for j in range(i + 1, start)
                if frozenset((i, j)) not in cycle_edges]


def _graph_pair(rng, iso):
    """A seeded simple graph on 5 or 6 vertices and either a relabeled copy
    or a graph with the same degree sequence that networkx calls
    non-isomorphic.  (The permutation search costs up to n!, so seeded
    pairs stay small; the 6-, 7- and 8-vertex worst cases are fixed.)"""
    import networkx as nx
    while True:
        n = rng.randint(5, 6)
        g = nx.gnm_random_graph(n, rng.randint(n, n * (n - 1) // 2 - n),
                                seed=rng.randrange(2 ** 31))
        if iso:
            perm = list(range(n))
            rng.shuffle(perm)
            h = nx.relabel_nodes(g, dict(enumerate(perm)))
        else:
            h = g.copy()
            try:
                nx.double_edge_swap(h, nswap=3, max_tries=200,
                                    seed=rng.randrange(2 ** 31))
            except nx.NetworkXException:
                continue
            if nx.is_isomorphic(g, h):
                continue
        return ([f"g{v}" for v in g], [(f"g{u}", f"g{v}") for u, v in g.edges()],
                [f"h{v}" for v in h], [(f"h{u}", f"h{v}") for u, v in h.edges()])


def _expected_iso(a, b):
    import networkx as nx
    ga, gb = nx.Graph(), nx.Graph()
    for g, (vs, es) in ((ga, a), (gb, b)):
        g.add_nodes_from(vs)
        g.add_edges_from(es)
    return nx.is_isomorphic(ga, gb)


def conjugacy(seed, passes):
    plan = Plan()
    rng = gen.seeded(seed, "conjugacy")
    plan.add_doc("cubic", fixed_text("cubic"))
    for a in POWERS:
        base = gen.power(CUBIC, a)
        for side in ("L", "R"):
            plan.add_doc(f"{side}{a}", gen.document(f"cubic{a}{side}",
                                                    gen.relabel(base, rng)))
    # Maps that are not lone-axis, so every pair with one is inapplicable:
    # fib, a seeded map whose gate count already rules a lone axis out, and
    # the runaway map, whose decision runs out of memory at seed.
    plan.add_doc("fib", fixed_text("fib"))
    while True:
        images = gen.corpus_map(rng, 3, rng.randint(MIN_LETTERS_PER_PETAL * 3, 40))
        if decide_expectation(images) == "not-lone-axis":
            break
    plan.add_doc("neg3", gen.document("neg3", images))
    plan.add_doc("runaway", fixed_text("runaway"))

    def wiso(name, a, b):
        plan.graphs[f"{name}a"] = {"vertices": a[0], "edges": a[1]}
        plan.graphs[f"{name}b"] = {"vertices": b[0], "edges": b[1]}
        return {"kind": "wiso", "graph": f"{name}a", "other": f"{name}b",
                "expect": {"iso": _expected_iso(a, b)}}

    def conj(a, b):
        g = math.gcd(a, b)
        return {"kind": "conj", "doc": f"L{a}", "other": f"R{b}",
                "expect": {"status": "conjugate-powers", "powers": [b // g, a // g]}}

    def sig(a):
        return {"kind": "sig", "doc": f"L{a}",
                "expect": {"records_of": "cubic", "lam": plastic ** a}}

    def inapplicable(a, other):
        return {"kind": "conj", "doc": f"L{a}", "other": other,
                "expect": {"status": "inapplicable"}}

    plastic = gen.dilatation(CUBIC)
    # The template repeats in every pass, so maps and graphs recur across
    # operations; the seed varies the documents, the graphs and the order.
    template = [conj(a, b) for a in CHEAP_POWERS for b in CHEAP_POWERS]
    template += [conj(a, b) for a, b in SLOW_PAIRS]
    template += [sig(a) for a in POWERS if a != 7]
    template += [inapplicable(a, other) for a, other in
                 ((1, "fib"), (2, "neg3"), (3, "fib"), (4, "neg3"))]
    for i in range(WISO_SEEDED):
        pair = _graph_pair(rng, iso=i % 2 == 0)
        template.append(wiso(f"w{i}", pair[:2], pair[2:]))
    template.append(wiso("prism", _prism(), _moebius(6)))
    template.append(wiso("k7", _complement_of_cycles((7,)),
                         _complement_of_cycles((3, 4))))
    # Once per run: the known failures (the eigenmetric defect in a
    # conjugacy check and in a signature, and the runaway power behind an
    # inapplicable pair) and the factorial 8-vertex isomorphism search.
    plan.fixed = [conj(1, 7), sig(7), inapplicable(3, "runaway"),
                  wiso("cube", _cube(), _moebius(8))]
    plan.warmup = [{"kind": "conj", "doc": "L1", "other": "R2"},
                   {"kind": "sig", "doc": "L1"},
                   {"kind": "wiso", "graph": "prisma", "other": "prismb"}]
    plan.repeat(template, passes, rng)
    return plan


WORKLOADS = {
    "corpus-decide": corpus_decide,
    "pnp-bound-ladder": pnp_bound_ladder,
    "cli-docs": cli_docs,
    "conjugacy": conjugacy,
}
# Seconds of operation time per pass at the seed commit, with the fixed
# stratum spread over the passes of a 20-second run; a run makes
# seconds / PASS_S passes.
PASS_S = {"corpus-decide": 4.0, "pnp-bound-ladder": 5.0, "cli-docs": 13.0,
          "conjugacy": 6.7}
