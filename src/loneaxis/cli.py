"""Command-line interface and the line-oriented document format.

A document declares a graph, a self-map, optional exact edge lengths,
and optional metadata::

    # comments run to end of line
    name example
    graph
    vertex v0
    edge a v0 v0
    edge b v0 v0
    edge c v0 v0
    lengths
    length a 1/3
    map
    a -> b
    b -> c
    c -> a b
    assert fully-irreducible

Image words are space-separated edge tokens; a trailing apostrophe
marks the reversed edge (c').  Exit codes: 0 affirmative/success,
1 negative verdict, 2 unknown at the configured bound, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import (InternalCheckError, LoneAxisError,
                     NielsenPathPresentError, ParseError, PreconditionError,
                     UnknownAtBoundError)
from .graphs import GraphMap, MarkedGraph, is_tight
from . import axes, nielsen, spectral, traintrack, whitehead

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


class GraphMapDocument:
    """Parsed input: a graph self-map plus metadata."""

    def __init__(self, graph_map, name=None, fully_irreducible=False):
        self.graph_map = graph_map
        self.name = name
        self.fully_irreducible = bool(fully_irreducible)

    def __eq__(self, other):
        if not isinstance(other, GraphMapDocument):
            return NotImplemented
        return (self.graph_map == other.graph_map and self.name == other.name
                and self.fully_irreducible == other.fully_irreducible)

    def __repr__(self):
        tag = self.name or "<unnamed>"
        return f"GraphMapDocument({tag}, {self.graph_map!r})"


def _parse_length(token, lineno):
    try:
        if "/" in token:
            return Fraction(token)
        if "." in token or "e" in token or "E" in token:
            return float(token)
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"bad length {token!r}")


def parse_document(text: str) -> GraphMapDocument:
    """Parse and validate; errors carry 1-based line numbers."""
    name = None
    fully_irreducible = False
    vertices: dict[str, int] = {}
    edges: dict[str, tuple] = {}
    edge_lines: dict[str, int] = {}
    lengths: dict[str, object] = {}
    rules: dict[str, tuple] = {}
    rule_lines: dict[str, int] = {}
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]

        if head == "name" and len(tokens) == 2:
            name = tokens[1]
        elif line == "assert fully-irreducible":
            fully_irreducible = True
        elif line in ("graph", "map", "lengths"):
            section = line
        elif head == "vertex":
            if section != "graph":
                raise ParseError(lineno, "vertex line outside the graph section")
            if len(tokens) != 2:
                raise ParseError(lineno, "vertex takes exactly one name")
            if tokens[1] in vertices:
                raise ParseError(lineno, f"duplicate vertex {tokens[1]}")
            vertices[tokens[1]] = lineno
        elif head == "edge":
            if section != "graph":
                raise ParseError(lineno, "edge line outside the graph section")
            if len(tokens) != 4:
                raise ParseError(lineno, "edge takes label, init, term")
            lbl = tokens[1]
            if "'" in lbl or not lbl.isidentifier():
                raise ParseError(lineno, f"bad edge label {lbl!r}")
            if lbl in edges:
                raise ParseError(lineno, f"duplicate edge label {lbl}")
            edges[lbl] = (tokens[2], tokens[3])
            edge_lines[lbl] = lineno
        elif head == "length":
            if section != "lengths":
                raise ParseError(lineno, "length line outside the lengths section")
            if len(tokens) != 3:
                raise ParseError(lineno, "length takes label and value")
            if tokens[1] in lengths:
                raise ParseError(lineno, f"duplicate length for {tokens[1]}")
            lengths[tokens[1]] = _parse_length(tokens[2], lineno)
        elif "->" in tokens:
            if section != "map":
                raise ParseError(lineno, "image rule outside the map section")
            arrow = tokens.index("->")
            if arrow != 1:
                raise ParseError(lineno, "image rule must be: edge -> word")
            lbl = tokens[0]
            if lbl in rules:
                raise ParseError(lineno, f"duplicate image rule for {lbl}")
            rules[lbl] = tuple(tokens[2:])
            rule_lines[lbl] = lineno
        else:
            raise ParseError(lineno, f"unrecognized line {line!r}")

    if not edges:
        raise ParseError(1, "document has no edges")
    for lbl, (u, v) in edges.items():
        for w in (u, v):
            if w not in vertices:
                raise ParseError(edge_lines[lbl],
                                 f"edge {lbl} uses undeclared vertex {w}")
    for lbl in lengths:
        if lbl not in edges:
            raise ParseError(1, f"length for unknown edge {lbl}")
    if lengths and set(lengths) != set(edges):
        missing = sorted(set(edges) - set(lengths))[0]
        raise ParseError(1, f"lengths section misses edge {missing}")

    try:
        graph = MarkedGraph(edges, lengths=lengths or None)
    except LoneAxisError as ex:
        raise ParseError(1, str(ex))
    if set(graph.vertices) != set(vertices):
        unused = sorted(set(vertices) - set(graph.vertices))[0]
        raise ParseError(vertices[unused], f"vertex {unused} touches no edge")

    for lbl in edges:
        if lbl not in rules:
            raise ParseError(1, f"no image rule for edge {lbl}")
    for lbl in rules:
        if lbl not in edges:
            raise ParseError(rule_lines[lbl], f"image rule for unknown edge {lbl}")
        word = rules[lbl]
        for tok in word:
            if tok.rstrip("'") not in edges or tok.count("'") > 1:
                raise ParseError(rule_lines[lbl], f"unknown edge token {tok!r}")
        if not is_tight(word):
            raise ParseError(rule_lines[lbl],
                             f"non-tight image for {lbl}: {' '.join(word)}")
        if not word:
            raise ParseError(rule_lines[lbl], f"empty image for {lbl}")

    # vertex map is forced by where edge images start
    vmap = {}
    for lbl, word in rules.items():
        for v, w in ((graph.init_vertex(lbl), graph.init_vertex(word[0])),
                     (graph.term_vertex(lbl), graph.term_vertex(word[-1]))):
            if vmap.setdefault(v, w) != w:
                raise ParseError(rule_lines[lbl],
                                 f"images disagree about where vertex {v} goes")
    for v in graph.vertices:
        if v not in vmap:
            raise ParseError(1, f"vertex {v} has no forced image")

    try:
        gm = GraphMap(graph, graph, vmap, rules)
    except LoneAxisError as ex:
        raise ParseError(1, str(ex))
    return GraphMapDocument(gm, name=name, fully_irreducible=fully_irreducible)


def serialize_document(doc: GraphMapDocument) -> str:
    g = doc.graph_map
    lines = []
    if doc.name:
        lines.append(f"name {doc.name}")
    lines.append("graph")
    for v in sorted(g.domain.vertices):
        lines.append(f"vertex {v}")
    for lbl in g.domain.pairs:
        u, v = g.domain.edge_ends[lbl]
        lines.append(f"edge {lbl} {u} {v}")
    if g.domain.lengths is not None:
        lines.append("lengths")
        for lbl in g.domain.pairs:
            val = g.domain.lengths[lbl]
            txt = (f"{val.numerator}/{val.denominator}"
                   if isinstance(val, Fraction) else format(float(val), ".17g"))
            lines.append(f"length {lbl} {txt}")
    lines.append("map")
    for lbl in g.domain.pairs:
        lines.append(f"{lbl} -> {' '.join(g.image(lbl))}")
    if doc.fully_irreducible:
        lines.append("assert fully-irreducible")
    return "\n".join(lines) + "\n"


def _f(x):
    """Floats carry 12 significant digits in reports."""
    return float(format(float(x), ".12g"))


def _frac(x):
    return None if x is None else str(x)


def _report_skeleton(doc, subcommand):
    return {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "input_name": doc.name,
        "verdicts": {},
        "values": {},
        "bounds": {},
    }


def _cmd_check(doc, args):
    verdict = traintrack.is_train_track(doc.graph_map)
    report = _report_skeleton(doc, "check")
    report["verdicts"]["train_track"] = bool(verdict)
    if not verdict:
        edge, turn = verdict.witness
        report["values"]["witness_edge"] = edge
        report["values"]["witness_turn"] = sorted(turn)
    return report, EXIT_OK if verdict else EXIT_NEGATIVE


def _cmd_spectral(doc, args):
    g = doc.graph_map
    tm = spectral.transition_matrix(g)
    cls = spectral.matrix_class(tm)
    report = _report_skeleton(doc, "spectral")
    report["values"]["matrix"] = tm.mat.tolist()
    report["values"]["edge_order"] = list(tm.pairs)
    report["verdicts"]["matrix_class"] = cls
    if cls == spectral.REDUCIBLE:
        return report, EXIT_NEGATIVE
    pf = spectral.pf_data(tm)
    report["values"]["dilatation"] = _f(pf.lam)
    report["values"]["eigenmetric"] = {e: _f(x) for e, x in sorted(pf.edge_lengths.items())}
    report["values"]["residual"] = _f(pf.residual)
    return report, EXIT_OK


def _cmd_gates(doc, args):
    gs = traintrack.gates(doc.graph_map)
    report = _report_skeleton(doc, "gates")
    report["values"]["gates"] = {
        v: [list(gate) for gate in gs.gates_at[v]]
        for v in sorted(gs.gates_at)}
    report["values"]["illegal_turns"] = [sorted(t) for t in gs.illegal_turns]
    report["values"]["illegal_turn_count"] = len(gs.illegal_turns)
    return report, EXIT_OK


def _cmd_pnp(doc, args):
    g, exponent = axes.rotationless_power(doc.graph_map)
    report = _report_skeleton(doc, "pnp")
    try:
        rep = nielsen.find_nielsen_paths(g, args.bound)
    except NielsenPathPresentError as ex:
        # too many concatenations to list, so NPs are certainly present
        report["bounds"]["search_bound"] = args.bound
        report["values"]["rotationless_exponent"] = exponent
        report["verdicts"]["nielsen_paths_present"] = True
        report["values"]["reason"] = str(ex)
        return report, EXIT_OK
    report["bounds"]["search_bound"] = rep.search_bound
    report["bounds"]["proven_leg_bound"] = rep.proven_leg_bound
    report["values"]["rotationless_exponent"] = exponent
    report["verdicts"]["exhaustive"] = rep.exhaustive
    report["values"]["nielsen_paths"] = [
        {"path": list(p.path), "indivisible": p.indivisible} for p in rep.paths]
    if rep.paths or rep.exhaustive:
        return report, EXIT_OK
    return report, EXIT_UNKNOWN


def _cmd_whitehead(doc, args):
    g, exponent = axes.rotationless_power(doc.graph_map)
    report = _report_skeleton(doc, "whitehead")
    report["values"]["rotationless_exponent"] = exponent
    report["bounds"]["nielsen_bound"] = args.bound
    if args.flavor in ("local", "stable"):
        vertex = args.vertex or min(g.domain.vertices)
        if vertex not in g.domain.vertices:
            raise PreconditionError(f"vertex {vertex} is not in the graph")
        builder = (whitehead.local_whitehead_graph if args.flavor == "local"
                   else whitehead.stable_whitehead_graph)
        wg = builder(g, vertex)
    else:
        try:
            wg = whitehead.ideal_whitehead_graph(g, args.bound)
        except NielsenPathPresentError as ex:
            report["verdicts"]["ideal_defined"] = False
            report["values"]["reason"] = str(ex)
            return report, EXIT_NEGATIVE
        except UnknownAtBoundError as ex:
            report["verdicts"]["ideal_defined"] = None
            report["values"]["reason"] = str(ex)
            return report, EXIT_UNKNOWN
    dot = whitehead.to_dot(wg, name=doc.name)
    report["values"]["flavor"] = wg.flavor
    report["values"]["vertices"] = list(wg.vertices)
    report["values"]["edges"] = [sorted(e) for e in sorted(wg.edges, key=sorted)]
    report["values"]["components"] = [sorted(c) for c in wg.components()]
    report["values"]["cut_vertices"] = sorted(whitehead.cut_vertices(wg))
    report["dot"] = dot
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot)
    return report, EXIT_OK


def _cmd_index(doc, args):
    g, exponent = axes.rotationless_power(doc.graph_map)
    report = _report_skeleton(doc, "index")
    report["values"]["rotationless_exponent"] = exponent
    report["bounds"]["nielsen_bound"] = args.bound
    try:
        idx = whitehead.index_report(g, args.bound)
    except NielsenPathPresentError as ex:
        report["verdicts"]["index_defined"] = False
        report["values"]["reason"] = str(ex)
        report["values"]["implied_index"] = _frac(Fraction(1 - g.domain.rank()))
        return report, EXIT_NEGATIVE
    except UnknownAtBoundError as ex:
        report["verdicts"]["index_defined"] = None
        report["values"]["reason"] = str(ex)
        return report, EXIT_UNKNOWN
    report["verdicts"]["index_defined"] = True
    report["values"]["index_list"] = [_frac(e) for e in idx.entries]
    report["values"]["index_sum"] = _frac(idx.index_sum)
    report["values"]["gate_index"] = _frac(idx.gi)
    report["values"]["gate_counts"] = dict(sorted(idx.gate_counts.items()))
    report["values"]["rank"] = idx.rank
    return report, EXIT_OK


def _cmd_lone_axis(doc, args):
    asserted = doc.fully_irreducible or args.assert_fully_irreducible
    rep = axes.lone_axis_decision(doc.graph_map, np_bound=args.bound,
                                  fully_irreducible_asserted=asserted)
    report = _report_skeleton(doc, "lone-axis")
    report["bounds"]["nielsen_bound"] = args.bound
    report["verdicts"]["overall"] = rep.overall
    report["verdicts"]["train_track"] = rep.train_track
    report["verdicts"]["primitive"] = rep.primitive
    report["verdicts"]["np_free"] = rep.np_free
    report["verdicts"]["index_condition"] = rep.index_condition
    report["verdicts"]["cut_vertex_condition"] = rep.cut_vertex_condition
    report["verdicts"]["unique_illegal_turn"] = rep.unique_illegal_turn
    report["values"]["rank"] = rep.rank
    report["values"]["rotationless_exponent"] = rep.rotationless_exponent
    report["values"]["index_sum"] = _frac(rep.index_sum)
    if rep.index_list is not None:
        report["values"]["index_list"] = [_frac(e) for e in rep.index_list]
    report["values"]["fully_irreducible_asserted"] = asserted
    if rep.overall in ("lone-axis", "conditional"):
        code = EXIT_OK
    elif rep.overall == "unknown":
        code = EXIT_UNKNOWN
    else:
        code = EXIT_NEGATIVE
    return report, code


def _cmd_fold_line(doc, args):
    line = axes.fold_line(doc.graph_map, args.periods, args.samples)
    report = _report_skeleton(doc, "fold-line")
    report["values"]["periods"] = args.periods
    report["values"]["samples_per_period"] = args.samples
    report["values"]["graphs"] = [
        {"step": i,
         "edges": {e: _f(g.lengths[e]) for e in g.pairs},
         "volume": _f(g.volume())}
        for i, g in enumerate(line)]
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("step,edge,length\n")
            for i, g in enumerate(line):
                for e in g.pairs:
                    fh.write(f"{i},{e},{format(float(g.lengths[e]), '.12g')}\n")
    return report, EXIT_OK


def _cmd_signature(doc, args):
    report = _report_skeleton(doc, "signature")
    report["bounds"]["nielsen_bound"] = args.bound
    try:
        sig = axes.axis_signature(doc.graph_map, np_bound=args.bound)
    except InternalCheckError:
        raise
    except LoneAxisError as ex:
        report["verdicts"]["signature_defined"] = False
        report["values"]["reason"] = str(ex)
        return report, EXIT_NEGATIVE
    report["verdicts"]["signature_defined"] = True
    report["values"]["records"] = list(sig.records)
    report["values"]["dilatation"] = _f(sig.lam)
    report["values"]["log_dilatation"] = _f(sig.period)
    report["values"]["rotationless_exponent"] = sig.rotationless_exponent
    report["values"]["repetitions"] = sig.repetitions
    report["values"]["completeness"] = (
        "signature comparison detects conjugate powers only together "
        "with the dilatation and power-invariant screens; completeness "
        "is not established")
    return report, EXIT_OK


def _cmd_conjugate_power(doc, args):
    with open(args.other) as fh:
        other = parse_document(fh.read())
    verdict = axes.conjugate_power_check(doc.graph_map, other.graph_map,
                                         max_power=args.max_power,
                                         np_bound=args.bound)
    report = _report_skeleton(doc, "conjugate-power")
    report["bounds"]["nielsen_bound"] = args.bound
    report["bounds"]["max_power"] = args.max_power
    report["values"]["other_name"] = other.name
    report["verdicts"]["status"] = verdict.status
    report["values"]["detail"] = verdict.detail
    if verdict.powers:
        report["values"]["powers"] = list(verdict.powers)
        return report, EXIT_OK
    if verdict.status == "inapplicable":
        return report, EXIT_UNKNOWN
    return report, EXIT_NEGATIVE


_SUBCOMMANDS = {
    "check": _cmd_check,
    "spectral": _cmd_spectral,
    "gates": _cmd_gates,
    "pnp": _cmd_pnp,
    "whitehead": _cmd_whitehead,
    "index": _cmd_index,
    "lone-axis": _cmd_lone_axis,
    "fold-line": _cmd_fold_line,
    "signature": _cmd_signature,
    "conjugate-power": _cmd_conjugate_power,
}


def run_subcommand(name, args, doc):
    """Dispatch helper; returns (report dict, exit code)."""
    return _SUBCOMMANDS[name](doc, args)


def _human_lines(report):
    yield f"{report['subcommand']}  (input: {report['input_name'] or '<unnamed>'})"
    for key, val in report["verdicts"].items():
        yield f"  {key}: {val}"
    for key, val in report["values"].items():
        if isinstance(val, list) and len(val) > 6:
            yield f"  {key}: [{len(val)} entries]"
        else:
            yield f"  {key}: {val}"
    for key, val in report["bounds"].items():
        yield f"  bound {key}: {val}"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="loneaxis",
        description="Analyze train track maps and decide the lone-axis "
                    "property of the outer automorphism they represent.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, **extra):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="graph map document ('-' for stdin)")
        p.add_argument("--json", action="store_true",
                       help="print the machine-readable report")
        for flag, kw in extra.items():
            p.add_argument(flag, **kw)
        return p

    add("check", "verify the train track property")
    add("spectral", "dilatation and eigenmetric")
    add("gates", "gates and illegal turns")
    add("pnp", "search for Nielsen paths",
        **{"--bound": dict(type=int, default=nielsen.DEFAULT_BOUND,
                           help="max edges per leg")})
    add("whitehead", "Whitehead graphs",
        **{"--flavor": dict(choices=["local", "stable", "ideal"],
                            default="ideal"),
           "--vertex": dict(default=None),
           "--dot": dict(default=None, help="write DOT to this file"),
           "--bound": dict(type=int, default=nielsen.DEFAULT_BOUND)})
    add("index", "index list and rotationless index",
        **{"--bound": dict(type=int, default=nielsen.DEFAULT_BOUND)})
    add("lone-axis", "decide the unique-axis property",
        **{"--assert-fully-irreducible": dict(action="store_true"),
           "--bound": dict(type=int, default=nielsen.DEFAULT_BOUND)})
    add("fold-line", "discretized periodic fold line",
        **{"--periods": dict(type=int, default=1),
           "--samples": dict(type=int, default=4),
           "--csv": dict(default=None, help="write step,edge,length rows")})
    add("signature", "canonical axis signature",
        **{"--bound": dict(type=int, default=nielsen.DEFAULT_BOUND)})
    add("conjugate-power", "compare two maps for conjugate powers",
        **{"other": dict(help="second document"),
           "--max-power": dict(type=int, default=10),
           "--bound": dict(type=int, default=nielsen.DEFAULT_BOUND)})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file) as fh:
                text = fh.read()
        doc = parse_document(text)
    except (OSError, ParseError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT

    try:
        report, code = run_subcommand(args.command, args, doc)
    except InternalCheckError as ex:
        print(f"error: internal check failed: {ex}", file=sys.stderr)
        return EXIT_INTERNAL
    except (OSError, LoneAxisError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in _human_lines(report):
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
