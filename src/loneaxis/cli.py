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
1 negative verdict, 2 unknown at the configured bound, 3 input error
(a usage error, an unreadable or non-UTF-8 document, or a failed
precondition), 4 failed internal self-check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .errors import (InternalCheckError, LoneAxisError, ParseError,
                     PreconditionError)
from .graphs import GraphMap, MarkedGraph, is_tight

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
            value = Fraction(token)
        elif "." in token or "e" in token or "E" in token:
            value = float(token)
        else:
            value = Fraction(int(token))
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"bad length {token!r}")
    if not -math.inf < value < math.inf:
        raise ParseError(lineno, f"length {token!r} is not finite")
    if not value > 0:
        raise ParseError(lineno, f"length {token!r} is not positive")
    return value


def parse_document(text: str) -> GraphMapDocument:
    """Parse and validate; errors carry 1-based line numbers."""
    name = None
    fully_irreducible = False
    vertices: dict[str, int] = {}
    edges: dict[str, tuple] = {}
    edge_lines: dict[str, int] = {}
    lengths: dict[str, object] = {}
    length_lines: dict[str, int] = {}
    rules: dict[str, tuple] = {}
    rule_lines: dict[str, int] = {}
    # first line of each section header, for errors about a whole section
    header_lines: dict[str, int] = {}
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
            header_lines.setdefault(line, lineno)
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
            length_lines[tokens[1]] = lineno
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
            raise ParseError(length_lines[lbl], f"length for unknown edge {lbl}")
    if lengths and set(lengths) != set(edges):
        missing = sorted(set(edges) - set(lengths))[0]
        raise ParseError(header_lines["lengths"],
                         f"lengths section misses edge {missing}")

    try:
        graph = MarkedGraph(edges, lengths=lengths or None)
    except LoneAxisError as ex:
        raise ParseError(header_lines["graph"], str(ex))
    if set(graph.vertices) != set(vertices):
        unused = sorted(set(vertices) - set(graph.vertices))[0]
        raise ParseError(vertices[unused], f"vertex {unused} touches no edge")

    for lbl in edges:
        if lbl not in rules:
            raise ParseError(header_lines.get("map", 1),
                             f"no image rule for edge {lbl}")
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
        if not graph.is_path(word):
            raise ParseError(rule_lines[lbl],
                             f"image of {lbl} is not a path: {' '.join(word)}")

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


def _report_skeleton(doc, subcommand, nielsen_bound=None):
    return {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "input_name": doc.name,
        "verdicts": {},
        "values": {},
        "bounds": {} if nielsen_bound is None else {"nielsen_bound": nielsen_bound},
    }


def _cmd_check(doc, args):
    from . import traintrack
    verdict = traintrack.is_train_track(doc.graph_map)
    report = _report_skeleton(doc, "check")
    report["verdicts"]["train_track"] = bool(verdict)
    if not verdict:
        edge, turn = verdict.witness
        report["values"]["witness_edge"] = edge
        report["values"]["witness_turn"] = sorted(turn)
    return report, EXIT_OK if verdict else EXIT_NEGATIVE


def _cmd_spectral(doc, args):
    from . import spectral
    g = doc.graph_map
    tm = spectral.transition_matrix(g)
    cls = spectral.matrix_class(tm)
    report = _report_skeleton(doc, "spectral")
    report["values"]["matrix"] = list(map(list, tm.mat))
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
    from . import traintrack
    gs = traintrack.gates(doc.graph_map)
    report = _report_skeleton(doc, "gates")
    report["values"]["gates"] = {
        v: [list(gate) for gate in gs.gates_at[v]]
        for v in sorted(gs.gates_at)}
    report["values"]["illegal_turns"] = [sorted(t) for t in gs.illegal_turns]
    report["values"]["illegal_turn_count"] = len(gs.illegal_turns)
    return report, EXIT_OK


def _cmd_pnp(doc, args):
    from . import nielsen, traintrack
    g, exponent = traintrack.rotationless_power(doc.graph_map)
    free, reason, rep = nielsen.np_verdict(g, args.bound)
    report = _report_skeleton(doc, "pnp")
    report["bounds"]["search_bound"] = args.bound
    report["values"]["rotationless_exponent"] = exponent
    if rep is None:
        # too many concatenations to list, so NPs are certainly present
        report["verdicts"]["nielsen_paths_present"] = True
        report["values"]["reason"] = reason
        return report, EXIT_OK
    report["bounds"]["proven_leg_bound"] = rep.proven_leg_bound
    report["verdicts"]["exhaustive"] = rep.exhaustive
    report["values"]["nielsen_paths"] = [
        {"path": list(p.path), "indivisible": p.indivisible} for p in rep.paths]
    return report, EXIT_UNKNOWN if free is None else EXIT_OK


def _cmd_whitehead(doc, args):
    from . import nielsen, traintrack, whitehead
    g, exponent = traintrack.rotationless_power(doc.graph_map)
    report = _report_skeleton(doc, "whitehead", args.bound)
    report["values"]["rotationless_exponent"] = exponent
    if args.flavor in ("local", "stable"):
        vertex = args.vertex or min(g.domain.vertices)
        if vertex not in g.domain.vertices:
            raise PreconditionError(f"vertex {vertex} is not in the graph")
        builder = (whitehead.local_whitehead_graph if args.flavor == "local"
                   else whitehead.stable_whitehead_graph)
        wg = builder(g, vertex)
    else:
        free, reason, _ = nielsen.np_verdict(g, args.bound)
        if not free:
            report["verdicts"]["ideal_defined"] = free
            report["values"]["reason"] = reason
            return report, EXIT_UNKNOWN if free is None else EXIT_NEGATIVE
        wg = whitehead.ideal_whitehead_graph(g, args.bound)
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
    from . import nielsen, traintrack, whitehead
    g, exponent = traintrack.rotationless_power(doc.graph_map)
    report = _report_skeleton(doc, "index", args.bound)
    report["values"]["rotationless_exponent"] = exponent
    free, reason, _ = nielsen.np_verdict(g, args.bound)
    if not free:
        report["verdicts"]["index_defined"] = free
        report["values"]["reason"] = reason
        if free is False:
            report["values"]["implied_index"] = _frac(Fraction(1 - g.domain.rank()))
        return report, EXIT_UNKNOWN if free is None else EXIT_NEGATIVE
    idx = whitehead.index_report(g, args.bound)
    report["verdicts"]["index_defined"] = True
    report["values"]["index_list"] = [_frac(e) for e in idx.entries]
    report["values"]["index_sum"] = _frac(idx.index_sum)
    report["values"]["gate_index"] = _frac(idx.gi)
    report["values"]["gate_counts"] = dict(sorted(idx.gate_counts.items()))
    report["values"]["rank"] = idx.rank
    return report, EXIT_OK


def _cmd_lone_axis(doc, args):
    from . import axes
    asserted = doc.fully_irreducible or args.assert_fully_irreducible
    rep = axes.lone_axis_decision(doc.graph_map, np_bound=args.bound,
                                  fully_irreducible_asserted=asserted)
    report = _report_skeleton(doc, "lone-axis", args.bound)
    if rep.overall == "unknown":
        report["bounds"]["proven_leg_bound"] = rep.proven_leg_bound
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
    return report, {"lone-axis": EXIT_OK, "conditional": EXIT_OK,
                    "unknown": EXIT_UNKNOWN}.get(rep.overall, EXIT_NEGATIVE)


def _cmd_fold_line(doc, args):
    from . import axes
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
    from . import axes
    report = _report_skeleton(doc, "signature", args.bound)
    try:
        sig = axes.axis_signature(doc.graph_map, np_bound=args.bound)
    except (InternalCheckError, PreconditionError):
        raise  # a failed self-check or an input error, not a verdict
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
    from . import axes
    try:
        other = _read_document(args.other)
    except ParseError as ex:
        raise ParseError(ex.line, ex.message, path=args.other) from None
    verdict = axes.conjugate_power_check(doc.graph_map, other.graph_map,
                                         np_bound=args.bound)
    report = _report_skeleton(doc, "conjugate-power", args.bound)
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


def _read_document(path):
    """Parse the UTF-8 document at path ('-' reads stdin); a leading
    byte-order mark is dropped."""
    try:
        if path == "-":
            # decode the bytes, so that stdin is strict UTF-8 whatever the
            # locale (a text stream such as io.StringIO is read as it is)
            buffer = getattr(sys.stdin, "buffer", None)
            text = (sys.stdin.read() if buffer is None
                    else buffer.read().decode("utf-8-sig"))
        else:
            with open(path, encoding="utf-8-sig") as fh:
                text = fh.read()
    except UnicodeDecodeError as ex:
        raise PreconditionError(f"{path}: {ex}") from None
    return parse_document(text)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (input error), not argparse's 2 (unknown)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
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
        **{"--bound": dict(type=int, default=None, help="max edges per leg")})
    add("whitehead", "Whitehead graphs",
        **{"--flavor": dict(choices=["local", "stable", "ideal"],
                            default="ideal"),
           "--vertex": dict(default=None),
           "--dot": dict(default=None, help="write DOT to this file"),
           "--bound": dict(type=int, default=None)})
    add("index", "index list and rotationless index",
        **{"--bound": dict(type=int, default=None)})
    add("lone-axis", "decide the unique-axis property",
        **{"--assert-fully-irreducible": dict(action="store_true"),
           "--bound": dict(type=int, default=None)})
    add("fold-line", "discretized periodic fold line",
        **{"--periods": dict(type=int, default=1),
           "--samples": dict(type=int, default=4),
           "--csv": dict(default=None, help="write step,edge,length rows")})
    add("signature", "canonical axis signature",
        **{"--bound": dict(type=int, default=None)})
    add("conjugate-power", "compare two maps for conjugate powers",
        **{"other": dict(help="second document"),
           "--bound": dict(type=int, default=None)})
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "bound", 0) is None:   # unset, so the parser needs no nielsen
        from .nielsen import DEFAULT_BOUND
        args.bound = DEFAULT_BOUND
    try:
        doc = _read_document(args.file)
        report, code = run_subcommand(args.command, args, doc)
    except InternalCheckError as ex:
        print(f"error: internal check failed: {ex}", file=sys.stderr)
        return EXIT_INTERNAL
    except (OSError, LoneAxisError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT

    try:
        print(json.dumps(report, indent=2, sort_keys=True) if args.json
              else "\n".join(_human_lines(report)), flush=True)
    except BrokenPipeError:
        # the reader left early (`| head`); keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
