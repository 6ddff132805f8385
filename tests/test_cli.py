import json
import random
from fractions import Fraction

import pytest

from loneaxis.errors import InternalCheckError, ParseError
from loneaxis import cli
from loneaxis.cli import (GraphMapDocument, parse_document,
                          serialize_document)

from conftest import (build_corpus, dumbbell_instance, eight_petal_map,
                      runaway_map)

H_DOC = """\
graph
vertex v0
edge a v0 v0
edge b v0 v0
edge c v0 v0
map
a -> b
b -> c
c -> a b
"""

F_DOC = """\
name fib
graph
vertex v0
edge a v0 v0
edge b v0 v0
map
a -> a b
b -> a
"""


def run(argv):
    return cli.main(argv)


def run_capture(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def h_file(tmp_path):
    p = tmp_path / "h.doc"
    p.write_text(H_DOC)
    return str(p)


@pytest.fixture()
def f_file(tmp_path):
    p = tmp_path / "f.doc"
    p.write_text(F_DOC)
    return str(p)


class TestParse:
    def test_h_document(self):
        doc = parse_document(H_DOC)
        g = doc.graph_map
        assert len(g.domain.vertices) == 1
        assert g.domain.pairs == ("a", "b", "c")
        assert g.image("c") == ("a", "b")
        assert doc.fully_irreducible is False

    def test_assert_line_and_name(self):
        doc = parse_document(H_DOC + "assert fully-irreducible\nname worked\n")
        assert doc.fully_irreducible and doc.name == "worked"

    def test_comments_ignored(self):
        doc = parse_document("# intro\n" + H_DOC.replace(
            "a -> b", "a -> b   # image rule"))
        assert doc.graph_map.image("a") == ("b",)

    def test_non_tight_image_rejected(self):
        bad = H_DOC.replace("a -> b", "a -> a a'")
        with pytest.raises(ParseError) as err:
            parse_document(bad)
        assert "non-tight" in str(err.value)
        assert err.value.line == 7

    def test_duplicate_edge_rejected(self):
        bad = H_DOC.replace("edge b v0 v0", "edge a v0 v0")
        with pytest.raises(ParseError) as err:
            parse_document(bad)
        assert "duplicate" in str(err.value)

    def test_dangling_endpoint_rejected(self):
        bad = H_DOC.replace("edge c v0 v0", "edge c v0 v9")
        with pytest.raises(ParseError) as err:
            parse_document(bad)
        assert "undeclared vertex" in str(err.value)

    def test_lengths_section(self):
        doc = parse_document(H_DOC.replace(
            "map", "lengths\nlength a 1/4\nlength b 1/4\nlength c 1/2\nmap"))
        assert doc.graph_map.domain.lengths["a"] == Fraction(1, 4)

    def test_missing_rule_rejected(self):
        bad = "\n".join(line for line in H_DOC.splitlines()
                        if not line.startswith("b ->")) + "\n"
        with pytest.raises(ParseError):
            parse_document(bad)


class TestRoundTrip:
    def test_worked_examples(self):
        for text in (H_DOC, F_DOC):
            doc = parse_document(text)
            assert parse_document(serialize_document(doc)) == doc

    def test_random_documents(self):
        rng = random.Random(2718281)
        maps = build_corpus(count=50, seed=556677)
        for i, g in enumerate(maps):
            lengths = None
            if rng.random() < 0.4:
                denom = len(g.domain.pairs)
                lengths = {e: Fraction(1, denom) for e in g.domain.pairs}
                g = type(g)(g.domain.with_lengths(lengths),
                            g.domain.with_lengths(lengths),
                            g.vertex_map, g.edge_images())
            doc = GraphMapDocument(g, name=f"doc{i}",
                                   fully_irreducible=rng.random() < 0.5)
            assert parse_document(serialize_document(doc)) == doc

    def test_multi_vertex_document(self):
        doc = GraphMapDocument(dumbbell_instance(), name="dumbbell")
        assert parse_document(serialize_document(doc)) == doc


class TestSubcommands:
    def test_lone_axis_affirmative(self, h_file, capsys):
        code, out = run_capture(
            ["lone-axis", h_file, "--assert-fully-irreducible", "--bound", "13"],
            capsys)
        assert code == 0
        assert "overall: lone-axis" in out

    def test_lone_axis_negative(self, f_file, capsys):
        code, out = run_capture(["lone-axis", f_file, "--bound", "13"], capsys)
        assert code == 1
        assert "overall: not-lone-axis" in out

    def test_check(self, h_file):
        assert run(["check", h_file]) == 0

    def test_check_negative(self, tmp_path):
        p = tmp_path / "bad.doc"
        p.write_text(F_DOC.replace("b -> a", "b -> a' b"))
        assert run(["check", str(p)]) == 1

    def test_spectral_json(self, h_file, capsys):
        code, out = run_capture(["spectral", h_file, "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == "1"
        assert report["values"]["dilatation"] == 1.32471795724
        assert report["verdicts"]["matrix_class"] == "primitive"

    def test_gates(self, h_file, capsys):
        code, out = run_capture(["gates", h_file, "--json"], capsys)
        report = json.loads(out)
        assert report["values"]["illegal_turn_count"] == 1
        assert report["values"]["illegal_turns"] == [["a'", "c'"]]

    def test_pnp_exhaustive(self, h_file, capsys):
        code, out = run_capture(["pnp", h_file, "--bound", "13", "--json"],
                                capsys)
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["exhaustive"] is True
        assert report["values"]["nielsen_paths"] == []

    def test_pnp_unknown_at_bound(self, h_file, capsys):
        code, out = run_capture(["pnp", h_file, "--bound", "1", "--json"],
                                capsys)
        assert code == 2
        assert json.loads(out)["verdicts"]["exhaustive"] is False

    def test_pnp_bound_two_on_larger_example(self, tmp_path, capsys):
        # rotationless corpus map whose proven leg bound exceeds 2
        from loneaxis import nielsen, traintrack
        for g in build_corpus(count=40, seed=13579):
            if not traintrack.is_rotationless(g):
                continue
            report = nielsen.find_nielsen_paths(g, 16)
            if report.proven_leg_bound and report.proven_leg_bound > 2 \
                    and not any(len(p.path) <= 4 for p in report.paths):
                doc = GraphMapDocument(g, name="large")
                p = tmp_path / "large.doc"
                p.write_text(serialize_document(doc))
                code, out = run_capture(
                    ["pnp", str(p), "--bound", "2", "--json"], capsys)
                assert code == 2
                assert json.loads(out)["verdicts"]["exhaustive"] is False
                return
        pytest.skip("corpus produced no suitable large example")

    def test_pnp_finds_paths(self, f_file, capsys):
        code, out = run_capture(["pnp", f_file, "--bound", "8", "--json"],
                                capsys)
        assert code == 0
        report = json.loads(out)
        assert {"path": ["a'", "b'", "a", "b"], "indivisible": True} in \
            report["values"]["nielsen_paths"]

    def test_pnp_too_many_concatenations(self, tmp_path, capsys):
        p = tmp_path / "eight.doc"
        p.write_text(serialize_document(GraphMapDocument(eight_petal_map())))
        code, out = run_capture(["pnp", str(p), "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"] == {"nielsen_paths_present": True}
        assert report["values"]["reason"] == (
            "more than 200 divisible Nielsen paths within 80 edges")
        assert report["bounds"] == {"search_bound": 40}

    def test_whitehead_ideal_with_dot(self, h_file, tmp_path, capsys):
        dot_file = tmp_path / "iw.dot"
        code, out = run_capture(
            ["whitehead", h_file, "--flavor", "ideal", "--bound", "13",
             "--dot", str(dot_file), "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert len(report["values"]["vertices"]) == 5
        assert report["values"]["cut_vertices"] == []
        assert dot_file.read_text().startswith("graph")

    def test_whitehead_ideal_np_present(self, f_file):
        assert run(["whitehead", f_file, "--flavor", "ideal",
                    "--bound", "13"]) == 1

    def test_whitehead_local(self, h_file, capsys):
        code, out = run_capture(
            ["whitehead", h_file, "--flavor", "local", "--json"], capsys)
        assert code == 0
        assert len(json.loads(out)["values"]["edges"]) == 7

    def test_index(self, h_file, f_file, capsys):
        code, out = run_capture(["index", h_file, "--bound", "13", "--json"],
                                capsys)
        assert code == 0
        report = json.loads(out)
        assert report["values"]["index_sum"] == "-3/2"
        assert report["values"]["index_list"] == ["-3/2"]
        code, out = run_capture(["index", f_file, "--bound", "13", "--json"],
                                capsys)
        assert code == 1
        assert json.loads(out)["values"]["implied_index"] == "-1"

    def test_fold_line_csv(self, h_file, tmp_path, capsys):
        csv_file = tmp_path / "line.csv"
        code, out = run_capture(
            ["fold-line", h_file, "--periods", "1", "--samples", "2",
             "--csv", str(csv_file), "--json"], capsys)
        assert code == 0
        lines = csv_file.read_text().splitlines()
        assert lines[0] == "step,edge,length"
        assert len(lines) > 3

    def test_signature(self, h_file, f_file, capsys):
        code, out = run_capture(["signature", h_file, "--bound", "13",
                                 "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["values"]["repetitions"] == 6
        assert run(["signature", f_file, "--bound", "13"]) == 1

    def test_conjugate_power(self, h_file, f_file, tmp_path, capsys):
        relabeled = tmp_path / "k.doc"
        relabeled.write_text(
            "graph\nvertex v0\nedge x v0 v0\nedge y v0 v0\nedge z v0 v0\n"
            "map\nx -> y\ny -> z\nz -> x y\n")
        code, out = run_capture(
            ["conjugate-power", h_file, str(relabeled), "--bound", "13",
             "--json"], capsys)
        assert code == 0
        assert json.loads(out)["values"]["powers"] == [1, 1]
        assert run(["conjugate-power", f_file, h_file, "--bound", "13"]) == 2

    def test_input_error_exit(self, tmp_path):
        p = tmp_path / "broken.doc"
        p.write_text("graph\nvertex v0\nedge a v0 v9\nmap\na -> a a\n")
        assert run(["check", str(p)]) == 3

    def test_beyond_desk_scale_exit(self, tmp_path, capsys):
        p = tmp_path / "runaway.doc"
        p.write_text(serialize_document(GraphMapDocument(runaway_map())))
        for sub in ("lone-axis", "pnp", "index", "whitehead"):
            assert run([sub, str(p)]) == 3
            assert "beyond desk scale" in capsys.readouterr().err

    def test_internal_check_exit(self, h_file, monkeypatch):
        def broken(*args, **kwargs):
            raise InternalCheckError("searches disagree")

        monkeypatch.setattr(cli.nielsen, "find_nielsen_paths", broken)
        monkeypatch.setattr(cli.axes, "axis_signature", broken)
        assert run(["pnp", h_file]) == 4
        assert run(["signature", h_file]) == 4

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(H_DOC))
        assert run(["check", "-"]) == 0


class TestDeterminism:
    def test_reports_byte_identical(self, h_file, capsys):
        outs = []
        for _ in range(2):
            code, out = run_capture(
                ["lone-axis", h_file, "--bound", "13", "--json"], capsys)
            outs.append(out)
        assert outs[0] == outs[1]

    def test_floats_carry_12_significant_digits(self, h_file, capsys):
        _, out = run_capture(["spectral", h_file, "--json"], capsys)
        report = json.loads(out)
        lam = report["values"]["dilatation"]
        assert lam == float(format(1.3247179572447538, ".12g"))
