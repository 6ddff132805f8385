import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from loneaxis.errors import InternalCheckError, ParseError
from loneaxis.graphs import rose_map
from loneaxis import cli
from loneaxis.cli import (GraphMapDocument, parse_document,
                          serialize_document)

from conftest import (build_corpus, dumbbell_instance, eight_petal_map,
                      runaway_map)
from oracles import checked_nielsen_paths

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

DOCS = Path(__file__).resolve().parents[1] / "perfbench" / "docs"


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

    def test_non_finite_length_rejected(self):
        bad = H_DOC.replace(
            "map", "lengths\nlength a 1e999\nlength b 1/4\nlength c 1/2\nmap")
        with pytest.raises(ParseError, match="not finite") as err:
            parse_document(bad)
        assert err.value.line == 7

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

    def test_benchmark_documents(self):
        paths = sorted(DOCS.glob("*.txt"))
        assert paths
        for path in paths:
            doc = parse_document(path.read_text())
            assert parse_document(serialize_document(doc)) == doc

    def test_float_lengths(self):
        doc = parse_document(H_DOC.replace(
            "map", "lengths\nlength a 0.1\nlength b 2.5e-3\n"
                   "length c 1e20\nmap"))
        text = serialize_document(doc)
        assert parse_document(text) == doc
        assert serialize_document(parse_document(text)) == text


class TestSubcommands:
    def test_lone_axis_affirmative(self, h_file, capsys):
        code, out = run_capture(
            ["lone-axis", h_file, "--assert-fully-irreducible", "--bound", "13"],
            capsys)
        assert code == 0
        assert "overall: lone-axis" in out

    def test_lone_axis_unknown_names_the_proven_bound(self, capsys):
        code, out = run_capture(
            ["lone-axis", str(DOCS / "rank5.txt"), "--bound", "3", "--json"],
            capsys)
        assert code == 2
        report = json.loads(out)
        assert report["verdicts"]["overall"] == "unknown"
        assert report["bounds"] == {"nielsen_bound": 3,
                                    "proven_leg_bound": 4}

    def test_search_below_the_leg_cap_never_certifies(self, tmp_path, capsys):
        # the iNP a b a' b' has legs of two edges, the map's leg cap
        p = tmp_path / "cap.doc"
        p.write_text(serialize_document(GraphMapDocument(rose_map(
            {"a": "a b b b a b b a b b", "b": "b a b b a b b"}))))
        code, out = run_capture(["pnp", str(p), "--bound", "1", "--json"],
                                capsys)
        assert code == 2
        report = json.loads(out)
        assert report["verdicts"]["exhaustive"] is False
        assert report["bounds"]["proven_leg_bound"] == 2
        assert report["values"]["nielsen_paths"] == []
        code, out = run_capture(["lone-axis", str(p), "--bound", "1"], capsys)
        assert code == 2
        assert "overall: unknown" in out
        code, out = run_capture(
            ["lone-axis", str(p), "--bound", "2", "--json"], capsys)
        assert code == 1
        verdicts = json.loads(out)["verdicts"]
        assert verdicts["np_free"] is False
        assert verdicts["overall"] == "not-lone-axis"

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
                checked_nielsen_paths(g, 2)  # the search the command ran
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

    @pytest.mark.parametrize("sub, key", [("index", "index_defined"),
                                          ("whitehead", "ideal_defined")])
    def test_ideal_data_too_many_concatenations(self, tmp_path, capsys, sub,
                                                key):
        p = tmp_path / "eight.doc"
        p.write_text(serialize_document(GraphMapDocument(eight_petal_map())))
        code, out = run_capture([sub, str(p), "--json"], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["verdicts"] == {key: False}
        assert report["values"]["reason"] == (
            "more than 200 divisible Nielsen paths within 80 edges")
        if sub == "index":
            assert report["values"]["implied_index"] == "-7"

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

    @pytest.mark.parametrize("argv", [
        ["lone-axis"],
        ["lone-axis", "FILE", "--bound", "x"],
        # the power comes from the fold periods, so there is no cap to set
        ["conjugate-power", "FILE", "FILE", "--max-power", "5"],
    ], ids=["no-file", "bad-bound", "max-power"])
    def test_usage_error_is_input_error(self, h_file, capsys, argv):
        # argparse's own exit 2 would read as "unknown at the bound"
        with pytest.raises(SystemExit) as exited:
            run([h_file if arg == "FILE" else arg for arg in argv])
        assert exited.value.code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: loneaxis")
        assert captured.out == ""

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exited:
            run(["conjugate-power", "--help"])
        assert exited.value.code == 0
        assert "usage: loneaxis conjugate-power" in capsys.readouterr().out

    @pytest.mark.parametrize("position", [0, 1])
    def test_undecodable_document_is_input_error(self, h_file, tmp_path,
                                                 capsys, position):
        p = tmp_path / "latin1.doc"
        p.write_bytes(H_DOC.replace("map", "# caf\xe9\nmap").encode("latin-1"))
        files = [h_file, h_file]
        files[position] = str(p)
        for argv in (["check", files[position]], ["conjugate-power", *files]):
            assert run(argv) == 3
            captured = capsys.readouterr()
            assert captured.err.startswith(
                f"error: {p}: 'utf-8' codec can't decode byte 0xe9")
            assert captured.out == ""

    def test_non_finite_length_exit(self, tmp_path, capsys):
        p = tmp_path / "inf.doc"
        p.write_text(H_DOC.replace(
            "map", "lengths\nlength a 1e999\nlength b 1/4\nlength c 1/2\nmap"))
        assert run(["check", str(p)]) == 3
        assert "line 7: length '1e999' is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("lengths, message", [
        (["a 0", "b 1", "c 1"], "line 9: length '0' is not positive"),
        (["a -1/2", "b 1", "c 1"], "line 9: length '-1/2' is not positive"),
        (["a 1e-999", "b 1", "c 1"], "line 9: length '1e-999' is not positive"),
        (["a 1", "b 1", "c 1", "z 1"], "line 12: length for unknown edge z"),
    ])
    def test_length_errors_name_their_line(self, tmp_path, capsys, lengths,
                                           message):
        section = "lengths\n" + "".join(f"length {x}\n" for x in lengths)
        p = tmp_path / "cubic_lengths.txt"
        p.write_text((DOCS / "cubic.txt").read_text().replace(
            "map\n", section + "map\n"))
        assert run(["check", str(p)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("edit, message", [
        # cubic.txt: the map header is line 8, unless a lengths section
        # put before it takes line 8 and pushes it down
        (lambda t: t.replace("map\n", "lengths\nlength a 1\nlength b 1\nmap\n"),
         "line 8: lengths section misses edge c"),
        (lambda t: t.replace("c -> a b\n", ""),
         "line 8: no image rule for edge c"),
        (lambda t: t.replace("map\n", "lengths\nlength a 1\nlength b 1\n"
                             "length c 1\nmap\n").replace("b -> c\n", ""),
         "line 12: no image rule for edge b"),
        (lambda t: t[:t.index("map\n")], "line 1: no image rule for edge a"),
    ])
    def test_section_errors_name_the_section_header(self, tmp_path, capsys,
                                                    edit, message):
        p = tmp_path / "cubic_section.txt"
        p.write_text(edit((DOCS / "cubic.txt").read_text()))
        assert run(["check", str(p)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        # b runs from v0 to v1 and c is a loop at v1, so c b is no path
        ("name barbell\ngraph\nvertex v0\nvertex v1\nedge a v0 v0\n"
         "edge b v0 v1\nedge c v1 v1\nmap\na -> a\nb -> b\nc -> c b\n",
         "line 11: image of c is not a path: c b"),
        ("name cycle\ngraph\nvertex v0\nvertex v1\nedge a v0 v1\n"
         "edge b v1 v0\nedge c v1 v1\nmap\na -> a\nb -> b\nc -> c\n",
         "line 2: vertex v0 has valence 2 (needs >= 3, or a subdivision "
         "flag for valence 2)"),
        ("# two roses\nname pair\ngraph\nvertex v0\nvertex v1\n"
         "edge a v0 v0\nedge b v0 v0\nedge c v1 v1\nedge d v1 v1\nmap\n"
         "a -> a\nb -> b\nc -> c\nd -> d\n",
         "line 3: graph is not connected"),
    ], ids=["not-a-path", "valence-2", "disconnected"])
    def test_graph_and_path_errors_name_their_line(self, tmp_path, capsys,
                                                   text, message):
        p = tmp_path / "broken.txt"
        p.write_text(text)
        assert run(["check", str(p)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_conjugate_power_names_the_failing_document(self, h_file, tmp_path,
                                                        capsys):
        p = tmp_path / "broken.doc"
        p.write_text(H_DOC.replace("c -> a b", "c -> a q"))
        assert run(["conjugate-power", h_file, str(p)]) == 3
        assert capsys.readouterr().err == (
            f"error: {p}: line 9: unknown edge token 'q'\n")
        assert run(["conjugate-power", str(p), h_file]) == 3
        assert capsys.readouterr().err == "error: line 9: unknown edge token 'q'\n"

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

    def test_signature_precondition_is_input_error(self, tmp_path, capsys):
        # a precondition failure is an input error, as in the other
        # subcommands, not the negative verdict "signature undefined"
        for name, g, reason in (
                ("runaway", runaway_map(), "beyond desk scale"),
                ("reducible", rose_map({"a": "a b", "b": "b"}),
                 "[spectral] transition matrix is not primitive")):
            p = tmp_path / f"{name}.doc"
            p.write_text(serialize_document(GraphMapDocument(g)))
            for sub in ("signature", "lone-axis"):
                assert run([sub, str(p)]) == 3
                captured = capsys.readouterr()
                assert reason in captured.err and captured.out == ""

    def test_non_automorphism_is_input_error(self, tmp_path, capsys):
        # a primitive train track map with abelianization determinant 2
        p = tmp_path / "double.doc"
        p.write_text(serialize_document(GraphMapDocument(
            rose_map({"a": "aab", "b": "a'c", "c": "b'"}))))
        for argv in (["lone-axis", str(p), "--json"], ["signature", str(p)]):
            assert run(argv) == 3
            captured = capsys.readouterr()
            assert captured.err == (
                "error: [homotopy-equivalence] the map does not represent an "
                "automorphism: its folded edge images have 2 vertices and 4 "
                "edges, the codomain 1 and 3\n")
            assert captured.out == ""

    def test_fold_line_names_a_non_automorphism(self, tmp_path, capsys):
        # fold-line reports the stored homotopy-equivalence check, like
        # the other subcommands, not where folding stops
        p = tmp_path / "collapse.doc"
        p.write_text(serialize_document(GraphMapDocument(
            rose_map({"a": "a b", "b": "a b"}))))
        for sub in ("fold-line", "lone-axis", "signature", "pnp", "index",
                    "whitehead"):
            assert run([sub, str(p)]) == 3
            captured = capsys.readouterr()
            assert captured.err == (
                "error: [homotopy-equivalence] the map does not represent an "
                "automorphism: its folded edge images have 2 vertices and 2 "
                "edges, the codomain 1 and 2\n")
            assert captured.out == ""

    def test_internal_check_exit(self, h_file, monkeypatch):
        def broken(*args, **kwargs):
            raise InternalCheckError("searches disagree")

        monkeypatch.setattr("loneaxis.nielsen.find_nielsen_paths", broken)
        monkeypatch.setattr("loneaxis.axes.axis_signature", broken)
        assert run(["pnp", h_file]) == 4
        assert run(["signature", h_file]) == 4

    def test_no_leg_cap_on_an_automorphism_exits_4(self, h_file,
                                                    monkeypatch):
        monkeypatch.setattr("loneaxis.nielsen._tail_bound", lambda g: None)
        assert run(["pnp", h_file]) == 4

    def test_python_m_loneaxis(self, h_file):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "loneaxis", "check", h_file,
             "--json"], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["verdicts"]["train_track"] is True

    @pytest.mark.parametrize("argv, code", [
        (["pnp", "fib.txt", "--bound", "400", "--json"], 0),
        (["whitehead", "fib.txt"], 1)], ids=["json", "human"])
    def test_closed_stdout_keeps_the_exit_code(self, argv, code):
        # the reader of stdout is gone before the report is written, as
        # with `| head -1`: no traceback, and the command's own exit code
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        argv = [str(DOCS / a) if a.endswith(".txt") else a for a in argv]
        try:
            done = subprocess.run(
                [sys.executable, "-m", "loneaxis", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=src))
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (code, "")

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(H_DOC))
        assert run(["check", "-"]) == 0

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys, monkeypatch):
        import io
        plain = (DOCS / "cubic.txt").read_bytes()
        marked = tmp_path / "bom.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + plain)
        expected = run_capture(["check", str(DOCS / "cubic.txt"), "--json"],
                               capsys)
        assert expected[0] == 0
        assert run_capture(["check", str(marked), "--json"],
                           capsys) == expected
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(marked.read_bytes()), encoding="utf-8"))
        assert run_capture(["check", "-", "--json"], capsys) == expected

    def test_undecodable_stdin_is_input_error(self, capsys, monkeypatch):
        # a C locale decodes stdin with surrogate escapes; the document
        # must still be read as strict UTF-8, as a FILE is
        import io
        data = H_DOC.replace("map", "# \xff\nmap").encode("latin-1")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))
        assert run(["check", "-"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: -: 'utf-8' codec can't decode byte 0xff")
        assert captured.out == ""


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
