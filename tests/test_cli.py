import io
import json

import pytest

from equilab import equicert
from equilab.cli import main
from equilab.equicert import certificate_from_json, star_system
from equilab.graphs import generate, parse_edge_list

from conftest import count_calls, same_labeled_graph


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_k43_not_equistarable(self, capsys):
        code, out = run(capsys, ["analyze", "gallery:complete_bipartite(4,3)"])
        assert code == 0
        rep = json.loads(out)
        assert rep["schema"] == 1
        assert rep["properties"]["equistarable"]["value"] == "no"
        assert rep["properties"]["p5_constrained"]["value"] == "yes"

    def test_c4_weighting_witness(self, capsys):
        code, out = run(capsys, ["analyze", "gallery:cycle(4)"])
        rep = json.loads(out)
        w = rep["properties"]["equistarable"]["witness"]
        assert w["type"] == "weighting"
        assert all(e["num"] > 0 for e in w["weights"])

    def test_petersen_strong_certificate(self, capsys):
        code, out = run(capsys, ["analyze", "gallery:petersen", "--strong"])
        assert code == 0
        rep = json.loads(out)
        cert = rep["properties"]["equistarable"]["witness"]
        assert cert["type"] == "forced_value"
        assert cert["value"] == {"num": 1, "den": 1}
        assert rep["properties"]["strongly_equistarable"]["value"] == "no"

    def test_with_co_line(self, capsys):
        code, out = run(capsys, ["analyze", "gallery:cycle(4)", "--with-co-line"])
        rep = json.loads(out)
        assert rep["properties"]["triangle_condition"]["value"] == "yes"
        assert rep["properties"]["general_partition"]["value"] == "yes"
        assert rep["properties"]["equistable"]["value"] == "yes"

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a b\nb c\n"))
        code, out = run(capsys, ["analyze", "-"])
        assert code == 0
        assert json.loads(out)["graph"]["n"] == 3

    def test_missing_file_exit_2(self, capsys):
        assert main(["analyze", "does/not/exist"]) == 2

    def test_bad_descriptor_exit_2(self, capsys):
        assert main(["analyze", "gallery:cycle(2)"]) == 2

    @pytest.mark.parametrize("text", ["", "# no vertices\n"])
    def test_empty_graph_exit_2(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["analyze", "-", "--strong", "--with-co-line"]) == 2
        assert capsys.readouterr().err == "input error: empty graph\n"

    def test_strong_limit_keeps_decided_equistable(self, capsys):
        # the co-line of C17 has 17 elements, above the strong-check limit;
        # that limit must not discard the equistable verdict already decided
        code, out = run(capsys, ["analyze", "gallery:cycle(17)", "--strong",
                                 "--with-co-line"])
        assert code == 3
        props = json.loads(out)["properties"]
        assert props["equistable"]["value"] == "no"
        assert props["strongly_equistable"]["value"] == "unknown"
        assert "strong-check limit" in props["strongly_equistable"]["note"]

    def test_budget_stop_keeps_strongly_equistable(self, capsys, monkeypatch):
        # a budget stop while the co-line's stable sets are enumerated leaves
        # both co-line verdicts unknown, as a stop on the star system does;
        # the star verdicts (no) are not copied over
        decide = count_calls(monkeypatch, equicert, "decide_equi_exact")
        strong = count_calls(monkeypatch, equicert, "strong_check")
        code, out = run(capsys, ["analyze", "gallery:cycle(6)", "--strong",
                                 "--with-co-line", "--budget", "1", "--text"])
        assert code == 3
        assert "  equistable: unknown\n  strongly_equistable: unknown\n" in out
        assert (decide[0], strong[0]) == (1, 1)

    def test_co_line_verdicts_copy_star_verdicts(self, capsys, monkeypatch):
        decide = count_calls(monkeypatch, equicert, "decide_equi_exact")
        strong = count_calls(monkeypatch, equicert, "strong_check")
        _, out = run(capsys, ["analyze", "gallery:cycle(6)", "--strong",
                              "--with-co-line"])
        props = json.loads(out)["properties"]
        assert (decide[0], strong[0]) == (1, 1)
        assert props["equistable"] == props["equistarable"]
        assert props["strongly_equistable"] == props["strongly_equistarable"]

    @pytest.mark.parametrize("text,calls", [
        ("a b\nb c\nc a\nc d\n", 2),  # a triangle: the co-line system differs
        ("a b\nb c\nv d\n", 1),        # an isolated vertex: no star system
    ])
    def test_co_line_decided_on_its_own(self, capsys, monkeypatch, text, calls):
        decide = count_calls(monkeypatch, equicert, "decide_equi_exact")
        strong = count_calls(monkeypatch, equicert, "strong_check")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out = run(capsys, ["analyze", "-", "--strong", "--with-co-line"])
        assert code == 0
        assert (decide[0], strong[0]) == (calls, calls)
        assert json.loads(out)["properties"]["equistable"]["value"] in ("yes", "no")

    def test_isolated_vertex_leaves_star_properties_undefined(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a b\nb c\nv x\n"))
        code, out = run(capsys, ["analyze", "-", "--strong", "--with-co-line"])
        assert code == 0
        props = json.loads(out)["properties"]
        undefined = {"value": "undefined", "note": "isolated vertex"}
        assert props["equistarable"] == props["strongly_equistarable"] == undefined
        assert props["strongly_equistable"]["value"] == "yes"

    def test_determinism(self, capsys):
        _, first = run(capsys, ["analyze", "gallery:graph_h", "--strong"])
        _, second = run(capsys, ["analyze", "gallery:graph_h", "--strong"])
        assert first == second


class TestCertify:
    def test_c6_forced_pair(self, capsys):
        code, out = run(capsys, ["certify", "gallery:cycle(6)", "--target", "1-2,4-5"])
        assert code == 0
        rep = json.loads(out)
        cert = rep["certificate"]
        assert cert["value"] == {"num": 1, "den": 1}
        # parses back into a verified certificate object
        s = star_system(generate("cycle(6)"))
        certificate_from_json(s, cert)

    def test_k23_plus_leaf_edges(self, capsys):
        code, out = run(capsys, ["certify", "gallery:kmn_plus(2,3)",
                                 "--target", "b1-l1,b2-l2,b3-l3"])
        rep = json.loads(out)
        assert rep["certificate"]["value"] == {"num": 1, "den": 1}

    def test_c4_opposite_not_forced(self, capsys):
        code, out = run(capsys, ["certify", "gallery:cycle(4)", "--target", "1-2,3-4"])
        assert code == 0
        rep = json.loads(out)
        assert "not_forced" in rep

    def test_infeasible_unit_system_is_the_answer(self, capsys):
        # K_{4,3}: no weighting satisfies the unit equations, so no target is
        # forced; the infeasibility certificate is printed, as analyze does
        code, out = run(capsys, ["certify", "gallery:complete_bipartite(4,3)",
                                 "--target", "a1-b1"])
        assert code == 0
        rep = json.loads(out)
        _, analyzed = run(capsys, ["analyze", "gallery:complete_bipartite(4,3)"])
        witness = json.loads(analyzed)["properties"]["equistarable"]["witness"]
        assert rep == {"schema": 1, "tool_version": rep["tool_version"],
                       "infeasible_unit_system": witness}
        assert witness["type"] == "infeasible_unit_system"

    def test_vertex_targets_use_stable_system(self, capsys):
        code, out = run(capsys, ["certify", "gallery:complete(3)", "--target", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["certificate"]["value"] == {"num": 1, "den": 1}

    def test_budget_bounds_stable_sets(self, capsys):
        # vertex targets enumerate the stable sets within --budget
        assert main(["certify", "gallery:cycle(4)", "--target", "1", "--budget", "1"]) == 3
        assert "budget of 1 steps exhausted" in capsys.readouterr().err

    def test_unknown_labels_exit_2(self, capsys):
        assert main(["certify", "gallery:cycle(4)", "--target", "9-9"]) == 2

    def test_ambiguous_edge_name_exit_2(self, capsys, tmp_path):
        path = tmp_path / "dashes.edges"
        path.write_text("a-b c\na b-c\n")
        assert main(["certify", str(path), "--target", "a-b-c"]) == 2
        assert "ambiguous edge 'a-b-c'" in capsys.readouterr().err


class TestGallery:
    def test_cycle5_line_count(self, capsys):
        code, out = run(capsys, ["gallery", "cycle(5)"])
        assert code == 0
        assert len(out.strip().splitlines()) == 5

    def test_kmn_plus_nine_lines(self, capsys):
        _, out = run(capsys, ["gallery", "kmn_plus(2,3)"])
        assert len(out.strip().splitlines()) == 9

    def test_round_trip_as_labeled_graph(self, capsys):
        for desc in ("cycle(5)", "kmn_plus(2,3)", "graph_h", "petersen"):
            _, out = run(capsys, ["gallery", desc])
            assert same_labeled_graph(parse_edge_list(out), generate(desc))

    def test_file_output(self, capsys, tmp_path):
        target = tmp_path / "g.edges"
        code, _ = run(capsys, ["gallery", "path(3)", "-o", str(target)])
        assert code == 0
        assert same_labeled_graph(parse_edge_list(target.read_text()), generate("path(3)"))

    def test_bad_descriptor(self, capsys):
        assert main(["gallery", "cycle(1)"]) == 2

    @pytest.mark.parametrize("bad", ["a+", "disjoint_union"])
    def test_bad_union_exit_2(self, capsys, bad):
        assert main(["gallery", bad]) == 2
        assert capsys.readouterr().err.startswith("input error: ")

    @pytest.mark.parametrize("bad", ["path(+3)", "path(1_0)", "path(\u0663)",
                                     "circulant(7,{1,\u0662})", "circulant(7,{1 2})"])
    def test_bad_integer_exit_2(self, capsys, bad):
        assert main(["gallery", bad]) == 2
        assert capsys.readouterr().err.startswith("input error: ")


class TestCrosscheck:
    def test_trivial_max_n_2(self, capsys):
        code, out = run(capsys, ["crosscheck", "--max-n", "2"])
        assert code == 0
        rep = json.loads(out)
        assert rep["graphs_checked"] == 1
        assert rep["violations"] == []

    def test_max_n_4_clean(self, capsys):
        code, out = run(capsys, ["crosscheck", "--max-n", "4"])
        rep = json.loads(out)
        assert rep["violations"] == []
        assert rep["graphs_checked"] == 5

    def test_sampled_run_is_clean_and_deterministic(self, capsys):
        _, out1 = run(capsys, ["crosscheck", "--max-n", "3", "--samples", "3",
                               "--seed", "11"])
        _, out2 = run(capsys, ["crosscheck", "--max-n", "3", "--samples", "3",
                               "--seed", "11"])
        assert out1 == out2
        assert json.loads(out1)["violations"] == []

    def test_budget_stop_counts_no_dropped_graph(self, capsys):
        code, out = run(capsys, ["crosscheck", "--max-n", "5", "--samples", "5",
                                 "--seed", "1", "--budget", "1"])
        assert code == 3
        rep = json.loads(out)
        assert rep["graphs_checked"] == 0
        assert rep["rows"] == {}

    def test_exhaustive_cap(self, capsys):
        assert main(["crosscheck", "--max-n", "9"]) == 2
