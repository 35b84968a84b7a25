"""CLI contract: exit codes, schemas, reproducibility, selftests."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time

import pytest

from memos import clear_value_memos
from shiftlab.cli import _build_parser, main
from shiftlab.shift_core import follower

DATA = os.path.join(os.path.dirname(__file__), "data")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def path(name):
    return os.path.join(DATA, name)


def cold_marked_cycle(directory, n):
    """An n-cycle labelled 0 except for one edge labelled 1, written as a
    graph file, with the graph memos emptied so that a run starts cold."""
    verts = ["v%d" % i for i in range(n)]
    edges = [[verts[i], verts[(i + 1) % n], "1" if i == 0 else "0"] for i in range(n)]
    graph = directory / "cycle.json"
    graph.write_text(json.dumps({"alphabet": ["0", "1"], "vertices": verts, "edges": edges}))
    clear_value_memos()
    return str(graph)


@pytest.fixture
def marked_cycle(tmp_path):
    return cold_marked_cycle(tmp_path, 1000)


class TestAnalyze:
    def test_golden_mean_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--in", path("golden_mean.json"))
        assert code == 0
        rep = json.loads(out)
        assert rep["entropy"] == pytest.approx(0.481212, abs=1e-6)
        assert len(rep["components"]) == 1
        assert rep["components"][0]["period"] == 1
        assert rep["irreducible"] and rep["mixing"]
        assert rep["version"]
        assert "in" in rep["input_digests"]

    def test_missing_file_is_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "--in", path("nope.json"))
        assert code == 2
        assert "precondition" in err

    def test_malformed_json_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, err = run(capsys, "analyze", "--in", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--in", path("golden_mean.json"), "--bogus"])

    def test_long_cycle_within_budget(self, marked_cycle, capsys):
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "analyze", "--in", marked_cycle)
        assert time.perf_counter() - t0 < 3.0
        assert code == 0
        rep = json.loads(out)
        assert rep["irreducible"] and not rep["mixing"]
        assert [c["period"] for c in rep["components"]] == [1000]

    def test_marked_4000_cycle_within_budget(self, tmp_path, capsys):
        graph = cold_marked_cycle(tmp_path, 4000)
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "analyze", "--in", graph)
        assert time.perf_counter() - t0 < 8.0
        assert code == 0
        assert [c["period"] for c in json.loads(out)["components"]] == [4000]
        # The one component is the whole canonical presentation, which is
        # its own canonical presentation: its follower is never built.
        assert follower.cache_info().misses == 1

    def test_irreducible_rgraph_report_is_golden(self, tmp_path, capsys):
        # The report was recorded before chain components and entropy were
        # memoised by canonical presentation.  Its graph is irreducible and
        # its closed component now reuses the graph's canonical
        # presentation; every byte of the report stays.
        clear_value_memos()
        target = tmp_path / "r.json"
        code, out, err = run(capsys, "analyze", "--in", path("irreducible_rgraph.json"),
                             "--out", str(target))
        assert (code, out, err) == (0, "", "")
        with open(path("irreducible_rgraph_report.json"), "rb") as f:
            assert target.read_bytes() == f.read()

    def test_reducible_rgraph_report_is_golden(self, tmp_path, capsys):
        # The report was recorded before lone-cycle entropies skipped the
        # canonical presentation.  Three of its four chain components are
        # lone cycles; only the graph and the golden-mean component build
        # a follower automaton, and every byte of the report stays.
        clear_value_memos()
        target = tmp_path / "r.json"
        code, out, err = run(capsys, "analyze", "--in", path("reducible_rgraph.json"),
                             "--out", str(target))
        assert (code, out, err) == (0, "", "")
        with open(path("reducible_rgraph_report.json"), "rb") as f:
            assert target.read_bytes() == f.read()
        assert follower.cache_info().misses == 2

    def test_follower_state_cap_is_exit_2(self, capsys):
        # Its follower automaton has 2**20 states.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "analyze", "--in", path("subset_blowup.json"))
        assert time.perf_counter() - t0 < 2.0
        assert code == 2 and out == ""
        assert err == "precondition failed: follower automaton exceeds 65536 states\n"

    def test_repeated_vertex_name_is_exit_2(self, tmp_path, capsys):
        # Alphabet a, a.b, b.c, c: a forbidden-form symbol with a dot, so
        # the word a.b.c could be read as (a, b.c), (a.b, c) or (a, b, c).
        code, out, err = run(capsys, "analyze", "--in", path("dotted_forbidden.json"))
        assert code == 2 and out == ""
        assert err == "precondition failed: forbidden-form symbol 'a.b' contains a dot\n"
        graph = tmp_path / "repeated.json"
        graph.write_text(json.dumps({"alphabet": ["0"], "vertices": ["a", "b", "a"],
                                     "edges": [["a", "b", "0"], ["b", "a", "0"]]}))
        code, out, err = run(capsys, "analyze", "--in", str(graph))
        assert code == 2 and out == ""
        assert err == "precondition failed: duplicate vertex 'a'\n"

    @pytest.mark.parametrize("graph, reason", [
        ({"alphabet": ["0", "1"], "forbidden": 5}, "'int' object is not iterable"),
        ({"alphabet": ["0", "1"], "forbidden": None}, "'NoneType' object is not iterable"),
        ({"alphabet": 5, "forbidden": ["11"]}, "'int' object is not iterable"),
        # A string is not read one character at a time: "forbidden": "11"
        # would forbid the word 1 twice and analyse the zeros shift.
        ({"alphabet": ["0", "1"], "forbidden": "11"}, "forbidden must be a list, not str"),
        ({"alphabet": "01", "forbidden": ["11"]}, "alphabet must be a list, not str"),
        ({"alphabet": ["0"], "vertices": "ab", "edges": [["a", "b", "0"], ["b", "a", "0"]]},
         "vertices must be a list, not str"),
        ({"alphabet": ["0"], "vertices": ["a", "b"], "edges": ["ab0", ["b", "a", "0"]]},
         "edge must be a list, not str"),
    ], ids=["number-forbidden", "null-forbidden", "number-alphabet", "string-forbidden",
            "string-alphabet", "string-vertices", "string-edge"])
    def test_malformed_forbidden_form_is_exit_2(self, tmp_path, capsys, graph, reason):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(graph))
        code, out, err = run(capsys, "analyze", "--in", str(bad))
        assert code == 2 and out == ""
        assert err == "precondition failed: malformed graph: %s\n" % reason

    def test_committed_string_forbidden_is_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--in", path("string_forbidden.json"))
        assert code == 2 and out == ""
        assert err == "precondition failed: malformed graph: forbidden must be a list, not str\n"

    def test_long_forbidden_word_answers_quickly(self, capsys):
        # One forbidden word of 30 symbols: its automaton has 31 vertices,
        # where the binary words of length 29 are 2**29.
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "analyze", "--in", path("long_forbidden.json"))
        assert time.perf_counter() - t0 < 5.0
        assert code == 0
        assert json.loads(out)["entropy"] == pytest.approx(math.log(2))

    def test_wide_forbidden_alphabet_answers_quickly(self, capsys):
        # 100 symbols and the one forbidden word s0.s1.s2: the automaton has
        # three vertices, where the admissible 2-words are 10,000.
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "analyze", "--in", path("wide_forbidden.json"))
        assert time.perf_counter() - t0 < 2.0
        assert code == 0
        rep = json.loads(out)
        assert rep["irreducible"] and 0 < rep["entropy"] < math.log(100)

    @pytest.mark.parametrize("graph, reason", [
        ({"alphabet": ["a", "b", "a.b"], "forbidden": ["a.b"]},
         "forbidden-form symbol 'a.b' contains a dot"),
        ({"alphabet": ["a", "b", "ab"], "forbidden": ["ab"]},
         "forbidden word 'ab' is ambiguous: it is also a symbol"),
    ], ids=["dotted-symbol", "word-is-a-symbol"])
    def test_misread_forbidden_form_is_exit_2(self, tmp_path, capsys, graph, reason):
        # Both inputs used to forbid the 2-word ab and keep the symbol.
        bad = tmp_path / "misread.json"
        bad.write_text(json.dumps(graph))
        code, out, err = run(capsys, "analyze", "--in", str(bad))
        assert code == 2 and out == ""
        assert err == "precondition failed: %s\n" % reason

    def test_transient_vertex_is_reported(self, tmp_path, capsys):
        # A 0-loop joined to a 2-loop through a vertex t by the word 11:
        # the vertex the middle of that word reaches lies on no cycle.
        graph = tmp_path / "transient.json"
        graph.write_text(json.dumps({
            "alphabet": ["0", "1", "2"], "vertices": ["a", "t", "b"],
            "edges": [["a", "a", "0"], ["a", "t", "1"], ["t", "b", "1"], ["b", "b", "2"]]}))
        code, out, _ = run(capsys, "analyze", "--in", str(graph))
        assert code == 0
        rep = json.loads(out)
        assert rep["transient_vertices"] == ["c4"]
        assert [c["vertices"] for c in rep["components"]] == [["c1"], ["c3"]]
        assert not rep["irreducible"]


def _two_loops():
    """The a- and b-loops of abc_sequence.json's level, without its
    c-loop: the code a -> b, b -> c, c -> c maps this graph onto the
    b- and c-loops."""
    return {"alphabet": ["a", "b", "c"], "vertices": ["a", "b"],
            "edges": [["a", "a", "a"], ["b", "b", "b"]]}


class TestMlc:
    def test_abc_witnesses(self, capsys):
        code, out, _ = run(capsys, "mlc", "--in", path("abc_sequence.json"),
                           "--cap", "16")
        assert code == 0
        rep = json.loads(out)
        assert not rep["all_mlc1"]
        for lv in rep["levels"]:
            assert not lv["mlc1"]
            assert lv["witness"] == lv["level"] + 2

    def test_shallow_cap_leaves_the_witness_undetermined(self, capsys):
        code, out, _ = run(capsys, "mlc", "--in", path("abc_sequence.json"),
                           "--cap", "1")
        assert code == 0
        rep = json.loads(out)
        assert not rep["all_witnessed"]
        [lv] = rep["levels"]
        assert lv["status"] == "undetermined"
        assert lv["witness"] is None and lv["stabilized_at"] is None
        code, out, _ = run(capsys, "mlc", "--in", path("abc_sequence.json"),
                           "--cap", "2")
        [lv] = json.loads(out)["levels"]
        assert lv["status"] == "holds" and lv["witness"] == 3

    def test_cap_zero_decides_one_step_stability_alone(self, capsys):
        code, out, _ = run(capsys, "mlc", "--in", path("mixed_sequence.json"), "--cap", "0")
        assert code == 0
        rep = json.loads(out)
        assert rep["all_mlc1"] and not rep["all_witnessed"]
        assert [(lv["mlc1"], lv["witness"], lv["stabilized_at"], lv["status"])
                for lv in rep["levels"]] == [(True, None, None, "undetermined")] * 4
        code, out, _ = run(capsys, "mlc", "--in", path("abc_sequence.json"), "--cap", "0")
        assert code == 0
        [lv] = json.loads(out)["levels"]
        assert not lv["mlc1"] and lv["witness"] is None

    def test_unstable_chain_is_refused_past_the_chain_depth_cap(self, capsys):
        # Each image of the full 2-shift under the window-2 AND code is a
        # smaller shift, so the chain never repeats.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "mlc", "--in", path("unstable_chain.json"),
                             "--cap", "100000")
        assert time.perf_counter() - t0 < 5.0
        assert code == 2 and out == ""
        assert err == ("precondition failed: image chain at level 1 exceeds depth 256 "
                       "without stabilizing\n")

    def test_unstable_chain_within_the_cap_is_undetermined(self, capsys):
        code, out, _ = run(capsys, "mlc", "--in", path("unstable_chain.json"), "--cap", "100")
        assert code == 0
        [lv] = json.loads(out)["levels"]
        assert lv["status"] == "undetermined" and lv["stabilized_at"] is None

    def test_stabilizing_chain_answers_at_any_cap(self, capsys):
        code, out, _ = run(capsys, "mlc", "--in", path("abc_sequence.json"), "--cap", "100000")
        assert code == 0
        [lv] = json.loads(out)["levels"]
        assert lv["status"] == "holds" and lv["witness"] == 3

    @pytest.mark.parametrize("edit, reason", [
        (lambda d: d.update(levels=[]), "at least one level required"),
        (lambda d: d["tail"].update(mode="cyclic"), "tail must be 'identity' or 'periodic'"),
        (lambda d: d["tail"].update(mode="identity"), "identity tail needs exactly L-1 codes"),
        (lambda d: d["tail"].update(block=2), "periodic tail block out of range"),
        (lambda d: d.update(codes=[]), "periodic tail needs L codes (last one wraps)"),
        (lambda d: d["codes"][0].update(domain=_two_loops()), "code 1 domain mismatch"),
        (lambda d: d.update(levels=[_two_loops(), d["levels"][0]],
                            tail={"mode": "identity", "block": 1}),
         "code 1 image leaves level 1"),
    ], ids=["no-levels", "cyclic-tail", "identity-tail-codes", "block-2", "no-codes",
            "domain-mismatch", "image-leaves-level"])
    def test_inconsistent_sequence_is_exit_2(self, tmp_path, capsys, edit, reason):
        with open(path("abc_sequence.json"), encoding="utf-8") as f:
            data = json.load(f)
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "mlc", "--in", str(bad))
        assert code == 2 and out == ""
        assert err == "precondition failed: %s\n" % reason

    def test_multichar_symbols_survive_the_json_round_trip(self, tmp_path, capsys):
        from shiftlab.fixtures import cantor_product_sequence
        from shiftlab.inverse_systems import sequence_to_json
        cp3 = tmp_path / "cp3.json"
        cp3.write_text(json.dumps(sequence_to_json(cantor_product_sequence(3))))
        code, out, err = run(capsys, "mlc", "--in", str(cp3))
        assert code == 0, err
        assert json.loads(out)["all_mlc1"]

    def test_code_image_path_cap_is_exit_2(self, capsys):
        # A window-20 code over a 2-vertex domain with out-degree 2 lists
        # 2**20 paths of 19 edges.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "mlc", "--in", path("code_image_blowup.json"))
        assert time.perf_counter() - t0 < 2.0
        assert code == 2 and out == ""
        assert err == "precondition failed: code image exceeds 65536 domain paths\n"

    def test_code_window_cap_is_exit_2(self, capsys):
        # A window-10**6 code over the one-loop shift lists one path of
        # each length, and their edges add up past the path-symbol cap.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "mlc", "--in", path("code_window_blowup.json"))
        assert time.perf_counter() - t0 < 5.0
        assert code == 2 and out == ""
        assert err == "precondition failed: code image exceeds 67108864 domain path symbols\n"

    @pytest.mark.parametrize("edit, reason", [
        (None, "malformed code: window must be an integer, not float"),
        (("window", True), "malformed code: window must be an integer, not bool"),
        (("window", "1"), "malformed code: window must be an integer, not str"),
        (("block", 1.5), "malformed sequence: tail block must be an integer, not float"),
        (("block", True), "malformed sequence: tail block must be an integer, not bool"),
    ], ids=["float-window", "bool-window", "string-window", "float-block", "bool-block"])
    def test_non_integer_window_or_block_is_exit_2(self, tmp_path, capsys, edit, reason):
        # float_window.json is abc_sequence.json with window 1.9; the other
        # cases edit abc_sequence.json the same way.
        source = path("float_window.json")
        if edit is not None:
            field, value = edit
            with open(path("abc_sequence.json"), encoding="utf-8") as f:
                data = json.load(f)
            (data["codes"][0] if field == "window" else data["tail"])[field] = value
            source = tmp_path / "bad.json"
            source.write_text(json.dumps(data))
        code, out, err = run(capsys, "mlc", "--in", str(source))
        assert code == 2 and out == ""
        assert err == "precondition failed: %s\n" % reason


class TestTowers:
    def test_branching_enumeration(self, capsys):
        code, out, _ = run(capsys, "towers", "--in",
                           path("branching_sequence.json"), "--depth", "3")
        assert code == 0
        rep = json.loads(out)
        assert rep["towers"] == [["K0", "K0", "K0"]]


class TestEntropic:
    def test_mixed_sequence(self, capsys):
        code, out, _ = run(capsys, "entropic", "--in",
                           path("mixed_sequence.json"))
        assert code == 0
        rep = json.loads(out)
        assert rep["entropy_bound"] == pytest.approx(0.481212, abs=1e-6)
        assert all(rep["properties"].values())


class TestScramble:
    def test_csv_columns_and_pass_flags(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        code, out, _ = run(capsys, "scramble", "--in", path("golden_mean.json"),
                           "-n", "2", "--blocks", "6",
                           "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "horizon,frac_close,frac_far,pass_close,pass_far"
        assert all("." in ln.split(",")[1] for ln in lines[1:])
        rep = json.loads(out)
        for row in rep["rows"]:
            if row["block"] >= 3:
                flag = row["pass_close"] if row["kind"] == "together" else row["pass_far"]
                assert flag is True

    def test_reports_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code, _, _ = run(capsys, "scramble", "--in",
                             path("golden_mean.json"), "-n", "2",
                             "--blocks", "4", "--out", str(target))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unresolved_classes_exit_2_quickly(self, tmp_path, capsys):
        # The full 2-shift on a complete bipartite graph, 5 vertices a side:
        # period 2, and no word length pins down the class of a point.
        left = ["a%d" % i for i in range(5)]
        right = ["b%d" % i for i in range(5)]
        edges = [[u, v, s] for x, y in ((left, right), (right, left))
                 for u in x for v in y for s in "01"]
        graph = tmp_path / "bipartite.json"
        graph.write_text(json.dumps({"alphabet": ["0", "1"],
                                     "vertices": left + right, "edges": edges}))
        t0 = time.perf_counter()
        code, out, err = run(capsys, "scramble", "--in", str(graph))
        assert time.perf_counter() - t0 < 2.0
        assert code == 2 and out == ""
        assert err == "precondition failed: presentation does not resolve cyclic classes\n"

    def test_long_cycle_exits_2_within_budget(self, marked_cycle, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "scramble", "--in", marked_cycle)
        assert time.perf_counter() - t0 < 2.0
        assert code == 2 and out == ""
        assert err == "precondition failed: no 2-tuple up to period 8\n"

    def test_ten_point_distal_search_within_budget(self, capsys):
        # 8,008 ten-subsets at period 4.  The digest was recorded from the
        # search that recomputed every subset's separation from scratch.
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "scramble", "--in", path("full2.json"), "-n", "10")
        assert time.perf_counter() - t0 < 2.0
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
            "91f0faa52a30ee6a7833751e0ba208100d7e37052bf3754ad193c9fec9f1cf6e"

    def test_oversized_distal_search_exits_2_quickly(self, capsys):
        # C(32, 17), about 5.7e8 seventeen-subsets at period 5.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "scramble", "--in", path("full2.json"), "-n", "17")
        assert time.perf_counter() - t0 < 2.0
        assert code == 2 and out == ""
        assert err == "precondition failed: distal search exceeds 100000 candidate tuples\n"

    def test_zero_blocks_is_exit_2(self, capsys):
        code, _, err = run(capsys, "scramble", "--in", path("golden_mean.json"),
                           "-n", "2", "--blocks", "0", "--eps-exp", "2")
        assert code == 2
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_horizon_before_first_block_gives_empty_table(self, capsys):
        code, out, _ = run(capsys, "scramble", "--in", path("golden_mean.json"),
                           "-n", "2", "--blocks", "3", "--horizon", "1",
                           "--eps-exp", "2")
        assert code == 0
        assert json.loads(out)["rows"] == []

    def test_default_horizon_reports_every_block(self, capsys):
        # The eighth block ends at 1,337,920, past the old default of 10**6.
        code, out, _ = run(capsys, "scramble", "--in", path("golden_mean.json"),
                           "-n", "2", "--blocks", "8")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["block"] for r in rows] == list(range(1, 9))
        assert rows[-1]["horizon"] == 1337920


class TestShadow:
    def test_full_family_passes(self, capsys):
        code, out, _ = run(capsys, "shadow", "--family", "full", "--depth", "6",
                           "--eps-exp", "1", "--delta-exp", "2",
                           "--horizon", "8")
        assert code == 0
        assert json.loads(out)["shadowed"] is True

    def test_limit_family_counterexample(self, capsys):
        code, out, _ = run(capsys, "shadow", "--family", "limit",
                           "--eps-exp", "2", "--delta-exp", "4",
                           "--horizon", "16")
        assert code == 0
        rep = json.loads(out)
        assert rep["shadowed"] is False
        assert rep["counterexample"]

    def test_full_depth_twelve_within_budget(self, capsys):
        # 4,096 points, the most a truncation may have, at the default
        # scales (epsilon 1/2, delta 1/4, horizon 8).
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "shadow", "--family", "full", "--depth", "12")
        assert time.perf_counter() - t0 < 5.0
        assert code == 0
        rep = json.loads(out)
        assert rep["shadowed"] is True
        assert rep["states_explored"] == 28672

    @pytest.mark.parametrize("argv", [["--family", "full", "--depth", "40"],
                                      ["--family", "limit", "--tail", "100000"]],
                             ids=["full-depth-40", "limit-tail-100000"])
    def test_oversized_truncation_exits_2_quickly(self, capsys, argv):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "shadow", *argv)
        assert time.perf_counter() - t0 < 2.0
        assert code == 2 and out == ""
        assert err == "precondition failed: truncation exceeds 4096 points\n"

    @pytest.mark.parametrize("argv", [["--family", "full", "--depth", "200"],
                                      ["--family", "gap", "--k", "3", "--depth", "100000"]],
                             ids=["full-depth-200", "gap-3-depth-100000"])
    def test_truncation_past_both_caps_names_the_symbol_cap(self, capsys, argv):
        # The listing stops at the first word past either cap, and at these
        # depths the symbol cap comes first.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "shadow", *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err == "precondition failed: truncation exceeds 524288 symbols\n"

    @pytest.mark.parametrize("depth", ["1000000", "100000000"])
    def test_one_loop_past_symbol_cap_exits_2_quickly(self, tmp_path, capsys, depth):
        # One word per depth passes the point cap at any depth; the symbol
        # cap refuses it before the word is listed.
        loop = tmp_path / "loop.json"
        loop.write_text(json.dumps({"alphabet": ["0"], "vertices": ["a"],
                                    "edges": [["a", "a", "0"]]}))
        t0 = time.perf_counter()
        code, out, err = run(capsys, "shadow", "--in", str(loop), "--depth", depth)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err == "precondition failed: truncation exceeds 524288 symbols\n"

    def test_sampled_step_cap_exits_2_quickly(self, capsys):
        # 200 samples of 100,000 steps on a system that shadows them all
        # would draw every step; the cap refuses them before the first.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "shadow", "--family", "full", "--depth", "6",
                             "--mode", "sampled", "--samples", "200",
                             "--horizon", "100000")
        assert time.perf_counter() - t0 < 2.0
        assert code == 2 and out == ""
        assert err == "precondition failed: sampled check exceeds 1048576 steps\n"

    @pytest.mark.parametrize("argv, states", [
        (("--family", "full", "--depth", "2", "--horizon", "100000000"), 399999996),
        (("--family", "gap", "--k", "2", "--depth", "8", "--horizon", "3000"), 122959),
    ])
    def test_decided_long_horizon_answers_quickly(self, capsys, argv, states):
        # Each set of (head, survivor set) pairs repeats within a few
        # depths, which decides every horizon.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "shadow", *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 0 and err == ""
        rep = json.loads(out)
        assert rep["shadowed"] and rep["states_explored"] == states

    def test_gap_40_answers_quickly(self, capsys):
        # Its forbidden words are 40 symbols long; listing every binary
        # candidate word of that length would never finish.
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "shadow", "--family", "gap", "--k", "40", "--depth", "6")
        assert time.perf_counter() - t0 < 5.0
        assert code == 0
        assert json.loads(out)["points"] == 7

    def test_seed_recorded_in_sampled_mode(self, capsys):
        code, out, _ = run(capsys, "shadow", "--family", "limit",
                           "--eps-exp", "2", "--delta-exp", "4",
                           "--horizon", "16", "--mode", "sampled",
                           "--seed", "7")
        assert code == 0
        assert json.loads(out)["seed"] == 7


class TestLayered:
    def test_census_report(self, capsys):
        code, out, _ = run(capsys, "layered", "--base-depth", "3",
                           "--fiber-depth", "8")
        assert code == 0
        rep = json.loads(out)
        assert rep["component_count"] == 8
        assert rep["fibers_invariant"] and rep["fibers_transitive"]
        assert all(rep["fiber_shadowing"].values())

    def test_interior_stratum_is_not_shadowed(self, capsys):
        # Base words of length 5 are the shortest with an interior stratum.
        code, out, _ = run(capsys, "layered", "--base-depth", "5", "--fiber-depth", "6",
                           "--horizon", "6")
        assert code == 0
        rep = json.loads(out)
        assert rep["interior_count"] == 16
        assert rep["stratum_sizes"] == {"1": 4, "2": 4, "3": 8}
        assert rep["point_count"] == 376
        shadowing = rep["fiber_shadowing"]
        interior = [k for k in shadowing if k.startswith("interior:")]
        assert len(interior) == 16 and not any(shadowing[k] for k in interior)
        assert all(v for k, v in shadowing.items() if k.startswith("A"))
        assert len(shadowing) == 32

    @pytest.mark.parametrize("depth", ["30", "1000000000"])
    def test_oversized_base_exits_2_quickly(self, capsys, depth):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "layered", "--base-depth", depth)
        assert time.perf_counter() - t0 < 2.0
        assert code == 2 and out == ""
        assert err == "precondition failed: truncation exceeds 4096 points\n"


class TestSelftests:
    @pytest.mark.parametrize("sub", ["analyze", "mlc", "towers", "entropic",
                                     "scramble", "shadow", "layered"])
    def test_selftest_passes(self, capsys, sub):
        code, out, _ = run(capsys, sub, "--selftest")
        assert code == 0
        rep = json.loads(out)
        assert rep["failed"] == 0
        assert rep["passed"] > 0

    def test_failure_list_keeps_a_false_case_after_a_raising_one(self, capsys, monkeypatch):
        # "ab" raises, then "a", whose label starts the entry before it,
        # returns false; each failure is listed once.
        def boom():
            raise ValueError("no")

        monkeypatch.setattr("shiftlab.cli._selftest_analyze",
                            lambda: [("ab", boom), ("a", lambda: False), ("b", lambda: True)])
        code, out, _ = run(capsys, "analyze", "--selftest")
        assert code == 1
        assert json.loads(out) == {"selftest": "analyze", "passed": 1, "failed": 2,
                                   "failures": ["ab: ValueError('no')", "a"]}


def _list_rule(tmp_path):
    with open(path("abc_sequence.json"), encoding="utf-8") as f:
        data = json.load(f)
    data["codes"][0]["rule"] = [1, 2]
    bad = tmp_path / "list_rule.json"
    bad.write_text(json.dumps(data))
    return str(bad)


def _string_tail(tmp_path):
    with open(path("abc_sequence.json"), encoding="utf-8") as f:
        data = json.load(f)
    data["tail"] = "identity"
    bad = tmp_path / "string_tail.json"
    bad.write_text(json.dumps(data))
    return str(bad)


def _dotted_graph(tmp_path):
    # The truncation labels of (a, a.a) and (a.a, a) would both be a.a.a.
    graph = tmp_path / "dotted_graph.json"
    graph.write_text(json.dumps({"alphabet": ["a", "a.a"], "vertices": ["v"],
                                 "edges": [["v", "v", "a"], ["v", "v", "a.a"]]}))
    return str(graph)


def _acyclic_graph(tmp_path):
    """The graph a -0-> b: no cycle, so it presents the empty shift."""
    graph = tmp_path / "acyclic.json"
    graph.write_text(json.dumps({"alphabet": ["0"], "vertices": ["a", "b"],
                                 "edges": [["a", "b", "0"]]}))
    return str(graph)


class TestFailuresAreOneLine:
    @pytest.mark.parametrize("argv, symbol", [
        (["analyze", "--in", path("dotted_forbidden.json")], "forbidden-form symbol 'a.b'"),
        (["mlc", "--in", path("dotted_code.json")], "code domain symbol 'a.b'"),
        (["shadow", "--in", _dotted_graph, "--depth", "2"], "truncation symbol 'a.a'"),
    ], ids=["forbidden-form", "code-rule-key", "truncation-label"])
    def test_dotted_symbol_in_a_written_word_is_exit_2(self, tmp_path, capsys, argv, symbol):
        argv = [a(tmp_path) if callable(a) else a for a in argv]
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert err == "precondition failed: %s contains a dot\n" % symbol

    @pytest.mark.parametrize("argv, reason", [
        (["analyze", "--in", _acyclic_graph], "entropy of an empty shift"),
        (["shadow", "--in", _acyclic_graph], "no admissible words at this depth"),
        (["shadow", "--family", "full", "--horizon", "0"], "horizon must be at least 1"),
        (["shadow"], "need --in or --family"),
        (["scramble", "--in", path("golden_mean.json"), "--eps-exp", "0"],
         "need epsilon_exp >= 1 and 0 < delta < 1"),
    ], ids=["analyze-empty-shift", "shadow-empty-shift", "shadow-horizon-0",
            "shadow-no-system", "scramble-eps-exp-0"])
    def test_refusal_is_exit_2(self, tmp_path, capsys, argv, reason):
        argv = [a(tmp_path) if callable(a) else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "precondition failed: %s\n" % reason

    def test_dotted_symbol_graph_still_analyses(self, tmp_path, capsys):
        code, out, _ = run(capsys, "analyze", "--in", _dotted_graph(tmp_path))
        assert code == 0
        assert json.loads(out)["entropy"] == pytest.approx(math.log(2))

    @pytest.mark.parametrize("argv, expected", [
        (["shadow", "--family", "full", "--eps-exp", "-1"], 2),
        (["shadow", "--family", "full", "--delta-exp", "-2"], 2),
        (["shadow", "--family", "full", "--depth", "0"], 2),
        (["layered", "--fiber-depth", "0"], 2),
        (["mlc", "--in", _string_tail], 2),
        (["mlc", "--in", _list_rule], 2),
        (["shadow", "--family", "gap", "--k", "-1"], 2),
        (["shadow", "--family", "limit", "--mode", "sampled", "--samples", "0"], 2),
        (["shadow", "--family", "limit", "--mode", "sampled", "--samples", "-3"], 2),
        (["shadow", "--family", "limit", "--tail", "-1"], 2),
        (["towers", "--in", path("branching_sequence.json"), "--depth", "0"], 2),
        (["towers", "--in", path("branching_sequence.json"), "--depth", "-2"], 2),
        (["mlc", "--in", path("abc_sequence.json"), "--cap", "-3"], 2),
        (["layered", "--base-depth", "-1"], 2),
        (["shadow", "--in", path("golden_mean.json"), "--family", "limit"], 2),
        (["analyze", "--in", path("golden_mean.json")], 1),
    ], ids=["negative-eps-exp", "negative-delta-exp", "shadow-depth-0",
            "layered-fiber-depth-0", "string-tail", "list-rule", "negative-gap",
            "zero-samples", "negative-samples", "negative-tail", "towers-depth-0",
            "towers-negative-depth", "negative-cap", "negative-base-depth",
            "shadow-in-and-family", "injected-runtime-error"])
    def test_exit_code_and_one_stderr_line(self, tmp_path, capsys, monkeypatch,
                                           argv, expected):
        def boom(args):
            raise RuntimeError("injected\nfailure")

        monkeypatch.setattr("shiftlab.cli._cmd_analyze", boom)
        argv = [a(tmp_path) if callable(a) else a for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == expected
        assert len(err.splitlines()) == 1, err
        assert "Traceback" not in err


class TestScaleExponentCap:
    @pytest.mark.parametrize("flag", ["--eps-exp", "--delta-exp"])
    def test_past_the_decimal_digit_cap_is_exit_2(self, capsys, flag):
        # Refused before the system is built: depth 13 would pass the
        # truncation point cap.
        code, out, err = run(capsys, "shadow", "--family", "full", "--depth", "13",
                             flag, "14285")
        assert code == 2 and out == ""
        assert err == ("precondition failed: --eps-exp and --delta-exp must be "
                       "at most 14284\n")

    @pytest.mark.parametrize("flag", ["--eps-exp", "--delta-exp"])
    def test_at_the_cap_still_answers(self, capsys, flag):
        code, out, err = run(capsys, "shadow", "--family", "full", "--depth", "2",
                             "--horizon", "3", flag, "14284")
        assert code == 0 and err == ""
        key = "epsilon" if flag == "--eps-exp" else "delta"
        assert json.loads(out)[key] == "1/%d" % 2 ** 14284


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv, target", [
        (["analyze", "--in", path("golden_mean.json"), "--out"], "missing/x.json"),
        (["analyze", "--in", path("golden_mean.json"), "--out"], "adir"),
        (["scramble", "--in", path("golden_mean.json"), "--blocks", "2", "--csv"],
         "missing/d.csv"),
    ], ids=["out-missing-directory", "out-is-a-directory", "csv-missing-directory"])
    def test_exit_2_with_one_line_and_no_file_left(self, tmp_path, capsys, argv, target):
        (tmp_path / "adir").mkdir()
        code, out, err = run(capsys, *argv, str(tmp_path / target))
        assert code == 2 and out == ""
        assert err.startswith("precondition failed: cannot write %s: " % (tmp_path / target))
        assert len(err.splitlines()) == 1 and ".tmp-" not in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir"]


class TestSharedParser:
    """main builds its parser once per process and reuses it."""

    ARGVS = [
        ["shadow", "--family", "limit", "--mode", "sampled", "--seed", "7"],
        ["shadow", "--family", "limit", "--mode", "sampled"],
        ["scramble", "--in", path("golden_mean.json"), "--blocks", "3", "--horizon", "100"],
        ["scramble", "--in", path("golden_mean.json"), "--blocks", "3"],
        ["mlc", "--cap", "x"],
        ["shadow", "--in", path("golden_mean.json"), "--depth", "4"],
        ["shadow", "--family", "full", "--depth", "4"],
        ["towers", "--in", path("branching_sequence.json"), "--kind", "cyclic"],
        ["towers", "--in", path("branching_sequence.json")],
        ["towers"],
        ["towers", "--selftest"],
        ["layered", "--base-depth", "1", "--fiber-depth", "6"],
        ["analyze", "--in", path("golden_mean.json")],
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = ("exit", e.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_sequence_matches_each_run_alone(self, capsys):
        _build_parser.cache_clear()
        in_sequence = [self.outcome(capsys, argv) for argv in self.ARGVS]
        alone = []
        for argv in self.ARGVS:
            _build_parser.cache_clear()
            alone.append(self.outcome(capsys, argv))
        assert in_sequence == alone
        assert json.loads(in_sequence[0][1])["seed"] == 7
        assert json.loads(in_sequence[1][1])["seed"] == 0

    def test_parser_built_once(self, capsys):
        _build_parser.cache_clear()
        for argv in self.ARGVS:
            self.outcome(capsys, argv)
        info = _build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(self.ARGVS) - 1)

    def test_help_and_usage_errors_match_recorded_text(self, capsys, monkeypatch):
        """cli_text.json holds --help and usage-error output at 80 columns
        from the CLI as it was before the parser was built once."""
        monkeypatch.setenv("COLUMNS", "80")
        with open(path("cli_text.json"), encoding="utf-8") as f:
            recorded = json.load(f)
        assert {c["argv"][0] for c in recorded} >= {
            "--help", "analyze", "mlc", "towers", "entropic", "scramble",
            "shadow", "layered"}
        for case in recorded:
            code, out, err = self.outcome(capsys, case["argv"])
            assert (code, out, err) == (("exit", case["code"]), case["out"],
                                        case["err"]), case["argv"]


class TestReportsDoNotDependOnHashing:
    """Strings hash by a per-process salt, so a report that looped over a
    set of strings, or of values holding them, would change with the salt.
    Each report is written by two processes with different string-hash
    seeds.  (Graphs and codes hash by address; a loop over a set of them
    would follow allocation order, which these runs do not vary.)"""

    @pytest.mark.parametrize("argv", [
        ["mlc", "--in", path("mixed_sequence.json")],
        ["towers", "--in", path("branching_sequence.json"), "--depth", "4"],
        ["entropic", "--in", path("mixed_sequence.json"), "--depth", "3"],
        ["analyze", "--in", path("golden_mean.json")],
        ["analyze", "--in", path("long_forbidden.json")],
    ], ids=["mlc", "towers", "entropic", "analyze", "analyze-forbidden"])
    def test_same_bytes_under_two_hash_seeds(self, argv):
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
            done = subprocess.run([sys.executable, "-m", "shiftlab.cli", *argv], env=env,
                                  capture_output=True, check=True)
            outs.append(done.stdout)
        assert outs[0] and outs[0] == outs[1]
