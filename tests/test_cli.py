"""CLI contract: exit codes, schemas, reproducibility, selftests."""

import hashlib
import json
import os
import time

import pytest

from shiftlab.cli import _build_parser, main
from shiftlab.decomposition import chain_components
from shiftlab.shift_core import canonical_presentation, follower

DATA = os.path.join(os.path.dirname(__file__), "data")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def path(name):
    return os.path.join(DATA, name)


@pytest.fixture
def marked_cycle(tmp_path):
    """A 1000-cycle labelled 0 except for one edge labelled 1, written as a
    graph file, with the graph memos emptied so that a run starts cold."""
    n = 1000
    verts = ["v%d" % i for i in range(n)]
    edges = [[verts[i], verts[(i + 1) % n], "1" if i == 0 else "0"] for i in range(n)]
    graph = tmp_path / "cycle.json"
    graph.write_text(json.dumps({"alphabet": ["0", "1"], "vertices": verts, "edges": edges}))
    for memo in (follower, canonical_presentation, chain_components):
        memo.cache_clear()
    return str(graph)


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

    def test_multichar_symbols_survive_the_json_round_trip(self, tmp_path, capsys):
        from shiftlab.fixtures import cantor_product_sequence
        from shiftlab.inverse_systems import sequence_to_json
        cp3 = tmp_path / "cp3.json"
        cp3.write_text(json.dumps(sequence_to_json(cantor_product_sequence(3))))
        code, out, err = run(capsys, "mlc", "--in", str(cp3))
        assert code == 0, err
        assert json.loads(out)["all_mlc1"]


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

    @pytest.mark.parametrize("argv", [["--family", "full", "--depth", "40"],
                                      ["--family", "limit", "--tail", "100000"]],
                             ids=["full-depth-40", "limit-tail-100000"])
    def test_oversized_truncation_exits_2_quickly(self, capsys, argv):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "shadow", *argv)
        assert time.perf_counter() - t0 < 2.0
        assert code == 2 and out == ""
        assert err == "precondition failed: truncation exceeds 4096 points\n"

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


class TestFailuresAreOneLine:
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
