"""CLI contract: exit codes, schemas, reproducibility, selftests."""

import json
import os

import pytest

from shiftlab.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def path(name):
    return os.path.join(DATA, name)


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


class TestSelftests:
    @pytest.mark.parametrize("sub", ["analyze", "mlc", "towers", "entropic",
                                     "scramble", "shadow", "layered"])
    def test_selftest_passes(self, capsys, sub):
        code, out, _ = run(capsys, sub, "--selftest")
        assert code == 0
        rep = json.loads(out)
        assert rep["failed"] == 0
        assert rep["passed"] > 0
