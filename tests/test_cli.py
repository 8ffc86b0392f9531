import json

import pytest

from knvex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestExitCodes:
    def test_exact_run_exits_0(self, capsys):
        code, out, err = run(capsys, "vex", "--n", "4", "--pattern", "C5")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["command"] == "vex"
        assert report["results"]["value"] == 12
        assert report["results"]["exact"] is True
        assert report["results"]["stats"]["nodes"] > 0

    def test_budgeted_run_exits_1_with_a_lower_bound(self, capsys):
        code, out, _ = run(capsys, "vex", "--n", "10", "--pattern", "C5", "--budget", "2000")
        assert code == 1
        results = json.loads(out)["results"]
        assert results["exact"] is False
        assert results["upper_bound_source"] is None
        assert len(results["witness"]["sets"]) == results["value"]
        # no core search at n = 10: the main search gets the whole budget
        assert results["value"] == 772
        assert results["stats"] == {"nodes": 2000, "core_nodes": 0, "core_value": None}

    def test_budgeted_la_exits_1(self, capsys):
        code, out, _ = run(capsys, "la", "--n", "4", "--poset", "butterfly", "--budget", "5")
        assert code == 1
        assert json.loads(out)["results"]["exact"] is False
        assert json.loads(out)["results"]["stats"] == {"nodes": 5}

    @pytest.mark.parametrize(
        "argv",
        [
            ("vex", "--n", "5", "--pattern", "XYZ"),
            ("vex", "--n", "6", "--pattern", "C5"),
            ("vex", "--n", "0", "--pattern", "C5"),
            ("la", "--n", "6", "--poset", "V"),
            ("la", "--n", "3", "--poset", "nonsense"),
            ("cyclecheck", "--n", "4", "--family", "no/such/family.txt"),
            ("vex", "--n", "4", "--pattern", "C5", "--budget", "-1"),
            ("vex", "--n", "4", "--pattern", "C5", "--timeout", "-1"),
            ("vex", "--n", "4", "--pattern", "C5", "--timeout", "nan"),
            ("la", "--n", "4", "--poset", "V", "--budget", "-3"),
            ("table", "--pattern", "C5", "--n", "5..3"),
            ("table", "--pattern", "C5", "--n", "0..3"),
            ("verify", "--construction", "threshold", "--n", "6"),
            ("verify", "--construction", "star", "--n", "5", "--k", "3"),
            ("eposet", "--poset", "nonsense", "--nmax", "4"),
            ("la", "--n", "3", "--poset", "bad.poset"),
            ("vex", "--n", "3", "--pattern", "bad.pattern"),
            # constructions larger than the freeness check takes, refused unbuilt
            ("vex", "--n", "30", "--pattern", "M2"),
            ("vex", "--n", "30", "--pattern", "C5", "--bounds"),
            ("verify", "--construction", "star", "--n", "22"),
        ],
    )
    def test_input_error_exits_2_with_one_line(self, capsys, tmp_path, monkeypatch, argv):
        # files that exist but do not parse
        (tmp_path / "bad.poset").write_text("e 3\n0 1\n")
        (tmp_path / "bad.pattern").write_text("p 3\n0 1 2\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("knvex: error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("--threads", "2", "vex", "--n", "3", "--pattern", "C5"),
            ("vex", "--n", "3", "--pattern", "C5", "--exact"),
        ],
    )
    def test_removed_options_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2


class TestReports:
    @pytest.mark.parametrize(
        "pattern, value, stats",
        [
            ("C5", 24, {"nodes": 33, "core_nodes": 1196, "core_value": 16}),
            ("K2,3", 26, {"nodes": 0, "core_nodes": 792, "core_value": 20}),
            ("K4", 28, {"nodes": 33, "core_nodes": 1104, "core_value": 24}),
        ],
    )
    def test_exact_n5_runs_stop_at_the_core_bound(self, capsys, pattern, value, stats):
        code, out, _ = run(capsys, "vex", "--n", "5", "--pattern", pattern)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["value"] == value
        assert results["upper_bound_source"] == "search:complement-core"
        assert results["stats"] == stats

    def test_structural_runs_report_no_core_search(self, capsys):
        code, out, _ = run(capsys, "vex", "--n", "5", "--pattern", "M2")
        assert code == 0
        assert json.loads(out)["results"]["stats"] == {"nodes": 0, "core_nodes": 0, "core_value": None}

    @pytest.mark.parametrize(
        "argv",
        [
            ("vex", "--n", "4", "--pattern", "K2,3"),
            ("vex", "--n", "9", "--pattern", "C5", "--bounds"),
            ("la", "--n", "4", "--poset", "V", "--poset", "Lambda"),
            ("eposet", "--poset", "butterfly", "--nmax", "5"),
            ("verify", "--construction", "e2_two_level", "--n", "6"),
            ("cyclecheck", "--n", "5", "--seed", "3"),
        ],
    )
    def test_json_is_deterministic_apart_from_elapsed_ms(self, capsys, argv):
        reports = []
        for _ in range(2):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            report = json.loads(out)
            assert set(report) == {"command", "params", "results", "elapsed_ms", "toolkit_version"}
            assert isinstance(report.pop("elapsed_ms"), int)
            assert "threads" not in report["params"]
            reports.append(report)
        assert reports[0] == reports[1]

    def test_table_is_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--pattern", "K3", "--n", "3..5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,lower,upper,exact"
        assert [line.split(",")[0] for line in lines[1:]] == ["3", "4", "5"]
