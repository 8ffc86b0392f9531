import json
import os
import resource
import subprocess
import sys

import pytest

import knvex
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

    def test_eposet_certificate_is_pinned(self, capsys):
        code, out, _ = run(capsys, "eposet", "--poset", "butterfly", "--nmax", "5")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["e"] == 2
        assert results["certificate"] == {
            "n": 3,
            "lowest_level": 0,
            "mapping": {"0": "1,2", "1": "-", "2": "1,3", "3": "1"},
        }

    def test_table_is_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--pattern", "K3", "--n", "3..5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,lower,upper,exact"
        assert [line.split(",")[0] for line in lines[1:]] == ["3", "4", "5"]


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [("vex", "--n", "4", "--pattern", "C5"), ("table", "--pattern", "K2,3", "--n", "3..6")],
    )
    def test_exits_141_without_a_traceback(self, argv):
        # a pipe whose reader is gone before the command writes, as after `| head`
        read, write = os.pipe()
        os.close(read)
        src = os.path.dirname(os.path.dirname(knvex.__file__))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "knvex.cli", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src},
                timeout=60,
            )
        finally:
            os.close(write)
        assert proc.returncode == 141
        assert proc.stderr == b""


class TestDependencies:
    def test_cli_loads_only_the_standard_library(self):
        # pyproject.toml declares no dependencies, so an installed third-party
        # package that the CLI imported would break it for users
        code = (
            "import sys; before = set(sys.modules); import knvex.cli; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
        )
        src = os.path.dirname(os.path.dirname(knvex.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
            check=True,
        )
        loaded = set(proc.stdout.split())
        assert "knvex" in loaded
        assert loaded - {"knvex"} <= set(sys.stdlib_module_names)


def cap_address_space():
    """Run in the child before exec: at most 1 GiB of address space."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestOversizedInputs:
    # each once built a huge pattern or poset before its size check; they run
    # only under the cap, so a regression fails with MemoryError instead of
    # exhausting the machine's memory
    @pytest.mark.parametrize(
        "argv",
        [
            ("la", "--n", "3", "--poset", "chain1000000"),
            ("la", "--n", "3", "--poset", "antichain1000000000"),
            ("la", "--n", "3", "--poset", "huge.poset"),
            ("vex", "--n", "3", "--pattern", "K100000"),
            ("vex", "--n", "3", "--pattern", "M100000000"),
        ],
    )
    def test_exit_2_with_one_line_before_building(self, tmp_path, argv):
        (tmp_path / "huge.poset").write_text("e 1000000000\n")
        src = os.path.dirname(os.path.dirname(knvex.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "knvex.cli", *argv],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src},
            preexec_fn=cap_address_space,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("knvex: error: ")
        assert proc.stderr.count("\n") == 1
