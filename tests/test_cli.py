import contextlib
import io
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knvex
from knvex import constructions, freeness, posets
from knvex.cli import main
from knvex.constructions import CONSTRUCTION_PARAMETERS


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
            ("cyclecheck", "--n", "3", "--family", "twice.family"),
            ("cyclecheck", "--n", "3", "--family", "repeated.family"),
            # constructions larger than the freeness check takes, refused unbuilt
            ("vex", "--n", "30", "--pattern", "M2"),
            ("vex", "--n", "30", "--pattern", "C5", "--bounds"),
            ("verify", "--construction", "star", "--n", "22"),
            # refused by the ground size the freeness check takes, before the family is generated
            ("vex", "--n", "22", "--pattern", "K2,3", "--bounds"),
            ("table", "--pattern", "K2,3", "--n", "22..23"),
            # headers with more than a count, read as "e 3" and "p 3" before
            ("la", "--n", "3", "--poset", "header.poset"),
            ("vex", "--n", "3", "--pattern", "header.pattern"),
            # a cycle closed only by the relation on line 3
            ("la", "--n", "3", "--poset", "cyclic.poset"),
            # malformed names, refused as names, and a crown too long to be a poset
            ("la", "--n", "3", "--poset", "K,1,3"),
            ("la", "--n", "3", "--poset", "K2,1,"),
            ("la", "--n", "3", "--poset", "K2,1,3x"),
            ("la", "--n", "3", "--poset", "crown18"),
            # names with a newline or with digits other than ASCII ones
            ("vex", "--n", "3", "--pattern", "C5\n"),
            ("vex", "--n", "3", "--pattern", "K\u0662,3"),
            ("la", "--n", "3", "--poset", "chain\u0663"),
        ],
    )
    def test_input_error_exits_2_with_one_line(self, capsys, tmp_path, monkeypatch, argv):
        # files that exist but do not parse
        (tmp_path / "bad.poset").write_text("e 3\n0 1\n")
        (tmp_path / "bad.pattern").write_text("p 3\n0 1 2\n")
        (tmp_path / "header.poset").write_text("e 3 9\n0 < 1\n")
        (tmp_path / "header.pattern").write_text("p 3 9\n0 1\n")
        (tmp_path / "twice.family").write_text("n=3\n1,2\n1,2\n")
        (tmp_path / "repeated.family").write_text("n=3\n1,1\n")
        (tmp_path / "cyclic.poset").write_text("e 3\n0 < 1\n1 < 0\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("knvex: error: ")
        assert err.count("\n") == 1

    def test_doubling_construction_verifies_at_21(self, capsys):
        # 2^20 + 2 sets: past the embedder's rows, certified by the cover
        argv = ("verify", "--construction", "matching_extremal", "--n", "21", "--k", "2")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        report = json.loads(out)["results"]
        assert report["pass"] and report["size"] == (1 << 20) + 2

    @pytest.mark.parametrize("n", ["21", "22", "30"])
    def test_search_refuses_large_n_before_building_a_seed(self, capsys, monkeypatch, n):
        # at n = 21 the search itself would exhaust memory, so it never runs here
        def unreachable(*args, **kwargs):
            raise AssertionError("build_construction called")

        monkeypatch.setattr(constructions, "build_construction", unreachable)
        code, out, err = run(capsys, "vex", "--n", n, "--pattern", "C5", "--budget", "10")
        assert (code, out) == (2, "")
        assert err == "knvex: error: the search keeps a table over 2^[n]; n <= 20 only\n"

    @pytest.mark.parametrize(
        "argv, target",
        [
            (("vex", "--n", "7", "--pattern", "C5", "--bounds"), "is_free"),
            (("verify", "--construction", "threshold", "--n", "7", "--k", "2"), "is_free"),
            (("la", "--n", "3", "--poset", "V"), "is_poset_free"),
        ],
    )
    def test_failed_verification_exits_3_with_one_line(self, capsys, monkeypatch, argv, target):
        monkeypatch.setattr(freeness if target == "is_free" else posets, target, lambda *a: False)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("knvex: verification failed: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("n", ["8", "23"])
    def test_cyclecheck_refuses_large_n_before_building_a_family(self, capsys, monkeypatch, n):
        def unreachable(*args, **kwargs):
            raise AssertionError("random_family called")

        monkeypatch.setattr("knvex.cli.random_family", unreachable)
        code, out, err = run(capsys, "cyclecheck", "--n", n)
        assert (code, out) == (2, "")
        assert err == "knvex: error: double counting enumerates (n-1)! permutations; n <= 7 only\n"

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

    @pytest.mark.parametrize(
        "command, flag, text",
        [
            ("vex --pattern C5", "--n", "1_0"),
            ("vex --pattern C5", "--n", " 7 "),
            ("vex --pattern C5", "--n", "+3"),
            ("vex --pattern C5", "--n", "\u0663"),
            ("vex --n 4 --pattern C5", "--budget", "1_000"),
            ("eposet --poset V", "--nmax", "+3"),
            ("cyclecheck --n 4", "--seed", " 1"),
            ("verify --construction threshold --n 6", "--k", "\u0661"),
        ],
    )
    def test_integers_other_than_ascii_decimal_are_usage_errors(self, capsys, command, flag, text):
        with pytest.raises(SystemExit) as info:
            main([*command.split(), flag, text])
        out, err = capsys.readouterr()
        assert info.value.code == 2 and out == ""
        assert f"argument {flag}: expected an integer, got {text!r}" in err

    def test_canonical_numbers_and_names_read_as_before(self, capsys):
        code, out, _ = run(capsys, "vex", "--n", "3", "--pattern", "S0003")
        _, canonical, _ = run(capsys, "vex", "--n", "3", "--pattern", "S3")
        assert code == 0
        assert json.loads(out)["results"] == json.loads(canonical)["results"]
        code, out, err = run(capsys, "vex", "--n", "4", "--pattern", "C5", "--budget", "-1")
        assert (code, out) == (2, "")
        assert err == "knvex: error: node budget must be >= 0, got -1\n"

    @pytest.mark.parametrize("text", ["3..x", "..3", "3..4..5", "+3..5", "3..\u0665", " 3..5"])
    def test_malformed_ranges_are_usage_errors(self, capsys, text):
        with pytest.raises(SystemExit) as info:
            main(["table", "--pattern", "C5", "--n", text])
        out, err = capsys.readouterr()
        assert info.value.code == 2 and out == ""
        assert f"argument --n: expected N or LO..HI, got {text!r}" in err
        assert "_parse_range" not in err


class TestReports:
    @pytest.mark.parametrize(
        "pattern, value, stats",
        [
            ("C5", 24, {"nodes": 33, "core_nodes": 174, "core_value": 16}),
            ("K2,3", 26, {"nodes": 0, "core_nodes": 222, "core_value": 20}),
            ("K4", 28, {"nodes": 33, "core_nodes": 127, "core_value": 24}),
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

    @pytest.mark.parametrize("nmax, e, code", [(2, 2, 1), (4, 3, 0)])
    def test_eposet_without_certificate_is_not_certified(self, capsys, nmax, e, code):
        # e(chain4) = 3; below --nmax 3 no copy is found and e is only a lower bound
        got, out, _ = run(capsys, "eposet", "--poset", "chain4", "--nmax", str(nmax))
        assert got == code
        results = json.loads(out)["results"]
        assert results["e"] == e
        assert (results["certificate"] is None) == (code == 1)

    def test_table_is_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--pattern", "K3", "--n", "3..5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,lower,upper,exact"
        assert [line.split(",")[0] for line in lines[1:]] == ["3", "4", "5"]


def _flag(name, values):
    """An optional flag: nothing, or [name, value]."""
    return st.just([]) | values.map(lambda v: [name, v])


def _switch(name):
    return st.sampled_from([[], [name]])


_JUNK = ["1_0", "x", "", "+3", " 7 "]
_N = st.sampled_from([str(n) for n in range(-1, 8)] + _JUNK)
_INT = st.sampled_from([str(b) for b in range(-1, 51)] + _JUNK)
_PATTERN = st.sampled_from(["C5", "K2,3", "K1", "M1", "S3", "K0", "C2", "K16", "Q7", "C5x"])
_POSET = st.sampled_from(
    ["V", "Lambda", "butterfly", "chain0", "antichain0", "K0,1,0", "K2,1,", "crown4", "Q7"]
)
_RANGE = st.one_of(
    st.tuples(st.integers(0, 8), st.integers(0, 8)).map(lambda r: f"{r[0]}..{r[1]}"),
    st.sampled_from([str(n) for n in range(9)] + ["3..x", "..3", "+3..5"]),
)


@st.composite
def _argv(draw):
    """Argument lists for the six subcommands, each flag present or absent."""
    command = draw(st.sampled_from(["vex", "table", "la", "eposet", "verify", "cyclecheck"]))
    n = draw(_flag("--n", _RANGE if command == "table" else _N))
    rest = ["--pattern", draw(_PATTERN)] if command in ("vex", "table") else []
    if command == "vex":
        rest += draw(_switch("--bounds")) + draw(_flag("--budget", _INT))
        rest += draw(_flag("--timeout", st.sampled_from(["-1", "0", "nan", "0.5"])))
    elif command == "la":
        rest += [arg for p in draw(st.lists(_POSET, max_size=2)) for arg in ("--poset", p)]
        rest += draw(_switch("--symmetric"))
        # la without a budget takes seconds at n = 5
        rest += ["--budget", draw(_INT)] if n == ["--n", "5"] else draw(_flag("--budget", _INT))
    elif command == "eposet":
        nmax = st.sampled_from([str(k) for k in range(-1, 7)] + _JUNK)
        rest += ["--poset", draw(_POSET)] + draw(_flag("--nmax", nmax))
    elif command == "verify":
        rest += ["--construction", draw(st.sampled_from(sorted(CONSTRUCTION_PARAMETERS)))]
        for key in ("k", "r", "x"):
            rest += draw(_flag(f"--{key}", _INT))
    elif command == "cyclecheck":
        rest += draw(_flag("--family", st.sampled_from(["random", "no/such.family"])))
        rest += draw(_flag("--seed", _INT))
    return [command, *n, *rest]


class TestNoTraceback:
    @given(_argv())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_every_argv_exits_0_1_or_2(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
                assert code == 2, argv
        assert code in (0, 1, 2), argv


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
    # each built, or would build without its early size check, a huge pattern,
    # poset or family; they run only under the cap, so a regression fails with
    # MemoryError instead of exhausting the machine's memory
    @pytest.mark.parametrize(
        "argv",
        [
            ("la", "--n", "3", "--poset", "chain1000000"),
            ("la", "--n", "3", "--poset", "antichain1000000000"),
            ("la", "--n", "3", "--poset", "huge.poset"),
            ("vex", "--n", "3", "--pattern", "K100000"),
            ("vex", "--n", "3", "--pattern", "M100000000"),
            ("la", "--n", "3", "--poset", "K1000000000,1,1"),
            ("cyclecheck", "--n", "30"),
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
