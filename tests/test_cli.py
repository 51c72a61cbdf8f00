"""Command line behavior: reports, exit codes, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
import groupoid_spectrum
from groupoid_spectrum.cli import EXIT_BROKEN_PIPE, main
from groupoid_spectrum.digraph import DiGraph, graph_to_text


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def funnel_file(tmp_path):
    path = tmp_path / "funnel.graph"
    path.write_text(graph_to_text(helpers.graph_two_loops_funnel()))
    return str(path)


@pytest.fixture
def entry_file(tmp_path):
    path = tmp_path / "entry.graph"
    path.write_text(graph_to_text(helpers.graph_loop_with_entry()))
    return str(path)


DUAL_FAMILY = {
    "model": "dyadic",
    "space": "dual",
    "gamma": {
        "q": "0",
        "n": "affine:2*i+1",
        "base": {"branch": "i", "param": "affine:2*i+1"},
    },
    "chi": {"r": "1"},
    "limits": {
        "chi": {"r": "1", "base": {"branch": -1, "param": 0}},
        "omega": {"r": "0", "base": {"branch": -1, "param": 0}},
    },
}


@pytest.fixture
def dual_family_file(tmp_path):
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(DUAL_FAMILY))
    return str(path)


@pytest.fixture
def s_family_file(tmp_path):
    obj = dict(DUAL_FAMILY)
    del obj["chi"]
    obj["space"] = "S"
    obj["s"] = {"r": "1"}
    obj["limits"] = {
        "s": {"r": "1", "base": {"branch": -1, "param": 0}},
        "t": {"r": "0", "base": {"branch": -1, "param": 0}},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestGraphAnalyze:
    def test_funnel_json(self, run, funnel_file):
        code, out, _ = run("graph-analyze", funnel_file, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "graph-analyze"
        assert report["hausdorff"] is True
        assert report["condition_b"]["certificates"] == [
            {"pair": [["La"], ["Lb"]], "u": "a", "v": "b"}
        ]

    def test_funnel_text(self, run, funnel_file):
        code, out, _ = run("graph-analyze", funnel_file)
        assert code == 0
        assert "condition A: PASS (2 cycles, 0 entries)" in out
        assert "hausdorff: YES" in out

    def test_entry_graph(self, run, entry_file):
        code, out, _ = run("graph-analyze", entry_file, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["hausdorff"] is False
        assert report["condition_a"]["stabilizer_discontinuity"][0]["approx_fell_limit"] == "{0}"
        assert report["condition_b"]["pass"] == "skipped"

    def test_invalid_graph_exits_2(self, run, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("v a\nv b\ne l a a\n")
        code, out, _ = run("graph-analyze", str(path), "--json")
        assert code == 2
        report = json.loads(out)
        assert report["validated"] is False
        assert report["violations"][0]["kind"] == "no-range-edge"

    def test_parse_error_exits_2(self, run, tmp_path):
        path = tmp_path / "syntax.graph"
        path.write_text("vertex a\n")
        code, _, err = run("graph-analyze", str(path))
        assert code == 2
        assert "line 1" in err

    def test_missing_file_exits_2(self, run):
        code, _, err = run("graph-analyze", "/nonexistent.graph")
        assert code == 2
        assert "cannot read" in err

    def test_transpose_matches_pre_reversed_input(self, run, tmp_path, funnel_file):
        reversed_path = tmp_path / "reversed.graph"
        reversed_path.write_text(
            graph_to_text(helpers.graph_two_loops_funnel().transpose())
        )
        _, direct, _ = run("graph-analyze", str(reversed_path), "--json")
        _, flagged, _ = run("graph-analyze", funnel_file, "--transpose", "--json")
        lhs, rhs = json.loads(direct), json.loads(flagged)
        for blob in (lhs, rhs):
            blob.pop("input")
            blob.pop("transpose")
        assert lhs == rhs


class TestGraphOrbits:
    def test_funnel(self, run, funnel_file):
        code, out, _ = run("graph-orbits", funnel_file, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["refused"] is False
        assert report["orbits"] == [["La"], ["Lb"]]
        assert report["count"] == 2

    def test_refusal_is_a_completed_analysis(self, run, entry_file):
        code, out, _ = run("graph-orbits", entry_file, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["refused"] is True
        assert report["entries"] == [{"cycle": ["La"], "entry": "e"}]


class TestGraphEquiv:
    def test_equivalent_paths(self, run, funnel_file):
        code, out, _ = run(
            "graph-equiv", funnel_file, "--x", "f:La", "--y", ":La", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["shift_equivalent"] is True
        assert report["stabilizer_periods"] == {"x": 0, "y": 1}
        assert report["minimized"]["x"] == {"prefix": ["f"], "cycle": ["La"]}

    def test_inequivalent_paths(self, run, funnel_file):
        code, out, _ = run("graph-equiv", funnel_file, "--x", ":La", "--y", ":Lb", "--json")
        assert code == 0
        assert json.loads(out)["shift_equivalent"] is False

    def test_bad_literals_exit_2(self, run, funnel_file):
        for literal in ("La", ":Zz", "f,g:La", ":"):
            code, _, err = run("graph-equiv", funnel_file, "--x", literal, "--y", ":La")
            assert code == 2, literal
            assert err.startswith("error:")


class TestModelGreen:
    def test_verify_counts(self, run):
        code, out, _ = run("model-green", "verify-eq3", "--n-max", "20", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["confirmations"] == 21
        assert report["all_equal"] is True
        assert report["rows"][3]["end"] == ["1/128", "0", "0"]

    def test_text_summary(self, run):
        code, out, _ = run("model-green", "verify-eq3", "--n-max", "5")
        assert code == 0
        assert "6 exact confirmations" in out


class TestModelDyadic:
    def test_demo_rows_and_verdict(self, run):
        code, out, _ = run("model-dyadic", "demo-c-failure", "--n-max", "4", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "condition (c) VIOLATED"
        assert report["holds"] is False
        transported = [row["transported"]["r"] for row in report["rows"]]
        assert transported == ["1/2", "1/8", "1/32", "1/128", "1/512"]
        assert report["limits"]["chi"]["base"]["embed"] == ["0", "0", "0"]

    def test_demo_text_mentions_verdict(self, run):
        code, out, _ = run("model-dyadic", "demo-c-failure", "--n-max", "2")
        assert code == 0
        assert "condition (c) VIOLATED" in out

    def test_check_s(self, run, s_family_file):
        code, out, _ = run("model-dyadic", "check-c-on-s", "--family", s_family_file, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["outcome"] == "hypothesis-failure"

    def test_check_s_rejects_dual_files(self, run, dual_family_file):
        code, _, err = run("model-dyadic", "check-c-on-s", "--family", dual_family_file)
        assert code == 2
        assert "dual" in err


class TestModelSO3:
    def test_conj_passes(self, run):
        code, out, _ = run(
            "model-so3", "conj-test", "--trials", "50", "--seed", "1", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["seed"] == 1
        assert float(report["max_residual"]) <= 1e-10

    def test_seed_from_environment(self, run, monkeypatch):
        monkeypatch.setenv("GROUPOID_SPECTRUM_SEED", "99")
        code, out, _ = run("model-so3", "conj-test", "--trials", "5", "--json")
        assert code == 0
        assert json.loads(out)["seed"] == 99

    def test_bad_env_seed_exits_2(self, run, monkeypatch):
        monkeypatch.setenv("GROUPOID_SPECTRUM_SEED", "pi")
        code, _, err = run("model-so3", "conj-test", "--trials", "5")
        assert code == 2
        assert "must be an integer" in err

    def test_spectrum(self, run):
        code, out, _ = run("model-so3", "spectrum", "--v", "1,2,2", "--k", "3", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["invariants"]["k"] == 3
        assert report["invariants"]["norm"].startswith("3.0000")

    def test_bad_vector_exits_2(self, run):
        code, _, _ = run("model-so3", "spectrum", "--v", "1,2", "--k", "0")
        assert code == 2


class TestCheckFamily:
    def test_dual_verdict(self, run, dual_family_file):
        code, out, _ = run("check-family", dual_family_file, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["outcome"] == "verdict"
        assert report["verdict"]["holds"] is False

    def test_truncated_probe(self, run, dual_family_file):
        code, out, _ = run("check-family", dual_family_file, "--truncate", "30", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["outcome"] == "numeric-probe"
        assert report["within_tolerance"] is True

    def test_tests_flag_rejected_for_s_space(self, run, s_family_file):
        code, _, err = run("check-family", s_family_file, "--tests", "1,2")
        assert code == 2
        assert "dual" in err

    def test_malformed_family_exits_2(self, run, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"model\": \"dyadic\"}")
        code, _, err = run("check-family", str(path))
        assert code == 2
        assert "bad family file" in err

    def test_boolean_branch_exits_2(self, run, tmp_path):
        # true is a Python int; it must not pass for chart 1
        obj = json.loads(json.dumps(DUAL_FAMILY))
        obj["limits"]["chi"]["base"]["branch"] = True
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(obj))
        code, out, err = run("check-family", str(path), "--json")
        assert code == 2
        assert out == ""
        assert "must be integers" in err


class TestClosedPipe:
    def test_reader_closing_early_is_not_an_error(self, tmp_path):
        # 6,320 entries make a report far larger than a pipe buffer, so the
        # child is still writing when the reader goes away
        g = DiGraph.build(["a"], [(f"L{i:02d}", "a", "a") for i in range(80)])
        path = tmp_path / "bouquet.graph"
        path.write_text(graph_to_text(g))
        package_root = str(Path(groupoid_spectrum.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        with subprocess.Popen(
            [sys.executable, "-m", "groupoid_spectrum.cli", "graph-analyze", str(path), "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert code == EXIT_BROKEN_PIPE, err
        assert err == ""


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, run, funnel_file, dual_family_file):
        commands = [
            ("graph-analyze", funnel_file, "--json"),
            ("graph-orbits", funnel_file, "--json"),
            ("model-green", "verify-eq3", "--n-max", "8", "--json"),
            ("model-dyadic", "demo-c-failure", "--n-max", "4", "--json"),
            ("model-so3", "conj-test", "--trials", "20", "--seed", "5", "--json"),
            ("check-family", dual_family_file, "--json"),
        ]
        for argv in commands:
            first = run(*argv)
            second = run(*argv)
            assert first == second
            assert first[0] == 0
