"""Command line behavior: reports, exit codes, and determinism."""

import argparse
import json
import pkgutil
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupoid_spectrum
import helpers
from groupoid_spectrum import cli, digraph, spectrum
from groupoid_spectrum.cli import EXIT_BROKEN_PIPE, _envelope, _quote, main
from groupoid_spectrum.digraph import DiGraph, graph_to_json, graph_to_text, validate_graph
from groupoid_spectrum.exact import InputError
from groupoid_spectrum.spectrum import (
    ConditionARequired,
    check_condition_a,
    decide_hausdorff_spectrum,
    orbits,
)
from helpers import DUAL_FAMILY, S_FAMILY, child_env, run_main, strict_json


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


@pytest.fixture
def dual_family_file(tmp_path):
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(DUAL_FAMILY))
    return str(path)


@pytest.fixture
def s_family_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(S_FAMILY))
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

    def test_invalid_graph_stderr_of_orbits_and_equiv(self, run, tmp_path):
        # these commands write no report of the violations, only one error line
        path = tmp_path / "bad.graph"
        path.write_text("v a\nv b\ne l a a\n")
        for argv in (["graph-orbits", str(path)], ["graph-equiv", str(path), "--x", ":l", "--y", ":l"]):
            for fmt in ("--json", "--text"):
                assert run(*argv, fmt) == (2, "", "error: vertex 'b' has no edge with range 'b'\n")

    @pytest.mark.parametrize(
        "text", ["", "# nothing here\n\n", '{"vertices": [], "edges": []}']
    )
    def test_empty_graph_exits_2(self, run, tmp_path, text):
        path = tmp_path / "empty.graph"
        path.write_text(text)
        code, out, _ = run("graph-analyze", str(path), "--json")
        assert code == 2
        report = json.loads(out)
        assert report["validated"] is False
        assert [v["kind"] for v in report["violations"]] == ["empty-graph"]
        for argv in (("graph-orbits",), ("graph-equiv", "--x", ":e", "--y", ":e")):
            code, _, err = run(argv[0], str(path), *argv[1:])
            assert code == 2
            assert "graph has no vertices" in err

    @pytest.mark.parametrize(
        "obj",
        [
            {"vertices": "ab", "edges": [{"id": "e", "src": "a", "rng": "a"}]},
            {"vertices": ["a"], "edges": [{"id": None, "src": "a", "rng": "a"}]},
            {"vertices": ["a"], "edges": [{"id": True, "src": "a", "rng": "a"}]},
        ],
    )
    def test_json_type_coercion_exits_2(self, run, tmp_path, obj):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(obj))
        code, out, err = run("graph-analyze", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed graph JSON")

    def test_validates_once(self, run, monkeypatch, tmp_path, funnel_file):
        calls = []

        def counted(g):
            calls.append(g)
            return validate_graph(g)

        monkeypatch.setattr(digraph, "validate_graph", counted)
        monkeypatch.setattr(cli, "validate_graph", counted, raising=False)
        bad = tmp_path / "bad.graph"
        bad.write_text("v a\nv b\ne l a a\n")
        for path, expected in ((funnel_file, 0), (str(bad), 2)):
            calls.clear()
            code, _, _ = run("graph-analyze", path, "--json")
            assert code == expected
            assert len(calls) == 1

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

    def test_unreadable_file_messages(self, run, tmp_path):
        missing = str(tmp_path / "missing.graph")
        latin1 = tmp_path / "latin1.graph"
        latin1.write_bytes("v caf\xe9\n".encode("latin-1"))
        assert run("graph-analyze", missing) == (
            2, "", f"error: cannot read {missing}: [Errno 2] No such file or directory: {missing!r}\n"
        )
        assert run("graph-analyze", str(tmp_path)) == (
            2, "", f"error: cannot read {tmp_path}: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
        )
        assert run("graph-analyze", str(latin1)) == (
            2,
            "",
            f"error: cannot read {latin1}: 'utf-8' codec can't decode byte 0xe9 in position 5: "
            "invalid continuation byte\n",
        )

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


class TestReportBytes:
    """Graph reports are written in pieces; the bytes must be those of json.dumps."""

    @staticmethod
    def graphs():
        yield from helpers.corpus_slice()
        yield helpers.complete_graph(5)
        yield helpers.bouquet(30)
        # the entry-dense path at the sizes the benchmark runs
        yield helpers.complete_graph(6)
        yield helpers.complete_graph(7)
        yield helpers.bouquet(150)
        yield helpers.random_dense(3, 6)
        yield helpers.graph_two_loops_funnel()
        yield helpers.planted_separated(1)
        yield helpers.planted_separated(2, n=300, k=20, chain=60)
        yield from TestReportBytes.escaped_graphs()

    @staticmethod
    def escaped_graphs():
        """Graphs whose edge ids need JSON escaping and sort in another order once quoted.

        By id, a! < a" < a$ < a\\ < é; quoted, "\\u00e9" < "a!" < "a$" < "a\\"" <
        "a\\\\".  Edges are declared in neither order, so a rank is neither the
        place of a quoted id in sorted order nor an edge index.
        """
        # condition A fails: both loops and both 2-cycles have entries
        yield DiGraph.build(
            ["p", "q"],
            [("é", "p", "q"), ("a\\", "q", "p"), ("a$", "p", "p"), ('a"', "q", "q"), ("a!", "p", "q")],
        )
        # entry-free: a ring and a loop, and a vertex below the ring
        yield DiGraph.build(
            ["p", "q", "r", "s", "t"],
            [("é", "p", "q"), ("a\\", "q", "r"), ("a$", "r", "t"), ("a!", "r", "p"), ('a"', "s", "s")],
        )

    @staticmethod
    def analyze_reference(g: DiGraph, path: str, transpose: bool = False) -> str:
        """``graph-analyze --json`` of ``g`` read from ``path``, as json.dumps writes it."""
        verdict = decide_hausdorff_spectrum(g)
        report = _envelope("graph-analyze", input=path, transpose=transpose) | verdict.to_json()
        return json.dumps(report, indent=2) + "\n"

    @staticmethod
    def refusal_reference(g: DiGraph, path: str, transpose: bool = False) -> str:
        """``graph-orbits --json`` of ``g`` (condition A fails) read from ``path``, as json.dumps writes it."""
        report_a = check_condition_a(g)
        with pytest.raises(ConditionARequired) as refusal:
            orbits(g)
        report = _envelope(
            "graph-orbits",
            input=path,
            transpose=transpose,
            validated=True,
            refused=True,
            reason=str(refusal.value),
            entries=report_a.to_json()["entries"],
        )
        return json.dumps(report, indent=2) + "\n"

    @staticmethod
    def orbits_reference(g: DiGraph, path: str, transpose: bool = False) -> str:
        """``graph-orbits --json`` of ``g`` (condition A holds) read from ``path``, as json.dumps writes it."""
        found = [list(c.edge_ids()) for c in orbits(g)]
        report = _envelope(
            "graph-orbits", input=path, transpose=transpose, validated=True,
            refused=False, orbits=found, count=len(found),
        )
        return json.dumps(report, indent=2) + "\n"

    def test_graph_analyze_json(self, run, tmp_path):
        path = str(tmp_path / "g.graph")
        outcomes = set()
        for g in self.graphs():
            Path(path).write_text(graph_to_text(g), encoding="utf-8")
            code, out, _ = run("graph-analyze", path, "--json")
            assert code == 0
            assert out == self.analyze_reference(g, path)
            report_a = check_condition_a(g)
            outcomes.add((report_a.passed, len(report_a.cycles) > 1))
        # a validated graph with an entry has a second cycle feeding it
        assert outcomes == {(True, False), (True, True), (False, True)}

    def test_separated_graph_reports(self, run, tmp_path, monkeypatch):
        # a JSON input, a transposed run, orbits, and the text report, on one
        # graph with many condition B certificates
        g = helpers.planted_separated(3)
        verdict = decide_hausdorff_spectrum(g)
        a, b = verdict.condition_a, verdict.condition_b
        assert len(b.certificates) >= 100
        as_json = tmp_path / "g.json"
        as_json.write_text(json.dumps(graph_to_json(g)))
        reversed_text = tmp_path / "reversed.graph"
        reversed_text.write_text(graph_to_text(g.transpose()))
        assert validate_graph(g.transpose())  # only the --transpose run is valid
        for path, flags in ((as_json, []), (reversed_text, ["--transpose"])):
            code, out, _ = run("graph-analyze", str(path), "--json", *flags)
            report = _envelope("graph-analyze", input=str(path), transpose=bool(flags)) | verdict.to_json()
            assert (code, out) == (0, json.dumps(report, indent=2) + "\n"), flags
        code, out, _ = run("graph-orbits", str(as_json), "--json")
        orbits = [list(c.edge_ids()) for c in a.cycles]
        report = _envelope(
            "graph-orbits", input=str(as_json), transpose=False, validated=True,
            refused=False, orbits=orbits, count=len(orbits),
        )
        assert (code, out) == (0, json.dumps(report, indent=2) + "\n")
        text = [
            "validated: yes",
            f"condition A: PASS ({len(a.cycles)} cycles, 0 entries)",
            *(f"  cycle: {','.join(c.edge_ids())}" for c in a.cycles),
            f"condition B: PASS ({len(b.certificates)} certificates)",
            *(
                f"  pair ({','.join(c.edge_ids())} | {','.join(d.edge_ids())}): u={u} v={v}"
                for (c, d), (u, v) in zip(combinations(a.cycles, 2), b.certificates)
            ),
            f"condition C: {spectrum.CONDITION_C_NOTE}",
            "hausdorff: YES",
        ]
        assert run("graph-analyze", str(as_json)) == (0, "\n".join(text) + "\n", "")
        monkeypatch.setattr(cli, "EMIT_CHUNK", 7)  # the text report is written in many chunks
        assert run("graph-analyze", str(as_json)) == (0, "\n".join(text) + "\n", "")

    def test_refused_graph_orbits_json(self, run, tmp_path):
        path = str(tmp_path / "g.graph")
        refused = 0
        for g in self.graphs():
            if check_condition_a(g).passed:
                continue
            Path(path).write_text(graph_to_text(g), encoding="utf-8")
            code, out, _ = run("graph-orbits", path, "--json")
            assert code == 0
            assert out == self.refusal_reference(g, path)
            refused += 1
        assert refused > 100

    def test_escaped_ids_in_orbits(self, run, tmp_path):
        path = tmp_path / "g.graph"
        _, g = self.escaped_graphs()
        path.write_text(graph_to_text(g), encoding="utf-8")
        assert [c.edge_ids() for c in check_condition_a(g).cycles] == [('a"',), ("a!", "a\\", "é")]
        assert run("graph-orbits", str(path), "--json") == (0, self.orbits_reference(g, str(path)), "")

    def test_reports_read_ranks_alone(self, run, tmp_path, monkeypatch):
        # no report builds condition A's views, and a JSON report quotes each
        # ranked edge once: on an entry-free graph, only the cycle edges; on a
        # failing one, only the edges into cycle vertices
        def refuse(report):
            raise AssertionError("a report read a view of condition A")

        for name in ("cycle_edges", "run_edges", "cycles", "runs", "entries"):
            monkeypatch.setattr(spectrum.ConditionAReport, name, property(refuse))
        quoted = []
        monkeypatch.setattr(cli, "_quote", lambda text: quoted.append(text) or _quote(text))
        path = tmp_path / "g.graph"
        planted = helpers.planted_separated(1)
        # a loop with an entry and a second loop above a chain of 1,000 vertices
        chain = [f"c{i}" for i in range(1000)]
        tail = DiGraph.build(
            ["a", "b", *chain],
            [("La", "a", "a"), ("x", "b", "a"), ("Lb", "b", "b"), ("t0", "a", "c0")]
            + [(f"t{i + 1}", s, r) for i, (s, r) in enumerate(zip(chain, chain[1:]))],
        )
        # the cycles are the loops: the edges into their vertices are La, x and Lb
        into_loops = [j for j, d in enumerate(tail.dst) if tail.names[d] in ("a", "b")]
        assert sorted(check_condition_a(tail).order) == into_loops
        for g in (planted, helpers.graph_loop_with_entry(), helpers.complete_graph(4), tail):
            path.write_text(graph_to_text(g))
            for command in ("graph-analyze", "graph-orbits"):
                for flags in ([], ["--json"]):
                    quoted.clear()
                    code, out, err = run(command, str(path), *flags)
                    assert (code, err) == (0, "") and out
                    edge_quotes = sorted(t for t in quoted if t in set(g.edge_ids))
                    if flags and g is planted:
                        on_cycles = [i for ids in check_condition_a(g).cycle_ids() for i in ids]
                        assert 0 < len(on_cycles) < len(g.edge_ids) / 4
                        assert edge_quotes == sorted(on_cycles)
                    if flags and g is tail:
                        assert edge_quotes == ["La", "Lb", "x"]

    def test_entry_tails_are_shared_across_reports_and_depths(self, run, tmp_path):
        # The tail of an entries or stabilizer item is rendered once per
        # process for each cycle length and depth: graph-orbits lists the
        # entries one level higher than graph-analyze, and reports alternate.
        letters = "abc"
        graphs = [
            # cycles of lengths 1, 2 and 3, each with entries
            DiGraph.build(list(letters), [(s + r, s, r) for s in letters for r in letters]),
            helpers.graph_loop_with_entry(),
            helpers.complete_graph(3),
            helpers.bouquet(3),
        ]
        assert {len(c) for c, _ in check_condition_a(graphs[0]).runs} == {1, 2, 3}
        cli._entry_tail.cache_clear()
        path = str(tmp_path / "g.graph")
        for _ in range(2):
            for g in graphs:
                Path(path).write_text(graph_to_text(g))
                assert run("graph-orbits", path, "--json") == (0, self.refusal_reference(g, path), "")
                assert run("graph-analyze", path, "--json") == (0, self.analyze_reference(g, path), "")
        # lengths 1, 2 and 3, each with the orbits entries tail and the
        # analyze entries and stabilizer tails
        assert cli._entry_tail.cache_info().misses == 9

    def test_graph_analyze_text(self, run, tmp_path):
        # two loops and the 2-cycle between them: every cycle has entries
        path = tmp_path / "two.graph"
        path.write_text("v a\nv b\ne La a a\ne ab a b\ne ba b a\ne Lb b b\n")
        code, out, _ = run("graph-analyze", str(path))
        assert code == 0
        assert out == (
            "validated: yes\n"
            "condition A: FAIL (3 cycles, 4 entries)\n"
            "  cycle: La\n"
            "  cycle: Lb\n"
            "  cycle: ab,ba\n"
            "  entry: ba -> cycle La\n"
            "  entry: ab -> cycle Lb\n"
            "  entry: La -> cycle ab,ba\n"
            "  entry: Lb -> cycle ab,ba\n"
            "  stabilizer discontinuity: approximating periods 0, Fell limit {0} vs 1Z at the cycle\n"
            "  stabilizer discontinuity: approximating periods 0, Fell limit {0} vs 1Z at the cycle\n"
            "  stabilizer discontinuity: approximating periods 0, Fell limit {0} vs 2Z at the cycle\n"
            "  stabilizer discontinuity: approximating periods 0, Fell limit {0} vs 2Z at the cycle\n"
            "condition B: SKIPPED (condition A failed)\n"
            "condition C: automatic (stabilizer conjugation argument)\n"
            "hausdorff: NO\n"
        )

    @pytest.mark.parametrize("graph", [helpers.complete_graph(4), helpers.graph_loop_with_entry()])
    def test_entry_lines_text(self, run, tmp_path, graph):
        # reference: one line per (cycle, entry) pair, the cycle's ids joined for each
        path = tmp_path / "g.graph"
        path.write_text(graph_to_text(graph))
        report_a = check_condition_a(graph)
        assert not report_a.passed
        entry_lines = [
            f"  entry: {e.id} -> cycle {','.join(c.edge_ids())}" for c, e in report_a.entries
        ]
        analyze = [
            "validated: yes",
            f"condition A: FAIL ({len(report_a.cycles)} cycles, {len(report_a.entries)} entries)",
            *(f"  cycle: {','.join(c.edge_ids())}" for c in report_a.cycles),
            *entry_lines,
        ]
        for c, _ in report_a.entries:
            record = spectrum.stabilizer_record(len(c))
            analyze.append(
                "  stabilizer discontinuity: approximating periods 0, Fell limit "
                f"{record['approx_fell_limit']} vs {record['period_at_limit']} at the cycle"
            )
        analyze += [
            "condition B: SKIPPED (condition A failed)",
            f"condition C: {spectrum.CONDITION_C_NOTE}",
            "hausdorff: NO",
        ]
        assert run("graph-analyze", str(path)) == (0, "\n".join(analyze) + "\n", "")
        refused = [f"refused: {spectrum.ORBIT_REFUSAL}", *entry_lines]
        assert run("graph-orbits", str(path)) == (0, "\n".join(refused) + "\n", "")

    def test_reports_never_build_the_flat_entries(self, run, tmp_path, monkeypatch):
        # the CLI renders conditions A and B from edge indices alone: no view
        # of cycle and edge objects is built, the flat entries least of all
        for view in ("cycles", "runs", "entries"):
            def refuse(report, view=view):
                raise AssertionError(f"the {view} view was built")

            monkeypatch.setattr(spectrum.ConditionAReport, view, property(refuse))
        failing, separated = tmp_path / "k4.graph", tmp_path / "separated.graph"
        failing.write_text(graph_to_text(helpers.complete_graph(4)))
        separated.write_text(graph_to_text(helpers.planted_separated(1)))
        cases = [
            (failing, "graph-analyze", "entry"),
            (failing, "graph-orbits", "entry"),
            (separated, "graph-analyze", "certificates"),
            (separated, "graph-orbits", "orbits"),
        ]
        for path, command, shown in cases:
            for flags in ([], ["--json"]):
                code, out, err = run(command, str(path), *flags)
                assert (code, err) == (0, ""), (command, flags)
                assert shown in out


    def test_reports_never_build_certificate_dicts(self, run, tmp_path, monkeypatch):
        # the CLI renders condition B from the (u, v) pairs themselves
        def refuse(self):
            raise AssertionError("a condition B to_json was called")

        monkeypatch.setattr(spectrum.ConditionBReport, "to_json", refuse)
        path = tmp_path / "separated.graph"
        path.write_text(graph_to_text(helpers.planted_separated(1)))
        code, out, err = run("graph-analyze", str(path))
        assert (code, err) == (0, "")
        assert "condition B: PASS (120 certificates)" in out
        code, out, err = run("graph-analyze", str(path), "--json")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["condition_b"]["certificates"]) == 120


# ids and file names that JSON escapes: quotes, backslashes and non-ASCII
# characters, none of them whitespace or '#'
escaped_ids = st.text(st.sampled_from('ab"\\é\u2603\U0001f600'), min_size=1, max_size=3)


@st.composite
def escaped_graphs(draw) -> DiGraph:
    """Validated graphs on up to four vertices with escaped ids.

    Every vertex has one in-edge, which alone keeps condition A (a vertex
    of in-degree 1 has no entry); up to four more edges may break it.
    """
    n = draw(st.integers(1, 4))
    names = draw(st.lists(escaped_ids, min_size=n, max_size=n, unique=True))
    ends = st.integers(0, n - 1)
    arcs = [(draw(ends), v) for v in range(n)] + draw(st.lists(st.tuples(ends, ends), max_size=4))
    ids = draw(st.lists(escaped_ids, min_size=len(arcs), max_size=len(arcs), unique=True))
    return DiGraph.build(names, [(i, names[s], names[r]) for i, (s, r) in zip(ids, arcs)])


class TestGraphWriters:
    """The graph commands write their JSON reports from a fixed skeleton; the bytes are json.dumps'."""

    def test_equal_the_references(self, tmp_path):
        outcomes = set()

        @given(escaped_graphs(), escaped_ids, st.booleans())
        @settings(max_examples=150, derandomize=True, deadline=None)
        def check(g, name, transpose):
            path = str(tmp_path / name)
            # with --transpose, the file holds the reversed graph, which the run reverses back
            Path(path).write_text(graph_to_text(g.transpose() if transpose else g), encoding="utf-8")
            flags = ["--json", "--transpose"] if transpose else ["--json"]
            passed = check_condition_a(g).passed
            ref = TestReportBytes.orbits_reference if passed else TestReportBytes.refusal_reference
            assert run_main(["graph-analyze", path, *flags]) == (
                0, TestReportBytes.analyze_reference(g, path, transpose), ""
            )
            assert run_main(["graph-orbits", path, *flags]) == (0, ref(g, path, transpose), "")
            outcomes.add((passed, transpose))

        check()
        assert outcomes == {(p, t) for p in (False, True) for t in (False, True)}


class TestTextStreaming:
    def test_lines_are_written_as_they_are_generated(self, monkeypatch):
        drawn, writes = [], []

        def lines():
            for i in range(10):
                drawn.append(i)
                yield f"line {i}"

        class Out:
            encoding = None

            def write(self, text):
                writes.append((len(drawn), text))

        monkeypatch.setattr(cli, "EMIT_CHUNK", 4)
        monkeypatch.setattr(sys, "stdout", Out())
        cli._emit({}, lines(), as_json=False)
        assert [n for n, _ in writes] == [4, 8, 10]
        assert "".join(text for _, text in writes) == "".join(f"line {i}\n" for i in range(10))

    def test_graph_reports_pass_generators(self, run, monkeypatch, entry_file, funnel_file):
        kinds = []
        emit = cli._emit

        def spy(report, lines, as_json):
            kinds.append(isinstance(lines, (list, tuple)))
            emit(report, lines, as_json)

        monkeypatch.setattr(cli, "_emit", spy)
        assert run("graph-analyze", entry_file)[0] == 0
        assert run("graph-analyze", funnel_file)[0] == 0
        assert run("graph-orbits", entry_file)[0] == 0  # refused
        assert kinds == [False, False, False]


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

    def test_condition_a_runs_once(self, run, monkeypatch, funnel_file, entry_file):
        calls = []

        def counted(g):
            calls.append(g)
            return check_condition_a(g)

        monkeypatch.setattr(cli, "check_condition_a", counted)
        monkeypatch.setattr(spectrum, "check_condition_a", counted)
        for path in (entry_file, funnel_file):
            calls.clear()
            code, _, _ = run("graph-orbits", path, "--json")
            assert code == 0
            assert len(calls) == 1


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
        for literal in ("La", ":Zz", "f,g:La", ":", ",:La", "f,:La", ":La,", ":La,,La", " , :La"):
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

    @pytest.mark.parametrize("seed", ["0", "-0", " 7\n", "+3", "1_0", "٣"])
    def test_env_seed_reads_as_the_seed_option_does(self, run, monkeypatch, seed):
        monkeypatch.setenv("GROUPOID_SPECTRUM_SEED", seed)
        code, out, _ = run("model-so3", "conj-test", "--trials", "2", "--json")
        assert code == 0 and json.loads(out)["seed"] == cli._int_in(0)(seed)

    def test_spectrum(self, run):
        code, out, _ = run("model-so3", "spectrum", "--v", "1,2,2", "--k", "3", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["invariants"]["k"] == 3
        assert report["invariants"]["norm"].startswith("3.0000")

    def test_bad_vector_exits_2(self, run):
        code, _, _ = run("model-so3", "spectrum", "--v", "1,2", "--k", "0")
        assert code == 2

    @pytest.mark.parametrize("v", ["nan,1,1", "inf,1,1", "1,-inf,1", "1e400,1,1", "1e200,1e200,1e200"])
    def test_non_finite_coordinates_exit_2(self, run, v):
        # json.dumps would write NaN or Infinity, which is not JSON; the last
        # vector's norm overflows
        code, out, err = run("model-so3", "spectrum", f"--v={v}", "--k=1", "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("v", ["1e-170,1e-170,0", "1e-160,0,0", "0,-1e-320,0"])
    def test_underflowing_norm_exits_2(self, run, v):
        # |v|**2 is 0 or subnormal, so the reported |v| would be 0 or inexact
        code, out, err = run("model-so3", "spectrum", f"--v={v}", "--k=1", "--json")
        assert (code, out) == (2, "")
        assert err == (
            f"error: --v must be finite with |v|**2 zero or in the normal float range, got {v!r}\n"
        )

    def test_zero_and_small_normal_vectors_still_run(self, run):
        for v, norm in (("0,0,0", "0.000000000000e+00"), ("-0,0,0", "0.000000000000e+00"),
                        ("1e-150,0,0", "1.000000000000e-150")):
            code, out, _ = run("model-so3", "spectrum", f"--v={v}", "--k=1", "--json")
            assert code == 0
            assert strict_json(out)["invariants"]["norm"] == norm

    def test_finite_coordinates_give_strict_json(self, run):
        code, out, _ = run("model-so3", "spectrum", "--v=1e150,-0,5e-324", "--k=-2", "--json")
        assert code == 0
        assert strict_json(out)["v"] == [1e150, -0.0, 5e-324]

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_exits_2(self, run, capsys, monkeypatch, seed):
        with pytest.raises(SystemExit) as exit_info:
            run("model-so3", "conj-test", "--trials", "2", "--seed", seed)
        assert exit_info.value.code == 2
        assert "argument --seed: " in capsys.readouterr().err
        monkeypatch.setenv("GROUPOID_SPECTRUM_SEED", seed)
        code, out, err = run("model-so3", "conj-test", "--trials", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: GROUPOID_SPECTRUM_SEED must be an integer >= 0")


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


    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("gamma", "n", True),  # read as the affine constant 1
            ("chi", "r", True),  # read as the dyadic constant 1
            ("chi", "r", [1, 1.9, 0, 0]),  # exponent cut to 1
        ],
    )
    def test_coerced_sequences_exit_2(self, run, tmp_path, section, key, value):
        obj = json.loads(json.dumps(DUAL_FAMILY))
        obj[section][key] = value
        path = tmp_path / "coerced.json"
        path.write_text(json.dumps(obj))
        code, out, err = run("check-family", str(path), "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad family file: not ")

    def test_family_leaving_the_catalog_exits_2(self, run, tmp_path):
        # 2**-i + 1 transported by n = 2i+1 is no longer one dyadic sequence
        obj = json.loads(json.dumps(DUAL_FAMILY))
        obj["chi"]["r"] = [1, -1, 0, "1"]
        path = tmp_path / "two_term.json"
        path.write_text(json.dumps(obj))
        code, out, err = run("check-family", str(path), "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: family leaves the exact sequence catalog: ")
        assert err.count("\n") == 1

    def test_probe_beyond_float_range_exits_2(self, run, s_family_file):
        # 2.0**(2i+1) overflows a float once the index passes 511
        code, out, err = run("check-family", s_family_file, "--truncate", "10000000", "--json")
        assert code == 2
        assert out == ""
        assert err == "error: truncation index 10000000 is beyond the float range of the numeric probe\n"

    @pytest.mark.parametrize("index", ["600", "10000000"])
    def test_zero_family_probes_at_any_index(self, run, tmp_path, s_family_file, index):
        # the transported parameter 0 * 2**(2i+1) is 0 at every index
        obj = json.loads(Path(s_family_file).read_text())
        obj["s"]["r"] = "0"
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(obj))
        code, out, err = run("check-family", str(path), "--truncate", index, "--json")
        assert code == 0, err
        assert repr(json.loads(out)["row"]["transported_parameter"]) == "0.0"

    def test_far_probe_of_a_decaying_family_is_bounded(self, tmp_path):
        # the exact parameter 2**-i and chart height 2**-(2i+1) have billions
        # of bits here; the child's address space is capped, so a probe that
        # builds them fails instead of swapping
        obj = json.loads(json.dumps(DUAL_FAMILY))
        obj["chi"]["r"] = [1, -1, 0, 0]
        obj["limits"]["chi"]["r"] = "0"
        path = tmp_path / "decaying.json"
        path.write_text(json.dumps(obj))
        child = (
            "import resource, sys, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from groupoid_spectrum.cli import main\n"
            "start = time.perf_counter()\n"
            "code = main(sys.argv[1:])\n"
            "print(f'{time.perf_counter() - start:.3f}', file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", child, "check-family", str(path), "--truncate", "3000000000", "--json"],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert float(out.stderr) < 1.0
        row = json.loads(out.stdout)["row"]
        assert row["index"] == 3_000_000_000
        assert row["parameter"] == row["base_residual"] == row["transported_parameter"] == 0.0

    def test_negative_probe_index_exits_2(self, run, dual_family_file):
        code, _, err = run("check-family", dual_family_file, "--truncate", "-1")
        assert code == 2
        assert err == "error: truncation index must be >= 0\n"


class TestVacuousCounts:
    """A count that runs no rows or trials must not report a pass."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("model-green", "verify-eq3", "--n-max", "-3"),
            ("model-dyadic", "demo-c-failure", "--n-max", "-1"),
            ("model-so3", "conj-test", "--trials", "-5"),
            ("model-so3", "conj-test", "--trials", "0"),
        ],
    )
    def test_exits_2(self, run, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            run(*argv, "--json")
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be at least" in captured.err

    @pytest.mark.parametrize(
        "argv, limit",
        [
            (("model-green", "verify-eq3", "--n-max", "1001"), 1000),
            (("model-dyadic", "demo-c-failure", "--n-max", "100000"), 1000),
            (("model-so3", "conj-test", "--trials", "10001"), 10000),
        ],
    )
    def test_counts_above_the_limit_exit_2(self, run, capsys, argv, limit):
        # the reports grow with the counts (quadratically for --n-max), so they are bounded
        with pytest.raises(SystemExit) as exit_info:
            run(*argv, "--json")
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"must be at most {limit}, got {argv[-1]}" in captured.err

    def test_largest_counts_parse(self):
        # running them takes seconds, so only the argument types are checked, on
        # main's path and by the full parser
        for parse in (cli._parse, cli.build_parser().parse_args):
            assert parse(["model-green", "verify-eq3", "--n-max", "1000"]).n_max == 1000
            assert parse(["model-dyadic", "demo-c-failure", "--n-max", "1000"]).n_max == 1000
            assert parse(["model-so3", "conj-test", "--trials", "10000"]).trials == 10000

    def test_smallest_counts_still_run(self, run):
        code, out, _ = run("model-green", "verify-eq3", "--n-max", "0", "--json")
        assert code == 0
        assert json.loads(out)["confirmations"] == 1
        code, out, _ = run("model-so3", "conj-test", "--trials", "1", "--json")
        assert code == 0
        assert json.loads(out)["trials"] == 1


class TestTolerance:
    """``--tol`` must be finite and at least 0: inf passes anything, nan and -1 nothing."""

    @staticmethod
    def commands(family: str) -> list[list[str]]:
        return [
            ["model-so3", "conj-test", "--trials", "3"],
            ["check-family", family, "--truncate", "30"],
        ]

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_exits_2(self, run, capsys, dual_family_file, tol):
        for argv in self.commands(dual_family_file):
            with pytest.raises(SystemExit) as exit_info:
                run(*argv, "--tol", tol, "--json")
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"argument --tol: must be finite and at least 0, got '{tol}'" in captured.err

    def test_default_and_zero_still_run(self, run, dual_family_file):
        for argv in self.commands(dual_family_file):
            for tol in ([], ["--tol", "0"]):
                code, out, _ = run(*argv, *tol, "--json")
                assert code == 0
                report = strict_json(out)
                assert "pass" in report or "within_tolerance" in report


class TestHostileInputs:
    """Inputs the parsers must refuse with exit 2, not a traceback or unbounded work."""

    @pytest.mark.parametrize(
        "content",
        [
            b'{"vertices": ["a"], "edges": [], "n": ' + b"1" * 5000 + b"}",  # past the digit limit
            b'{"x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",  # nested past the recursion limit
            b"v a\xff\ne L a a\n",  # not UTF-8
        ],
        ids=["long-integer", "deep-nesting", "not-utf-8"],
    )
    def test_graph_files(self, run, tmp_path, content):
        path = tmp_path / "hostile.graph"
        path.write_bytes(content)
        code, out, err = run("graph-analyze", str(path), "--json")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("chi", "r", "1e999999999"),  # exponent notation would build a billion digits
            ("limits", "chi", {"r": "1e5000", "base": {"branch": -1, "param": 0}}),
            ("limits", "chi", {"r": [1, 2], "base": {"branch": -1, "param": 0}}),
            ("limits", "chi", {"r": True, "base": {"branch": -1, "param": 0}}),
            ("gamma", "base", {"branch": -2, "param": 0}),  # below the limit line
            ("gamma", "n", "<5000 digits>"),  # an integer past the digit limit
        ],
        ids=["exponent", "long-exponent", "list-limit", "boolean-limit", "low-branch", "long-integer"],
    )
    def test_family_files(self, run, tmp_path, section, key, value):
        obj = json.loads(json.dumps(DUAL_FAMILY))
        obj[section][key] = value
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(obj).replace('"<5000 digits>"', "1" * 5000))
        for extra in ([], ["--truncate", "0"]):
            code, out, err = run("check-family", str(path), *extra, "--json")
            assert (code, out) == (2, ""), extra
            assert err.startswith("error: bad family file: ") and err.count("\n") == 1

    def test_tests_in_exponent_notation(self, run):
        code, out, err = run("model-dyadic", "demo-c-failure", "--tests", "1e999999999")
        assert (code, out) == (2, "")
        assert err == "error: bad --tests value: not a rational: '1e999999999'\n"

    def test_tests_with_zero_denominator(self, run, tmp_path, dual_family_file):
        # the message names the text, as for a zero denominator anywhere in a family file
        family = tmp_path / "tests.json"
        family.write_text(json.dumps({**DUAL_FAMILY, "tests": ["1", "1/0"]}))
        for argv, message in (
            (["model-dyadic", "demo-c-failure", "--tests", "1/0"], "bad --tests value"),
            (["check-family", dual_family_file, "--tests", "1,1/0"], "bad --tests value"),
            (["check-family", str(family)], "bad family file: bad test value"),
        ):
            code, out, err = run(*argv)
            assert (code, out) == (2, ""), argv
            assert err == f"error: {message}: not a rational: '1/0'\n", argv

    def test_empty_tests_value_exits_2(self, run, dual_family_file, s_family_file):
        # an empty --tests names no test point; it does not ask for the defaults
        for argv in (
            ["model-dyadic", "demo-c-failure", "--tests", ""],
            ["check-family", dual_family_file, "--tests", ""],
            ["check-family", s_family_file, "--tests", ""],
        ):
            code, out, err = run(*argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv

    def test_repeated_keys(self, run, tmp_path):
        # json.loads alone keeps a repeated key's last value: the first edge
        # list, which fails condition A, and the S-space family would be dropped
        loop = '{"id": "x", "src": "a", "rng": "a"}'
        graph = tmp_path / "repeated.json"
        graph.write_text(f'{{"vertices": ["a"], "edges": [{loop}, {loop.replace("x", "y")}], "edges": [{loop}]}}')
        assert run("graph-analyze", str(graph), "--json") == (2, "", "error: invalid JSON: repeated key 'edges'\n")
        family = tmp_path / "repeated-family.json"
        family.write_text(json.dumps(S_FAMILY)[:-1] + ', "space": "dual"}')
        for argv in (["check-family", str(family)], ["model-dyadic", "check-c-on-s", "--family", str(family)]):
            assert run(*argv) == (2, "", "error: bad family file: repeated key 'space'\n"), argv

    def test_nul_in_a_path(self, run):
        code, out, err = run("graph-analyze", "g\x00.graph")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read ")


class TestLocale:
    """Non-ASCII ids under locales and streams that are not UTF-8, in child processes."""

    def child(self, argv: list[str], **env) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv],
            capture_output=True,
            env={**child_env(), **env},
            timeout=60,
        )

    def test_files_are_read_as_utf8_on_any_locale(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("v café\nv b\ne x café café\ne y b b\n", encoding="utf-8")
        out = self.child(
            ["-X", "utf8=0", "-m", "groupoid_spectrum.cli", "graph-analyze", str(path), "--json"],
            LC_ALL="C",
            PYTHONUTF8="0",
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.isascii()
        (cert,) = json.loads(out.stdout)["condition_b"]["certificates"]
        assert (cert["u"], cert["v"]) == ("café", "b")

    def test_text_reports_escape_what_stdout_cannot_encode(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": ["café", "b"],
                    "edges": [{"id": "x", "src": "café", "rng": "café"}, {"id": "y", "src": "b", "rng": "b"}],
                }
            )
        )
        command = ["-m", "groupoid_spectrum.cli", "graph-analyze", str(path)]
        out = self.child(command, PYTHONIOENCODING="ascii")
        assert (out.returncode, out.stderr) == (0, b"")
        assert b"  pair (x | y): u=caf\\xe9 v=b\n" in out.stdout
        # --json is ASCII already, so its bytes are the in-process ones
        as_json = self.child([*command, "--json"], PYTHONIOENCODING="ascii")
        assert (as_json.returncode, as_json.stdout) == (0, run_main(command[2:] + ["--json"])[1].encode())


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of an input file is dropped, not parsed."""

    @pytest.mark.parametrize(
        "command, name, text",
        [
            (["graph-analyze"], "g.graph", graph_to_text(helpers.graph_loop_with_entry())),
            (["graph-analyze"], "g.json", json.dumps(graph_to_json(helpers.graph_loop_with_entry()))),
            (["check-family"], "f.json", json.dumps(DUAL_FAMILY)),
        ],
        ids=["line-graph", "json-graph", "family"],
    )
    def test_report_equals_the_one_without(self, run, tmp_path, command, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        plain = run(*command, str(path), "--json")
        assert plain[0] == 0, plain[2]
        path.write_text(text, encoding="utf-8-sig")
        assert run(*command, str(path), "--json") == plain

    @pytest.mark.parametrize("command", [["graph-analyze"], ["check-family"]])
    @pytest.mark.parametrize(
        "content, undecoded",
        [(b"\xef", "byte 0xef in position 0"), (b"\xef\xbb", "bytes in position 0-1")],
        ids=["one-byte", "two-bytes"],
    )
    def test_cut_off_mark_is_a_decode_error(self, run, tmp_path, command, content, undecoded):
        # as every other cut-off sequence is, not an empty file
        path = tmp_path / "cut"
        path.write_bytes(content)
        message = f"'utf-8' codec can't decode {undecoded}: unexpected end of data"
        assert run(*command, str(path)) == (2, "", f"error: cannot read {path}: {message}\n")


def text_mode_read(path: str) -> str:
    """The file read in text mode: the reference for every input but a cut-off byte-order mark."""
    try:
        with open(path, encoding="utf-8-sig") as file:
            return file.read()
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


class TestReadInput:
    """Input files are read as bytes and decoded whole, with the messages and text of a text-mode read."""

    GRAPH = "v a\nv b\ne La a a\ne f a b\ne Lb b b\n"
    FAMILY = json.dumps(DUAL_FAMILY, indent=1)

    @pytest.mark.parametrize(
        "content",
        [
            GRAPH.encode(),
            b"\xef\xbb\xbf" + GRAPH.encode(),
            GRAPH.replace("\n", "\r\n").encode(),
            GRAPH.replace("\n", "\r").encode(),
            b"v a\r\nv b\re La a a\ne f a b\r\r\ne Lb b b\r",  # mixed, a blank line, a lone \r at the end
            b"v a\r\nv b\r\nx bad\r\n",  # a parse error's line number
            b"v a\rv b\re L a\r",
            FAMILY.encode(),
            b"\xef\xbb\xbf" + FAMILY.replace("\n", "\r\n").encode(),
            FAMILY.replace("\n", "\r")[:-40].encode(),  # a JSON error's line and column
            b'{"vertices": ["a"],\r\n "edges": [}',
            b"v a\n\xff\n",  # invalid UTF-8
            b"\xef\xbb\xbfv a\n\xffv b\n",  # its position counts from after the mark
            b"# " + b"x" * 10_000 + b"\n\xe2\x82",  # cut off at the end, past the first 8 KiB
            b"\xef\xbbv a\n",
            b"\xef\xbb\xbf",
            b"",
        ],
        ids=[
            "graph", "bom", "crlf", "cr", "mixed", "crlf-line-error", "cr-line-error", "family",
            "bom-crlf-family", "cr-json-error", "crlf-json-error", "not-utf-8", "bom-not-utf-8",
            "cut-off-tail", "broken-mark", "mark-only", "empty",
        ],
    )
    @pytest.mark.parametrize("command", [["graph-analyze"], ["check-family"]])
    def test_matches_a_text_mode_read(self, run, monkeypatch, tmp_path, command, content):
        path = tmp_path / "input"
        path.write_bytes(content)
        got = run(*command, str(path), "--json")
        monkeypatch.setattr(cli, "_read_text", text_mode_read)
        assert got == run(*command, str(path), "--json")

    @pytest.mark.parametrize("name", ["missing", ".", "nul\x00"])
    def test_unreadable_paths_match_a_text_mode_read(self, run, monkeypatch, tmp_path, name):
        path = str(tmp_path / name)
        got = run("graph-analyze", path)
        assert got[:2] == (2, "") and got[2].startswith(f"error: cannot read {path}: ")
        monkeypatch.setattr(cli, "_read_text", text_mode_read)
        assert got == run("graph-analyze", path)


class TestNumpyStaysOut:
    """Only ``model-so3 conj-test`` imports numpy; every other command starts without it."""

    CHILD = (
        "import contextlib, io, json, sys\n"
        "from groupoid_spectrum.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print('numpy' in sys.modules)\n"
        "main(['model-so3', 'conj-test', '--trials', '20', '--seed', '5'])\n"
        "print('numpy' in sys.modules)\n"
    )

    def test_only_model_so3_loads_numpy(self, funnel_file, dual_family_file, s_family_file):
        commands = [
            ["graph-analyze", funnel_file, "--json"],
            ["graph-analyze", funnel_file],
            ["graph-orbits", funnel_file, "--json"],
            ["graph-equiv", funnel_file, "--x", "f:La", "--y", ":La", "--json"],
            ["model-green", "verify-eq3", "--n-max", "8", "--json"],
            ["model-dyadic", "demo-c-failure", "--n-max", "4", "--json"],
            ["model-dyadic", "check-c-on-s", "--family", s_family_file, "--json"],
            ["check-family", dual_family_file, "--json"],
            ["check-family", dual_family_file, "--truncate", "30", "--json"],
            ["model-so3", "spectrum", "--v", "1,2,2", "--k", "3", "--json"],
        ]
        out = subprocess.run(
            [sys.executable, "-c", self.CHILD, json.dumps(commands)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        # the seeded conj-test bytes are the ones numpy printed when it was
        # imported with the package
        assert out.stdout == (
            "False\n"
            "trials: 20 (seed 5)\n"
            "max conjugation residual: 6.661e-16\n"
            "max orbit invariant residual: 4.441e-16\n"
            "integer index preserved: yes\n"
            "PASS (tolerance 1.000e-10)\n"
            "True\n"
        )


class TestImportsPerCommand:
    """Each command loads only the package modules it runs, in a child interpreter.

    No command loads ``dataclasses``, which with ``inspect`` cost a fresh
    process about 20 ms; ``inspect`` comes only with numpy, which
    ``model-so3 conj-test`` loads.  No plain call loads ``argparse`` or the
    ``gettext`` and ``locale`` it brings (about 5 ms of a fresh process);
    ``--help`` afterwards, in the same process, still prints the full help.
    Only the commands that compute with rationals load ``exact`` and the
    ``fractions``, ``decimal`` and ``numbers`` modules behind it; the graph
    commands read their Fell limits from ``spectrum``.
    """

    WATCHED = ("numpy", "dataclasses", "inspect", "argparse", "gettext", "locale", "fractions", "decimal", "numbers")
    RATIONAL = {"exact", "fractions", "decimal", "numbers"}  # the rational catalog and what it loads

    CHILD = (
        "import contextlib, io, json, sys\n"
        "from groupoid_spectrum.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(json.dumps(sorted(name.rpartition('.')[2] for name in sys.modules\n"
        f"                        if name in {WATCHED!r}\n"
        "                        or name.startswith('groupoid_spectrum.'))))\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code)\n"
    )

    @staticmethod
    def child(*args: str) -> str:
        out = subprocess.run(
            [sys.executable, "-c", *args], capture_output=True, text=True, env=child_env(), timeout=120
        )
        assert out.returncode == 0, out.stderr
        return out.stdout

    @staticmethod
    def families(funnel_file, entry_file, dual_family_file, s_family_file) -> dict:
        """Per family of commands: the calls, the modules they load, and modules they must not load."""
        exact_model_commands = [
            ["model-green", "verify-eq3", "--n-max", "8", "--json"],
            ["model-dyadic", "demo-c-failure", "--n-max", "4"],
            ["model-dyadic", "check-c-on-s", "--family", s_family_file, "--json"],
            ["check-family", dual_family_file, "--json"],
            ["check-family", dual_family_file, "--tests", "1,1/3", "--truncate", "30"],
        ]
        return {
            "graph": (
                [
                    ["graph-analyze", funnel_file, "--json"],
                    ["graph-analyze", entry_file, "--json"],  # condition A fails
                    ["graph-analyze", entry_file],
                    ["graph-orbits", funnel_file, "--json"],
                    ["graph-orbits", entry_file],  # refused
                    ["graph-equiv", funnel_file, "--x", "f:La", "--y", ":La", "--json"],
                ],
                {"digraph", "spectrum"},
                {"convergence", "models", "oracle", "numpy", "dataclasses", "inspect", *TestImportsPerCommand.RATIONAL},
            ),
            "model": (
                [
                    *exact_model_commands,
                    ["model-so3", "spectrum", "--v", "1,2,2", "--k", "3", "--json"],
                    ["model-so3", "conj-test", "--trials", "5", "--json"],
                ],
                {"convergence", "models", "numpy", *TestImportsPerCommand.RATIONAL},
                {"digraph", "spectrum", "oracle", "_kernels", "dataclasses"},
            ),
            # numpy imports inspect, so only the commands without it can show inspect unloaded
            "exact-model": (
                exact_model_commands,
                {"convergence", "models", *TestImportsPerCommand.RATIONAL},
                {"digraph", "spectrum", "oracle", "_kernels", "numpy", "dataclasses", "inspect"},
            ),
        }

    @pytest.mark.parametrize("family", ["graph", "model", "exact-model"])
    def test_commands_load_only_their_modules(
        self, monkeypatch, family, funnel_file, entry_file, dual_family_file, s_family_file
    ):
        monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to the terminal width
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        commands, used, unused = self.families(funnel_file, entry_file, dual_family_file, s_family_file)[family]
        modules, help_text = self.child(self.CHILD, json.dumps(commands)).split("\n", 1)
        loaded = set(json.loads(modules))
        assert used <= loaded and not loaded & (unused | {"argparse", "gettext", "locale"}), loaded
        assert help_text == cli.build_parser().format_help() + "0\n"

    def test_seed_from_the_environment_loads_no_argparse(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "3")
        commands = [["model-so3", "conj-test", "--trials", "2", "--json"], ["model-so3", "conj-test"]]
        modules, _ = self.child(self.CHILD, json.dumps(commands)).split("\n", 1)
        assert not set(json.loads(modules)) & {"argparse", "gettext", "locale"}

    def test_every_package_module_is_loaded_by_some_command(
        self, monkeypatch, funnel_file, entry_file, dual_family_file, s_family_file
    ):
        # so code only the tests use (a reference, a generator) lives under tests/;
        # modules are read from sys.modules, which, unlike the standard
        # library's trace, also lists __init__ files such as _kernels'
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
        families = self.families(funnel_file, entry_file, dual_family_file, s_family_file).values()
        commands = [argv for calls, _, _ in families for argv in calls]
        modules, _ = self.child(self.CHILD, json.dumps(commands)).split("\n", 1)
        loaded = set(json.loads(modules)) - set(self.WATCHED)
        assert loaded == {module.name for module in pkgutil.iter_modules(groupoid_spectrum.__path__)}

    def test_cli_import_loads_no_rational_catalog(self):
        code = (
            "import sys, groupoid_spectrum.cli\n"
            f"print(sorted(m for m in sys.modules if m in {self.WATCHED!r} or m.startswith('groupoid_spectrum')))"
        )
        assert self.child(code) == "['groupoid_spectrum', 'groupoid_spectrum.cli']\n"

    def test_package_import_loads_no_submodule(self):
        code = "import sys, groupoid_spectrum\nprint([m for m in sys.modules if m.startswith('groupoid_spectrum.')])"
        assert self.child(code) == "[]\n"

    def test_exports_resolve_to_their_home_modules(self):
        # every lazy export is the object its home module defines, through
        # attribute access and through import *
        code = (
            "import importlib, groupoid_spectrum\n"
            "from groupoid_spectrum import *\n"
            "homes = groupoid_spectrum._EXPORTS\n"
            "assert groupoid_spectrum.__all__ == ['__version__', *homes]\n"
            "for name, module in homes.items():\n"
            "    home = importlib.import_module('groupoid_spectrum.' + module)\n"
            "    value = getattr(home, name)\n"
            "    assert globals()[name] is value is getattr(groupoid_spectrum, name), name\n"
            "    assert getattr(value, '__module__', home.__name__) == home.__name__, name\n"
            "print(len(homes))\n"
        )
        assert int(self.child(code)) == 47


class TestParserReuse:
    """``main`` reads plain calls from the command table and builds the full parser at most once per process.

    Reuse must not change any output: each call matches a fresh process.
    """

    def test_interleaved_calls_match_fresh_processes(
        self, monkeypatch, funnel_file, entry_file, dual_family_file
    ):
        monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to the terminal width
        calls = [
            ["graph-analyze", funnel_file, "--json"],
            ["graph-orbits", entry_file, "--json"],  # refused
            ["--help"],
            ["graph-analyze", entry_file],
            ["check-family", dual_family_file, "--json"],
            ["no-such-command"],
            ["graph-analyze"],  # missing positional
            ["model-green", "verify-eq3", "--n-max", "-3"],
            ["graph-analyze", funnel_file, "--json"],
            # one call per group of bound modules, interleaved
            ["model-green", "verify-eq3", "--n-max", "4", "--json"],
            ["graph-equiv", funnel_file, "--x", "f:La", "--y", ":La"],
            ["model-so3", "spectrum", "--v", "1,2,2", "--k", "3"],
            ["model-dyadic", "demo-c-failure", "--n-max", "3", "--json"],
        ]
        seen = []
        for argv in calls:
            code, out, err = run_main(argv)
            child = subprocess.run(
                [sys.executable, "-m", "groupoid_spectrum.cli", *argv],
                capture_output=True,
                text=True,
                env=child_env(),
                timeout=60,
            )
            assert (code, out, err) == (child.returncode, child.stdout, child.stderr), argv
            seen.append((code, bool(out), err[:6]))
        assert seen[2] == (0, True, "")  # help on stdout
        assert seen[5] == seen[6] == (2, False, "usage:")
        assert seen[7] == (2, False, "usage:")
        assert cli.build_parser() is cli.build_parser()

    def test_hook_set_before_the_first_call_is_called(self, funnel_file):
        # nothing is bound yet in the child, so binding must keep the hook
        code = (
            "import contextlib, io, sys\n"
            "from groupoid_spectrum import cli, digraph\n"
            "calls = []\n"
            "def hook(text):\n"
            "    calls.append(text)\n"
            "    return digraph.parse_graph(text)\n"
            "cli.parse_graph = hook\n"
            "for _ in range(2):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(['graph-analyze', sys.argv[1], '--json']) == 0\n"
            "print(len(calls), cli.parse_graph is hook)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, funnel_file], capture_output=True, text=True, env=child_env(), timeout=60
        )
        assert (out.returncode, out.stdout) == (0, "2 True\n"), out.stderr


def subparsers(parser: argparse.ArgumentParser) -> dict:
    """The parsers of ``parser``'s subcommands by name, or an empty dict."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


class TestDispatch:
    """A call in plain form is read from the command table (``cli._read_plain``); any other goes to argparse.

    The reference is the full parser: ``build_parser().parse_args`` and then
    the handler (``helpers.run_full_parser``).  ``tests/test_fuzz.py``
    compares the two on generated argument vectors.
    """

    def test_hand_picked_argvs_match_the_full_parser(self, monkeypatch, funnel_file):
        monkeypatch.setenv("COLUMNS", "80")
        spectrum = ["model-so3", "spectrum", "--v", "1,2,2"]
        calls = [
            [],
            ["--help"],
            ["graph-analyze", "-h"],
            ["graph-analyze", funnel_file, "--help"],
            ["graph-analyze", funnel_file, "--json", "-h"],  # help after a valid call
            ["model-green", "verify-eq3", "-h"],
            ["--", "graph-analyze", funnel_file],
            ["-x", "graph-analyze", funnel_file],
            ["no-such-command"],
            ["graph-analyzeX", funnel_file],
            ["model-green"],
            ["model-green", "no-such-verb"],
            ["model-green", "--json", "verify-eq3"],
            ["model-green", "verify-eq3", "--n-max", "2", "extra", "--nope"],
            ["model-green", "verify-eq3", "--n-max", "2", "--n-max", "3"],  # a repeated option
            ["model-so3", "spectrum", "--v", "1,2,2", "--k", "3", "--", "x"],
            [*spectrum, "--k", "-3"],  # a value starting with "-", without "="
            [*spectrum, "--k=-3"],
            ["model-so3", "spectrum", "--v=1,-2,3", "--k", "3"],
            ["graph-orbits", funnel_file, "extra"],
            ["graph-analyze", funnel_file, "--json", "--text"],
            ["graph-analyze", funnel_file, "--json=1"],
            ["graph-analyze", funnel_file, "--tr", "--js"],  # abbreviated options
            ["graph-analyze", "--", funnel_file],
            ["graph-analyze", "--json"],  # a missing positional
            ["graph-equiv", funnel_file, "--x", "-f:La", "--y", ":La"],  # reads as an option, not a value
            ["graph-analyze", ""],  # an empty positional
            ["graph-analyze", "-1"],  # a positional that reads as a negative number
            ["graph-equiv", funnel_file, "--x", "f:La", "--y", ":La"],
            ["graph-equiv", funnel_file, "--x=f:La", "--y=", "--transpose"],
            ["graph-equiv", funnel_file, "--x=--", "--y", ":La"],  # argparse reads "--" as no value
            ["check-family", funnel_file, "--tol", "inf"],
        ]
        for argv in calls:
            assert run_main(argv) == helpers.run_full_parser(argv), argv
        # plain calls are read from the table, with the full parser's namespace
        for argv in (
            [*spectrum, "--k=-3"],
            ["graph-analyze", ""],
            ["graph-equiv", funnel_file, "--x=f:La", "--y=", "--transpose"],
        ):
            assert vars(cli._read_plain(argv)) == vars(cli.build_parser().parse_args(argv)), argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["model-dyadic", "demo-c-failure", "--tests=--"],
            ["check-family", "FAMILY", "--tests=--"],
            ["model-so3", "spectrum", "--v=--", "--k", "1"],
            ["model-dyadic", "check-c-on-s", "--family=--"],
            ["model-green", "verify-eq3", "--n-max=--"],
            ["model-so3", "conj-test", "--trials=--"],
            ["model-so3", "conj-test", "--tol=--"],
            ["model-so3", "spectrum", "--v=1,2,3", "--k=--"],
            ["check-family", "FAMILY", "--truncate=--"],
            ["check-family", "FAMILY", "--tol=--", "--truncate", "3"],
            ["model-so3", "conj-test", "--seed=--", "--trials", "1"],  # ran, reporting "seed": []
        ],
        ids=" ".join,
    )
    def test_double_dash_value_exits_2(self, dual_family_file, argv):
        # argparse stores [] for "--opt=--" and calls no type function on it
        argv = [dual_family_file if arg == "FAMILY" else arg for arg in argv]
        code, out, err = run_main(argv)
        assert (code, out) == (2, ""), argv
        assert err.splitlines()[-1].startswith(f"{cli.PROG}: error: argument --")
        assert "Traceback" not in err

    def test_every_argument_has_help(self):
        # walks the full tree: each command and verb of the table is a
        # parser, and each of its arguments and subcommands has a help line
        parsers = [cli.build_parser()]
        seen = []
        for parser in parsers:
            seen.append(parser.prog)
            for action in parser._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                if isinstance(action, argparse._SubParsersAction):
                    assert all(choice.help for choice in action._choices_actions), parser.prog
                    parsers += action.choices.values()
                else:
                    assert action.help, (parser.prog, action.dest)
        assert list(subparsers(parsers[0])) == list(cli._COMMANDS)
        assert len(seen) == 13  # the top level, 7 commands and 5 nested verbs

    def test_full_parser_is_built_only_for_help_and_errors(self, funnel_file):
        code = (
            "import contextlib, io, sys\n"
            "from groupoid_spectrum import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['graph-analyze', sys.argv[1], '--json']) == 0\n"
            "print(cli.build_parser.cache_info().currsize)\n"
            "with contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            "        cli.main(['no-such-command'])\n"
            "    except SystemExit as exc:\n"
            "        print(exc.code)\n"
            "print(cli.build_parser.cache_info().currsize)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, funnel_file], capture_output=True, text=True, env=child_env(), timeout=60
        )
        assert (out.returncode, out.stdout) == (0, "0\n2\n1\n"), out.stderr


class TestReadmeSynopsis:
    def test_each_command_line_names_its_options(self):
        # each synopsis line of the README's sh blocks names exactly the options
        # of its leaf of the command table, [--json] standing for the output pair
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
        lines = [line.split() for block in blocks for line in block.splitlines() if line.startswith(cli.PROG + " ")]
        documented = {}
        for words in lines:
            nested = type(cli._COMMANDS[words[1]][1]) is dict
            options = {word.strip("[]") for word in words if word.strip("[]").startswith("--")}
            documented[words[1], words[2] if nested else None] = options
        leaves = {}
        for command, (_, spec) in cli._COMMANDS.items():
            verbs = {verb: leaf for verb, (_, leaf) in spec.items()} if type(spec) is dict else {None: spec}
            for verb, (_, _, options) in verbs.items():
                leaves[command, verb] = set(options) - {"--text"}
        assert len(documented) == len(lines)
        assert documented == leaves


class TestClosedPipe:
    def test_reader_closing_early_is_not_an_error(self, tmp_path):
        # 6,320 entries make a report far larger than a pipe buffer, so the
        # child is still writing when the reader goes away
        g = DiGraph.build(["a"], [(f"L{i:02d}", "a", "a") for i in range(80)])
        path = tmp_path / "bouquet.graph"
        path.write_text(graph_to_text(g))
        with subprocess.Popen(
            [sys.executable, "-m", "groupoid_spectrum.cli", "graph-analyze", str(path), "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
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
