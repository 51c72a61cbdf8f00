"""Graph parsing, validation, reachability, and cycle/entry analysis."""

import json
import random
import tracemalloc
from collections import Counter
from datetime import timedelta
from itertools import chain
from math import comb, factorial
from operator import attrgetter
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from corpus import enumerate_validated_simple, random_corpus
from groupoid_spectrum import _kernels, digraph
from groupoid_spectrum.digraph import (
    CycleRep,
    DiGraph,
    Edge,
    GraphParseError,
    InvalidGraphError,
    entry_free_cycles,
    graph_to_json,
    graph_to_text,
    parse_graph,
    parse_graph_json,
    parse_graph_text,
    require_validated,
    validate_graph,
)
from groupoid_spectrum.spectrum import check_condition_a
from oracle import naive_entries, naive_reach_sets, naive_simple_cycles

G3_TEXT = """\
# two loops feeding a common sink
v a
v b
v t

e La a a
e Lb b b
e f a t  # entry-free: t is off every cycle
e g b t
"""


# derandomized, so the suite runs the same examples every time
FORMATS = settings(max_examples=100, deadline=timedelta(seconds=2), derandomize=True)


def small_corpus():
    yield from enumerate_validated_simple(2, 4)
    yield from enumerate_validated_simple(3, 9)
    yield from random_corpus(150, seed=7, max_vertices=6)


class TestParsing:
    def test_text_format(self):
        g = parse_graph_text(G3_TEXT)
        assert g == helpers.graph_two_loops_funnel()

    def test_text_errors_carry_line_numbers(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph_text("v a\nq foo\n")
        assert exc.value.line == 2
        assert "unknown record" in str(exc.value)
        with pytest.raises(GraphParseError) as exc:
            parse_graph_text("v\n")
        assert exc.value.line == 1
        with pytest.raises(GraphParseError) as exc:
            parse_graph_text("v a\n\ne La a\n")
        assert exc.value.line == 3

    def test_line_numbers_count_only_line_breaks(self):
        # \f and the other splitlines separators still end a record, but not a line
        text = "v a\fv b\ne x a a\ne y a b\nbogus\n"
        with pytest.raises(GraphParseError, match="^line 4: unknown record 'bogus'$") as exc:
            parse_graph_text(text)
        assert exc.value.line == 4
        for sep in ("\v", "\x1c", "\x85", "\u2028", "\u2029"):
            with pytest.raises(GraphParseError) as exc:
                parse_graph_text(text.replace("\f", sep))
            assert exc.value.line == 4, repr(sep)
        with pytest.raises(GraphParseError) as exc:
            parse_graph_text("v a\r\nv b\rbogus\n")
        assert exc.value.line == 3

    def test_bad_record_after_a_break_or_repeated(self):
        # the line of the first bad record, not of a record it is part of
        cases = [
            ("v a\vbogus\nv b\n", 1, "unknown record 'bogus'"),
            ("v a\n\x85v a b\nv c\n", 2, "expected 'v <id>', got 'v a b'"),
            ("v a\r\nv b\r\n\r\ne x a\r\n", 4, "expected 'e <id> <src> <rng>', got 'e x a'"),
            ("v a\nbogus\nv b\nbogus\n", 2, "unknown record 'bogus'"),
            ("e x a b\ne x a\n", 2, "expected 'e <id> <src> <rng>', got 'e x a'"),
            ("v a\x85v a b # c\nv a b # c\n", 1, "expected 'v <id>', got 'v a b # c'"),
        ]
        for text, line, message in cases:
            with pytest.raises(GraphParseError) as exc:
                parse_graph_text(text)
            assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}"), repr(text)

    def test_crlf_and_cr_line_breaks(self):
        g = helpers.graph_two_loops_funnel()
        for newline in ("\r\n", "\r"):
            assert parse_graph_text(G3_TEXT.replace("\n", newline)) == g
        assert parse_graph_text(G3_TEXT.replace("v b\nv t\n", "v b\fv t\n")) == g

    def test_json_format(self):
        g = helpers.graph_two_loops_funnel()
        assert parse_graph_json(graph_to_json(g)) == g

    def test_json_errors(self):
        with pytest.raises(GraphParseError):
            parse_graph_json(["not", "an", "object"])
        with pytest.raises(GraphParseError):
            parse_graph_json({"vertices": ["a"], "edges": [{"id": "e"}]})

    @pytest.mark.parametrize(
        "text, key",
        [
            # read with the last value alone, the graph would pass condition A
            ('{"vertices": ["a"], "edges": [{"id": "x", "src": "a", "rng": "a"}, '
             '{"id": "y", "src": "a", "rng": "a"}], "edges": [{"id": "x", "src": "a", "rng": "a"}]}', "edges"),
            ('{"vertices": ["a"], "edges": [{"id": "x", "src": "a", "rng": "b", "rng": "a"}]}', "rng"),
        ],
        ids=["top-level", "in-an-edge"],
    )
    def test_json_repeated_keys(self, text, key):
        with pytest.raises(GraphParseError, match=f"^invalid JSON: repeated key '{key}'$"):
            parse_graph(text)

    @pytest.mark.parametrize(
        "obj",
        [
            {"vertices": "ab", "edges": []},
            {"vertices": ["a"], "edges": {"id": "e", "src": "a", "rng": "a"}},
            {"vertices": ["a"], "edges": [["e", "a", "a"]]},
            {"vertices": ["a"], "edges": [{"id": None, "src": "a", "rng": "a"}]},
            {"vertices": ["a"], "edges": [{"id": True, "src": "a", "rng": "a"}]},
            {"vertices": [1], "edges": [{"id": "e", "src": "1", "rng": "1"}]},
            {"vertices": ["a"], "edges": [{"id": "e", "src": "a", "rng": 0}]},
            {"vertices": [""], "edges": [{"id": "e", "src": "", "rng": ""}]},
            {"vertices": ["a b"], "edges": [{"id": "e", "src": "a b", "rng": "a b"}]},
            {"vertices": ["a"], "edges": [{"id": "e#1", "src": "a", "rng": "a"}]},
        ],
        ids=[
            "vertices-string", "edges-object", "edge-list", "id-null", "id-true",
            "vertex-number", "rng-number", "empty-id", "whitespace-id", "hash-id",
        ],
    )
    def test_json_ids_are_text_format_strings(self, obj):
        with pytest.raises(GraphParseError, match="malformed graph JSON"):
            parse_graph_json(obj)

    @pytest.mark.parametrize(
        "vertices,edges,where",
        [
            (["a#x", "b"], [("e", "a#x", "b"), ("f", "b", "a#x")], "vertex 0"),
            (["a", "b c"], [("e", "a", "a")], "vertex 1"),
            (["a", ""], [("e", "a", "a")], "vertex 1"),
            (["a"], [("e", "a", "a"), ("f g", "a", "a")], "edge 1 'id'"),
            (["a"], [("e", "a#", "a")], "edge 0 'src'"),
            (["a"], [("e", "a", "")], "edge 0 'rng'"),
            ([1], [], "vertex 0"),
        ],
    )
    def test_build_takes_only_ids_both_formats_hold(self, vertices, edges, where):
        obj = {"vertices": vertices, "edges": [dict(zip(("id", "src", "rng"), e)) for e in edges]}
        with pytest.raises(GraphParseError) as from_json:
            parse_graph_json(obj)
        with pytest.raises(GraphParseError) as built:
            DiGraph.build(vertices, edges)
        assert str(built.value) == str(from_json.value)
        assert f"{where} must be a nonempty string" in str(built.value)

    @FORMATS
    @given(st.data())
    def test_built_graphs_survive_both_formats(self, data):
        ids = st.text(min_size=1, max_size=4).filter(lambda s: s.split() == [s] and "#" not in s)
        vertices = data.draw(st.lists(ids, max_size=4))
        endpoint = ids if not vertices else st.one_of(st.sampled_from(vertices), ids)
        edges = data.draw(st.lists(st.tuples(ids, endpoint, endpoint), max_size=5))
        g = DiGraph.build(vertices, edges)
        assert parse_graph(graph_to_text(g)) == g
        assert parse_graph(json.dumps(graph_to_json(g))) == g
        assert [(e.id, e.src, e.rng) for e in g.edges] == edges

    def test_sniffing(self):
        g = helpers.graph_two_loops_funnel()
        assert parse_graph(graph_to_text(g)) == g
        assert parse_graph(json.dumps(graph_to_json(g))) == g
        with pytest.raises(GraphParseError):
            parse_graph("{not json")

    def test_text_roundtrip(self):
        for g in list(small_corpus())[:40]:
            assert parse_graph(graph_to_text(g)) == g


class TestValidation:
    def test_valid_graph(self):
        assert validate_graph(helpers.graph_two_loops_funnel()) == []

    def test_duplicate_ids(self):
        g = DiGraph.build(["a", "a"], [("e", "a", "a"), ("e", "a", "a")])
        kinds = [v.kind for v in validate_graph(g)]
        assert "duplicate-vertex" in kinds
        assert "duplicate-edge" in kinds

    def test_undeclared_endpoint(self):
        g = DiGraph.build(["a"], [("e", "a", "zz"), ("l", "a", "a")])
        kinds = {v.kind for v in validate_graph(g)}
        assert "undeclared-endpoint" in kinds

    def test_no_range_edge(self):
        g = DiGraph.build(["a", "b"], [("l", "a", "a"), ("f", "b", "a")])
        violations = validate_graph(g)
        assert [v.kind for v in violations] == ["no-range-edge"]
        assert violations[0].subject == "b"

    def test_empty_graph_is_a_violation(self):
        for g in (DiGraph.build([], []), DiGraph.build([], [("e", "a", "a")])):
            violations = validate_graph(g)
            assert violations[0].kind == "empty-graph"
            with pytest.raises(InvalidGraphError):
                require_validated(g)

    def test_require_validated_raises(self):
        g = DiGraph.build(["a", "b"], [("l", "a", "a")])
        with pytest.raises(InvalidGraphError) as exc:
            require_validated(g)
        assert exc.value.violations
        require_validated(helpers.graph_single_loop())


    def test_every_kind_in_order(self, tmp_path):
        # a duplicate vertex, a duplicate edge, an edge with both ends
        # undeclared, and vertices with no range edge (one of them repeated)
        text = "v b\nv a\nv d\nv a\nv c\nv d\ne l a a\ne m a b\ne m b b\ne x zz yy\ne y c a\n"
        expected = [
            ("duplicate-vertex", "a", "vertex id 'a' declared twice"),
            ("duplicate-vertex", "d", "vertex id 'd' declared twice"),
            ("duplicate-edge", "m", "edge id 'm' declared twice"),
            ("undeclared-endpoint", "x", "edge 'x' has src 'zz' which is not a declared vertex"),
            ("undeclared-endpoint", "x", "edge 'x' has rng 'yy' which is not a declared vertex"),
            ("no-range-edge", "d", "vertex 'd' has no edge with range 'd'"),
            ("no-range-edge", "c", "vertex 'c' has no edge with range 'c'"),
            ("no-range-edge", "d", "vertex 'd' has no edge with range 'd'"),
        ]
        violations = validate_graph(parse_graph_text(text))
        assert [(v.kind, v.subject, v.detail) for v in violations] == expected
        path = tmp_path / "bad.graph"
        path.write_text(text)
        code, out, _ = helpers.run_main(["graph-analyze", str(path), "--json"])
        assert code == 2
        assert json.loads(out)["violations"] == [
            {"kind": kind, "subject": subject, "detail": detail} for kind, subject, detail in expected
        ]


class TestTranspose:
    def test_reverses_edges(self):
        g = helpers.graph_two_loops_funnel()
        t = g.transpose()
        assert t.edge_by_id["f"] == Edge("f", "t", "a")
        assert t.transpose() == g


class TestEdgeView:
    def test_decision_builds_only_cycle_edges_and_entries(self, monkeypatch):
        built = []

        class CountedEdge(Edge):
            def __init__(self, *fields):
                built.append(fields[0])
                super().__init__(*fields)

        monkeypatch.setattr(digraph, "Edge", CountedEdge)
        for g, reported in [
            (helpers.planted_separated(1), lambda a: [e for c in a.cycles for e in c.edges]),
            (helpers.bouquet(5), lambda a: [e for c in a.cycles for e in c.edges]),
            (helpers.graph_loop_with_entry(), lambda a: [*(e for c in a.cycles for e in c.edges), *a.entries[0][1:]]),
        ]:
            g = parse_graph(graph_to_text(g))
            built.clear()
            assert len(g.edges) == len(g.edge_ids) and built == []
            report = check_condition_a(g)
            assert built == []  # the decision itself builds no edge; its views do
            edges = reported(report)
            assert sorted(built) == sorted({e.id for e in edges})
            # each is built once: a second decision's views reuse them
            reported(check_condition_a(g))
            assert len(built) == len(set(built))
            assert all(g.edges[g.edge_ids.index(e.id)] is e for e in edges)

    def test_indexing_matches_the_tuple(self):
        g = helpers.graph_three_cycle()
        edges = tuple(g.edges)
        assert [(e.id, e.src, e.rng) for e in edges] == [
            (eid, g.names[s], g.names[d]) for eid, s, d in zip(g.edge_ids, g.src, g.dst)
        ]
        for j in range(-len(edges), len(edges)):
            assert g.edges[j] is edges[j]
        assert g.edges[1:] == edges[1:] and g.edges[::-1] == edges[::-1]
        assert list(reversed(g.edges)) == list(reversed(edges))
        assert edges[1] in g.edges and g.edges.index(edges[2]) == 2
        with pytest.raises(IndexError):
            g.edges[len(edges)]


class TestReachability:
    def test_funnel_reach_sets(self):
        # a and b reach t and not each other: two loop components, and t on no cycle
        g = helpers.graph_two_loops_funnel()
        of = helpers.kernel_components(g)
        assert of.keys() == {"a", "b"} and of["a"] != of["b"]
        helpers.assert_components_match_reach(g, helpers.brute_reach(g))

    def test_matches_relational_composition(self):
        for g in small_corpus():
            helpers.assert_components_match_reach(g, helpers.brute_reach(g))


def flat_entries(runs):
    """Every (cycle, entry) pair of the runs, in run order."""
    return tuple((c, e) for c, run in runs for e in run)


def as_edges(result):
    """``entry_free_cycles``' cycles and runs with every rank mapped to its edge index through ``order``."""
    order, cycles, runs = result
    edge = order.__getitem__
    return (
        tuple(tuple(map(edge, c)) for c in cycles),
        tuple((k, tuple(map(edge, run))) for k, run in runs),
    )


def views(g: DiGraph):
    """``entry_free_cycles`` of ``g`` as objects: its report's ``cycles`` and ``runs``."""
    report = check_condition_a(g)
    return report.cycles, report.runs


@st.composite
def entry_free_forests(draw):
    """Validated graphs where condition A holds: up to five rings, then vertices below them.

    Each later vertex has one to three in-edges from earlier vertices, in its
    own tree or across from others, so it can be reached from several rings.
    Declaration order differs from construction order.
    """
    rng = draw(st.randoms(use_true_random=False))
    vertices: list[str] = []
    arcs: list[tuple[str, str]] = []
    for c in range(rng.randint(1, 5)):
        ring = [f"r{c}_{i}" for i in range(rng.randint(1, 3))]
        arcs += [(ring[k - 1], ring[k]) for k in range(len(ring))]
        vertices += ring
    for k in range(rng.randint(0, 12)):
        arcs += [(s, f"t{k}") for s in rng.sample(vertices, min(len(vertices), rng.randint(1, 3)))]
        vertices.append(f"t{k}")
    rng.shuffle(vertices)
    ids = [f"e{j:02d}" for j in range(len(arcs))]
    rng.shuffle(ids)
    return DiGraph.build(vertices, [(i, s, r) for i, (s, r) in zip(ids, arcs)])


def assert_masks_match_reach(g: DiGraph) -> None:
    """Bit i of ``masks[v]`` is set iff the i-th pointer cycle reaches v, by BFS."""
    cycles, masks = g.pointer_cycles
    assert len(masks) == len(g.names)
    reach = naive_reach_sets(g)
    for bit, arcs in enumerate(cycles):
        reached = reach[g.names[g.dst[arcs[0]]]]
        assert [bool(mask >> bit & 1) for mask in masks] == [v in reached for v in g.names]
    assert all(mask < 1 << len(cycles) for mask in masks)


class TestCycles:
    def test_funnel(self):
        cycles, runs = views(helpers.graph_two_loops_funnel())
        assert [c.edge_ids() for c in cycles] == [("La",), ("Lb",)]
        assert runs == ()

    def test_loop_with_entry(self):
        cycles, runs = views(helpers.graph_loop_with_entry())
        assert [c.edge_ids() for c in cycles] == [("La",), ("Lb",)]
        assert [(c.edge_ids(), e.id) for c, e in flat_entries(runs)] == [(("La",), "e")]

    def test_three_cycle(self):
        cycles, runs = views(helpers.graph_three_cycle())
        assert [c.edge_ids() for c in cycles] == [("c1", "c3", "c2")]
        assert runs == ()

    def test_parallel_loops_enter_each_other(self):
        g = DiGraph.build(["a"], [("p", "a", "a"), ("q", "a", "a")])
        cycles, runs = views(g)
        assert [c.edge_ids() for c in cycles] == [("p",), ("q",)]
        assert {(c.edge_ids(), e.id) for c, e in flat_entries(runs)} == {
            (("p",), "q"),
            (("q",), "p"),
        }

    def test_entries_ordered_by_cycle_then_entry_id(self):
        # reference: every (cycle, entry) pair by definition, in one global sort
        rng = random.Random(5)
        graphs = [*helpers.corpus_slice(), helpers.complete_graph(5), helpers.bouquet(12)]
        for g in graphs[-152:]:
            # edge ids in an order unrelated to the edge order
            ids = [f"x{i:02d}" for i in range(len(g.edges))]
            rng.shuffle(ids)
            graphs.append(DiGraph.build(g.vertices, [(i, e.src, e.rng) for i, e in zip(ids, g.edges)]))
        listed = 0
        for g in graphs:
            cycles, runs = views(g)
            pairs = [
                (c, e)
                for c in cycles
                for e in g.edges
                if e not in c.edges and e.rng in c.vertices
            ]
            pairs.sort(key=lambda pair: (pair[0].sort_key(), pair[1].id))
            assert flat_entries(runs) == tuple(pairs)
            assert all(run for _, run in runs)
            listed += len(pairs)
        assert listed > 1000

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_complete_graph_runs(self, n):
        # past the oracle's reach: K_n has C(n, k) (k - 1)! cycles of length k,
        # and each of the k vertices of one has n - 2 in-edges off it
        g = helpers.complete_graph(n)
        report = check_condition_a(g)
        cycles, runs = report.cycles, report.runs
        assert len(cycles) == sum(comb(n, k) * factorial(k - 1) for k in range(2, n + 1))
        assert [c.sort_key() for c in cycles] == sorted(c.sort_key() for c in cycles)
        # every cycle has entries, so there is one run per cycle, in cycle order
        assert [c for c, _ in runs] == list(cycles)
        for c, run in runs:
            ids = [e.id for e in run]
            assert len(run) == len(c) * (n - 2)
            assert ids == sorted(set(ids))
            assert all(e.rng in c.vertices and e not in c.edges for e in run)
        assert len(report.entries) == sum(len(run) for _, run in runs)
        # the rank form the views are built from
        assert report.cycle_edges == as_edges(entry_free_cycles(g))[0]
        assert [k for k, _ in report.run_ranks] == list(range(len(cycles)))

    def test_entries_sharing_an_id_with_a_cycle_edge(self):
        # an unvalidated bouquet of two loops with one id: each loop enters the
        # other, so condition A fails although every entry's id is a cycle's
        g = parse_graph_text("v a\ne L a a\ne L a a\n")
        assert as_edges(entry_free_cycles(g)) == (((0,), (1,)), ((0, (1,)), (1, (0,))))
        report = check_condition_a(g)
        assert not report.passed
        (first, entry_of_first), (second, entry_of_second) = report.entries
        assert first.edges[0] is entry_of_second is g.edges[0]
        assert second.edges[0] is entry_of_first is g.edges[1]

    def test_repeated_ids_on_entry_free_cycles_rank_by_index(self):
        # the walk finds the loops "x" as edges 1, 0, 2 and the ring's edges
        # "u" as 4, 3: ties in id still rank by edge index
        g = DiGraph.build(
            ["a", "b", "c", "d", "e", "f"],
            [("x", "b", "b"), ("x", "a", "a"), ("x", "c", "c")]
            + [("u", "e", "f"), ("u", "d", "e"), ("v", "f", "d")],
        )
        assert g.pointer_cycles[0] == [(1,), (0,), (2,), (4, 3, 5)]
        assert as_edges(entry_free_cycles(g)) == index_route(g) == (((0,), (1,), (2,), (3, 4, 5)), ())

    def test_runs_skip_cycles_without_entries(self):
        # the funnel's loops have no entries; the loop at b enters nothing
        assert entry_free_cycles(helpers.graph_two_loops_funnel())[2] == ()
        _, runs = views(helpers.graph_loop_with_entry())
        ((cycle, run),) = runs
        assert (cycle.edge_ids(), [e.id for e in run]) == (("La",), ["e"])

    def test_kernel_cycles_are_validated(self, monkeypatch):
        # a cycle from the kernel runs every CycleRep check; the kernel's arcs
        # are ranks, and p, x and y rank 0, 1 and 2
        g = DiGraph.build(["a", "b"], [("x", "a", "b"), ("y", "b", "a"), ("p", "a", "a")])
        assert entry_free_cycles(g)[0] == (2, 0, 1)
        cases = [((), "at least one edge"), ((1,), "close"), ((0, 0), "not simple"), ((1, 1), "compose")]
        # y then x is a cycle in path order, which must start at x, its least rank
        cases.append(((2, 1), "least rank"))
        for arcs, message in cases:
            monkeypatch.setattr(_kernels, "simple_cycles", lambda *_, arcs=arcs: [arcs])
            with pytest.raises(ValueError, match=message):
                entry_free_cycles(g)

    def test_entries_of_a_hub_cost_the_output(self):
        # a looped hub entered by n looped leaves: n + 1 cycles and n entries,
        # found without a list of the hub's other in-edges per in-edge
        n = 3000
        leaves = [f"v{i}" for i in range(n)]
        edges = [("h", "hub", "hub")]
        edges += [(f"l{i}", v, v) for i, v in enumerate(leaves)]
        edges += [(f"x{i}", v, "hub") for i, v in enumerate(leaves)]
        g = DiGraph.build(["hub", *leaves], edges)
        tracemalloc.start()
        try:
            result = entry_free_cycles(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cycles, runs = as_edges(result)
        assert len(cycles) == n + 1
        ((k, entries),) = runs
        assert cycles[k] == (0,) and sorted(entries) == list(range(n + 1, 2 * n + 1))
        assert peak < 8 * 2**20  # n**2 list items would take 72 MB

    def test_pointer_cycles(self):
        # the funnel's loops are its pointer cycles, with bits 1 and 2, and both reach t
        assert helpers.graph_two_loops_funnel().pointer_cycles == ([(0,), (1,)], [1, 2, 3])
        # a's first in-edge is its loop, and e enters it
        assert helpers.graph_loop_with_entry().pointer_cycles is None
        # a cycle the peel leaves: the pointers of x and y run back to the source s
        g = DiGraph.build(["s", "x", "y"], [("a", "s", "x"), ("b", "x", "y"), ("c", "y", "x")])
        assert g.pointer_cycles is None
        # undeclared endpoints and a repeated id are peel sources, and no cycle
        # reaches them; nothing follows a missing pointer
        g = DiGraph.build(["a", "a", "b"], [("L", "a", "a"), ("f", "a", "z"), ("h", "w", "b")])
        assert g.names == ("a", "a", "b", "w", "z")
        assert g.pointer_cycles == ([(0,)], [1, 0, 0, 0, 1])

    @settings(max_examples=100, deadline=timedelta(seconds=2), derandomize=True)
    @given(entry_free_forests())
    def test_masks_are_the_cycles_reaching_each_vertex(self, g):
        assert not validate_graph(g)
        assert_masks_match_reach(g)

    def test_masks_past_a_machine_word(self):
        # 70 cycles with trees below them and cross edges between the trees
        g = helpers.planted_separated(4, n=300, k=70, chain=10)
        assert_masks_match_reach(g)
        _, masks = g.pointer_cycles
        assert any(mask >> 64 and mask & (mask - 1) for mask in masks)

    def test_entry_free_iff_unit_in_degree_on_cycles(self):
        # an entry is exactly a second edge into some cycle vertex
        rings = helpers.disjoint_rings(300, 5)
        graphs = [*small_corpus(), helpers.complete_graph(5), helpers.bouquet(12), rings]
        for g in graphs:
            degrees = Counter(e.rng for e in g.edges)
            on_cycles = {g.edge_by_id[i].rng for ids in naive_simple_cycles(g) for i in ids}
            expected = all(degrees[v] == 1 for v in on_cycles)
            assert check_condition_a(g).passed == expected
        assert check_condition_a(rings).passed and len(check_condition_a(rings).cycles) == 300


def kernel_route(g: DiGraph):
    """The report's ``cycles`` and ``runs`` by the kernel's search, with the entries taken from the definition.

    A cycle's entries are the edges into its vertices that are not its own,
    told apart by edge index.
    """
    into: dict[int, list[int]] = {}  # per vertex, the indices of its in-edges
    for j, d in enumerate(g.dst):
        into.setdefault(d, []).append(j)
    found = []
    cycles = helpers.graph_kernel_cycles(g)  # edges ranked by index
    helpers.assert_canonical(list(zip(g.src, g.dst)), cycles)  # each once, in path order, least first
    for arcs in cycles:
        found.append((CycleRep(tuple(g.edges.at(arcs))), arcs))
    found.sort(key=lambda pair: pair[0].sort_key())
    runs = []
    for c, arcs in found:
        entries = [j for a in arcs for j in into[g.dst[a]] if j not in arcs]
        run = sorted(g.edges.at(entries), key=attrgetter("id"))
        if run:
            runs.append((c, tuple(run)))
    return tuple(c for c, _ in found), tuple(runs)


@st.composite
def decided_graphs(draw):
    """Graphs on up to 7 declared vertices: entry-free, sparse or dense, some unvalidated.

    Entry-free graphs are rings with vertices hanging below them, each with
    zero to two in-edges from earlier vertices, so some are sources.  The
    unvalidated ones also repeat a vertex id, or have undeclared endpoints,
    which sparse and dense graphs may put on cycles.
    """
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["entry-free", "sparse", "dense"]))
    vertices = [f"v{i}" for i in range(rng.randint(1, 7))]
    if kind == "dense":
        arcs = [(s, r) for s in vertices for r in vertices if rng.random() < 0.8]
    elif kind == "sparse":
        size = rng.randint(0, 2 * len(vertices))
        arcs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(size)]
    else:
        ring = vertices[: rng.randint(1, len(vertices))]
        arcs = [(ring[k - 1], ring[k]) for k in range(len(ring))]
        for k in range(len(ring), len(vertices)):
            arcs += [(rng.choice(vertices[:k]), vertices[k]) for _ in range(rng.randint(0, 2))]
    if draw(st.booleans()):
        vertices.append(rng.choice(vertices))
        if kind == "entry-free":
            arcs += [("x0", rng.choice(vertices)), (rng.choice(vertices), "x1")]
        else:
            ends = vertices + ["x0", "x1"]
            arcs += [(rng.choice(ends), rng.choice(ends)) for _ in range(3)]
    ids = [f"e{j:02d}" for j in range(len(arcs))]
    rng.shuffle(ids)
    return DiGraph.build(vertices, [(i, s, r) for i, (s, r) in zip(ids, arcs)])


def index_route(g: DiGraph):
    """``entry_free_cycles`` by its definition on edge indices, for any graph.

    An edge ranks by (id, index), so repeated ids rank apart.  Each simple
    cycle is grown once, in path order, from its least edge: each step adds an
    edge of higher rank into the tail of the last one, until the path closes
    or would repeat a vertex.  Its entries are the other edges into its vertices.
    """
    rank = [(eid, j) for j, eid in enumerate(g.edge_ids)]
    into: dict[int, list[int]] = {}
    for j, d in enumerate(g.dst):
        into.setdefault(d, []).append(j)
    found = []

    def grow(path: list[int], heads: set[int]) -> None:
        tail = g.src[path[-1]]
        if tail == g.dst[path[0]]:
            found.append(tuple(path))
        elif tail not in heads:
            for j in into.get(tail, ()):
                if rank[j] > rank[path[0]]:
                    grow(path + [j], heads | {tail})

    for j in range(len(g.edge_ids)):
        grow([j], {g.dst[j]})
    found.sort(key=lambda c: (len(c), [rank[j] for j in c]))
    runs = []
    for k, c in enumerate(found):
        on_cycle = {g.dst[j] for j in c}
        entries = [j for j in range(len(g.dst)) if j not in c and g.dst[j] in on_cycle]
        if entries:
            runs.append((k, tuple(sorted(entries, key=rank.__getitem__))))
    return tuple(found), tuple(runs)


@st.composite
def multigraphs(draw):
    """Graphs on up to 7 declared vertices with loops and parallel edges, some unvalidated.

    Sparse or dense.  The unvalidated ones repeat a vertex id, have
    undeclared endpoints, or repeat edge ids, also along one cycle.
    """
    rng = draw(st.randoms(use_true_random=False))
    vertices = [f"v{i}" for i in range(rng.randint(1, 7))]
    density = draw(st.sampled_from([0.15, 0.4, 0.6]))
    arcs = [(s, r) for s in vertices for r in vertices if rng.random() < density]
    arcs += rng.sample(arcs, min(len(arcs), draw(st.integers(0, 3))))  # parallel edges
    ids = [f"e{j:02d}" for j in range(len(arcs))]
    rng.shuffle(ids)
    flaws = draw(st.sets(st.sampled_from(["vertex", "endpoint", "edge"])))
    if "vertex" in flaws:
        vertices.append(rng.choice(vertices))
    if "endpoint" in flaws:
        ends = vertices + ["x0", "x1"]
        arcs += [(rng.choice(ends), rng.choice(ends)) for _ in range(3)]
        ids += ["x2", "x3", "x4"]
    if "edge" in flaws and len(ids) > 1:
        ids = [rng.choice(ids[:3]) if rng.random() < 0.3 else i for i in ids]
    return DiGraph.build(vertices, [(i, s, r) for i, (s, r) in zip(ids, arcs)])


class TestRoutes:
    @settings(max_examples=300, deadline=timedelta(seconds=2), derandomize=True)
    @given(decided_graphs())
    def test_pointer_route_matches_the_kernel_route(self, g):
        cycles, runs = views(g)
        assert (cycles, runs) == kernel_route(g)
        if len(g.names) == len(g.vertices):  # every endpoint is declared
            naive = naive_simple_cycles(g)
            assert {c.edge_ids() for c in cycles} == naive
            assert {(c.edge_ids(), e.id) for c, e in flat_entries(runs)} == naive_entries(g, naive)

    @settings(max_examples=200, deadline=timedelta(seconds=5), derandomize=True)
    @given(multigraphs())
    def test_index_form_matches_the_definition(self, g):
        report = check_condition_a(g)
        assert (report.cycle_edges, report.run_edges) == index_route(g)
        # order ranks the edges into cycle vertices by (id, index): the cycle
        # edges and their entries, so only the cycle edges when condition A holds
        keys = [(g.edge_ids[j], j) for j in report.order]
        assert keys == sorted(keys)
        on_cycles = {g.dst[j] for j in chain.from_iterable(report.cycle_edges)}
        assert sorted(report.order) == [j for j, d in enumerate(g.dst) if d in on_cycles]
        if report.passed:
            assert sorted(report.order) == sorted(chain.from_iterable(report.cycle_edges))
        # the views are the same cycles and entries as objects
        assert [c.edges for c in report.cycles] == [tuple(g.edges.at(c)) for c in report.cycle_edges]
        assert all(CycleRep(c.edges) == c for c in report.cycles)
        assert [(c, run) for c, run in report.runs] == [
            (report.cycles[k], tuple(g.edges.at(run))) for k, run in report.run_edges
        ]
        assert report.passed == (not report.entries)
        if len(g.names) == len(g.vertices):  # every endpoint is declared
            cycle_ids = {c.edge_ids() for c in report.cycles}
            # a cycle that repeats an id has no one canonical rotation by ids
            if all(len(set(ids)) == len(ids) for ids in cycle_ids):
                assert cycle_ids == naive_simple_cycles(g)
            if len(set(g.edge_ids)) == len(g.edge_ids):
                assert {(c.edge_ids(), e.id) for c, e in report.entries} == naive_entries(g)


class TestSearchBound:
    """The cycle search rooted at each edge costs O((V + E)(C + 1)) for C cycles."""

    @pytest.mark.parametrize("falling", [False, True], ids=["rising", "falling"])
    def test_ring_with_an_entry(self, falling):
        # edge ids rising or falling along a ring of 20,000 vertices, and one
        # entry: a search from every edge that never split the ring again would
        # cost the square of its length, minutes
        n = 20_000
        ids = [f"r{n - 1 - i if falling else i:05d}" for i in range(n)]
        ring = [(ids[i], f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
        g = DiGraph.build([f"v{i}" for i in range(n)] + ["x"], ring + [("x", "x", "v0")])
        start = perf_counter()
        report = check_condition_a(g)
        elapsed = perf_counter() - start
        (cycle,) = report.cycle_ids()
        assert sorted(cycle) == sorted(ids) and cycle[0] == min(ids)
        assert [(c.edge_ids(), e.id) for c, e in report.entries] == [(cycle, "x")]
        assert elapsed < 5.0

    def test_loops_above_a_long_chain_rank_three_edges(self):
        # README's example: a loop with an entry and a second loop, above a
        # chain of 100,000 vertices; only the edges into the loops' vertices rank
        g = helpers.two_loop_chain(100_000)
        g = DiGraph.build(g.vertices, [*g.edges, ("x", "q", "p")])
        report = check_condition_a(g)
        assert [g.edge_ids[j] for j in report.order] == ["Lp", "Lq", "x"]
        assert report.cycle_ids() == [("Lp",), ("Lq",)]
        assert [(c.edge_ids(), e.id) for c, e in report.entries] == [(("Lp",), "x")]

    def test_complete_graph_on_eight_vertices(self):
        # K8: sum over k of C(8, k) (k - 1)! cycles, each vertex of a k-cycle entered 6 times
        order, cycles, runs = entry_free_cycles(helpers.complete_graph(8))
        assert len(cycles) == 16_064
        assert sum(len(run) for _, run in runs) == 657_552
        assert all(c[0] == min(c) for c in cycles)


class TestCycleRep:
    def test_canonical_rotation(self):
        g = helpers.graph_three_cycle()
        c1, c2, c3 = (g.edge_by_id[i] for i in ("c1", "c2", "c3"))
        reps = {CycleRep(rot) for rot in [(c1, c3, c2), (c3, c2, c1), (c2, c1, c3)]}
        assert len(reps) == 1
        assert reps.pop().edge_ids() == ("c1", "c3", "c2")

    def test_rejects_non_simple(self):
        with pytest.raises(ValueError, match="not simple"):
            CycleRep((Edge("p", "a", "a"), Edge("q", "a", "a")))

    def test_rejects_open_chain(self):
        with pytest.raises(ValueError, match="close"):
            CycleRep((Edge("f", "a", "t"),))

    def test_rejects_non_composable(self):
        with pytest.raises(ValueError, match="compose"):
            CycleRep((Edge("x", "a", "b"), Edge("y", "c", "b")))

    def test_sort_key_orders_by_length_then_ids(self):
        g = helpers.graph_three_cycle()
        long_cycle = CycleRep(tuple(g.edge_by_id[i] for i in ("c1", "c3", "c2")))
        short = CycleRep((Edge("z", "a", "a"),))
        assert short.sort_key() < long_cycle.sort_key()

